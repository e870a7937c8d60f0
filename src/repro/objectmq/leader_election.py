"""Supervisor failover via leader election among Brokers (§3.4).

"Whenever the actual Supervisor crashes, a leader-election algorithm will
be called using the unique identifier of the Brokers."

Mechanics, kept deliberately simple and MOM-native:

* the live Supervisor multicasts heartbeats on the fanout exchange
  ``omq.supervisor.heartbeat``;
* every participant (normally a RemoteBroker host) subscribes a private
  queue to that exchange and tracks the last heartbeat;
* on heartbeat timeout, a participant multicasts its candidate id on
  ``omq.supervisor.election``; every participant that sees an election in
  progress joins with its own id;
* after a settle window, the *smallest* id among the observed candidates
  wins; the winner invokes its ``on_elected`` callback (which typically
  constructs and starts a new Supervisor) and resumes heartbeating.

The deterministic min-id rule means all participants agree without extra
rounds, at the price of a potential duplicated supervisor under message
loss — acceptable because Supervisor actions are reconciliations
(idempotent against the census), mirroring the paper's pragmatic stance.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Callable, Optional, Set

from repro.mom.message import Delivery, Message

HEARTBEAT_EXCHANGE = "omq.supervisor.heartbeat"
ELECTION_EXCHANGE = "omq.supervisor.election"


class HeartbeatEmitter:
    """Publishes supervisor liveness beacons on the heartbeat fanout."""

    def __init__(self, mom, supervisor_id: str, interval: float = 1.0):
        self.mom = mom
        self.supervisor_id = supervisor_id
        self.interval = interval
        self.mom.declare_exchange(HEARTBEAT_EXCHANGE, "fanout")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def beat(self) -> None:
        """Publish a single heartbeat (call from the supervisor's step)."""
        body = self.supervisor_id.encode("utf-8")
        try:
            self.mom.publish(HEARTBEAT_EXCHANGE, "", Message(body))
        except Exception:  # no subscribers yet: harmless
            pass

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="sup-heartbeat", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()


class LeaderElector:
    """One participant in the supervisor-failover election."""

    def __init__(
        self,
        mom,
        participant_id: Optional[str] = None,
        heartbeat_timeout: float = 3.0,
        settle_window: float = 0.5,
        on_elected: Optional[Callable[[], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.mom = mom
        self.participant_id = participant_id or uuid.uuid4().hex
        self.heartbeat_timeout = heartbeat_timeout
        self.settle_window = settle_window
        self.on_elected = on_elected
        self.clock = clock

        self._lock = threading.Lock()
        self._last_heartbeat: float = clock()
        self._candidates: Set[str] = set()
        self._election_started_at: Optional[float] = None
        self.is_leader = False

        self._hb_queue = f"hb.{self.participant_id}"
        self._el_queue = f"el.{self.participant_id}"
        mom.declare_exchange(HEARTBEAT_EXCHANGE, "fanout")
        mom.declare_exchange(ELECTION_EXCHANGE, "fanout")
        mom.declare_queue(self._hb_queue, exclusive=True)
        mom.declare_queue(self._el_queue, exclusive=True)
        mom.bind_queue(HEARTBEAT_EXCHANGE, self._hb_queue)
        mom.bind_queue(ELECTION_EXCHANGE, self._el_queue)
        # Auto-ack: both handlers may run on the publishing thread (a
        # heartbeat emitter, a peer's elector, this elector's own
        # announcement), so they hold self._lock only briefly and publish
        # outside it.
        mom.consume(self._hb_queue, self._on_heartbeat, f"hbc.{self.participant_id}", auto_ack=True)
        mom.consume(self._el_queue, self._on_candidate, f"elc.{self.participant_id}", auto_ack=True)

        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- message handlers --------------------------------------------------------

    def _on_heartbeat(self, delivery: Delivery) -> None:
        with self._lock:
            self._last_heartbeat = self.clock()
            # A live supervisor cancels any election in progress.
            self._election_started_at = None
            self._candidates.clear()

    def _on_candidate(self, delivery: Delivery) -> None:
        candidate = delivery.message.body.decode("utf-8")
        announce = False
        with self._lock:
            if (
                self._election_started_at is None
                and self.clock() - self._last_heartbeat <= self.heartbeat_timeout
            ):
                # A candidacy while the supervisor looks alive is noise —
                # typically the delayed fanout echo of an election a
                # heartbeat already cancelled.  Don't (re)join.
                return
            self._candidates.add(candidate)
            if self._election_started_at is None:
                # Someone else started an election; join it.
                self._election_started_at = self.clock()
                announce = True
        if announce:
            self._announce_candidacy()

    def _announce_candidacy(self) -> None:
        body = self.participant_id.encode("utf-8")
        try:
            self.mom.publish(ELECTION_EXCHANGE, "", Message(body))
        except Exception:
            pass

    # -- state machine -----------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> None:
        """Advance the failure-detector/election state machine one step."""
        now = self.clock() if now is None else now
        start_election = False
        decide = False
        with self._lock:
            if self.is_leader:
                return
            if self._election_started_at is None:
                if now - self._last_heartbeat > self.heartbeat_timeout:
                    self._election_started_at = now
                    self._candidates.add(self.participant_id)
                    start_election = True
            elif now - self._election_started_at >= self.settle_window:
                decide = True
        if start_election:
            self._announce_candidacy()
        if decide:
            self._decide(now)

    def _decide(self, now: float) -> None:
        with self._lock:
            candidates = set(self._candidates) | {self.participant_id}
            winner = min(candidates)
            self._election_started_at = None
            self._candidates.clear()
            self._last_heartbeat = now  # fresh grace period either way
            if winner != self.participant_id:
                return
            self.is_leader = True
        if self.on_elected is not None:
            self.on_elected()

    # -- background operation ------------------------------------------------------

    def start(self, poll_interval: float = 0.2) -> None:
        if self._thread is not None:
            return
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(poll_interval):
                self.tick()

        self._thread = threading.Thread(target=run, name=f"elector-{self.participant_id[:6]}", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        for queue, tag in (
            (self._hb_queue, f"hbc.{self.participant_id}"),
            (self._el_queue, f"elc.{self.participant_id}"),
        ):
            try:
                self.mom.cancel(queue, tag)
                self.mom.delete_queue(queue)
            except Exception:
                pass
