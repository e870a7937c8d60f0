"""G/G/c queueing simulation of the SyncService pool.

The paper models each synchronization server as a G/G/1 queue fed from a
single shared request queue (Fig 5) — which, for the pool as a whole, is
the classic central-queue multi-server system.  :class:`ServerPool`
simulates it event-by-event on the DES kernel:

* an arrival starts service immediately when a server slot is free,
  otherwise waits FIFO in the shared queue;
* service times are drawn from a Gamma distribution with the configured
  mean and variance (Gamma is the standard maximum-entropy-ish choice for
  positive service times and lets us hit the paper's (s, σ_b²) exactly);
* capacity changes take effect immediately for scale-up (new instances
  start draining the queue) and gracefully for scale-down (busy servers
  finish their current request; the slot then disappears), matching how
  the Supervisor activates and passivates SyncService instances;
* an optional ``spawn_delay`` models instance start-up time, producing
  the short response-time spikes the paper observes at scaling moments.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.simulation.des import EventLoop


class ServiceTimeDistribution:
    """Gamma service times with exact mean/variance (Table 3 defaults)."""

    def __init__(
        self,
        mean: float = 0.050,
        variance: float = 200e-6,
        rng: Optional[random.Random] = None,
    ):
        if mean <= 0:
            raise ValueError("mean service time must be positive")
        if variance < 0:
            raise ValueError("variance must be non-negative")
        self.mean = mean
        self.variance = variance
        self._rng = rng if rng is not None else random.Random(0xD15C)
        if variance > 0:
            self._shape = mean * mean / variance
            self._scale = variance / mean
        else:
            self._shape = None
            self._scale = None

    def sample(self) -> float:
        if self._shape is None:
            return self.mean
        return self._rng.gammavariate(self._shape, self._scale)


@dataclass(frozen=True)
class CompletedRequest:
    """One serviced request, for response-time analysis."""

    arrived_at: float
    started_at: float
    completed_at: float

    @property
    def response_time(self) -> float:
        return self.completed_at - self.arrived_at


class ServerPool:
    """Central-queue G/G/c pool with dynamic capacity."""

    def __init__(
        self,
        loop: EventLoop,
        service_times: ServiceTimeDistribution,
        initial_capacity: int = 1,
        spawn_delay: float = 0.0,
        max_recorded: int = 2_000_000,
    ):
        self.loop = loop
        self.service_times = service_times
        self.capacity = max(0, initial_capacity)
        self.spawn_delay = max(0.0, spawn_delay)
        self.busy = 0
        self._queue: Deque[float] = deque()  # arrival timestamps
        self.completed: List[CompletedRequest] = []
        self._max_recorded = max_recorded
        self.total_arrivals = 0
        self.total_completed = 0
        self.dropped_records = 0
        self.on_completion: Optional[Callable[[CompletedRequest], None]] = None
        # Crash modeling: tokens of in-flight services; a crashed token's
        # completion event is ignored and its request re-queued (the MOM's
        # at-least-once redelivery, §3.4).
        self._service_seq = 0
        self._in_flight: dict = {}  # token -> arrival timestamp
        self._cancelled: set = set()
        self.crash_count = 0
        self.redelivered_count = 0

    # -- workload ----------------------------------------------------------------

    def arrive(self) -> None:
        """One request arrives now."""
        self.total_arrivals += 1
        now = self.loop.now
        if self.busy < self.capacity:
            self._start_service(arrived_at=now)
        else:
            self._queue.append(now)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- capacity ------------------------------------------------------------------

    def set_capacity(self, capacity: int) -> None:
        """Change the pool size; scale-ups may be delayed by spawn_delay."""
        capacity = max(0, capacity)
        if capacity > self.capacity and self.spawn_delay > 0:
            added = capacity - self.capacity

            def activate() -> None:
                self.capacity += added
                self._drain()

            self.loop.schedule(self.spawn_delay, activate)
        else:
            self.capacity = capacity
            self._drain()

    def _drain(self) -> None:
        while self._queue and self.busy < self.capacity:
            self._start_service(arrived_at=self._queue.popleft())

    # -- service -------------------------------------------------------------------

    def _start_service(self, arrived_at: float) -> None:
        self.busy += 1
        started_at = self.loop.now
        service_time = self.service_times.sample()
        self._service_seq += 1
        token = self._service_seq
        self._in_flight[token] = arrived_at

        def complete() -> None:
            if token in self._cancelled:
                # The serving instance crashed mid-request: the completion
                # never happens; the request was already redelivered.
                self._cancelled.discard(token)
                return
            self._in_flight.pop(token, None)
            self.busy -= 1
            self.total_completed += 1
            record = CompletedRequest(
                arrived_at=arrived_at,
                started_at=started_at,
                completed_at=self.loop.now,
            )
            if len(self.completed) < self._max_recorded:
                self.completed.append(record)
            else:
                self.dropped_records += 1
            if self.on_completion is not None:
                self.on_completion(record)
            self._drain()

        self.loop.schedule(service_time, complete)

    # -- fault injection ---------------------------------------------------------------

    def crash_one_server(self, recovery_delay: float = 0.0) -> bool:
        """One instance dies abruptly (§3.4 / Fig 8f semantics).

        Capacity drops by one; if the instance was serving a request, that
        request is re-queued at the head with its *original* arrival time
        (at-least-once redelivery — its eventual response time includes
        the crash detour).  After *recovery_delay* the Supervisor's
        replacement instance comes up and capacity is restored.

        Returns False when there is no capacity left to crash.
        """
        if self.capacity <= 0:
            return False
        self.capacity -= 1
        self.crash_count += 1
        in_flight = self._in_flight
        if self.busy > 0 and in_flight:
            # The crashed server was busy: cancel its in-flight request
            # and redeliver it.
            token, arrived_at = next(iter(in_flight.items()))
            del in_flight[token]
            self._cancelled.add(token)
            self.busy -= 1
            self._queue.appendleft(arrived_at)
            self.redelivered_count += 1
        if recovery_delay > 0:

            def recover() -> None:
                self.capacity += 1
                self._drain()

            self.loop.schedule(recovery_delay, recover)
        return True

    # -- analysis --------------------------------------------------------------------

    def response_times(self) -> List[Tuple[float, float]]:
        """(completion time, response time) pairs."""
        return [(r.completed_at, r.response_time) for r in self.completed]


def poisson_arrival_times(
    counts_per_second: List[float],
    rng: Optional[random.Random] = None,
    start: float = 0.0,
) -> List[float]:
    """Expand per-second arrival counts into uniform arrival instants."""
    rng = rng if rng is not None else random.Random(0xA77)
    times: List[float] = []
    for second, count in enumerate(counts_per_second):
        base = start + second
        n = int(count)
        for _ in range(n):
            times.append(base + rng.random())
    times.sort()
    return times
