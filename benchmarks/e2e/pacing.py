"""Load generation: open-loop schedule, closed-loop window, completion ledger.

One generator thread issues every operation; "in flight" means casts whose
notification has not yet reached its last listener, not threads.  Completion
is signalled by the listener threads through a condition variable, so
nothing here polls.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator, List, Optional, Tuple


class OpenLoop:
    """Fixed-rate schedule: operation ``i`` is due at ``start + i / rate``.

    The schedule never slips: a stall delays the operations behind it, and
    because callers time each operation from its due time that delay counts
    against the system, not the generator.  ``late`` records, per operation,
    how long after its due time the generator released it — the generator's
    own share of any lateness.

    ``sleep`` only, never a spin: a spinning generator would hold the
    interpreter lock against the threads it is measuring.
    """

    def __init__(
        self,
        rate: float,
        count: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.period = 1.0 / rate
        self.count = count
        self.late: List[float] = []
        self._clock = clock
        self._sleep = sleep

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        start = self._clock()
        for index in range(self.count):
            due = start + index * self.period
            delay = due - self._clock()
            if delay > 0:
                self._sleep(delay)
            self.late.append(max(0.0, self._clock() - due))
            yield index, due


class Ledger:
    """Start and completion time of every operation of one phase.

    The generator calls :meth:`issue` before each cast; listener threads
    call :meth:`arrived` once per notification.  An operation completes
    when its last expected notification arrives, which frees one slot of
    the closed-loop window (when there is one) and wakes :meth:`drain`.
    """

    def __init__(self, listeners_per_op: int, window: Optional[int] = None):
        self._expected = listeners_per_op
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._window = threading.Semaphore(window) if window else None
        self.started: List[float] = []
        self.done: List[float] = []
        self._left: List[int] = []
        self.rejected = 0
        self._outstanding = 0

    def acquire_slot(self, timeout: float) -> bool:
        """Block until the window has room; False when it never freed."""
        if self._window is None:
            return True
        return self._window.acquire(timeout=timeout)

    def issue(self, started: float) -> int:
        with self._lock:
            self.started.append(started)
            self.done.append(0.0)
            self._left.append(self._expected)
            self._outstanding += 1
            return len(self.started) - 1

    def arrived(self, index: int, now: float, confirmed: bool) -> None:
        with self._lock:
            if not confirmed:
                self.rejected += 1
            self._left[index] -= 1
            if self._left[index] != 0:
                return
            self.done[index] = now
            self._outstanding -= 1
            if self._outstanding == 0:
                self._idle.notify_all()
        if self._window is not None:
            self._window.release()

    def drain(self, timeout: float) -> bool:
        """Wait until every issued operation completed; False on timeout."""
        deadline = time.perf_counter() + timeout
        with self._lock:
            while self._outstanding:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    def latencies(self) -> List[float]:
        """Seconds from start to completion of every completed operation."""
        return [
            done - started
            for started, done, left in zip(self.started, self.done, self._left)
            if left <= 0
        ]

    def incomplete(self) -> int:
        return sum(1 for left in self._left if left > 0)

    def miscounted(self) -> int:
        """Operations that got more notifications than they have listeners."""
        return sum(1 for left in self._left if left < 0)
