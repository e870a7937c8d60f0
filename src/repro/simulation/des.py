"""Discrete-event simulation core: clock + event heap.

A minimal, dependency-free DES kernel: events are (time, seq, callback)
tuples on a heap; ``run_until`` drains them in order.  The auto-scaling
experiments build a G/G/c queueing simulation on top of it
(:mod:`repro.simulation.server`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class EventLoop:
    """Monotonic simulated clock with an ordered event queue."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* after *delay* simulated seconds."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute simulated time *when*."""
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (when, next(self._seq), callback))

    def run_until(self, end_time: Optional[float] = None) -> float:
        """Process events until the heap drains or *end_time* is reached.

        Returns the final clock value.  The clock advances to *end_time*
        even if the heap drains earlier.
        """
        while self._heap:
            when, _seq, callback = self._heap[0]
            if end_time is not None and when > end_time:
                break
            heapq.heappop(self._heap)
            self.now = when
            callback()
        if end_time is not None:
            self.now = max(self.now, end_time)
        return self.now
