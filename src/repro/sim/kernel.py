"""Discrete-event simulation kernel.

Every component of the reproduced control stack (processors, scheduler,
AWG, DAQ, QPU) advances simulated time by scheduling callbacks on a shared
:class:`SimKernel`.  Time is kept in *nanoseconds* as an integer so that the
100 MHz control-processor clock (10 ns period) and analog latencies compose
without floating-point drift.

The queue is one binary heap of plain ``(time, seq, callback, args)``
tuples.  ``seq`` counts schedule calls, so events fire by time and then
in the order they were scheduled: a deterministic total order that keeps
every simulation reproducible for a fixed seed.  ``seq`` is unique, so
tuple comparison never reaches the callback.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised when the kernel is used inconsistently (e.g. scheduling in
    the past) or a run exceeds its event budget."""


class SimKernel:
    """Discrete-event scheduler over one heap.

    >>> kernel = SimKernel()
    >>> fired = []
    >>> kernel.schedule(5, fired.append, 'a')
    >>> kernel.schedule(3, fired.append, 'b')
    >>> kernel.run()
    >>> (fired, kernel.now)
    (['b', 'a'], 5)
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._now = 0
        self._events_processed = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events scheduled and not yet dispatched.  An event is off the
        queue when its callback runs, so this is 0 inside the last one."""
        return len(self._heap)

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        heapq.heappush(self._heap, (self._now + int(delay), next(self._seq),
                                    callback, args))

    def schedule_at(self, time: int, callback: Callable[..., None],
                    *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time`` ns."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}")
        heapq.heappush(self._heap, (int(time), next(self._seq), callback,
                                    args))

    def run(self, max_events: int | None = None) -> None:
        """Dispatch events until the queue drains.

        ``max_events`` bounds the number of dispatches of this call and
        raises :class:`SimulationError` when exhausted (a guard against
        accidental infinite feedback loops in processor models).
        """
        heap, pop = self._heap, heapq.heappop
        dispatched = 0
        while heap:
            if max_events is not None and dispatched >= max_events:
                raise SimulationError(
                    f"event budget of {max_events} exhausted at t={self._now}")
            dispatched += 1
            self._now, _seq, callback, args = pop(heap)
            self._events_processed += 1
            callback(*args)
