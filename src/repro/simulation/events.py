"""Virtual clock and discrete-event queue.

The simulation advances time only when events fire; computation and message
transfers are modelled by scheduling their completion at
``now + duration``.  Events scheduled for the same instant fire in FIFO
order, which keeps runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Events fire in ``(time, sequence)`` order, so ties are broken by
    insertion order.  A cancelled event stays in the heap but is skipped
    when popped.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled")

    def __init__(self, time: float, sequence: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes."""
        self.cancelled = True


class EventQueue:
    """A priority queue of :class:`Event` objects.

    The heap holds ``(time, sequence, event)`` tuples: sequences are
    unique, so every comparison is decided by the first two fields, in C,
    and never reaches the event.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def push(self, time: float, callback: Callable[[], None]) -> Event:
        event = Event(time, next(self._counter), callback)
        heapq.heappush(self._heap, (time, event.sequence, event))
        return event

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when empty."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def __bool__(self) -> bool:
        return len(self) > 0


class SimulationEnvironment:
    """The simulation's global virtual clock and scheduler.

    All actors (federator, clients, network) share one environment.  The
    typical usage pattern is::

        env = SimulationEnvironment()
        env.schedule(0.0, federator.start)
        env.run()

    after which ``env.now`` holds the virtual time at which the last event
    fired.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now: float = 0.0
        self._events_processed = 0

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for debugging/limits)."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        return self._queue.push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event in the past (time={time}, now={self.now})"
            )
        return self._queue.push(time, callback)

    def step(self) -> bool:
        """Process the next pending event; ``False`` when the queue is empty.

        Equivalent to one iteration of :meth:`run`, but O(log n) — unlike
        ``pending_events()``, it never scans the heap, so callers that pump
        the simulation one event at a time (the streaming run handles) pay
        the same total cost as a single :meth:`run` call.
        """
        event = self._queue.pop()
        if event is None:
            return False
        self.now = event.time
        event.callback()
        self._events_processed += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue drains (or a limit is reached).

        Parameters
        ----------
        until:
            Stop once the next event would fire after this virtual time.
            The clock is advanced to ``until`` in that case.
        max_events:
            Safety limit on the number of events to process.
        """
        processed = 0
        while True:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            if max_events is not None and processed >= max_events:
                break
            event = self._queue.pop()
            if event is None:  # pragma: no cover - guarded by peek_time
                break
            self.now = event.time
            event.callback()
            processed += 1
            self._events_processed += 1

    def pending_events(self) -> int:
        """Number of events still waiting to fire."""
        return len(self._queue)

    def close(self) -> None:
        """Drop every queued event (and the actors its callback holds)."""
        self._queue = EventQueue()
