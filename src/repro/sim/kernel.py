"""Event-queue simulator.

A binary-heap kernel: callbacks are scheduled at absolute integer
timestamps and executed in (time, insertion order) order. Insertion order as
the tie-breaker makes simultaneous events deterministic, which the trace and
replay machinery relies on.

Heap entries are ``(time, seq, event)`` tuples. ``seq`` is unique per
scheduling call, so ``heapq`` settles every comparison on the two ints in C
and never compares the :class:`ScheduledEvent` itself. A periodic activity
(:meth:`Simulator.every`) takes a fresh ``seq`` each time it re-arms, right
after its callback returns, exactly as if the callback had scheduled its own
next tick. Cancellation leaves a tombstone that is skipped when popped.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop


class ScheduledEvent:
    """Handle to a pending callback; supports cancellation.

    ``period`` is 0 for a one-shot event; a periodic event's successor is
    a new handle, so cancelling this one only cancels this firing.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "period")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: tuple, period: int = 0):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.period = period

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time} seq={self.seq} {state}>"


class Simulator:
    """Discrete-event simulator with integer-microsecond time."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._queue: List[Tuple[int, int, ScheduledEvent]] = []
        self._executed: int = 0

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled tombstones excluded)."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule *fn(*args)* at absolute *time* (must not be in the past)."""
        if time < self._now:
            raise ValueError(f"cannot schedule at t={time} before now={self._now}")
        self._seq = seq = self._seq + 1
        event = ScheduledEvent(time, seq, fn, args)
        _heappush(self._queue, (time, seq, event))
        return event

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule *fn(*args)* after *delay* microseconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def every(self, period: int, fn: Callable[..., Any], *args: Any,
              start: Optional[int] = None) -> ScheduledEvent:
        """Schedule *fn* periodically; returns the handle of the *next* firing.

        Cancelling the returned handle only cancels the next occurrence, so
        periodic activities that must be stoppable should instead check a
        flag inside *fn*. The first firing is at *start* (default: now +
        period). Each firing re-arms *period* after the current time once
        *fn* returns (a raising *fn* is not re-armed).
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        first = start if start is not None else self._now + period
        event = self.schedule_at(first, fn, *args)
        event.period = period
        return event

    def _rearm(self, event: ScheduledEvent) -> None:
        """Queue the next firing of periodic *event*, a fresh handle."""
        time = self._now + event.period
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (time, seq, ScheduledEvent(
            time, seq, event.fn, event.args, event.period)))

    def clear(self) -> None:
        """Drop every pending event and the callbacks it holds.

        The clock and the executed-event count stay readable. Owners of
        a finished run call this to free what the queue references.
        """
        self._queue.clear()

    def step(self) -> bool:
        """Execute the next event; return False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _, event = _heappop(queue)
            if event.cancelled:
                continue
            self._now = time
            self._executed += 1
            event.fn(*event.args)
            if event.period:
                self._rearm(event)
            return True
        return False

    def run_until(self, time: int) -> int:
        """Run events with timestamp <= *time*; advance clock to *time*.

        Returns the number of events executed. Events scheduled during the
        run are honoured if they fall inside the horizon.
        """
        if time < self._now:
            raise ValueError(f"cannot run backwards to t={time} from now={self._now}")
        queue = self._queue
        executed = 0
        while queue:
            entry = _heappop(queue)
            event = entry[2]
            if event.cancelled:
                continue
            if entry[0] > time:
                _heappush(queue, entry)
                break
            self._now = entry[0]
            self._executed += 1
            executed += 1
            event.fn(*event.args)
            if event.period:
                self._rearm(event)
        self._now = time
        return executed

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until the queue drains; guard against runaway self-scheduling."""
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        return executed
