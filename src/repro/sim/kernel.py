"""Event-queue simulator.

A binary-heap kernel: callbacks are scheduled at absolute integer
timestamps and executed in (time, insertion order) order. Insertion order as
the tie-breaker makes simultaneous events deterministic, which the trace and
replay machinery relies on.

Each heap entry *is* the event's handle: a :class:`ScheduledEvent` is a
list ``[time, seq, fn, args, period]``, the entry layout the ``heapq``
documentation recommends. ``seq`` is unique per scheduling call, so
``heapq`` settles every comparison on the two leading ints in C and never
looks at the callback. Cancellation clears ``fn``, leaving a tombstone
that is skipped when popped. A periodic activity (:meth:`Simulator.every`)
takes a fresh entry and ``seq`` each time it re-arms, right after its
callback returns, exactly as if the callback had scheduled its own next
tick.

:attr:`Simulator.now` is a plain attribute, not a property: the clock is
read on every release, completion and emitted command, and only
:meth:`Simulator.run_until` writes it. Treat it as read-only.

Positions can be held ahead of time: a caller that advances
:attr:`Simulator.seq` holds that position, and
:meth:`Simulator.schedule_seq` later pushes an entry there, ordered
among same-instant entries as if it had been scheduled when the
position was taken. The DTM kernel (:mod:`repro.rtos.kernel`) runs a
same-period actor group as one heap entry this way. It holds the
position each member's own periodic release would have taken. When the
head of :attr:`Simulator.queue` is a foreign entry at the instant that
comes before the next member's position (a frame delivery, a halt), the
group re-enters at that position instead of running past it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop


class ScheduledEvent(list):
    """Handle to a pending callback; supports cancellation.

    The handle is the heap entry itself, ``[time, seq, fn, args,
    period]``. ``period`` is 0 for a one-shot event; a periodic event's
    successor is a new handle, so cancelling this one only cancels this
    firing.
    """

    __slots__ = ()

    @property
    def time(self) -> int:
        """Absolute firing time in microseconds."""
        return self[0]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        self[2] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[2] is None else "pending"
        return f"<ScheduledEvent t={self[0]} seq={self[1]} {state}>"


class Simulator:
    """Discrete-event simulator with integer-microsecond time."""

    def __init__(self) -> None:
        #: current simulated time in microseconds (read-only for callers)
        self.now: int = 0
        #: position of the last entry handed out; advancing it holds
        #: the next position for a later :meth:`schedule_seq`
        self.seq: int = 0
        #: the heap itself; ``queue[0]`` is the next entry (it may be a
        #: cancelled tombstone). Only the simulator pushes and pops.
        self.queue: List[ScheduledEvent] = []
        self._executed: int = 0

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled tombstones excluded)."""
        return sum(1 for entry in self.queue if entry[2] is not None)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule *fn(*args)* at absolute *time* (must not be in the past)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time} before now={self.now}")
        self.seq = seq = self.seq + 1
        event = ScheduledEvent((time, seq, fn, args, 0))
        _heappush(self.queue, event)
        return event

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule *fn(*args)* after *delay* microseconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.seq = seq = self.seq + 1
        event = ScheduledEvent((self.now + delay, seq, fn, args, 0))
        _heappush(self.queue, event)
        return event

    def schedule_seq(self, time: int, seq: int, fn: Callable[..., Any],
                     *args: Any) -> ScheduledEvent:
        """Schedule *fn(*args)* at *time* in the position *seq*, held
        earlier by advancing :attr:`seq`."""
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time} before now={self.now}")
        event = ScheduledEvent((time, seq, fn, args, 0))
        _heappush(self.queue, event)
        return event

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
        event = self.schedule_at(
            start if start is not None else self.now + period, fn, *args)
        event[4] = period
        return event

    def clear(self) -> None:
        """Drop every pending event and the callbacks it holds.

        The clock and the executed-event count stay readable. Owners of
        a finished run call this to free what the queue references.
        """
        self.queue.clear()

    def run_until(self, time: int) -> int:
        """Run events with timestamp <= *time*; advance clock to *time*.

        Returns the number of events executed. Events scheduled during the
        run are honoured if they fall inside the horizon.
        """
        if time < self.now:
            raise ValueError(f"cannot run backwards to t={time} from now={self.now}")
        queue = self.queue
        executed = 0
        while queue:
            entry = _heappop(queue)
            at, _, fn, args, period = entry
            if fn is None:
                continue
            if at > time:
                _heappush(queue, entry)
                break
            self.now = at
            self._executed += 1
            executed += 1
            fn(*args)
            if period:
                self.seq = seq = self.seq + 1
                _heappush(queue, ScheduledEvent(
                    (self.now + period, seq, fn, args, period)))
        self.now = time
        return executed
