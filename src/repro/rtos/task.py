"""Job and task records used by the node scheduler."""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SchedulerError


class ActiveJob:
    """A released, not-yet-completed job competing for its node's CPU."""

    _seq = 0

    def __init__(self, name: str, priority: int, release: int,
                 deadline_abs: int, demand_us: int,
                 on_complete: Optional[Callable[[int], None]] = None) -> None:
        if demand_us < 0:
            raise SchedulerError(f"job {name}: negative demand {demand_us}")
        ActiveJob._seq += 1
        self.seq = ActiveJob._seq
        self.name = name
        self.priority = priority
        self.release = release
        self.deadline_abs = deadline_abs
        self.demand_us = demand_us
        self.remaining_us = demand_us
        self.on_complete = on_complete
        self.completion: Optional[int] = None

    def sort_key(self):
        """Priority order: smaller number wins; FIFO among equals."""
        return (self.priority, self.release, self.seq)

    def __repr__(self) -> str:
        return (f"<ActiveJob {self.name} P{self.priority} rel={self.release} "
                f"rem={self.remaining_us}us>")


class JobRecord:
    """Bookkeeping for a finished (or skipped) job."""

    __slots__ = ("actor", "index", "release", "completion", "deadline_abs",
                 "missed", "demand_us", "skipped")

    def __init__(self, actor: str, index: int, release: int,
                 completion: Optional[int], deadline_abs: int,
                 demand_us: int, skipped: bool = False) -> None:
        self.actor = actor
        self.index = index
        self.release = release
        self.completion = completion
        self.deadline_abs = deadline_abs
        self.demand_us = demand_us
        self.skipped = skipped
        self.missed = (completion is not None and completion > deadline_abs)

    def __repr__(self) -> str:
        status = "skipped" if self.skipped else (
            "MISS" if self.missed else "ok")
        return (f"<JobRecord {self.actor}#{self.index} rel={self.release} "
                f"comp={self.completion} {status}>")


class LoadTask:
    """A synthetic interference task: consumes CPU time, touches no model.

    Used by the jitter experiment to create response-time variance for the
    victim task.
    """

    def __init__(self, name: str, node: str, period_us: int, demand_us: int,
                 priority: int, offset_us: int = 0) -> None:
        if period_us <= 0 or demand_us < 0:
            raise SchedulerError(
                f"load task {name}: period must be positive and demand "
                f"non-negative (got T={period_us}, C={demand_us})"
            )
        if demand_us > period_us:
            raise SchedulerError(
                f"load task {name}: demand {demand_us} exceeds period {period_us}"
            )
        self.name = name
        self.node = node
        self.period_us = period_us
        self.demand_us = demand_us
        self.priority = priority
        self.offset_us = offset_us
