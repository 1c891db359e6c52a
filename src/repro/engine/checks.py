"""Requirement monitors: turning wrong animations into bug reports.

"If the actions taken are not consistent with system requirements, a bug is
considered to be found." Monitors encode requirements at the model level
and subscribe to the engine's command stream; violations become
:class:`BugReport` objects, which the fault-injection campaign (E9) scores.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple)

from repro.comm.protocol import Command, CommandKind
from repro.engine.engine import DebuggerEngine
from repro.errors import RunSettled


class BugReport:
    """One detected requirement violation."""

    __slots__ = ("monitor", "message", "command", "t_us")

    def __init__(self, monitor: str, message: str, command: Command) -> None:
        self.monitor = monitor
        self.message = message
        self.command = command
        self.t_us = command.t_host

    def __repr__(self) -> str:
        return f"<BugReport [{self.monitor}] {self.message} @ {self.t_us}us>"


class Monitor:
    """Base class: inspect each command, report violations.

    ``kinds`` names the command kinds :meth:`inspect` can act on; for any
    other kind it must return None and change no state, so a
    :class:`MonitorSuite` never hands it those commands. None (the
    default) means every kind.
    """

    kinds: Optional[FrozenSet[CommandKind]] = None

    #: raise :class:`~repro.errors.RunSettled` once a report is recorded
    #: (set by :meth:`MonitorSuite.settle_on_first_report`)
    settles_run = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.reports: List[BugReport] = []

    def inspect(self, command: Command) -> Optional[BugReport]:
        """Return a report if *command* violates the requirement."""
        raise NotImplementedError

    def _report(self, message: str, command: Command) -> BugReport:
        report = BugReport(self.name, message, command)
        self.reports.append(report)
        if self.settles_run:
            raise RunSettled(f"{self.name} reported at {report.t_us}us")
        return report

    @property
    def violated(self) -> bool:
        """Whether any violation has been recorded."""
        return bool(self.reports)


class SequenceMonitor(Monitor):
    """States of a machine must follow an allowed successor relation.

    ``allowed`` maps each state path to the set of state paths that may
    legally follow it. The first observed state seeds the tracking.
    """

    kinds = frozenset({CommandKind.STATE_ENTER})

    def __init__(self, name: str, group_prefix: str,
                 allowed: Dict[str, Set[str]]) -> None:
        super().__init__(name)
        self.group_prefix = group_prefix
        self.allowed = {k: set(v) for k, v in allowed.items()}
        self._current: Optional[str] = None

    def inspect(self, command: Command) -> Optional[BugReport]:
        if command.kind is not CommandKind.STATE_ENTER:
            return None
        if not command.path.startswith(self.group_prefix):
            return None
        previous, self._current = self._current, command.path
        if previous is None:
            return None
        if command.path not in self.allowed.get(previous, set()):
            return self._report(
                f"illegal state order: {previous} -> {command.path}", command
            )
        return None


class RangeMonitor(Monitor):
    """A signal must stay inside [lo, hi]."""

    kinds = frozenset({CommandKind.SIG_UPDATE})

    def __init__(self, name: str, signal_path: str, lo: int, hi: int) -> None:
        super().__init__(name)
        self.signal_path = signal_path
        self.lo = lo
        self.hi = hi

    def inspect(self, command: Command) -> Optional[BugReport]:
        if command.kind is not CommandKind.SIG_UPDATE:
            return None
        if command.path != self.signal_path:
            return None
        if not (self.lo <= command.value <= self.hi):
            return self._report(
                f"{self.signal_path} = {command.value} outside "
                f"[{self.lo}, {self.hi}]", command,
            )
        return None


class ResponseMonitor(Monitor):
    """After a trigger event, a response event must occur within a window."""

    def __init__(self, name: str,
                 trigger: Callable[[Command], bool],
                 response: Callable[[Command], bool],
                 within_us: int) -> None:
        super().__init__(name)
        self.trigger = trigger
        self.response = response
        self.within_us = within_us
        self._pending_since: Optional[int] = None
        self._pending_command: Optional[Command] = None

    def inspect(self, command: Command) -> Optional[BugReport]:
        report: Optional[BugReport] = None
        if self._pending_since is not None:
            if self.response(command):
                self._pending_since = None
                self._pending_command = None
            elif command.t_host - self._pending_since > self.within_us:
                overdue = self._pending_command
                self._pending_since = None
                self._pending_command = None
                report = self._report(
                    f"no response within {self.within_us}us of trigger "
                    f"at {overdue.t_host}us", command,
                )
        # A response may itself be the next trigger — always re-check.
        if self._pending_since is None and self.trigger(command):
            self._pending_since = command.t_host
            self._pending_command = command
        return report


class DwellMonitor(Monitor):
    """Time spent in a state must lie within [lo_us, hi_us].

    Catches timing design errors (a wrong guard constant changes a phase
    duration) that sequence and range checks cannot see.
    """

    kinds = frozenset({CommandKind.STATE_ENTER})

    def __init__(self, name: str, state_path: str, group_prefix: str,
                 lo_us: int, hi_us: int) -> None:
        super().__init__(name)
        self.state_path = state_path
        self.group_prefix = group_prefix
        self.lo_us = lo_us
        self.hi_us = hi_us
        self._entered_at: Optional[int] = None

    def inspect(self, command: Command) -> Optional[BugReport]:
        if command.kind is not CommandKind.STATE_ENTER:
            return None
        if not command.path.startswith(self.group_prefix):
            return None
        if command.path == self.state_path:
            self._entered_at = command.t_target
            return None
        if self._entered_at is None:
            return None
        dwell = command.t_target - self._entered_at
        self._entered_at = None
        if not (self.lo_us <= dwell <= self.hi_us):
            return self._report(
                f"dwell in {self.state_path} was {dwell}us, expected "
                f"[{self.lo_us}, {self.hi_us}]us", command,
            )
        return None


class StateValueMonitor(Monitor):
    """Entering a state must drive a signal to its corresponding value.

    The quintessential *model-level* consistency check: "state RED implies
    lamp code 0". A code-level range watch cannot express it (both the
    state index and the lamp value are individually in range).
    """

    def __init__(self, name: str, state_path: str, signal_path: str,
                 expected: int, within_us: int) -> None:
        super().__init__(name)
        self.state_path = state_path
        self.signal_path = signal_path
        self.expected = expected
        self.within_us = within_us
        self._armed_at: Optional[int] = None

    def inspect(self, command: Command) -> Optional[BugReport]:
        if (command.kind is CommandKind.STATE_ENTER
                and command.path == self.state_path):
            self._armed_at = command.t_host
            return None
        if self._armed_at is None:
            return None
        if (command.kind is CommandKind.SIG_UPDATE
                and command.path == self.signal_path):
            armed_at = self._armed_at
            self._armed_at = None
            if command.value != self.expected:
                return self._report(
                    f"{self.state_path} should drive "
                    f"{self.signal_path}={self.expected}, saw {command.value}",
                    command,
                )
            return None
        if command.t_host - self._armed_at > self.within_us:
            self._armed_at = None
            return self._report(
                f"{self.signal_path} never updated within {self.within_us}us "
                f"of entering {self.state_path}", command,
            )
        return None


class CrossInvariantMonitor(Monitor):
    """A cross-actor safety invariant: while in a state, a signal predicate
    must hold.

    Tracks the last observed value of the signal and checks the predicate
    both when the state is entered and whenever the signal changes while
    the state is active — "the press must never close while the belt runs".
    """

    kinds = frozenset({CommandKind.SIG_UPDATE, CommandKind.STATE_ENTER})

    def __init__(self, name: str, state_path: str, group_prefix: str,
                 signal_path: str, predicate: Callable[[int], bool]) -> None:
        super().__init__(name)
        self.state_path = state_path
        self.group_prefix = group_prefix
        self.signal_path = signal_path
        self.predicate = predicate
        #: the signal's last observed value (signals start at 0)
        self._signal_value = 0
        self._in_state = False

    def inspect(self, command: Command) -> Optional[BugReport]:
        if (command.kind is CommandKind.SIG_UPDATE
                and command.path == self.signal_path):
            self._signal_value = command.value
            if self._in_state and not self.predicate(command.value):
                return self._report(
                    f"invariant broken: {self.signal_path} became "
                    f"{command.value} while in {self.state_path}", command,
                )
            return None
        if command.kind is not CommandKind.STATE_ENTER:
            return None
        if command.path == self.state_path:
            self._in_state = True
            if not self.predicate(self._signal_value):
                return self._report(
                    f"invariant broken on entry: {self.state_path} entered "
                    f"while {self.signal_path} = {self._signal_value}",
                    command,
                )
        elif command.path.startswith(self.group_prefix):
            self._in_state = False
        return None


class HeartbeatMonitor(Monitor):
    """Events matching a predicate must occur at least every ``every_us``.

    Freezes are the dark matter of runtime debugging: a stuck machine emits
    *nothing*, so violation must be inferred from the passage of other
    traffic. The monitor clocks itself off every incoming command.
    """

    def __init__(self, name: str, predicate: Callable[[Command], bool],
                 every_us: int) -> None:
        super().__init__(name)
        self.predicate = predicate
        self.every_us = every_us
        self._last_beat = 0

    def inspect(self, command: Command) -> Optional[BugReport]:
        if self.predicate(command):
            self._last_beat = command.t_host
            return None
        if command.t_host - self._last_beat > self.every_us:
            silent_for = command.t_host - self._last_beat
            self._last_beat = command.t_host  # avoid a report storm
            return self._report(
                f"no matching event for {silent_for}us "
                f"(limit {self.every_us}us)", command,
            )
        return None


class InitialStateMonitor(Monitor):
    """The first observed state change of a machine must enter a given state.

    Encodes power-on requirements ("the first phase change is into GREEN,
    i.e. the system boots in RED").
    """

    kinds = frozenset({CommandKind.STATE_ENTER})

    def __init__(self, name: str, group_prefix: str,
                 expected_path: str) -> None:
        super().__init__(name)
        self.group_prefix = group_prefix
        self.expected_path = expected_path
        self._seen_first = False

    def inspect(self, command: Command) -> Optional[BugReport]:
        if self._seen_first:
            return None
        if command.kind is not CommandKind.STATE_ENTER:
            return None
        if not command.path.startswith(self.group_prefix):
            return None
        self._seen_first = True
        if command.path != self.expected_path:
            return self._report(
                f"first state change entered {command.path}, expected "
                f"{self.expected_path}", command,
            )
        return None


class MonitorSuite:
    """Attaches monitors to an engine and aggregates their reports.

    Commands are dispatched by kind: each command reaches, in suite
    order, only the monitors whose :attr:`Monitor.kinds` admit it.

    :meth:`settle_on_first_report` makes the first report end the run:
    the reporting monitor raises :class:`~repro.errors.RunSettled` out
    of the command hook, through the engine and the simulator, to
    whoever called ``kernel.run``. The check sits in
    :meth:`Monitor._report`, so it costs nothing on a command that
    reports nothing, and no monitor holds a reference back to the suite.
    Every report's ``t_us`` is the host time of its command's delivery,
    which never decreases in delivery order, so the first report is
    also the earliest and :meth:`first_violation_time` reads the same
    as on a run to the horizon.
    """

    def __init__(self, monitors: Sequence[Monitor]) -> None:
        self.monitors: Tuple[Monitor, ...] = tuple(monitors)
        self._by_kind: Dict[CommandKind, Tuple[Monitor, ...]] = {
            kind: tuple(m for m in self.monitors
                        if m.kinds is None or kind in m.kinds)
            for kind in CommandKind}
        self._attached = False

    def attach(self, engine: DebuggerEngine) -> None:
        """Subscribe to the engine's command stream."""
        if self._attached:
            raise RuntimeError("monitor suite already attached")
        self._attached = True
        engine.bus.subscribe("command", self._on_command)

    def settle_on_first_report(self) -> None:
        """Raise :class:`~repro.errors.RunSettled` at the first report."""
        for monitor in self.monitors:
            monitor.settles_run = True

    def _on_command(self, command: Command, **_: object) -> None:
        for monitor in self._by_kind[command.kind]:
            monitor.inspect(command)

    def reports(self) -> List[BugReport]:
        """All violations, in detection order."""
        merged: List[BugReport] = []
        for monitor in self.monitors:
            merged.extend(monitor.reports)
        return sorted(merged, key=lambda r: r.t_us)

    @property
    def any_violation(self) -> bool:
        """Whether any monitor fired."""
        return any(m.violated for m in self.monitors)

    def first_violation_time(self) -> Optional[int]:
        """Host time of the earliest violation (detection latency metric)."""
        reports = self.reports()
        return reports[0].t_us if reports else None
