"""Model-level breakpoints.

The code-level analogue breaks on an address; these break on **model
events**: entering a state, a signal satisfying a predicate, a particular
transition firing. When one matches, the engine halts the target through
the debug channel and parks in PAUSED.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.comm.protocol import Command, CommandKind
from repro.errors import DebuggerError


class ModelBreakpoint:
    """Base class: a predicate over incoming commands."""

    def __init__(self, description: str) -> None:
        self.description = description
        self.enabled = True
        self.hit_count = 0

    def matches(self, command: Command) -> bool:
        """Whether *command* should trigger this breakpoint."""
        raise NotImplementedError

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<{type(self).__name__} {self.description} [{state}] hits={self.hit_count}>"


class StateEntryBreakpoint(ModelBreakpoint):
    """Break when a specific state is entered (paper's flagship example)."""

    def __init__(self, state_path: str) -> None:
        if not state_path.startswith("state:"):
            raise DebuggerError(
                f"state breakpoint needs a 'state:' path, got {state_path!r}"
            )
        super().__init__(f"break on entry of {state_path}")
        self.state_path = state_path

    def matches(self, command: Command) -> bool:
        return (command.kind is CommandKind.STATE_ENTER
                and command.path == self.state_path)


class SignalConditionBreakpoint(ModelBreakpoint):
    """Break when a signal update satisfies a predicate."""

    def __init__(self, signal_path: str, predicate: Callable[[int], bool],
                 description: str = "") -> None:
        if not signal_path.startswith("signal:"):
            raise DebuggerError(
                f"signal breakpoint needs a 'signal:' path, got {signal_path!r}"
            )
        super().__init__(description or f"break on condition of {signal_path}")
        self.signal_path = signal_path
        self.predicate = predicate

    def matches(self, command: Command) -> bool:
        return (command.kind is CommandKind.SIG_UPDATE
                and command.path == self.signal_path
                and self.predicate(command.value))


class TransitionBreakpoint(ModelBreakpoint):
    """Break when a transition (or any under a prefix) fires."""

    def __init__(self, trans_path_prefix: str) -> None:
        if not trans_path_prefix.startswith("trans:"):
            raise DebuggerError(
                f"transition breakpoint needs a 'trans:' path, got "
                f"{trans_path_prefix!r}"
            )
        super().__init__(f"break on transition {trans_path_prefix}")
        self.prefix = trans_path_prefix

    def matches(self, command: Command) -> bool:
        return (command.kind is CommandKind.TRANS_FIRED
                and command.path.startswith(self.prefix))


class CommandKindBreakpoint(ModelBreakpoint):
    """Break on any command of a given kind (coarse, but handy)."""

    def __init__(self, kind: CommandKind) -> None:
        super().__init__(f"break on any {kind.name}")
        self.kind = kind

    def matches(self, command: Command) -> bool:
        return command.kind is self.kind


class BreakpointManager:
    """Holds breakpoints; reports the first enabled match."""

    def __init__(self) -> None:
        #: registered breakpoints, in order (read-only to callers: add
        #: and remove through the methods)
        self.registered: List[ModelBreakpoint] = []

    def add(self, breakpoint: ModelBreakpoint) -> ModelBreakpoint:
        """Register a breakpoint."""
        self.registered.append(breakpoint)
        return breakpoint

    def remove(self, breakpoint: ModelBreakpoint) -> None:
        """Unregister a breakpoint."""
        try:
            self.registered.remove(breakpoint)
        except ValueError:
            raise DebuggerError("breakpoint is not registered") from None

    def all(self) -> List[ModelBreakpoint]:
        """All registered breakpoints."""
        return list(self.registered)

    def check(self, command: Command) -> Optional[ModelBreakpoint]:
        """First enabled breakpoint matching *command* (hit count bumped)."""
        for breakpoint in self.registered:
            if breakpoint.enabled and breakpoint.matches(command):
                breakpoint.hit_count += 1
                return breakpoint
        return None

    def __len__(self) -> int:
        return len(self.registered)
