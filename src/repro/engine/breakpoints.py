"""Model-level breakpoints.

The code-level analogue breaks on an address; these break on a **model
event**: entering a state. When one matches, the engine halts the target
through the debug channel and parks in PAUSED.
"""

from __future__ import annotations

from typing import List, Optional

from repro.comm.protocol import Command, CommandKind
from repro.errors import DebuggerError


class StateEntryBreakpoint:
    """Break when a specific state is entered (paper's flagship example)."""

    def __init__(self, state_path: str) -> None:
        if not state_path.startswith("state:"):
            raise DebuggerError(
                f"state breakpoint needs a 'state:' path, got {state_path!r}"
            )
        self.state_path = state_path
        self.description = f"break on entry of {state_path}"
        self.enabled = True
        self.hit_count = 0

    def matches(self, command: Command) -> bool:
        """Whether *command* should trigger this breakpoint."""
        return (command.kind is CommandKind.STATE_ENTER
                and command.path == self.state_path)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"<StateEntryBreakpoint {self.description} [{state}] "
                f"hits={self.hit_count}>")


class BreakpointManager:
    """Holds breakpoints; reports the first enabled match."""

    def __init__(self) -> None:
        #: registered breakpoints, in order (read-only to callers: add
        #: through :meth:`add`)
        self.registered: List[StateEntryBreakpoint] = []

    def add(self, breakpoint: StateEntryBreakpoint) -> StateEntryBreakpoint:
        """Register a breakpoint."""
        self.registered.append(breakpoint)
        return breakpoint

    def all(self) -> List[StateEntryBreakpoint]:
        """All registered breakpoints."""
        return list(self.registered)

    def check(self, command: Command) -> Optional[StateEntryBreakpoint]:
        """First enabled breakpoint matching *command* (hit count bumped)."""
        for breakpoint in self.registered:
            if breakpoint.enabled and breakpoint.matches(command):
                breakpoint.hit_count += 1
                return breakpoint
        return None
