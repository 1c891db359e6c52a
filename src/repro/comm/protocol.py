"""The GMDF debug command protocol.

A *command* is the unit of information flowing from the executing target to
the Graphical Debugger Model: "state X was entered", "signal S changed to
v", "task T started". On the wire a command is a compact frame carrying a
numeric **path id** (resolved through the firmware's path table) and a
value; host-side it is this :class:`Command` with the resolved model-element
path.
"""

from __future__ import annotations

import enum
from typing import Optional


class CommandKind(enum.IntEnum):
    """Command discriminators (one byte on the wire)."""

    STATE_ENTER = 1    # a state machine entered a state; value = state index
    SIG_UPDATE = 2     # a signal changed; value = new signal value
    TASK_START = 3     # an actor job started; value = job number
    TASK_END = 4       # an actor job finished; value = job number
    TRANS_FIRED = 5    # a transition fired; value = transition index
    USER = 6           # user-defined event


class Command:
    """A decoded debug command with host/target timestamps (µs)."""

    __slots__ = ("kind", "path", "value", "t_target", "t_host")

    def __init__(self, kind: CommandKind, path: str, value: int,
                 t_target: int = 0, t_host: Optional[int] = None) -> None:
        self.kind = kind if kind.__class__ is CommandKind else CommandKind(kind)
        self.path = path
        self.value = value
        self.t_target = t_target
        self.t_host = t_host if t_host is not None else t_target

    @property
    def latency_us(self) -> int:
        """Host arrival delay relative to the target-side occurrence."""
        return self.t_host - self.t_target

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Command)
                and (self.kind, self.path, self.value)
                == (other.kind, other.path, other.value))

    def __hash__(self) -> int:
        return hash((self.kind, self.path, self.value))

    def __repr__(self) -> str:
        return (f"<Command {self.kind.name} {self.path} = {self.value} "
                f"@t={self.t_target}us (host {self.t_host}us)>")
