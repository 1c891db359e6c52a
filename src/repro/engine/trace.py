"""Execution traces.

"GDM animation will trace model-level behavior and always make a record of
the execution trace. The user can then monitor the application's behavior
via a replay function associated with a timing diagram." (paper §III)

A trace is the whole record of one run: an append-only list of (command,
reactions) events with both target-side and host-side timestamps, where
each event's seq is its position. It is serializable, and replay is a pure
function of it.

A long run records through ``ExecutionTrace(spill=TraceStore(...))``
instead: every event is written through to the store the moment it is
recorded and none is kept in memory, so the trace list stays empty and
memory stays flat. The store takes the event itself and writes its
canonical payload from a template, the bytes of ``to_dict()`` without
the dict (:func:`~repro.tracedb.format.encode_event`).
:class:`~repro.tracedb.store.StoredTrace` reads the spilled history
back, trace-shaped, for replay and the timing diagram.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.comm.protocol import Command, CommandKind
from repro.errors import DebuggerError
from repro.gdm.reactions import ReactionRecord


class TraceEvent:
    """One traced debugger event."""

    __slots__ = ("seq", "command", "reactions", "engine_state")

    def __init__(self, seq: int, command: Command,
                 reactions: Sequence[ReactionRecord],
                 engine_state: str) -> None:
        self.seq = seq
        self.command = command
        self.reactions = list(reactions)
        self.engine_state = engine_state

    def to_dict(self) -> dict:
        """Serializable form."""
        return {
            "seq": self.seq,
            "kind": self.command.kind.name,
            "path": self.command.path,
            "value": self.command.value,
            "t_target": self.command.t_target,
            "t_host": self.command.t_host,
            "engine_state": self.engine_state,
            "reactions": [r.to_dict() for r in self.reactions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        command = Command(
            CommandKind[data["kind"]], data["path"], data["value"],
            t_target=data["t_target"], t_host=data["t_host"],
        )
        reactions = [ReactionRecord.from_dict(r) for r in data["reactions"]]
        return cls(data["seq"], command, reactions, data["engine_state"])

    def __repr__(self) -> str:
        return (f"<TraceEvent #{self.seq} {self.command.kind.name} "
                f"{self.command.path}={self.command.value} "
                f"@{self.command.t_host}us>")


class ExecutionTrace(list):
    """The execution record: a list of :class:`TraceEvent`, seq == index.

    ``spill`` is a :class:`~repro.tracedb.store.TraceStore` that receives
    every event instead of this list (None: record in memory).
    """

    __slots__ = ("spill",)

    def __init__(self, spill: Optional[object] = None) -> None:
        super().__init__()
        self.spill = spill

    def record(self, command: Command, reactions: Sequence[ReactionRecord],
               engine_state: str) -> TraceEvent:
        """Append an event, or write it through to the spill store."""
        spill = self.spill
        if spill is None:
            event = TraceEvent(len(self), command, reactions, engine_state)
            self.append(event)
        else:
            event = TraceEvent(spill.next_seq, command, reactions,
                               engine_state)
            spill.append(event)
        return event

    def events(self, kind: Optional[CommandKind] = None,
               path_prefix: str = "") -> List[TraceEvent]:
        """Events filtered by kind and/or path prefix."""
        return [e for e in self
                if (kind is None or e.command.kind is kind)
                and e.command.path.startswith(path_prefix)]

    def duration_us(self) -> int:
        """Host-time span covered by the trace."""
        if not self:
            return 0
        return self[-1].command.t_host - self[0].command.t_host

    def mean_latency_us(self) -> Optional[float]:
        """Average host-arrival latency of traced commands."""
        if not self:
            return None
        return sum(e.command.latency_us for e in self) / len(self)

    # -- serialization --------------------------------------------------------

    def to_dicts(self) -> List[dict]:
        """Serialize the whole trace."""
        return [event.to_dict() for event in self]

    @classmethod
    def from_dicts(cls, data: Sequence[dict]) -> "ExecutionTrace":
        """Restore a serialized trace; its seqs must be 0..n-1."""
        trace = cls()
        for position, record in enumerate(data):
            if record["seq"] != position:
                raise DebuggerError(
                    f"serialized trace holds seq {record['seq']} at "
                    f"position {position}; a trace is a whole record "
                    f"with seqs 0..n-1")
            trace.append(TraceEvent.from_dict(record))
        return trace
