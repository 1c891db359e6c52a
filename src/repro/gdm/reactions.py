"""Reactions: what a command does to the debug model.

The paper: the GDM "provides appropriate reactions when receiving commands
(events) from the code being executed ... e.g. highlighting a GDM element".
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.comm.protocol import Command
from repro.errors import DebuggerError
from repro.gdm.model import CommandBinding, GdmModel


class ReactionKind(enum.Enum):
    """Implemented reaction types (the command-setup options)."""

    HIGHLIGHT = "highlight"        # exclusive highlight within the group
    UNHIGHLIGHT = "unhighlight"
    ANNOTATE = "annotate"          # show the command's value on the element
    PULSE = "pulse"                # transient flash (recorded, then decays)
    MARK_ERROR = "mark-error"      # paint the element as faulty


class ReactionRecord:
    """One applied reaction, as stored in the execution trace."""

    __slots__ = ("kind", "element_id", "source_path", "detail", "t_us")

    def __init__(self, kind: ReactionKind, element_id: str, source_path: str,
                 detail: str, t_us: int) -> None:
        self.kind = kind
        self.element_id = element_id
        self.source_path = source_path
        self.detail = detail
        self.t_us = t_us

    def to_dict(self) -> dict:
        """Serializable form (trace files)."""
        return {"kind": self.kind.name, "element": self.element_id,
                "path": self.source_path, "detail": self.detail,
                "t_us": self.t_us}

    @classmethod
    def from_dict(cls, data: dict) -> "ReactionRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(ReactionKind[data["kind"]], data["element"], data["path"],
                   data["detail"], data["t_us"])

    def __repr__(self) -> str:
        return (f"<ReactionRecord {self.kind.name} on {self.element_id} "
                f"({self.detail}) @ {self.t_us}us>")


#: reaction names as bindings spell them -> kind
_KINDS = {kind.name: kind for kind in ReactionKind}


def apply_reaction(gdm: GdmModel, binding: CommandBinding,
                   command: Command) -> Optional[ReactionRecord]:
    """Apply *binding*'s reaction for *command*; returns the record.

    Returns None when the command's path has no element (e.g. a binding with
    a wildcard selector receiving a path that was never abstracted).
    """
    kind = _KINDS.get(binding.reaction)
    if kind is None:
        raise DebuggerError(f"unknown reaction {binding.reaction!r}")

    element = gdm.element_by_path(command.path)
    if element is None:
        # Link reactions: pulse the link itself.
        link = gdm.link_by_path(command.path)
        if link is not None:
            gdm.pulse(link)
            return ReactionRecord(kind, link.id, command.path,
                                  f"value={command.value}", command.t_host)
        return None

    if kind is ReactionKind.HIGHLIGHT:
        if element.group:
            for sibling in gdm.elements_in_group(element.group):
                sibling.style.pop("highlighted", None)
        element.style["highlighted"] = "true"
        detail = "highlight"
    elif kind is ReactionKind.UNHIGHLIGHT:
        element.style.pop("highlighted", None)
        detail = "unhighlight"
    elif kind is ReactionKind.ANNOTATE:
        element.style["value"] = str(command.value)
        detail = f"value={command.value}"
    elif kind is ReactionKind.PULSE:
        gdm.pulse(element)
        detail = "pulse"
    elif kind is ReactionKind.MARK_ERROR:
        element.style["error"] = "true"
        detail = "error"
    else:  # pragma: no cover - enum is closed
        raise DebuggerError(f"unhandled reaction {kind}")
    return ReactionRecord(kind, element.id, command.path, detail,
                          command.t_host)


def decay_pulses(gdm: GdmModel) -> List[str]:
    """Clear transient pulse styling; returns affected ids (engine tick).

    Visits only the model's lit set (see :meth:`GdmModel.pulse`).
    """
    return gdm.decay_pulses()
