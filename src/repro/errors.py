"""Exception hierarchy for the GMDF reproduction.

Every package raises exceptions derived from :class:`ReproError`, so callers
can catch framework failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MetamodelError(ReproError):
    """A metamodel definition is malformed (duplicate class, bad supertype...)."""


class ModelError(ReproError):
    """A model violates its metamodel (unknown attribute, bad reference...)."""


class ValidationError(ReproError):
    """A model failed semantic validation.

    Carries the list of individual problem strings in :attr:`problems`.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        summary = "; ".join(self.problems[:5])
        if len(self.problems) > 5:
            summary += f" (+{len(self.problems) - 5} more)"
        super().__init__(f"{len(self.problems)} validation problem(s): {summary}")


class CodegenError(ReproError):
    """Model-to-code transformation failed."""


class AssemblyError(ReproError):
    """Assembling or disassembling target code failed."""


class TargetFault(ReproError):
    """The virtual CPU trapped (bad address, divide by zero, stack error...)."""

    def __init__(self, reason: str, pc: int = -1):
        self.reason = reason
        self.pc = pc
        super().__init__(f"target fault at pc={pc}: {reason}")


class CommError(ReproError):
    """A communication channel failed (framing, checksum, unsupported op...)."""


class JtagError(CommError):
    """The JTAG probe or TAP controller was driven illegally."""


class AbstractionError(ReproError):
    """The abstraction mapping cannot produce a debug model."""


class DebuggerError(ReproError):
    """The runtime debugger engine or baseline debugger was misused."""


class TruncatedTraceError(DebuggerError):
    """A replay was started over a partial window of a longer history.

    Either the ring buffer evicted :attr:`missing` events into the void
    (``spilled=False``), or it evicted them into a spill store
    (``spilled=True``) and the caller replayed the in-memory window
    instead of ``trace.full_history()``. Both ways, replaying from the
    oldest *surviving* event would animate from a mid-history state that
    silently pretends to be the beginning. Opt in with
    ``allow_truncated=True`` to replay just the surviving window.
    """

    def __init__(self, missing: int, surviving: int, spilled: bool = False):
        self.missing = missing
        self.surviving = surviving
        self.spilled = spilled
        if spilled:
            detail = (f"the {missing} event(s) before the {surviving} "
                      f"cached one(s) live in the spill store; replay "
                      f"trace.full_history() instead")
        else:
            detail = (f"{missing} event(s) were dropped before the "
                      f"{surviving} surviving one(s); record with a spill "
                      f"store to keep history replayable")
        super().__init__(
            f"trace is a truncated window: {detail} "
            f"(or pass allow_truncated=True to replay the window)")

    @property
    def dropped(self) -> int:
        """Alias for :attr:`missing` (the pre-spill name)."""
        return self.missing


class TraceStoreError(ReproError):
    """The on-disk trace store was driven illegally or is corrupt."""


class SchedulerError(ReproError):
    """The RTOS scheduler detected an inconsistent task set or overload."""


class FleetError(ReproError):
    """The fleet execution subsystem was misconfigured or a worker failed."""


class RenderError(ReproError):
    """Scene construction or rendering failed."""
