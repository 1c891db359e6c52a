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


class RunSettled(ReproError):
    """A debugger run's verdict is settled, so the run can stop here.

    Not a failure: a monitor suite set to settle on its first report
    (:meth:`~repro.engine.checks.MonitorSuite.settle_on_first_report`)
    or the campaign's watch-hit hook raises it, and
    :func:`~repro.engine.rig.run_to_verdict` catches it and closes the
    rig.
    """


class CommError(ReproError):
    """A communication channel failed (framing, checksum, unsupported op...)."""


class JtagError(CommError):
    """The JTAG probe or TAP controller was driven illegally."""


class AbstractionError(ReproError):
    """The abstraction mapping cannot produce a debug model."""


class DebuggerError(ReproError):
    """The runtime debugger engine or baseline debugger was misused."""


class TraceStoreError(ReproError):
    """The on-disk trace store was driven illegally or is corrupt."""


class SchedulerError(ReproError):
    """The RTOS scheduler detected an inconsistent task set or overload."""


class FleetError(ReproError):
    """The fleet execution subsystem was misconfigured or a worker failed."""


class RenderError(ReproError):
    """Scene construction or rendering failed."""
