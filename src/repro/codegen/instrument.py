"""Instrumentation plans for the active command interface.

The paper's active solution has "the application code itself send out
commands by means of extra functional codes". A plan selects which model
events get an EMIT in the generated code; the empty plan generates clean
production code (what the passive JTAG channel debugs).
"""

from __future__ import annotations


class InstrumentationPlan:
    """Which debug commands the generated code emits."""

    def __init__(self, state_enter: bool = True, signal_update: bool = True,
                 transitions: bool = False, task_markers: bool = False) -> None:
        self.state_enter = state_enter
        self.signal_update = signal_update
        self.transitions = transitions
        self.task_markers = task_markers

    @classmethod
    def none(cls) -> "InstrumentationPlan":
        """No instrumentation at all — clean production code."""
        return cls(state_enter=False, signal_update=False,
                   transitions=False, task_markers=False)

    @classmethod
    def full(cls) -> "InstrumentationPlan":
        """Every event instrumented (including transitions and task markers)."""
        return cls(state_enter=True, signal_update=True,
                   transitions=True, task_markers=True)

    @property
    def any_enabled(self) -> bool:
        """Whether this plan emits anything."""
        return (self.state_enter or self.signal_update
                or self.transitions or self.task_markers)

    def __repr__(self) -> str:
        flags = [name for name in ("state_enter", "signal_update",
                                   "transitions", "task_markers")
                 if getattr(self, name)]
        return f"<InstrumentationPlan {'+'.join(flags) or 'none'}>"
