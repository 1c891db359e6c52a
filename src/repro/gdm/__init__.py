"""The Graphical Debugger Model (GDM) — GMDF's core.

From the paper: the GDM is built from the user's input (meta)model through
an **abstraction** step (a user-specified mapping from metamodel elements to
graphical patterns, Fig 4), carries **command bindings** (which command
triggers which reaction, Fig 6 step 4), and is animated by the runtime
engine as an event-driven state machine (Fig 3).
"""

from repro.gdm.patterns import PatternKind, PatternSpec
from repro.gdm.metamodel import gdm_metamodel
from repro.gdm.model import CommandBinding, GdmElement, GdmLink, GdmModel
from repro.gdm.mapping import MappingRule, MappingTable, default_comdes_table
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.reactions import ReactionKind, ReactionRecord, apply_reaction
from repro.gdm.guide import AbstractionGuide
from repro.gdm.command_setup import CommandSetupDialog
from repro.gdm.scenegen import gdm_to_scene

__all__ = [
    "PatternKind", "PatternSpec",
    "gdm_metamodel",
    "GdmElement", "GdmLink", "CommandBinding", "GdmModel",
    "MappingRule", "MappingTable", "default_comdes_table",
    "AbstractionEngine",
    "ReactionKind", "ReactionRecord", "apply_reaction",
    "AbstractionGuide",
    "CommandSetupDialog",
    "gdm_to_scene",
]
