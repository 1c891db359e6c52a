"""The GDM metamodel (paper Fig 3), defined reflectively.

The debug model itself conforms to a metamodel — GMDF dogfoods its own
metamodeling layer. A DebugModel contains graphical elements, links between
them, and command bindings; the engine animates it as an event-driven state
machine whose engine states are enumerated on the model for introspection.
"""

from __future__ import annotations

from repro.gdm.patterns import PatternKind
from repro.meta.metamodel import AttributeKind, MetaModel

GDM_METAMODEL_NAME = "gdm"

_PATTERN_NAMES = tuple(kind.value for kind in PatternKind)

#: engine states of the event-driven FSM (Fig 3: "normally in a waiting
#: state, listening for commands and performing the corresponding reactions")
ENGINE_STATES = ("WAITING", "REACTING", "PAUSED", "DISCONNECTED")


def gdm_metamodel() -> MetaModel:
    """Build (and check) the GDM metamodel."""
    mm = MetaModel(GDM_METAMODEL_NAME)

    debug_model = mm.define("DebugModel")
    debug_model.attribute("name", AttributeKind.STR, required=True)
    debug_model.attribute("sourceModel", AttributeKind.STR, default="")
    debug_model.attribute("engineState", AttributeKind.ENUM,
                          enum_values=ENGINE_STATES, default="WAITING")
    debug_model.reference("elements", "GraphicalElement",
                          containment=True, many=True)
    debug_model.reference("links", "Link", containment=True, many=True)
    debug_model.reference("bindings", "CommandBinding",
                          containment=True, many=True)

    element = mm.define("GraphicalElement")
    element.attribute("name", AttributeKind.STR, required=True)
    element.attribute("sourcePath", AttributeKind.STR, required=True)
    element.attribute("pattern", AttributeKind.ENUM,
                      enum_values=_PATTERN_NAMES, required=True)
    element.attribute("x", AttributeKind.INT, default=0)
    element.attribute("y", AttributeKind.INT, default=0)
    element.attribute("w", AttributeKind.INT, default=14)
    element.attribute("h", AttributeKind.INT, default=5)
    element.attribute("highlighted", AttributeKind.BOOL, default=False)

    link = mm.define("Link")
    link.attribute("name", AttributeKind.STR, default="")
    link.attribute("sourcePath", AttributeKind.STR, default="")
    link.attribute("pattern", AttributeKind.ENUM,
                   enum_values=_PATTERN_NAMES, required=True)
    link.reference("source", "GraphicalElement", required=True)
    link.reference("target", "GraphicalElement", required=True)

    binding = mm.define("CommandBinding")
    binding.attribute("commandKind", AttributeKind.STR, required=True)
    binding.attribute("pathSelector", AttributeKind.STR, required=True)
    binding.attribute("reaction", AttributeKind.STR, required=True)

    mm.check()
    return mm
