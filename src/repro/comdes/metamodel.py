"""The COMDES metamodel, defined in the reflective framework.

This is the artifact the user hands to GMDF as "input meta-model" (Fig 6,
step 2). The abstraction guide lists these metaclasses for pattern pairing;
the abstraction engine navigates models conforming to this metamodel.
"""

from __future__ import annotations

from typing import Optional

from repro.meta.metamodel import AttributeKind, MetaModel

COMDES_METAMODEL_NAME = "comdes"


_SHARED: Optional[MetaModel] = None


def comdes_metamodel() -> MetaModel:
    """The COMDES metamodel, built and frozen once per process.

    Every reflected system shares this one instance, so a model-debugger
    run builds no metaclasses of its own. It is built on the first call,
    not at import, and it is frozen (:meth:`MetaModel.freeze`): changing
    it raises.
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = _build_comdes_metamodel().freeze()
    return _SHARED


def _build_comdes_metamodel() -> MetaModel:
    """Build (and consistency-check) the COMDES metamodel."""
    mm = MetaModel(COMDES_METAMODEL_NAME)

    named = mm.define("NamedElement", abstract=True)
    named.attribute("name", AttributeKind.STR, required=True)
    named.attribute("path", AttributeKind.STR, required=True)

    system = mm.define("System", supertypes=["NamedElement"])
    system.reference("signals", "Signal", containment=True, many=True)
    system.reference("actors", "Actor", containment=True, many=True)

    signal = mm.define("Signal", supertypes=["NamedElement"])
    signal.attribute("init", AttributeKind.INT, default=0)
    signal.attribute("unit", AttributeKind.STR, default="")

    actor = mm.define("Actor", supertypes=["NamedElement"])
    actor.attribute("period_us", AttributeKind.INT, required=True)
    actor.attribute("deadline_us", AttributeKind.INT, required=True)
    actor.attribute("offset_us", AttributeKind.INT, default=0)
    actor.attribute("priority", AttributeKind.INT, default=1)
    actor.attribute("node", AttributeKind.STR, default="node0")
    actor.reference("network", "Network", containment=True, required=True)
    actor.reference("consumes", "Signal", many=True)
    actor.reference("produces", "Signal", many=True)

    network = mm.define("Network", supertypes=["NamedElement"])
    network.reference("blocks", "FunctionBlock", containment=True, many=True)
    network.reference("connections", "Connection", containment=True, many=True)
    network.reference("ports", "Port", containment=True, many=True)

    port = mm.define("Port", supertypes=["NamedElement"])
    port.attribute("direction", AttributeKind.ENUM, enum_values=("in", "out"),
                   required=True)

    block = mm.define("FunctionBlock", abstract=True, supertypes=["NamedElement"])
    block.attribute("kind", AttributeKind.STR, required=True)

    mm.define("BasicFB", supertypes=["FunctionBlock"]).attribute(
        "params", AttributeKind.STR, default=""
    )

    composite = mm.define("CompositeFB", supertypes=["FunctionBlock"])
    composite.reference("subnetwork", "Network", containment=True, required=True)

    modal = mm.define("ModalFB", supertypes=["FunctionBlock"])
    modal.reference("modes", "Mode", containment=True, many=True)

    mode = mm.define("Mode", supertypes=["NamedElement"])
    mode.reference("network", "Network", containment=True, required=True)

    smfb = mm.define("StateMachineFB", supertypes=["FunctionBlock"])
    smfb.reference("machine", "StateMachine", containment=True, required=True)

    machine = mm.define("StateMachine", supertypes=["NamedElement"])
    machine.attribute("initial", AttributeKind.STR, required=True)
    machine.reference("states", "State", containment=True, many=True)
    machine.reference("transitions", "Transition", containment=True, many=True)

    mm.define("State", supertypes=["NamedElement"])

    transition = mm.define("Transition", supertypes=["NamedElement"])
    transition.attribute("guard", AttributeKind.STR, default="1")
    transition.attribute("actions", AttributeKind.STR, default="")
    transition.reference("source", "State", required=True)
    transition.reference("target", "State", required=True)

    connection = mm.define("Connection", supertypes=["NamedElement"])
    connection.attribute("src", AttributeKind.STR, required=True)
    connection.attribute("dst", AttributeKind.STR, required=True)

    mm.check()
    return mm
