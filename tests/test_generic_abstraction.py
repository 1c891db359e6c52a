"""The "any MOF model" claim: abstraction over a non-COMDES metamodel.

The paper: "In principle, GMDF could accept all types of system model that
follow the MOF specification." The abstraction engine only touches the
reflective API, so it must work on a metamodel it has never seen — here, a
small UML-ish deployment metamodel with nodes, components and connectors.
"""

from repro.comm.protocol import Command, CommandKind
from repro.engine.engine import DebuggerEngine
from repro.comm.channel import DebugChannel
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.guide import AbstractionGuide
from repro.gdm.mapping import MappingRule, MappingTable
from repro.gdm.patterns import PatternKind, PatternSpec
from repro.gdm.scenegen import gdm_to_scene
from repro.meta.metamodel import AttributeKind, MetaModel
from repro.meta.model import Model
from repro.render.ascii_art import scene_to_ascii


def deployment_metamodel() -> MetaModel:
    """A UML-deployment-flavoured metamodel, unrelated to COMDES."""
    mm = MetaModel("uml_deploy")
    named = mm.define("Named", abstract=True)
    named.attribute("name", AttributeKind.STR, required=True)
    deployment = mm.define("Deployment", supertypes=["Named"])
    deployment.reference("nodes", "Node", containment=True, many=True)
    deployment.reference("connectors", "Connector", containment=True,
                         many=True)
    node = mm.define("Node", supertypes=["Named"])
    node.reference("components", "Component", containment=True, many=True)
    mm.define("Component", supertypes=["Named"]).attribute(
        "version", AttributeKind.STR, default="1.0")
    connector = mm.define("Connector", supertypes=["Named"])
    connector.reference("source", "Component", required=True)
    connector.reference("target", "Component", required=True)
    mm.check()
    return mm


def deployment_model() -> Model:
    model = Model(deployment_metamodel(), name="webshop")
    root = model.create("Deployment", name="webshop")
    model.add_root(root)
    gateway = model.create("Node", name="gateway")
    backend = model.create("Node", name="backend")
    root.add_ref("nodes", gateway)
    root.add_ref("nodes", backend)
    proxy = model.create("Component", name="proxy")
    api = model.create("Component", name="api")
    db = model.create("Component", name="db")
    gateway.add_ref("components", proxy)
    backend.add_ref("components", api)
    backend.add_ref("components", db)
    for name, src, dst in (("c1", proxy, api), ("c2", api, db)):
        connector = model.create("Connector", name=name)
        connector.set_ref("source", src)
        connector.set_ref("target", dst)
        root.add_ref("connectors", connector)
    return model


class TestForeignMetamodelAbstraction:
    def test_guide_lists_foreign_metaclasses(self):
        guide = AbstractionGuide(deployment_model())
        names = {name for name, _ in guide.element_list()}
        assert {"Deployment", "Node", "Component", "Connector"} <= names

    def test_abstraction_builds_gdm_from_foreign_model(self):
        model = deployment_model()
        table = MappingTable(model.metamodel)
        table.pair(MappingRule("Node", PatternSpec(PatternKind.RECTANGLE),
                               label_attr="name"))
        table.pair(MappingRule("Component", PatternSpec(PatternKind.CIRCLE),
                               group_by_container=True))
        table.pair(MappingRule("Connector", PatternSpec(PatternKind.ARROW),
                               render_as="edge"))
        gdm = AbstractionEngine(table).build(model)
        assert len(gdm.elements) == 5      # 2 nodes + 3 components
        assert len(gdm.links) == 2         # connectors via default resolver
        # Components grouped by their owning node.
        api = next(e for e in gdm.elements.values() if e.label == "api")
        assert len(gdm.elements_in_group(api.group)) == 2  # api + db

    def test_foreign_gdm_renders(self):
        model = deployment_model()
        guide = AbstractionGuide(model)
        guide.pair("Node", "Rectangle")
        guide.pair("Component", "Circle")
        guide.pair("Connector", "Arrow")
        gdm = guide.finish()
        art = scene_to_ascii(gdm_to_scene(gdm))
        for label in ("gateway", "api", "db"):
            assert label in art

    def test_foreign_gdm_animates_from_commands(self):
        # Commands key on source paths; foreign models fall back to object
        # ids, which work the same way end to end.
        model = deployment_model()
        guide = AbstractionGuide(model)
        guide.pair("Component", "Circle")
        gdm = guide.finish()
        component = next(iter(gdm.elements.values()))
        from repro.gdm.model import CommandBinding
        gdm.add_binding(CommandBinding(CommandKind.USER,
                                       component.source_path, "HIGHLIGHT"))
        engine = DebuggerEngine(gdm, channel=DebugChannel())
        engine.channel.deliver(
            Command(CommandKind.USER, component.source_path, 1))
        assert component.highlighted
