"""Tests for the GDM core: patterns, mapping, abstraction, guide, reactions."""

import pytest

from repro.comdes.examples import cruise_control_system, traffic_light_system
from repro.comdes.reflect import system_to_model
from repro.comm.protocol import Command, CommandKind
from repro.errors import AbstractionError
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.guide import AbstractionGuide
from repro.gdm.mapping import MappingRule, MappingTable, default_comdes_table
from repro.gdm.metamodel import gdm_metamodel
from repro.gdm.model import CommandBinding, GdmModel
from repro.gdm.patterns import PatternKind, PatternSpec
from repro.gdm.reactions import apply_reaction, decay_pulses
from repro.gdm.scenegen import gdm_to_scene
from repro.meta.validate import validate_model


def traffic_gdm():
    model = system_to_model(traffic_light_system())
    table = default_comdes_table(model.metamodel)
    return AbstractionEngine(table).build(model), model


class TestPatterns:
    def test_from_name_case_insensitive(self):
        assert PatternKind.from_name("rectangle") is PatternKind.RECTANGLE
        assert PatternKind.from_name("Arrow") is PatternKind.ARROW

    def test_unknown_pattern_rejected(self):
        with pytest.raises(AbstractionError):
            PatternKind.from_name("hexagon")

    def test_edge_detection(self):
        assert PatternKind.ARROW.is_edge and PatternKind.LINE.is_edge
        assert not PatternKind.CIRCLE.is_edge

    def test_spec_size_validation(self):
        with pytest.raises(AbstractionError):
            PatternSpec(PatternKind.CIRCLE, width=0)


class TestMappingTable:
    def test_pairing_requires_known_metaclass(self):
        model = system_to_model(traffic_light_system())
        table = MappingTable(model.metamodel)
        with pytest.raises(AbstractionError):
            table.pair(MappingRule("Martian",
                                   PatternSpec(PatternKind.CIRCLE)))

    def test_rule_inheritance_lookup(self):
        model = system_to_model(traffic_light_system())
        table = MappingTable(model.metamodel)
        table.pair(MappingRule("FunctionBlock",
                               PatternSpec(PatternKind.RECTANGLE)))
        # StateMachineFB inherits FunctionBlock's rule.
        assert table.rule_for("StateMachineFB").metaclass_name == "FunctionBlock"

    def test_unpair(self):
        model = system_to_model(traffic_light_system())
        table = default_comdes_table(model.metamodel)
        table.unpair("Signal")
        assert table.rule_for("Signal") is None
        with pytest.raises(AbstractionError):
            table.unpair("Signal")

    def test_edge_rule_needs_edge_pattern(self):
        model = system_to_model(traffic_light_system())
        MappingTable(model.metamodel)
        with pytest.raises(AbstractionError):
            MappingRule("Transition", PatternSpec(PatternKind.CIRCLE),
                        render_as="edge")
        with pytest.raises(AbstractionError):
            MappingRule("State", PatternSpec(PatternKind.ARROW),
                        render_as="node")


class TestAbstraction:
    def test_elements_created_for_node_rules(self):
        gdm, model = traffic_gdm()
        state_elements = [e for e in gdm.elements.values()
                          if e.source_path.startswith("state:")]
        assert len(state_elements) == 3

    def test_links_resolve_transition_endpoints(self):
        gdm, _ = traffic_gdm()
        trans_links = [l for l in gdm.links.values()
                       if l.source_path.startswith("trans:")]
        assert len(trans_links) == 7
        for link in trans_links:
            assert gdm.elements[link.src_id].source_path.startswith("state:")
            assert gdm.elements[link.dst_id].source_path.startswith("state:")

    def test_connection_links_resolve_block_endpoints(self):
        model = system_to_model(cruise_control_system())
        gdm = AbstractionEngine(default_comdes_table(model.metamodel)).build(model)
        conn_links = [l for l in gdm.links.values()
                      if l.source_path.startswith("conn:")]
        assert conn_links

    def test_states_grouped_by_machine(self):
        gdm, _ = traffic_gdm()
        red = gdm.element_by_path("state:lights.lamp.RED")
        assert red.group
        assert len(gdm.elements_in_group(red.group)) == 3

    def test_layout_assigned(self):
        gdm, _ = traffic_gdm()
        for element in gdm.elements.values():
            assert element.rect is not None

    def test_default_bindings_installed(self):
        gdm, _ = traffic_gdm()
        kinds = {(b.command_kind, b.reaction) for b in gdm.bindings}
        assert (CommandKind.STATE_ENTER, "HIGHLIGHT") in kinds
        assert (CommandKind.SIG_UPDATE, "ANNOTATE") in kinds

    def test_empty_mapping_rejected(self):
        model = system_to_model(traffic_light_system())
        table = MappingTable(model.metamodel)
        with pytest.raises(AbstractionError):
            AbstractionEngine(table).build(model)

    def test_wrong_metamodel_rejected(self):
        model = system_to_model(traffic_light_system())
        other_table = MappingTable(gdm_metamodel())
        with pytest.raises(AbstractionError):
            AbstractionEngine(other_table).build(model)

    def test_gdm_reflective_form_validates(self):
        gdm, _ = traffic_gdm()
        meta = gdm.to_meta_model()
        validate_model(meta)
        assert len(meta.objects_of("GraphicalElement")) == len(gdm.elements)
        assert len(meta.objects_of("CommandBinding")) == len(gdm.bindings)


class TestGuide:
    def test_element_list_shows_instance_counts(self):
        model = system_to_model(traffic_light_system())
        guide = AbstractionGuide(model)
        counts = dict(guide.element_list())
        assert counts["State"] == 3
        assert counts["Transition"] == 7

    def test_manual_pairing_workflow(self):
        model = system_to_model(traffic_light_system())
        guide = AbstractionGuide(model)
        guide.pair("State", "Circle", group_by_container=True)
        guide.pair("Transition", "Arrow")
        guide.pair("Signal", "Triangle")
        guide.delete_pairing("Signal")
        assert guide.pairings() == [("State", "Circle"),
                                    ("Transition", "Arrow")]
        gdm = guide.finish()
        assert len(gdm.elements) == 3  # states only

    def test_finish_requires_node_rule(self):
        model = system_to_model(traffic_light_system())
        guide = AbstractionGuide(model)
        guide.pair("Transition", "Arrow")
        with pytest.raises(AbstractionError):
            guide.finish()

    def test_finish_is_single_shot(self):
        model = system_to_model(traffic_light_system())
        guide = AbstractionGuide(model)
        guide.pair("State", "Circle")
        guide.finish()
        with pytest.raises(AbstractionError):
            guide.pair("Signal", "Triangle")

    def test_dialog_renders_fig4_parts(self):
        model = system_to_model(traffic_light_system())
        guide = AbstractionGuide(model)
        guide.pair("State", "Circle")
        dialog = guide.render_dialog()
        assert "Meta-model elements" in dialog
        assert "GDM pattern options" in dialog
        assert "State -> Circle" in dialog
        assert "ABSTRACTION FINISHED" in dialog


class TestReactions:
    def command(self, path, value=0, kind=CommandKind.STATE_ENTER):
        return Command(kind, path, value, t_target=10, t_host=20)

    def test_highlight_is_exclusive_within_group(self):
        gdm, _ = traffic_gdm()
        red_path = "state:lights.lamp.RED"
        green_path = "state:lights.lamp.GREEN"
        binding = CommandBinding(CommandKind.STATE_ENTER, red_path, "HIGHLIGHT")
        apply_reaction(gdm, binding, self.command(red_path))
        binding2 = CommandBinding(CommandKind.STATE_ENTER, green_path, "HIGHLIGHT")
        apply_reaction(gdm, binding2, self.command(green_path))
        assert not gdm.element_by_path(red_path).highlighted
        assert gdm.element_by_path(green_path).highlighted

    def test_annotate_sets_value(self):
        gdm, _ = traffic_gdm()
        binding = CommandBinding(CommandKind.SIG_UPDATE, "signal:light",
                                 "ANNOTATE")
        apply_reaction(gdm, binding,
                       self.command("signal:light", 2, CommandKind.SIG_UPDATE))
        assert gdm.element_by_path("signal:light").style["value"] == "2"

    def test_mark_error(self):
        gdm, _ = traffic_gdm()
        path = "state:lights.lamp.RED"
        binding = CommandBinding(CommandKind.STATE_ENTER, path, "MARK_ERROR")
        apply_reaction(gdm, binding, self.command(path))
        assert gdm.element_by_path(path).style["error"] == "true"

    def test_unmapped_path_returns_none(self):
        gdm, _ = traffic_gdm()
        binding = CommandBinding(CommandKind.STATE_ENTER, "state:ghost.x.S",
                                 "HIGHLIGHT")
        assert apply_reaction(gdm, binding,
                              self.command("state:ghost.x.S")) is None

    def test_link_pulse(self):
        gdm, _ = traffic_gdm()
        link = next(l for l in gdm.links.values()
                    if l.source_path.startswith("trans:"))
        binding = CommandBinding(CommandKind.TRANS_FIRED, link.source_path,
                                 "PULSE")
        record = apply_reaction(
            gdm, binding,
            self.command(link.source_path, kind=CommandKind.TRANS_FIRED))
        assert record is not None
        assert link.style["pulse"] == "true"

    def test_decay_pulses(self):
        gdm, _ = traffic_gdm()
        path = "state:lights.lamp.RED"
        binding = CommandBinding(CommandKind.STATE_ENTER, path, "PULSE")
        apply_reaction(gdm, binding, self.command(path))
        affected = decay_pulses(gdm)
        assert gdm.element_by_path(path).id in affected
        assert "pulse" not in gdm.element_by_path(path).style

    def test_wildcard_selector(self):
        binding = CommandBinding(CommandKind.STATE_ENTER,
                                 "state:lights.lamp.*", "HIGHLIGHT")
        assert binding.matches(self.command("state:lights.lamp.RED"))
        assert not binding.matches(self.command("state:other.lamp.RED"))

    def test_kind_mismatch_not_matched(self):
        binding = CommandBinding(CommandKind.SIG_UPDATE, "signal:light",
                                 "ANNOTATE")
        assert not binding.matches(self.command("signal:light"))


class TestSceneGeneration:
    def test_scene_covers_elements_and_links(self):
        gdm, _ = traffic_gdm()
        scene = gdm_to_scene(gdm)
        assert len(scene) == len(gdm.elements) + len(gdm.links)

    def test_highlight_carried_to_scene_style(self):
        gdm, _ = traffic_gdm()
        path = "state:lights.lamp.RED"
        gdm.element_by_path(path).style["highlighted"] = "true"
        scene = gdm_to_scene(gdm)
        node = scene.node(gdm.element_by_path(path).id)
        assert node.style["highlighted"] == "true"

    def test_missing_layout_raises(self):
        gdm = GdmModel("g")
        gdm.add_element("x", PatternSpec(PatternKind.CIRCLE), "state:a.b.X")
        from repro.errors import RenderError
        with pytest.raises(RenderError):
            gdm_to_scene(gdm)


class TestCustomTemplates:
    """The paper's "customized graphical model templates" feature."""

    def test_guide_custom_fill_and_size(self):
        model = system_to_model(traffic_light_system())
        guide = AbstractionGuide(model)
        guide.pair("State", "Circle", fill="#aaddff", width=20, height=8,
                   group_by_container=True)
        gdm = guide.finish()
        element = gdm.element_by_path("state:lights.lamp.RED")
        assert element.pattern.fill == "#aaddff"
        assert element.pattern.width == 20
        assert element.rect.w == 20 and element.rect.h == 8

    def test_custom_fill_reaches_svg(self):
        from repro.render.svg import scene_to_svg
        model = system_to_model(traffic_light_system())
        guide = AbstractionGuide(model)
        guide.pair("State", "Rectangle", fill="#123456",
                   group_by_container=True)
        gdm = guide.finish()
        svg = scene_to_svg(gdm_to_scene(gdm))
        assert "#123456" in svg

    def test_custom_stroke_reaches_scene(self):
        model = system_to_model(traffic_light_system())
        guide = AbstractionGuide(model)
        guide.pair("State", "Circle", stroke="#ff0000")
        gdm = guide.finish()
        scene = gdm_to_scene(gdm)
        node = scene.node(next(iter(gdm.elements)))
        assert node.style["stroke"] == "#ff0000"
