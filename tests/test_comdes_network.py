"""Tests for component networks, composite and modal blocks."""

import pytest

from repro.comdes.blocks import DelayFB, GainFB, SequenceFB, SubFB
from repro.comdes.composite import CompositeFB
from repro.comdes.dataflow import ComponentNetwork, Connection, PortRef
from repro.comdes.modal import ModalFB, Mode
from repro.errors import ModelError, ValidationError


def difference_network() -> ComponentNetwork:
    """(a - b) * 2 with an explicit gain block."""
    return ComponentNetwork(
        name="difference",
        blocks=[SubFB("diff"), GainFB("double", num=2)],
        connections=[Connection.wire("diff.y", "double.u")],
        input_ports={"a": [PortRef("diff", "a")],
                     "b": [PortRef("diff", "b")]},
        output_ports={"y": PortRef("double", "y")},
    )


def counter_network() -> ComponentNetwork:
    """A feedback counter: y[k] = y[k-1] - (-1), broken by a delay block."""
    return ComponentNetwork(
        name="counter",
        blocks=[DelayFB("z"), SubFB("inc"), SequenceFB("minus_one", [-1])],
        connections=[
            Connection.wire("z.y", "inc.a"),
            Connection.wire("minus_one.y", "inc.b"),
            Connection.wire("inc.y", "z.u"),
        ],
        input_ports={},
        output_ports={"count": PortRef("inc", "y")},
    )


class TestWiring:
    def test_simple_network_steps(self):
        outs = difference_network().run([{"a": 2, "b": 3},
                                          {"a": 10, "b": -4}])
        assert [o["y"] for o in outs] == [-2, 28]

    def test_duplicate_block_names_rejected(self):
        with pytest.raises(ValidationError):
            ComponentNetwork("n", blocks=[SubFB("x"), SubFB("x")],
                             input_ports={"a": [PortRef("x", "a")],
                                          "b": [PortRef("x", "b")]},
                             output_ports={})

    def test_unknown_block_in_connection_rejected(self):
        with pytest.raises(ValidationError):
            ComponentNetwork(
                "n", blocks=[SubFB("diff")],
                connections=[Connection.wire("ghost.y", "diff.a")],
                input_ports={"b": [PortRef("diff", "b")]},
                output_ports={},
            )

    def test_unknown_port_rejected(self):
        with pytest.raises(ValidationError):
            ComponentNetwork(
                "n", blocks=[SubFB("diff"), SequenceFB("k", [1])],
                connections=[Connection.wire("k.y", "diff.nope")],
                input_ports={"a": [PortRef("diff", "a")],
                             "b": [PortRef("diff", "b")]},
                output_ports={},
            )

    def test_double_driven_input_rejected(self):
        with pytest.raises(ValidationError):
            ComponentNetwork(
                "n", blocks=[SequenceFB("k1", [1]), SequenceFB("k2", [2]),
                             GainFB("g", num=1)],
                connections=[Connection.wire("k1.y", "g.u"),
                             Connection.wire("k2.y", "g.u")],
                output_ports={},
            )

    def test_unconnected_input_rejected(self):
        with pytest.raises(ValidationError):
            ComponentNetwork("n", blocks=[SubFB("diff")], output_ports={})

    def test_missing_network_input_value_raises(self):
        net = difference_network()
        with pytest.raises(ModelError):
            net.step({"a": 1}, net.initial_state())

    def test_portref_parse(self):
        ref = PortRef.parse("block.port")
        assert (ref.block, ref.port) == ("block", "port")
        with pytest.raises(ModelError):
            PortRef.parse("no_dot")


class TestCyclesAndOrder:
    def test_combinational_cycle_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            ComponentNetwork(
                "loop", blocks=[SubFB("a"), GainFB("g", num=1)],
                connections=[Connection.wire("a.y", "g.u"),
                             Connection.wire("g.y", "a.a")],
                input_ports={"seed": [PortRef("a", "b")]},
                output_ports={},
            )
        assert "DelayFB" in str(excinfo.value)

    def test_delay_breaks_cycle(self):
        outs = counter_network().run([{}] * 5)
        assert [o["count"] for o in outs] == [1, 2, 3, 4, 5]

    def test_evaluation_order_moore_first(self):
        order = counter_network().evaluation_order()
        assert order.index("z") < order.index("inc")
        assert order.index("minus_one") < order.index("inc")

    def test_stimulus_sequence_advances_without_inputs(self):
        net = ComponentNetwork(
            "stim", blocks=[SequenceFB("s", values=[7, 8, 9])],
            output_ports={"y": PortRef("s", "y")},
        )
        assert [o["y"] for o in net.run([{}] * 3)] == [7, 8, 9]

    def test_fan_out_from_network_input(self):
        net = ComponentNetwork(
            "fan", blocks=[SubFB("diff"), GainFB("double", num=2)],
            connections=[Connection.wire("double.y", "diff.b")],
            input_ports={"u": [PortRef("diff", "a"), PortRef("double", "u")]},
            output_ports={"y": PortRef("diff", "y")},
        )
        assert net.run([{"u": 3}])[0]["y"] == -3


class TestCompositeBlock:
    def test_composite_exposes_boundary_ports(self):
        block = CompositeFB("comp", difference_network())
        assert block.inputs == ["a", "b"]
        assert block.outputs == ["y"]

    def test_composite_matches_inner_network(self):
        inner = difference_network()
        block = CompositeFB("comp", difference_network())
        state = block.state_vars()
        out, state = block.behavior({"a": 2, "b": 3}, state)
        assert out == inner.run([{"a": 2, "b": 3}])[0]

    def test_composite_preserves_inner_state(self):
        block = CompositeFB("comp", counter_network())
        state = block.state_vars()
        values = []
        for _ in range(4):
            out, state = block.behavior({}, state)
            values.append(out["count"])
        assert values == [1, 2, 3, 4]

    def test_composite_nests_in_network(self):
        net = ComponentNetwork(
            "outer",
            blocks=[CompositeFB("inner_counter", counter_network()),
                    GainFB("scale", num=10)],
            connections=[Connection.wire("inner_counter.count", "scale.u")],
            output_ports={"y": PortRef("scale", "y")},
        )
        assert [o["y"] for o in net.run([{}] * 3)] == [10, 20, 30]


def two_mode_modal() -> ModalFB:
    """Mode 0 doubles the input; mode 1 is a counter ignoring the input."""
    double_net = ComponentNetwork(
        "double", blocks=[GainFB("g", num=2)],
        input_ports={"u": [PortRef("g", "u")]},
        output_ports={"y": PortRef("g", "y")},
    )
    count_net = ComponentNetwork(
        "count",
        blocks=[DelayFB("z"), SubFB("inc"), SequenceFB("minus_one", [-1])],
        connections=[
            Connection.wire("z.y", "inc.a"),
            Connection.wire("minus_one.y", "inc.b"),
            Connection.wire("inc.y", "z.u"),
        ],
        input_ports={"u": []},  # declared but unused
        output_ports={"y": PortRef("inc", "y")},
    )
    return ModalFB("modal", modes=[Mode("DOUBLE", double_net),
                                   Mode("COUNT", count_net)])


class TestModalBlock:
    def test_ports_include_selector(self):
        block = two_mode_modal()
        assert block.inputs == ["mode", "u"]
        assert block.outputs == ["y"]

    def test_mode_switching(self):
        block = two_mode_modal()
        state = block.state_vars()
        out0, state = block.behavior({"mode": 0, "u": 21}, state)
        out1, state = block.behavior({"mode": 1, "u": 21}, state)
        assert out0["y"] == 42
        assert out1["y"] == 1

    def test_inactive_mode_state_frozen(self):
        block = two_mode_modal()
        state = block.state_vars()
        _, state = block.behavior({"mode": 1, "u": 0}, state)  # count -> 1
        _, state = block.behavior({"mode": 0, "u": 5}, state)  # doubling
        out, state = block.behavior({"mode": 1, "u": 0}, state)  # count resumes
        assert out["y"] == 2

    def test_selector_clamped(self):
        block = two_mode_modal()
        state = block.state_vars()
        out, _ = block.behavior({"mode": 99, "u": 0}, state)  # clamps to COUNT
        assert out["y"] == 1

    def test_mismatched_mode_signatures_rejected(self):
        a = ComponentNetwork("a", blocks=[GainFB("g", num=1)],
                             input_ports={"u": [PortRef("g", "u")]},
                             output_ports={"y": PortRef("g", "y")})
        b = ComponentNetwork("b", blocks=[SequenceFB("k", [1])],
                             output_ports={"out": PortRef("k", "y")})
        with pytest.raises(ModelError):
            ModalFB("bad", modes=[Mode("A", a), Mode("B", b)])

    def test_empty_modes_rejected(self):
        with pytest.raises(ModelError):
            ModalFB("bad", modes=[])

    def test_reserved_port_name_rejected(self):
        net = ComponentNetwork("n", blocks=[GainFB("g", num=1)],
                               input_ports={"mode": [PortRef("g", "u")]},
                               output_ports={"y": PortRef("g", "y")})
        with pytest.raises(ModelError):
            ModalFB("bad", modes=[Mode("A", net)])
