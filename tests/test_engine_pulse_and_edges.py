"""Pulse decay semantics, codegen error paths, and misc edge coverage."""

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.lower_blocks import GenContext, NetworkCodegen
from repro.codegen.pipeline import generate_firmware
from repro.comdes.blocks import FunctionBlock, MooreBlock
from repro.comdes.dataflow import ComponentNetwork, PortRef
from repro.comdes.examples import traffic_light_system
from repro.comdes.reflect import system_to_model
from repro.comm.channel import DebugChannel, PassiveChannel, WatchSpec
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.protocol import Command, CommandKind
from repro.engine.engine import DebuggerEngine
from repro.errors import CodegenError
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.mapping import default_comdes_table
from repro.rtos.kernel import DtmKernel
from repro.target.board import DebugPort
from repro.util.timeunits import ms


class FakeChannel(DebugChannel):
    def halt_target(self):
        pass

    def resume_target(self):
        pass


def engine_with_gdm():
    model = system_to_model(traffic_light_system())
    gdm = AbstractionEngine(default_comdes_table(model.metamodel)).build(model)
    channel = FakeChannel()
    return DebuggerEngine(gdm, channel=channel), channel, gdm


class TestPulseDecay:
    def test_pulse_lives_exactly_one_step(self):
        engine, channel, gdm = engine_with_gdm()
        link = next(l for l in gdm.links.values()
                    if l.source_path.startswith("trans:"))
        channel.deliver(Command(CommandKind.TRANS_FIRED, link.source_path, 0,
                                t_target=10, t_host=10))
        assert link.style.get("pulse") == "true"
        channel.deliver(Command(CommandKind.SIG_UPDATE, "signal:light", 1,
                                t_target=20, t_host=20))
        assert "pulse" not in link.style

    def test_highlight_survives_pulse_decay(self):
        engine, channel, gdm = engine_with_gdm()
        channel.deliver(Command(CommandKind.STATE_ENTER,
                                "state:lights.lamp.GREEN", 1,
                                t_target=10, t_host=10))
        channel.deliver(Command(CommandKind.SIG_UPDATE, "signal:light", 1,
                                t_target=20, t_host=20))
        assert gdm.element_by_path("state:lights.lamp.GREEN").highlighted


class MysteryBlock(FunctionBlock):
    """A block kind the code generator has never heard of."""

    kind = "mystery"

    def __init__(self, name):
        super().__init__(name, inputs=["u"], outputs=["y"])

    def behavior(self, inputs, state):
        return {"y": inputs["u"]}, state


class MysteryMoore(MooreBlock):
    kind = "mystery-moore"

    def __init__(self, name):
        super().__init__(name, inputs=[], outputs=["y"])

    def moore_output(self, state):
        return {"y": 0}

    def advance(self, inputs, state):
        return state


class TestCodegenErrorPaths:
    def _generate(self, block, input_ports=None):
        network = ComponentNetwork(
            "n", blocks=[block],
            input_ports=input_ports or {},
            output_ports={"y": PortRef(block.name, "y")},
        )
        ctx = GenContext(InstrumentationPlan.none())
        input_symbols = {}
        for port in network.input_ports:
            ctx.alloc(f"a.in.{port}", "input")
            input_symbols[port] = f"a.in.{port}"
        gen = NetworkCodegen(ctx, network, "a", "", input_symbols)
        gen.declare()
        gen.emit_step()

    def test_unknown_mealy_block_rejected(self):
        with pytest.raises(CodegenError):
            self._generate(MysteryBlock("m"),
                           input_ports={"u": [PortRef("m", "u")]})

    def test_unknown_moore_block_rejected(self):
        with pytest.raises(CodegenError):
            self._generate(MysteryMoore("m"))

    def test_emit_before_declare_rejected(self):
        network = ComponentNetwork(
            "n", blocks=[MysteryMoore("m")],
            output_ports={"y": PortRef("m", "y")},
        )
        ctx = GenContext(InstrumentationPlan.none())
        gen = NetworkCodegen(ctx, network, "a", "", {})
        with pytest.raises(CodegenError):
            gen.emit_step()

    def test_double_declare_rejected(self):
        network = ComponentNetwork(
            "n", blocks=[MysteryMoore("m")],
            output_ports={"y": PortRef("m", "y")},
        )
        ctx = GenContext(InstrumentationPlan.none())
        gen = NetworkCodegen(ctx, network, "a", "", {})
        gen.declare()
        with pytest.raises(CodegenError):
            gen.declare()


class TestNestedMachinePassiveWatch:
    def test_passive_watch_of_machine_inside_modal_mode(self):
        # The nested blinker (modal mode BLINK) is watchable through JTAG
        # using the same scope convention codegen allocates.
        from tests.test_codegen_nesting import nested_system
        system = nested_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        kernel = DtmKernel(system, firmware)
        sim = kernel.sim
        board = kernel.board_of("node0")
        probe = JtagProbe(TapController(DebugPort(board)))
        machine = None
        from repro.engine.session import iter_blocks_with_scope
        from repro.comdes.blocks import StateMachineFB
        for scope, block in iter_blocks_with_scope(
                system.actor("nester").network):
            if isinstance(block, StateMachineFB):
                machine = (scope, block.machine)
        assert machine is not None
        scope, sm = machine
        channel = PassiveChannel(
            sim, probe, firmware,
            [WatchSpec.state_machine("nester", scope, sm)],
            poll_period_us=300,
        )
        channel.start()
        seen = []
        channel.subscribe(seen.append)
        kernel.run(ms(1) * 30)
        paths = {c.path for c in seen}
        assert paths <= {"state:nester.deep.BLINK.blink.ON",
                         "state:nester.deep.BLINK.blink.OFF"}
        assert paths  # the nested machine toggles while its mode is active


class TestCommandValueSemantics:
    def test_latency_and_equality(self):
        a = Command(CommandKind.USER, "signal:x", 5, t_target=10, t_host=25)
        b = Command(CommandKind.USER, "signal:x", 5, t_target=99, t_host=99)
        assert a.latency_us == 15
        assert a == b            # identity is (kind, path, value)
        assert hash(a) == hash(b)

    def test_default_host_time_is_target_time(self):
        command = Command(CommandKind.USER, "signal:x", 1, t_target=42)
        assert command.t_host == 42 and command.latency_us == 0
