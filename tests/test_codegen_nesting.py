"""Differential tests for deeply nested hierarchy in generated code.

Modal blocks containing composites containing state machines exercise the
trickiest codegen paths: scoped symbol naming, per-mode state freezing, and
recursive phase ordering. Reference interpreter and firmware must agree.
"""

from repro.codegen import InstrumentationPlan, generate_firmware, run_firmware_lockstep
from repro.comdes.actor import Actor, TaskSpec
from repro.comdes.blocks import (
    DelayFB, GainFB, SequenceFB, StateMachineFB, SubFB,
)
from repro.comdes.composite import CompositeFB
from repro.comdes.dataflow import ComponentNetwork, Connection, PortRef
from repro.comdes.examples import blinker_machine
from repro.comdes.modal import ModalFB, Mode
from repro.comdes.signals import Signal
from repro.comdes.system import System


def counter_composite(name: str) -> CompositeFB:
    """A composite wrapping a feedback counter (delay-broken cycle):
    ``y = z - (-1)``."""
    network = ComponentNetwork(
        name=f"{name}_net",
        blocks=[DelayFB("z"), SubFB("inc"), SequenceFB("minus_one", [-1])],
        connections=[
            Connection.wire("z.y", "inc.a"),
            Connection.wire("minus_one.y", "inc.b"),
            Connection.wire("inc.y", "z.u"),
        ],
        input_ports={"u": []},  # ignored input, for modal signature parity
        output_ports={"y": PortRef("inc", "y")},
    )
    return CompositeFB(name, network)


def sm_in_network() -> ComponentNetwork:
    """A network with an FSM whose output is post-processed."""
    return ComponentNetwork(
        name="smnet",
        blocks=[StateMachineFB("blink", blinker_machine(2)),
                GainFB("amp", num=10)],
        connections=[Connection.wire("blink.led", "amp.u")],
        input_ports={"u": []},
        output_ports={"y": PortRef("amp", "y")},
    )


def nested_system() -> System:
    """Modal block: mode A = composite counter, mode B = FSM network."""
    modal = ModalFB("deep", modes=[
        Mode("COUNT", ComponentNetwork(
            "count_wrap",
            blocks=[counter_composite("cnt")],
            input_ports={"u": [PortRef("cnt", "u")]},
            output_ports={"y": PortRef("cnt", "y")},
        )),
        Mode("BLINK", sm_in_network()),
    ])
    network = ComponentNetwork(
        name="top",
        blocks=[
            SequenceFB("selector", values=[0, 0, 0, 1, 1, 1, 1, 0],
                       repeat=True),
            SequenceFB("feed", values=[5]),
            modal,
        ],
        connections=[
            Connection.wire("selector.y", "deep.mode"),
            Connection.wire("feed.y", "deep.u"),
        ],
        output_ports={"out": PortRef("deep", "y")},
    )
    actor = Actor("nester", network, TaskSpec(period_us=1000),
                  outputs={"out": "out"})
    return System("nested", signals=[Signal("out")], actors=[actor])


class TestDeepNesting:
    def test_interpreter_behaviour_is_sane(self):
        history = nested_system().lockstep_run(16)
        values = [row["out"] for row in history]
        # Rounds 0-2: counter counts 1,2,3; rounds 3-6: blinker FSM amplified
        # (0 or 10); round 7 back to counting from 4 (state frozen).
        assert values[0:3] == [1, 2, 3]
        assert set(values[3:7]) <= {0, 10}
        assert values[7] == 4

    def test_firmware_matches_interpreter_uninstrumented(self):
        system = nested_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        assert (run_firmware_lockstep(system, firmware, 40)
                == system.lockstep_run(40))

    def test_firmware_matches_interpreter_instrumented(self):
        system = nested_system()
        firmware = generate_firmware(system, InstrumentationPlan.full())
        assert (run_firmware_lockstep(system, firmware, 40)
                == system.lockstep_run(40))

    def test_nested_symbols_are_scoped(self):
        firmware = generate_firmware(nested_system(),
                                     InstrumentationPlan.none())
        names = [s.name for s in firmware.symbols.symbols()]
        # Composite inside modal mode: full scope chain in the symbol name.
        assert any("deep.COUNT.cnt" in n for n in names)
        assert any("deep.BLINK.blink.$_state" in n for n in names)

    def test_state_paths_match_reflect_convention(self):
        from repro.comdes.reflect import system_to_model
        system = nested_system()
        firmware = generate_firmware(system, InstrumentationPlan.full())
        model_paths = {obj.get("path")
                       for obj in system_to_model(system).all_objects()}
        for path in firmware.path_table.values():
            if path.startswith(("state:", "trans:")):
                assert path in model_paths, path
