"""Tests for the function-block library: reference semantics of each
kind, and generated code against the reference interpreter."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.codegen import InstrumentationPlan, generate_firmware, run_firmware_lockstep
from repro.comdes.actor import Actor, TaskSpec
from repro.comdes.blocks import (
    DelayFB, GainFB, IntegratorFB, PiFB, SequenceFB, StateMachineFB, SubFB,
    ThresholdFB,
)
from repro.comdes.dataflow import ComponentNetwork, Connection, PortRef
from repro.comdes.examples import blinker_machine
from repro.comdes.signals import Signal
from repro.comdes.system import System
from repro.errors import ModelError


def run_block(block, input_trace):
    """Drive a block over a list of input dicts; return outputs per step."""
    state = block.state_vars()
    outputs = []
    for inputs in input_trace:
        out, state = block.behavior(inputs, state)
        outputs.append(out)
    return outputs


class TestStatelessBlocks:
    def test_gain_rational(self):
        outs = run_block(GainFB("g", num=3, den=2), [{"u": 10}, {"u": -10}])
        assert [o["y"] for o in outs] == [15, -15]

    def test_gain_zero_denominator_rejected(self):
        with pytest.raises(ModelError):
            GainFB("g", num=1, den=0)

    def test_sub(self):
        assert run_block(SubFB("s"), [{"a": 2, "b": 3}])[0]["y"] == -1

    def test_missing_input_raises(self):
        with pytest.raises(ModelError):
            run_block(SubFB("s"), [{"a": 1}])


class TestThreshold:
    def test_basic_threshold(self):
        outs = run_block(ThresholdFB("t", limit=10),
                         [{"u": 9}, {"u": 10}, {"u": 11}, {"u": 9}])
        assert [o["y"] for o in outs] == [0, 1, 1, 0]

    def test_hysteresis_holds_on(self):
        block = ThresholdFB("t", limit=10, hysteresis=3)
        # Turns on at 10; must stay on until u < 7.
        outs = run_block(block, [{"u": 10}, {"u": 8}, {"u": 7}, {"u": 6}])
        assert [o["y"] for o in outs] == [1, 1, 1, 0]

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(ModelError):
            ThresholdFB("t", limit=0, hysteresis=-1)


class TestStatefulBlocks:
    def test_delay_shifts_by_one(self):
        outs = run_block(DelayFB("z", init=99), [{"u": 1}, {"u": 2}, {"u": 3}])
        assert [o["y"] for o in outs] == [99, 1, 2]

    def test_sequence_repeats(self):
        outs = run_block(SequenceFB("s", values=[1, 2], repeat=True), [{}] * 5)
        assert [o["y"] for o in outs] == [1, 2, 1, 2, 1]

    def test_sequence_holds_last(self):
        outs = run_block(SequenceFB("s", values=[1, 2], repeat=False), [{}] * 4)
        assert [o["y"] for o in outs] == [1, 2, 2, 2]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ModelError):
            SequenceFB("s", values=[])

    def test_integrator_accumulates_and_clamps(self):
        block = IntegratorFB("i", num=1, den=1, lo=0, hi=10)
        outs = run_block(block, [{"u": 4}, {"u": 4}, {"u": 4}, {"u": -100}])
        assert [o["y"] for o in outs] == [4, 8, 10, 0]

    def test_integrator_rational_gain(self):
        block = IntegratorFB("i", num=1, den=2, lo=-100, hi=100)
        outs = run_block(block, [{"u": 5}, {"u": 5}])
        assert [o["y"] for o in outs] == [2, 4]  # 5//2 per step

    def test_pi_proportional_and_integral(self):
        block = PiFB("pi", kp_num=2, kp_den=1, ki_num=1, ki_den=1, lo=-100, hi=100)
        outs = run_block(block, [{"e": 3}, {"e": 3}])
        # step1: acc=3, y=2*3+3=9 ; step2: acc=6, y=6+6=12
        assert [o["y"] for o in outs] == [9, 12]

    def test_pi_anti_windup_clamps_accumulator(self):
        block = PiFB("pi", kp_num=0, kp_den=1, ki_num=1, ki_den=1, lo=0, hi=5)
        outs = run_block(block, [{"e": 100}, {"e": -1}])
        # acc clamps at 5, then decreases — no windup beyond the clamp.
        assert [o["y"] for o in outs] == [5, 4]


class TestStateMachineBlock:
    def test_wraps_machine_ports(self):
        block = StateMachineFB("b", blinker_machine())
        assert block.inputs == []
        assert block.outputs == ["led"]

    def test_stepping_matches_machine(self):
        machine = blinker_machine(half_period_steps=2)
        block = StateMachineFB("b", machine)
        block_leds = [o["led"] for o in run_block(block, [{}] * 6)]
        machine_leds = [env["led"] for _, env in machine.run([{}] * 6)]
        assert block_leds == machine_leds

    def test_outputs_persist_when_no_transition_writes(self):
        machine = blinker_machine(half_period_steps=3)
        block = StateMachineFB("b", machine)
        leds = [o["led"] for o in run_block(block, [{}] * 7)]
        # led turns on at step 3 and holds until step 6
        assert leds == [0, 0, 1, 1, 1, 0, 0]


def _library_system(stimulus, limit, hysteresis):
    """A sequence stimulus through every basic block kind of the library."""
    network = ComponentNetwork(
        name="library",
        blocks=[
            SequenceFB("stim", values=stimulus, repeat=True),
            ThresholdFB("alarm", limit=limit, hysteresis=hysteresis),
            GainFB("scale", num=3, den=2),
            DelayFB("prev", init=5),
            SubFB("step"),
            IntegratorFB("acc", num=1, den=2, lo=-500, hi=500, init=7),
            PiFB("ctl", kp_num=2, kp_den=3, ki_num=1, ki_den=4,
                 lo=-1000, hi=1000),
        ],
        connections=[
            Connection.wire("stim.y", "alarm.u"),
            Connection.wire("stim.y", "scale.u"),
            Connection.wire("stim.y", "prev.u"),
            Connection.wire("stim.y", "step.a"),
            Connection.wire("prev.y", "step.b"),
            Connection.wire("step.y", "acc.u"),
            Connection.wire("step.y", "ctl.e"),
        ],
        output_ports={
            "alarm": PortRef("alarm", "y"),
            "scale": PortRef("scale", "y"),
            "prev": PortRef("prev", "y"),
            "step": PortRef("step", "y"),
            "acc": PortRef("acc", "y"),
            "ctl": PortRef("ctl", "y"),
        },
    )
    ports = sorted(network.output_ports)
    actor = Actor("lib", network, TaskSpec(period_us=1000),
                  outputs={port: port for port in ports})
    return System("library_sys", signals=[Signal(port) for port in ports],
                  actors=[actor])


class TestBlocksCompile:
    """Generated code equals the reference interpreter for every kind."""

    @pytest.mark.parametrize("plan", ["full", "none"])
    @given(stimulus=st.lists(st.integers(-1000, 1000), min_size=2,
                             max_size=12),
           limit=st.integers(-200, 200), hysteresis=st.integers(0, 300))
    @example(stimulus=[0, 10, 8, 7, 6, 12], limit=10, hysteresis=3)
    @settings(max_examples=30, deadline=None)
    def test_firmware_matches_interpreter(self, plan, stimulus, limit,
                                          hysteresis):
        system = _library_system(stimulus, limit, hysteresis)
        firmware = generate_firmware(
            system, getattr(InstrumentationPlan, plan)())
        assert (run_firmware_lockstep(system, firmware, 30)
                == system.lockstep_run(30))
