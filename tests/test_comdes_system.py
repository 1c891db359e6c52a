"""Tests for actors, systems, validation, examples and reflection."""

import pytest

from repro.comdes.actor import Actor, TaskSpec
from repro.comdes.blocks import GainFB, SequenceFB
from repro.comdes.dataflow import ComponentNetwork, PortRef
from repro.comdes.examples import (
    blinker_system, cruise_control_system, traffic_light_system,
)
from repro.comdes.reflect import collect_state_paths, system_to_model
from repro.comdes.signals import Signal
from repro.comdes.system import System
from repro.comdes.validate import system_problems, validate_system
from repro.errors import ModelError, ValidationError
from repro.meta.validate import validate_model


class TestTaskSpec:
    def test_deadline_defaults_to_period(self):
        task = TaskSpec(period_us=1000)
        assert task.deadline_us == 1000

    def test_invalid_period_rejected(self):
        with pytest.raises(ModelError):
            TaskSpec(period_us=0)

    def test_deadline_beyond_period_rejected(self):
        with pytest.raises(ModelError):
            TaskSpec(period_us=100, deadline_us=200)

    def test_negative_offset_rejected(self):
        with pytest.raises(ModelError):
            TaskSpec(period_us=100, offset_us=-1)


class TestActorBinding:
    def passthrough_network(self):
        return ComponentNetwork(
            "pass", blocks=[GainFB("g", num=1)],
            input_ports={"u": [PortRef("g", "u")]},
            output_ports={"y": PortRef("g", "y")},
        )

    def test_unbound_input_port_rejected(self):
        with pytest.raises(ModelError):
            Actor("a", self.passthrough_network(), TaskSpec(1000))

    def test_unknown_port_binding_rejected(self):
        with pytest.raises(ModelError):
            Actor("a", self.passthrough_network(), TaskSpec(1000),
                  inputs={"ghost": "sig"})

    def test_signal_maps_invert(self):
        actor = Actor("a", self.passthrough_network(), TaskSpec(1000),
                      inputs={"u": "in_sig"}, outputs={"y": "out_sig"})
        assert actor.consumed_signals() == {"in_sig": "u"}
        assert actor.produced_signals() == {"out_sig": "y"}


class TestSystemValidation:
    def test_examples_validate_cleanly(self):
        for system in (blinker_system(), traffic_light_system(),
                       cruise_control_system()):
            validate_system(system)

    def test_duplicate_signal_rejected(self):
        with pytest.raises(ModelError):
            System("s", signals=[Signal("x"), Signal("x")], actors=[])

    def test_unknown_signal_binding_reported(self):
        net = ComponentNetwork(
            "stim", blocks=[SequenceFB("s", values=[1])],
            output_ports={"y": PortRef("s", "y")},
        )
        actor = Actor("a", net, TaskSpec(1000), outputs={"y": "ghost"})
        system = System("s", signals=[Signal("real")], actors=[actor])
        problems = system_problems(system)
        assert any("ghost" in p for p in problems)

    def test_multiple_producers_reported(self):
        def stim(name):
            net = ComponentNetwork(
                f"net_{name}", blocks=[SequenceFB("s", values=[1])],
                output_ports={"y": PortRef("s", "y")},
            )
            return Actor(name, net, TaskSpec(1000), outputs={"y": "shared"})
        system = System("s", signals=[Signal("shared")],
                        actors=[stim("a1"), stim("a2")])
        with pytest.raises(ValidationError):
            validate_system(system)

    def test_untouched_signal_reported(self):
        system = System("s", signals=[Signal("orphan")], actors=[])
        assert any("orphan" in p for p in system_problems(system))


class TestLockstepSemantics:
    def test_blinker_led_waveform(self):
        leds = [r["led"] for r in blinker_system().lockstep_run(12)]
        assert leds == [0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0]

    def test_traffic_light_progression(self):
        history = traffic_light_system().lockstep_run(12)
        lights = [r["light"] for r in history]
        assert lights[0:4] == [0, 0, 0, 1]  # red phase then green
        assert 2 in lights                   # yellow eventually appears

    def test_cruise_control_engages_and_cancels(self):
        history = cruise_control_system().lockstep_run(100)
        modes = [r["mode"] for r in history]
        assert modes[5] == 1         # engaged after the scripted set press
        assert modes[60] == 1        # still cruising
        assert modes[90] == 0        # cancelled by the scripted cancel press

    def test_cruise_control_regulates_speed(self):
        history = cruise_control_system().lockstep_run(80)
        setpoint_era = [r["speed"] for r in history[30:70]]
        # During steady cruise the speed varies by at most a few units.
        assert max(setpoint_era) - min(setpoint_era) <= 5

    def test_overrides_force_signal(self):
        system = blinker_system()
        history = system.lockstep_run(3, overrides={"led": [9, 9, 9]})
        # Override is applied before actors run; blinky then republishes.
        assert history[0]["led"] in (0, 1)

    def test_determinism(self):
        a = cruise_control_system().lockstep_run(50)
        b = cruise_control_system().lockstep_run(50)
        assert a == b


class TestReflection:
    def test_reflective_model_validates(self):
        model = system_to_model(cruise_control_system())
        validate_model(model)

    def test_reflects_all_actors_and_signals(self):
        system = cruise_control_system()
        model = system_to_model(system)
        assert len(model.objects_of("Actor")) == len(system.actors)
        assert len(model.objects_of("Signal")) == len(system.signals)

    def test_state_machine_reflected_with_transitions(self):
        model = system_to_model(traffic_light_system())
        states = model.objects_of("State")
        transitions = model.objects_of("Transition")
        assert {s.get("name") for s in states} == {"RED", "GREEN", "YELLOW"}
        assert len(transitions) == 7
        for t in transitions:
            assert t.ref("source") in states
            assert t.ref("target") in states

    def test_paths_are_unique(self):
        model = system_to_model(cruise_control_system())
        paths = [obj.get("path") for obj in model.all_objects()]
        assert len(paths) == len(set(paths))

    def test_modal_modes_reflected(self):
        model = system_to_model(cruise_control_system())
        modes = model.objects_of("Mode")
        assert {m.get("name") for m in modes} == {"OFF", "CRUISE"}

    def test_collect_state_paths(self):
        paths = collect_state_paths(traffic_light_system())
        assert "state:lights.lamp.RED" in paths
        assert len(paths) == 3
