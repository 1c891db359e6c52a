"""Tests for state machine models and their reference interpreter."""

import pytest

from repro.comdes.examples import blinker_machine, traffic_light_machine
from repro.comdes.expr import const, gt, var
from repro.comdes.fsm import Assign, StateMachine, Transition
from repro.errors import ModelError, ValidationError


class TestWellFormedness:
    def test_initial_must_exist(self):
        with pytest.raises(ValidationError):
            StateMachine("m", states=["A"], initial="B", transitions=[])

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValidationError):
            StateMachine("m", states=["A", "A"], initial="A", transitions=[])

    def test_transition_endpoints_must_exist(self):
        with pytest.raises(ValidationError):
            StateMachine("m", states=["A"], initial="A",
                         transitions=[Transition("A", "Z")])

    def test_guard_variables_must_be_declared(self):
        with pytest.raises(ValidationError):
            StateMachine("m", states=["A"], initial="A",
                         transitions=[Transition("A", "A", guard=gt(var("ghost"), 0))])

    def test_action_targets_must_be_writable(self):
        with pytest.raises(ValidationError):
            StateMachine(
                "m", states=["A"], initial="A", inputs=["u"],
                transitions=[Transition("A", "A", actions=[Assign("u", const(1))])],
            )

    def test_valid_machine_constructs(self):
        machine = blinker_machine()
        assert machine.initial == "OFF"
        assert len(machine.transitions) == 4


class TestSemantics:
    def test_first_enabled_transition_wins(self):
        machine = StateMachine(
            "m", states=["A", "B", "C"], initial="A", inputs=["x"],
            transitions=[
                Transition("A", "B", guard=gt(var("x"), 0)),
                Transition("A", "C"),  # always enabled, but lower priority
            ],
        )
        state, _ = machine.step("A", machine.initial_env(), {"x": 1})
        assert state == "B"
        state, _ = machine.step("A", machine.initial_env(), {"x": 0})
        assert state == "C"

    def test_no_enabled_transition_stays_put(self):
        machine = StateMachine(
            "m", states=["A", "B"], initial="A", inputs=["x"],
            transitions=[Transition("A", "B", guard=gt(var("x"), 0))],
        )
        state, env = machine.step("A", machine.initial_env(), {"x": 0})
        assert state == "A"

    def test_actions_update_env(self):
        machine = blinker_machine(half_period_steps=2)
        env = machine.initial_env()
        state, env = machine.step("OFF", env, {})
        assert (state, env["t"]) == ("OFF", 1)
        state, env = machine.step(state, env, {})
        assert (state, env["led"], env["t"]) == ("ON", 1, 0)

    def test_missing_input_raises(self):
        machine = traffic_light_machine()
        with pytest.raises(ModelError):
            machine.step("RED", machine.initial_env(), {})

    def test_unknown_state_raises(self):
        machine = blinker_machine()
        with pytest.raises(ModelError):
            machine.step("LIMBO", machine.initial_env(), {})

    def test_run_produces_trajectory(self):
        machine = blinker_machine(half_period_steps=1)
        trajectory = machine.run([{}] * 4)
        assert [s for s, _ in trajectory] == ["ON", "OFF", "ON", "OFF"]

    def test_traffic_light_cycles(self):
        machine = traffic_light_machine(red_steps=2, green_steps=2, yellow_steps=1)
        trajectory = machine.run([{"btn": 0}] * 8)
        states = [s for s, _ in trajectory]
        assert states == ["RED", "GREEN", "GREEN", "YELLOW",
                          "RED", "RED", "GREEN", "GREEN"]

    def test_pedestrian_button_shortens_green(self):
        machine = traffic_light_machine(red_steps=2, green_steps=10, yellow_steps=1)
        # Reach GREEN after 2 steps, press the button immediately.
        trajectory = machine.run([{"btn": 0}, {"btn": 0}, {"btn": 1}])
        assert trajectory[-1][0] == "YELLOW"

    def test_variables_persist_between_steps(self):
        machine = blinker_machine(half_period_steps=3)
        env = machine.initial_env()
        state = machine.initial
        for _ in range(2):
            state, env = machine.step(state, env, {})
        assert env["t"] == 2


class TestGraphQueries:
    def test_transitions_from_preserves_order(self):
        machine = traffic_light_machine()
        sources = [t.target for t in machine.transitions_from("GREEN")]
        assert sources == ["YELLOW", "YELLOW", "GREEN"]

    def test_reachable_states_full_graph(self):
        machine = traffic_light_machine()
        assert set(machine.reachable_states()) == {"RED", "GREEN", "YELLOW"}

    def test_unreachable_state_detected(self):
        machine = StateMachine(
            "m", states=["A", "B", "ISLAND"], initial="A",
            transitions=[Transition("A", "B"), Transition("B", "A")],
        )
        assert "ISLAND" not in machine.reachable_states()
