"""Parametric workload generators for the scaling experiments.

``chain_machine(n)`` builds an n-state ring FSM (the E4/E5 size sweeps)
and ``scaled_model(n)`` its reflective model (abstraction cost vs model
size); both are deterministic in their parameters.
"""

from __future__ import annotations

from typing import List

from repro.comdes.actor import Actor, TaskSpec
from repro.comdes.blocks import StateMachineFB
from repro.comdes.dataflow import ComponentNetwork, PortRef
from repro.comdes.expr import const, ge, lt, var
from repro.comdes.fsm import Assign as FsmAssign
from repro.comdes.fsm import StateMachine, Transition
from repro.comdes.signals import Signal
from repro.comdes.system import System
from repro.meta.model import Model
from repro.comdes.reflect import system_to_model
from repro.util.timeunits import ms


def chain_machine(n_states: int, dwell: int = 1,
                  name: str = "chain") -> StateMachine:
    """A ring of *n_states* states, each dwelling *dwell* steps.

    Output ``pos`` publishes the current position, so every step changes an
    observable — worst-case command traffic for channel experiments.
    """
    if n_states < 2:
        raise ValueError(f"need at least 2 states, got {n_states}")
    states = [f"S{i}" for i in range(n_states)]
    transitions: List[Transition] = []
    for i, state in enumerate(states):
        nxt = states[(i + 1) % n_states]
        if dwell > 1:
            transitions.append(Transition(
                state, nxt, guard=ge(var("t"), const(dwell - 1)),
                actions=[FsmAssign("t", const(0)),
                         FsmAssign("pos", const((i + 1) % n_states))],
            ))
            transitions.append(Transition(
                state, state, guard=lt(var("t"), const(dwell - 1)),
                actions=[FsmAssign("t", var("t") + const(1))],
            ))
        else:
            transitions.append(Transition(
                state, nxt,
                actions=[FsmAssign("pos", const((i + 1) % n_states))],
            ))
    return StateMachine(
        name=name, states=states, initial=states[0],
        transitions=transitions, inputs=[], outputs=["pos"],
        variables={"t": 0} if dwell > 1 else {},
    )


def chain_system(n_states: int, period_us: int = ms(10),
                 dwell: int = 1) -> System:
    """Single-actor system around :func:`chain_machine`."""
    machine = chain_machine(n_states, dwell=dwell)
    network = ComponentNetwork(
        name="chain_net",
        blocks=[StateMachineFB("fsm", machine)],
        output_ports={"pos": PortRef("fsm", "pos")},
    )
    actor = Actor("walker", network, TaskSpec(period_us=period_us),
                  outputs={"pos": "pos"})
    return System(f"chain{n_states}", signals=[Signal("pos")], actors=[actor])


def scaled_model(n_states: int) -> Model:
    """Reflective model of a chain system (abstraction-cost sweeps)."""
    return system_to_model(chain_system(n_states))
