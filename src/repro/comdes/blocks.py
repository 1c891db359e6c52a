"""Prefabricated executable function blocks.

COMDES configures actors from reusable function blocks. Two evaluation
families matter for scheduling a synchronous step:

* **Mealy blocks** (``is_moore = False``): outputs depend on the current
  inputs — they participate in the combinational dependency order.
* **Moore blocks** (``is_moore = True``): outputs depend on internal state
  only (delays, sequence generators) — they publish outputs *before* the
  combinational phase and absorb inputs *after* it, which is what legally
  breaks dataflow feedback cycles.

Every block defines reference semantics used by the network interpreter;
:mod:`repro.codegen` lowers the same blocks to target bytecode and the test
suite checks both agree. The library holds the kinds the example systems
build (gain, sub, delay, sequence, integrator, PI and state machine) plus
the threshold comparator; composite and modal blocks live in their own
modules.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.comdes.fsm import StateMachine
from repro.errors import ModelError
from repro.util.intmath import sdiv, wrap32

BlockState = Dict[str, int]
PortValues = Dict[str, int]


class FunctionBlock:
    """Base class for all function blocks."""

    kind = "function-block"
    is_moore = False

    def __init__(self, name: str, inputs: Sequence[str], outputs: Sequence[str]) -> None:
        if not name or not name.isidentifier():
            raise ModelError(f"block name must be an identifier, got {name!r}")
        self.name = name
        self.inputs: List[str] = list(inputs)
        self.outputs: List[str] = list(outputs)

    def state_vars(self) -> BlockState:
        """Initial values of this block's persistent state (empty if stateless)."""
        return {}

    def params(self) -> Dict[str, int]:
        """Configuration parameters, for display and serialization."""
        return {}

    # Mealy interface -------------------------------------------------------

    def behavior(self, inputs: PortValues, state: BlockState) -> Tuple[PortValues, BlockState]:
        """One synchronous evaluation: inputs + state -> outputs + new state."""
        raise NotImplementedError(f"{type(self).__name__} must implement behavior()")

    def _require(self, inputs: PortValues) -> None:
        for port in self.inputs:
            if port not in inputs:
                raise ModelError(f"block {self.name}: missing input {port!r}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class MooreBlock(FunctionBlock):
    """Base for blocks whose outputs are a function of state only."""

    is_moore = True

    def moore_output(self, state: BlockState) -> PortValues:
        """Outputs computed from state alone (pre-combinational phase)."""
        raise NotImplementedError

    def advance(self, inputs: PortValues, state: BlockState) -> BlockState:
        """State update from this step's inputs (post-combinational phase)."""
        raise NotImplementedError

    def behavior(self, inputs: PortValues, state: BlockState) -> Tuple[PortValues, BlockState]:
        outputs = self.moore_output(state)
        return outputs, self.advance(inputs, state)


# -- stateless signal processing ------------------------------------------


class GainFB(FunctionBlock):
    """``y = u * num / den`` — rational gain in integer arithmetic."""

    kind = "gain"

    def __init__(self, name: str, num: int, den: int = 1) -> None:
        if den == 0:
            raise ModelError(f"gain {name}: zero denominator")
        super().__init__(name, inputs=["u"], outputs=["y"])
        self.num = wrap32(num)
        self.den = wrap32(den)

    def params(self) -> Dict[str, int]:
        return {"num": self.num, "den": self.den}

    def behavior(self, inputs, state):
        self._require(inputs)
        return {"y": sdiv(wrap32(inputs["u"] * self.num), self.den)}, state


class SubFB(FunctionBlock):
    """``y = a - b``."""

    kind = "sub"

    def __init__(self, name: str) -> None:
        super().__init__(name, inputs=["a", "b"], outputs=["y"])

    def behavior(self, inputs, state):
        self._require(inputs)
        return {"y": wrap32(inputs["a"] - inputs["b"])}, state


class ThresholdFB(FunctionBlock):
    """``y = 1`` when ``u >= limit``, with optional hysteresis.

    Once on, the block stays on until ``u < limit - hysteresis`` — the
    classic comparator used for alarms and bang-bang control.

    No example system builds one, so the ``threshold_limit`` design fault
    declines on every example. The kind stays because ``threshold_limit``
    is one of the nine ``DESIGN_FAULT_KINDS`` the benchmark campaigns
    enumerate: dropping it would change their job corpus and their pinned
    outcome digests.
    """

    kind = "threshold"

    def __init__(self, name: str, limit: int, hysteresis: int = 0) -> None:
        if hysteresis < 0:
            raise ModelError(f"threshold {name}: negative hysteresis")
        super().__init__(name, inputs=["u"], outputs=["y"])
        self.limit = wrap32(limit)
        self.hysteresis = wrap32(hysteresis)

    def params(self) -> Dict[str, int]:
        return {"limit": self.limit, "hysteresis": self.hysteresis}

    def state_vars(self) -> BlockState:
        return {"on": 0}

    def behavior(self, inputs, state):
        self._require(inputs)
        u = wrap32(inputs["u"])
        threshold = self.limit - self.hysteresis if state.get("on", 0) else self.limit
        on = 1 if u >= threshold else 0
        return {"y": on}, {"on": on}


# -- stateful blocks ---------------------------------------------------------


class DelayFB(MooreBlock):
    """Unit delay: ``y[k] = u[k-1]`` (initial output ``init``).

    The canonical cycle-breaker in synchronous dataflow.
    """

    kind = "delay"

    def __init__(self, name: str, init: int = 0) -> None:
        super().__init__(name, inputs=["u"], outputs=["y"])
        self.init = wrap32(init)

    def params(self) -> Dict[str, int]:
        return {"init": self.init}

    def state_vars(self) -> BlockState:
        return {"z": self.init}

    def moore_output(self, state: BlockState) -> PortValues:
        return {"y": wrap32(state["z"])}

    def advance(self, inputs: PortValues, state: BlockState) -> BlockState:
        self._require(inputs)
        return {"z": wrap32(inputs["u"])}


class SequenceFB(MooreBlock):
    """Scripted stimulus: emits a fixed sequence of values, one per step.

    With ``repeat=True`` the sequence wraps around; otherwise the last value
    holds. Used to model operator inputs and test vectors deterministically.
    """

    kind = "sequence"

    def __init__(self, name: str, values: Sequence[int], repeat: bool = True) -> None:
        if not values:
            raise ModelError(f"sequence {name}: empty value list")
        super().__init__(name, inputs=[], outputs=["y"])
        self.values = [wrap32(v) for v in values]
        self.repeat = repeat

    def state_vars(self) -> BlockState:
        return {"idx": 0}

    def moore_output(self, state: BlockState) -> PortValues:
        return {"y": self.values[min(state["idx"], len(self.values) - 1)]}

    def advance(self, inputs: PortValues, state: BlockState) -> BlockState:
        idx = state["idx"] + 1
        if idx >= len(self.values):
            idx = 0 if self.repeat else len(self.values) - 1
        return {"idx": idx}


class IntegratorFB(FunctionBlock):
    """Discrete integrator with clamping: ``acc = clamp(acc + u*num/den)``.

    ``y`` is the post-update accumulator, so the block is combinational in
    ``u`` (a same-step input change is visible on the output).
    """

    kind = "integrator"

    def __init__(self, name: str, num: int = 1, den: int = 1,
                 lo: int = -(1 << 30), hi: int = (1 << 30), init: int = 0) -> None:
        if den == 0:
            raise ModelError(f"integrator {name}: zero denominator")
        if lo > hi:
            raise ModelError(f"integrator {name}: lo {lo} > hi {hi}")
        super().__init__(name, inputs=["u"], outputs=["y"])
        self.num = wrap32(num)
        self.den = wrap32(den)
        self.lo = wrap32(lo)
        self.hi = wrap32(hi)
        self.init = wrap32(init)

    def params(self) -> Dict[str, int]:
        return {"num": self.num, "den": self.den, "lo": self.lo,
                "hi": self.hi, "init": self.init}

    def state_vars(self) -> BlockState:
        return {"acc": self.init}

    def behavior(self, inputs, state):
        self._require(inputs)
        delta = sdiv(wrap32(inputs["u"] * self.num), self.den)
        acc = min(max(wrap32(state["acc"] + delta), self.lo), self.hi)
        return {"y": acc}, {"acc": acc}


class PiFB(FunctionBlock):
    """Discrete PI controller in integer arithmetic with anti-windup.

    ``y = clamp(e*kp_num/kp_den + acc)`` where
    ``acc = clamp(acc + e*ki_num/ki_den)``.
    """

    kind = "pi"

    def __init__(self, name: str, kp_num: int, kp_den: int, ki_num: int, ki_den: int,
                 lo: int, hi: int) -> None:
        if kp_den == 0 or ki_den == 0:
            raise ModelError(f"pi {name}: zero denominator")
        if lo > hi:
            raise ModelError(f"pi {name}: lo {lo} > hi {hi}")
        super().__init__(name, inputs=["e"], outputs=["y"])
        self.kp_num, self.kp_den = wrap32(kp_num), wrap32(kp_den)
        self.ki_num, self.ki_den = wrap32(ki_num), wrap32(ki_den)
        self.lo, self.hi = wrap32(lo), wrap32(hi)

    def params(self) -> Dict[str, int]:
        return {"kp_num": self.kp_num, "kp_den": self.kp_den,
                "ki_num": self.ki_num, "ki_den": self.ki_den,
                "lo": self.lo, "hi": self.hi}

    def state_vars(self) -> BlockState:
        return {"acc": 0}

    def behavior(self, inputs, state):
        self._require(inputs)
        e = wrap32(inputs["e"])
        acc = min(max(wrap32(state["acc"] + sdiv(wrap32(e * self.ki_num), self.ki_den)),
                      self.lo), self.hi)
        y = min(max(wrap32(sdiv(wrap32(e * self.kp_num), self.kp_den) + acc),
                    self.lo), self.hi)
        return {"y": y}, {"acc": acc}


class StateMachineFB(FunctionBlock):
    """A state-machine function block wrapping a :class:`StateMachine`.

    Ports mirror the machine's declared inputs/outputs. The persistent state
    is the current state index (``_state``) plus the machine's variables and
    latched outputs.
    """

    kind = "state-machine"

    def __init__(self, name: str, machine: StateMachine) -> None:
        super().__init__(name, inputs=list(machine.inputs), outputs=list(machine.outputs))
        self.machine = machine

    def state_vars(self) -> BlockState:
        state: BlockState = {"_state": self.machine.states.index(self.machine.initial)}
        for out in self.machine.outputs:
            state[f"_out_{out}"] = 0
        state.update(self.machine.variables)
        return state

    def behavior(self, inputs, state):
        self._require(inputs)
        current = self.machine.states[state["_state"]]
        env = {name: state[f"_out_{name}"] for name in self.machine.outputs}
        env.update({name: state[name] for name in self.machine.variables})
        next_state, new_env = self.machine.step(current, env, inputs)
        new_block_state: BlockState = {"_state": self.machine.states.index(next_state)}
        outputs: PortValues = {}
        for out in self.machine.outputs:
            outputs[out] = new_env[out]
            new_block_state[f"_out_{out}"] = new_env[out]
        for name in self.machine.variables:
            new_block_state[name] = new_env[name]
        return outputs, new_block_state
