"""Tests for the model-to-code transformation.

The central property: generated firmware and the reference interpreter
agree step-for-step on every example system, with and without
instrumentation.
"""

import pytest

from repro.codegen import InstrumentationPlan, generate_firmware, run_firmware_lockstep
from repro.codegen.lower_expr import lower_expr
from repro.comdes.examples import (
    blinker_system, cruise_control_system, traffic_light_system,
)
from repro.comdes.expr import band, const, ge, lnot, lt, maximum, minimum, var
from repro.comm.protocol import CommandKind
from repro.target.assembler import Assembler
from repro.target.board import Board
from repro.target.cpu import Cpu
from repro.target.memory import MemoryMap, RAM_BASE

ALL_SYSTEMS = [blinker_system, traffic_light_system, cruise_control_system]


def eval_compiled(expr, env):
    """Compile an expression, run it on the CPU, return the stack top."""
    memory = MemoryMap(64)
    addresses = {}
    for i, (name, value) in enumerate(sorted(env.items())):
        addresses[name] = RAM_BASE + i
        memory.poke(RAM_BASE + i, value)
    asm = Assembler()
    lower_expr(asm, expr, lambda name: addresses[name])
    asm.emit("STORE", RAM_BASE + 60)
    asm.emit("HALT")
    cpu = Cpu(memory)
    cpu.load(asm.assemble())
    cpu.reset_task(0)
    cpu.run()
    return memory.peek(RAM_BASE + 60)


class TestExpressionLowering:
    def test_arithmetic(self):
        expr = (var("a") + 3) * var("b") - const(4)
        env = {"a": 2, "b": 5}
        assert eval_compiled(expr, env) == expr.eval(env)

    def test_division_semantics_match(self):
        expr = var("a") // var("b")
        env = {"a": -7, "b": 2}
        assert eval_compiled(expr, env) == expr.eval(env) == -3

    def test_logic_and_comparisons(self):
        expr = band(ge(var("a"), 2), lnot(lt(var("b"), 0)))
        for a in (1, 2, 3):
            for b in (-1, 0, 1):
                env = {"a": a, "b": b}
                assert eval_compiled(expr, env) == expr.eval(env)

    def test_min_max(self):
        expr = maximum(minimum(var("a"), var("b")), const(0))
        env = {"a": -5, "b": 3}
        assert eval_compiled(expr, env) == expr.eval(env) == 0


class TestFirmwareEquivalence:
    @pytest.mark.parametrize("build", ALL_SYSTEMS)
    def test_uninstrumented_matches_interpreter(self, build):
        system = build()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        assert (run_firmware_lockstep(system, firmware, 80)
                == system.lockstep_run(80))

    @pytest.mark.parametrize("build", ALL_SYSTEMS)
    def test_fully_instrumented_matches_interpreter(self, build):
        system = build()
        firmware = generate_firmware(system, InstrumentationPlan.full())
        assert (run_firmware_lockstep(system, firmware, 80)
                == system.lockstep_run(80))

    def test_instrumentation_does_not_change_symbols_semantics(self):
        system = traffic_light_system()
        clean = generate_firmware(system, InstrumentationPlan.none())
        full = generate_firmware(system, InstrumentationPlan.full())
        # Instrumented code is strictly larger.
        assert full.instruction_count() > clean.instruction_count()
        # Both lockstep histories agree.
        assert (run_firmware_lockstep(system, clean, 40)
                == run_firmware_lockstep(system, full, 40))


class TestInstrumentation:
    def collect_emits(self, plan, rounds=30):
        system = traffic_light_system()
        firmware = generate_firmware(system, plan)
        board = Board()
        run_firmware_lockstep(system, firmware, rounds, board=board)
        return firmware, board.cpu.emit_log

    def test_none_plan_emits_nothing(self):
        firmware, emits = self.collect_emits(InstrumentationPlan.none())
        assert emits == []
        assert not any(i.op == "EMIT" for i in firmware.code)

    def test_state_enter_emitted_on_change_only(self):
        firmware, emits = self.collect_emits(
            InstrumentationPlan(state_enter=True, signal_update=False))
        kinds = {kind for kind, _, _ in emits}
        assert kinds == {int(CommandKind.STATE_ENTER)}
        paths = {firmware.path_of_id(pid) for _, pid, _ in emits}
        # Only real state changes; self-loop dwell steps are silent.
        assert paths <= {f"state:lights.lamp.{s}"
                         for s in ("RED", "GREEN", "YELLOW")}

    def test_signal_update_emitted_on_change_only(self):
        firmware, emits = self.collect_emits(
            InstrumentationPlan(state_enter=False, signal_update=True),
            rounds=10)
        light_updates = [
            value for kind, pid, value in emits
            if firmware.path_of_id(pid) == "signal:light"
        ]
        # 10 rounds of the 4/4/2 cycle: GREEN at round 3, YELLOW at 7,
        # back to RED at 9 — three changes, dwell steps silent.
        assert light_updates == [1, 2, 0]

    def test_task_markers_carry_job_numbers(self):
        firmware, emits = self.collect_emits(
            InstrumentationPlan(state_enter=False, signal_update=False,
                                task_markers=True),
            rounds=3)
        starts = [value for kind, pid, value in emits
                  if kind == int(CommandKind.TASK_START)
                  and firmware.path_of_id(pid) == "actor:lights"]
        assert starts == [1, 2, 3]

    def test_transition_commands_name_fired_transition(self):
        firmware, emits = self.collect_emits(
            InstrumentationPlan(state_enter=False, signal_update=False,
                                transitions=True),
            rounds=5)
        paths = [firmware.path_of_id(pid) for kind, pid, _ in emits
                 if kind == int(CommandKind.TRANS_FIRED)]
        assert any(p.startswith("trans:lights.lamp.") for p in paths)


class TestGeneratedArtifacts:
    def test_symbols_cover_actor_io(self):
        firmware = generate_firmware(traffic_light_system())
        assert firmware.symbols.has("lights.in.btn")
        assert firmware.symbols.has("lights.out.light")
        assert firmware.symbols.has("lights.lamp.$_state")

    def test_entries_per_actor(self):
        system = cruise_control_system()
        firmware = generate_firmware(system)
        assert set(firmware.entries) == set(system.actors)

    def test_source_map_attributes_instructions(self):
        firmware = generate_firmware(traffic_light_system())
        lamp_pcs = [pc for pc, i in enumerate(firmware.code)
                    if i.src_path and "lights.lamp" in i.src_path]
        assert lamp_pcs  # lamp code is attributed

    def test_initial_state_in_data_image(self):
        system = traffic_light_system()
        firmware = generate_firmware(system)
        addr = firmware.symbols.addr_of("lights.lamp.$_state")
        # Initial state RED has index 0 => no explicit init entry needed,
        # but the board must still read 0 after loading.
        board = Board()
        board.load_firmware(firmware)
        assert board.memory.peek(addr) == 0

    def test_modal_and_nested_scopes_in_symbols(self):
        firmware = generate_firmware(cruise_control_system())
        nested = [s.name for s in firmware.symbols.symbols()
                  if "regulator.CRUISE" in s.name]
        assert any(name.endswith("pi.$acc") for name in nested)
