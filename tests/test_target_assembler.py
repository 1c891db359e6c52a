"""Assembler backpatching and fault-injection mutation.

Also pins the contract between the CPU's two execution paths: the
performance-specialized fast loop and the fully-checked debug loop must be
observationally identical on the same program.
"""

import random

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware, run_firmware_lockstep
from repro.comdes.examples import traffic_light_system
from repro.errors import TargetFault
from repro.faults.implementation import IMPL_FAULT_KINDS, inject_implementation_fault
from repro.target.assembler import Assembler
from repro.target.board import Board
from repro.target.cpu import Cpu, StopReason
from repro.target.isa import ARG_OPS, Instr, OPCODES
from repro.target.memory import MemoryMap, RAM_BASE


class TestBackpatching:
    def test_forward_and_backward_targets(self):
        asm = Assembler()
        asm.label("back")
        back_pos = asm.position
        asm.emit("PUSH", 0)
        forward_jump = asm.emit_jump("JZ", "fwd")
        asm.emit_jump("JMP", "back")
        asm.label("fwd")
        fwd_pos = asm.position
        asm.emit("HALT")
        code = asm.assemble()
        assert code[forward_jump].arg == fwd_pos
        assert code[forward_jump + 1].arg == back_pos

    def test_fresh_labels_do_not_collide_with_user_labels(self):
        asm = Assembler()
        asm.label("L_1")  # looks like a fresh label, must not clash
        names = {asm.fresh_label() for _ in range(100)}
        assert len(names) == 100
        assert "L_1" not in names

    def test_position_tracks_pending_jumps(self):
        asm = Assembler()
        asm.emit_jump("JMP", "end")
        assert asm.position == 1
        asm.label("end")
        assert asm.assemble()[0].arg == 1


class TestFaultMutations:
    """Mutated images (swap / PUSH-delta / POP patches) must still execute."""

    @pytest.fixture(scope="class")
    def firmware(self):
        return generate_firmware(traffic_light_system(),
                                 InstrumentationPlan.full())

    @pytest.mark.parametrize("kind", sorted(IMPL_FAULT_KINDS))
    def test_every_mutation_kind_still_executes(self, firmware, kind):
        system = traffic_light_system()
        mutant, fault = inject_implementation_fault(firmware, kind, seed=11)
        if mutant is None:
            pytest.skip(f"{kind} found no applicable site")
        assert fault.category == "implementation"
        try:
            run_firmware_lockstep(system, mutant, rounds=20, board=Board())
        except TargetFault:
            pass  # crashing mutants are legal outcomes; hangs are not

    def test_push_delta_patch_changes_behaviour_observably(self, firmware):
        system = traffic_light_system()
        reference = run_firmware_lockstep(system, firmware, rounds=30,
                                          board=Board())
        diverged = 0
        for seed in range(1, 6):
            mutant, _ = inject_implementation_fault(firmware, "const_corrupt",
                                                    seed)
            try:
                histories = run_firmware_lockstep(system, mutant, rounds=30,
                                                  board=Board())
            except TargetFault:
                diverged += 1
                continue
            diverged += histories != reference
        assert diverged > 0  # corrupting constants is not a no-op


def _random_program(rng, length=60):
    """A random well-formed straight-line-with-branches program."""
    asm = Assembler()
    asm.emit("PUSH", rng.randrange(-50, 50))  # seed the stack
    for index in range(length):
        choice = rng.random()
        if choice < 0.35:
            asm.emit("PUSH", rng.randrange(-1000, 1000))
        elif choice < 0.55:
            asm.emit("DUP")
            asm.emit(rng.choice(("ADD", "SUB", "MUL", "MIN", "MAX",
                                 "AND", "OR", "EQ", "NE", "LT", "GE")))
        elif choice < 0.7:
            asm.emit("LOAD", RAM_BASE + rng.randrange(8))
        elif choice < 0.85:
            asm.emit("STORE", RAM_BASE + rng.randrange(8))
            asm.emit("PUSH", rng.randrange(100))
        else:
            skip = asm.fresh_label()
            asm.emit("DUP")
            asm.emit_jump("JZ", skip)
            asm.emit("NEG")
            asm.label(skip)
    asm.emit("STORE", RAM_BASE + 8)
    asm.emit("HALT")
    return asm.assemble()


class TestFastAndDebugPathsAgree:
    """One semantics, two loops: the specialization must be unobservable."""

    def test_random_programs_identical_outcomes(self):
        rng = random.Random(1234)
        for _ in range(25):
            code = _random_program(rng)

            fast_memory = MemoryMap(64)
            fast_cpu = Cpu(fast_memory)
            fast_cpu.load(code)
            fast_cpu.reset_task(0)
            fast = fast_cpu.run()

            debug_memory = MemoryMap(64)
            debug_cpu = Cpu(debug_memory)
            debug_cpu.load(code)
            debug_cpu.reset_task(0)
            writes = []
            debug_memory.set_write_hook(
                lambda a, v: writes.append((a, v)),
                range(RAM_BASE, RAM_BASE + len(debug_memory)))
            debug = debug_cpu.run()

            assert fast.reason is debug.reason is StopReason.HALTED
            assert fast.instructions == debug.instructions
            assert fast.cycles == debug.cycles
            assert fast_memory.cells == debug_memory.cells
            assert fast_cpu.stack == debug_cpu.stack

    def test_traps_agree_between_paths(self):
        for code in ([Instr("ADD"), Instr("HALT")],
                     [Instr("JMP", 99)],
                     [Instr("PUSH", 1), Instr("PUSH", 0), Instr("DIV")],
                     [Instr("LOAD", 1234)]):
            outcomes = []
            # fast loop, fast loop with every RAM word watched, and the
            # checked loop (a profile routes every instruction there)
            for arm in ("fast", "hooked", "checked"):
                memory = MemoryMap(16)
                cpu = Cpu(memory)
                if arm == "hooked":
                    memory.set_write_hook(
                        lambda a, v: None,
                        range(RAM_BASE, RAM_BASE + len(memory)))
                cpu.load(code)
                cpu.reset_task(0)
                with pytest.raises(TargetFault) as caught:
                    cpu.run(profile={} if arm == "checked" else None)
                outcomes.append((caught.value.reason, caught.value.pc))
            assert outcomes[0] == outcomes[1] == outcomes[2]


class TestIsaTotality:
    def test_every_opcode_is_executable(self):
        """No opcode is decode-only: each runs on both paths."""
        seen = set()
        asm = Assembler()
        # exercise everything except EMIT/HALT in a straight line
        for op in ("ADD", "SUB", "MUL", "DIV", "MOD", "MIN", "MAX",
                   "AND", "OR", "EQ", "NE", "LT", "LE", "GT", "GE"):
            asm.emit("PUSH", 9); asm.emit("PUSH", 2)
            asm.emit(op); asm.emit("POP")
            seen |= {"PUSH", op, "POP"}
        asm.emit("PUSH", 1); asm.emit("NOT"); asm.emit("NEG")
        seen |= {"NOT", "NEG"}
        asm.emit("PUSH", 5); asm.emit("SWAP"); asm.emit("DUP"); asm.emit("POP")
        seen |= {"SWAP", "DUP"}
        asm.emit("STORE", RAM_BASE); asm.emit("POP"); seen |= {"STORE"}
        asm.emit("PUSH", 77); asm.emit("PUSH", RAM_BASE + 1); asm.emit("STI")
        asm.emit("PUSH", RAM_BASE + 1); asm.emit("LDI"); seen |= {"STI", "LDI"}
        asm.emit("LOAD", RAM_BASE); seen |= {"LOAD"}
        asm.emit_jump("JZ", "over"); asm.emit_jump("JMP", "over")
        asm.label("over"); seen |= {"JZ", "JMP"}
        asm.emit("PUSH", 1); asm.emit_jump("JNZ", "end"); seen |= {"JNZ"}
        asm.label("end")
        asm.emit("PUSH", 3); asm.emit("PUSH", 4); asm.emit("EMIT", 1)
        asm.emit("HALT"); seen |= {"EMIT", "HALT"}
        assert seen == set(OPCODES)

        code = asm.assemble()
        for hooked in (False, True):
            memory = MemoryMap(16)
            cpu = Cpu(memory)
            if hooked:  # every store and STI stops on the checked path
                memory.set_write_hook(
                    lambda a, v: None,
                    range(RAM_BASE, RAM_BASE + len(memory)))
            cpu.load(code)
            cpu.reset_task(0)
            result = cpu.run()
            assert result.reason is StopReason.HALTED
            assert cpu.emit_log == [(1, 3, 4)]
            assert memory.peek(RAM_BASE + 1) == 77

    def test_arg_declaration_is_consistent(self):
        for op in OPCODES:
            if op in ARG_OPS:
                Instr(op, 0)
            else:
                Instr(op)
