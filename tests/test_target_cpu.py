"""Tests for the virtual CPU, memory map, assembler and board."""

import pytest

from repro.errors import AssemblyError, TargetFault
from repro.target.assembler import Assembler
from repro.target.board import Board, DebugPort
from repro.target.cpu import Cpu, StopReason
from repro.target.firmware import FirmwareImage, SymbolTable
from repro.target.isa import Instr, OPCODES, cycles_of
from repro.target.memory import RAM_BASE, MemoryMap
from repro.target.peripherals import Uart
from repro.util.intmath import INT_MAX, INT_MIN


def make_cpu(code, ram_words=64):
    memory = MemoryMap(ram_words)
    cpu = Cpu(memory)
    cpu.load(code)
    cpu.reset_task(0)
    return cpu, memory


def run_program(instrs, ram_words=64):
    cpu, memory = make_cpu(instrs, ram_words)
    result = cpu.run()
    return cpu, memory, result


class TestIsa:
    def test_instr_requires_declared_arg(self):
        with pytest.raises(AssemblyError):
            Instr("PUSH")          # missing arg
        with pytest.raises(AssemblyError):
            Instr("ADD", 3)        # spurious arg
        with pytest.raises(AssemblyError):
            Instr("FLY", 1)        # unknown opcode

    def test_every_opcode_has_positive_cycles(self):
        for op in OPCODES:
            assert cycles_of(op) >= 1


class TestArithmetic:
    def test_push_add_store(self):
        cpu, memory, result = run_program([
            Instr("PUSH", 2), Instr("PUSH", 3), Instr("ADD"),
            Instr("STORE", RAM_BASE), Instr("HALT"),
        ])
        assert memory.peek(RAM_BASE) == 5
        assert result.reason is StopReason.HALTED

    def test_division_truncates_toward_zero(self):
        cpu, memory, _ = run_program([
            Instr("PUSH", -7), Instr("PUSH", 2), Instr("DIV"),
            Instr("STORE", RAM_BASE), Instr("HALT"),
        ])
        assert memory.peek(RAM_BASE) == -3

    def test_overflow_wraps(self):
        cpu, memory, _ = run_program([
            Instr("PUSH", INT_MAX), Instr("PUSH", 1), Instr("ADD"),
            Instr("STORE", RAM_BASE), Instr("HALT"),
        ])
        assert memory.peek(RAM_BASE) == INT_MIN

    def test_divide_by_zero_traps(self):
        cpu, _ = make_cpu([Instr("PUSH", 1), Instr("PUSH", 0), Instr("DIV"),
                           Instr("HALT")])
        with pytest.raises(TargetFault):
            cpu.run()

    def test_comparisons(self):
        cpu, memory, _ = run_program([
            Instr("PUSH", 3), Instr("PUSH", 5), Instr("LT"),
            Instr("STORE", RAM_BASE), Instr("HALT"),
        ])
        assert memory.peek(RAM_BASE) == 1

    def test_min_max(self):
        cpu, memory, _ = run_program([
            Instr("PUSH", 3), Instr("PUSH", 5), Instr("MAX"),
            Instr("PUSH", 4), Instr("MIN"),
            Instr("STORE", RAM_BASE), Instr("HALT"),
        ])
        assert memory.peek(RAM_BASE) == 4


class TestStackAndControl:
    def test_dup_swap_pop(self):
        cpu, memory, _ = run_program([
            Instr("PUSH", 1), Instr("PUSH", 2), Instr("SWAP"),
            Instr("DUP"), Instr("POP"),
            Instr("STORE", RAM_BASE), Instr("HALT"),
        ])
        assert memory.peek(RAM_BASE) == 1  # swapped: top was 1

    def test_stack_underflow_traps(self):
        cpu, _ = make_cpu([Instr("ADD"), Instr("HALT")])
        with pytest.raises(TargetFault):
            cpu.run()

    def test_stack_overflow_traps(self):
        cpu, _ = make_cpu([Instr("PUSH", 1), Instr("DUP"), Instr("JMP", 1)])
        with pytest.raises(TargetFault):
            cpu.run(max_instructions=1000)

    def test_conditional_jump(self):
        cpu, memory, _ = run_program([
            Instr("PUSH", 0), Instr("JZ", 4),
            Instr("PUSH", 111), Instr("JMP", 5),
            Instr("PUSH", 222),
            Instr("STORE", RAM_BASE), Instr("HALT"),
        ])
        assert memory.peek(RAM_BASE) == 222

    def test_jump_out_of_range_traps(self):
        cpu, _ = make_cpu([Instr("JMP", 999)])
        with pytest.raises(TargetFault):
            cpu.run()

    def test_instruction_budget(self):
        cpu, _ = make_cpu([Instr("JMP", 0)])
        result = cpu.run(max_instructions=10)
        assert result.reason is StopReason.LIMIT
        assert result.instructions == 10

    def test_indirect_load_store(self):
        cpu, memory, _ = run_program([
            Instr("PUSH", 42), Instr("PUSH", RAM_BASE + 3), Instr("STI"),
            Instr("PUSH", RAM_BASE + 3), Instr("LDI"),
            Instr("STORE", RAM_BASE), Instr("HALT"),
        ])
        assert memory.peek(RAM_BASE) == 42

    def test_cycles_accumulate_per_spec(self):
        cpu, _, result = run_program([Instr("PUSH", 1), Instr("HALT")])
        assert result.cycles == cycles_of("PUSH") + cycles_of("HALT")


class TestOpcodeProfile:
    LOOP = [Instr("LOAD", RAM_BASE), Instr("PUSH", 1), Instr("ADD"),
            Instr("STORE", RAM_BASE), Instr("LOAD", RAM_BASE),
            Instr("PUSH", 5), Instr("LT"), Instr("JNZ", 0), Instr("HALT")]

    def test_profile_counts_plain_opcodes(self):
        from repro.target.isa import profile_names
        cpu, _ = make_cpu(self.LOOP)
        counts = {}
        result = cpu.run(profile=counts)
        assert result.reason is StopReason.HALTED
        named = profile_names(counts)
        # 5 loop rounds x {LOAD:2, PUSH:2, ADD, STORE, LT, JNZ} + HALT
        assert named["LOAD"] == 10 and named["PUSH"] == 10
        assert named["ADD"] == named["STORE"] == named["LT"] == 5
        assert named["HALT"] == 1
        assert sum(counts.values()) == result.instructions

    def test_profile_counts_constituents_not_superinstructions(self):
        # block rows are always formed; the profile must still speak
        # plain ISA
        cpu, _ = make_cpu(self.LOOP)
        assert cpu.block_rows > 0
        counts = {}
        cpu.run(profile=counts)
        from repro.target.isa import OPCODES
        assert all(op < len(OPCODES) for op in counts)

    def test_profile_unset_is_untouched_and_identical(self):
        plain_cpu, _ = make_cpu(self.LOOP)
        profiled_cpu, _ = make_cpu(self.LOOP)
        r1 = plain_cpu.run()
        r2 = profiled_cpu.run(profile={})
        assert (r1.instructions, r1.cycles) == (r2.instructions, r2.cycles)


class TestMemoryMap:
    def test_out_of_range_access_traps(self):
        memory = MemoryMap(16)
        with pytest.raises(TargetFault):
            memory.read_word(RAM_BASE + 16)
        with pytest.raises(TargetFault):
            memory.read_word(RAM_BASE - 1)

    def test_access_counters(self):
        memory = MemoryMap(16)
        memory.write_word(RAM_BASE, 1)
        memory.read_word(RAM_BASE)
        memory.peek(RAM_BASE)   # must not count
        assert (memory.reads, memory.writes) == (1, 1)

    def test_reset_reapplies_init_image(self):
        memory = MemoryMap(16)
        memory.load_init_image({RAM_BASE + 2: 7})
        memory.write_word(RAM_BASE + 2, 99)
        memory.reset()
        assert memory.peek(RAM_BASE + 2) == 7

    def test_write_hook_fires(self):
        memory = MemoryMap(16)
        seen = []
        memory.set_write_hook(lambda addr, value: seen.append((addr, value)),
                              (RAM_BASE + 1, RAM_BASE + 2))
        memory.write_word(RAM_BASE + 1, 5)
        memory.write_word(RAM_BASE + 3, 7)  # unwatched: must NOT fire
        memory.poke(RAM_BASE + 2, 6)  # poke must NOT fire the hook
        assert seen == [(RAM_BASE + 1, 5)]
        assert memory.writes == 2  # an unwatched write still counts

    def test_cleared_hook_watches_nothing(self):
        memory = MemoryMap(16)
        memory.set_write_hook(lambda addr, value: None, (RAM_BASE,))
        memory.set_write_hook(None, (RAM_BASE,))
        assert memory.watched == frozenset()
        memory.write_word(RAM_BASE, 1)  # no hook to call


class TestAssembler:
    def test_labels_resolve_forward_and_backward(self):
        asm = Assembler()
        asm.label("top")
        asm.emit("PUSH", 0)
        asm.emit_jump("JZ", "end")
        asm.emit_jump("JMP", "top")
        asm.label("end")
        asm.emit("HALT")
        code = asm.assemble()
        assert code[1].arg == 3   # "end"
        assert code[2].arg == 0   # "top"

    def test_undefined_label_raises(self):
        asm = Assembler()
        asm.emit_jump("JMP", "nowhere")
        with pytest.raises(AssemblyError):
            asm.assemble()

    def test_duplicate_label_raises(self):
        asm = Assembler()
        asm.label("x")
        with pytest.raises(AssemblyError):
            asm.label("x")

    def test_non_jump_via_emit_jump_rejected(self):
        asm = Assembler()
        with pytest.raises(AssemblyError):
            asm.emit_jump("ADD", "x")

    def test_fresh_labels_unique(self):
        asm = Assembler()
        labels = {asm.fresh_label() for _ in range(10)}
        assert len(labels) == 10


class TestSymbolsAndFirmware:
    def test_allocation_is_sequential(self):
        table = SymbolTable()
        a = table.allocate("a")
        b = table.allocate("b")
        assert b.addr == a.addr + 1

    def test_duplicate_symbol_rejected(self):
        table = SymbolTable()
        table.allocate("a")
        with pytest.raises(Exception):
            table.allocate("a")

    def test_lookup_by_name_and_addr(self):
        table = SymbolTable()
        symbol = table.allocate("x", kind="output")
        assert table.addr_of("x") == symbol.addr
        assert table.at_addr(symbol.addr) is symbol
        assert table.symbols(kind="output") == [symbol]

    def test_firmware_entry_validation(self):
        table = SymbolTable()
        with pytest.raises(AssemblyError):
            FirmwareImage("fw", [Instr("HALT")], {"task": 5}, table, {})

    def test_firmware_path_tables(self):
        table = SymbolTable()
        fw = FirmwareImage("fw", [Instr("HALT")], {"t": 0}, table, {},
                           path_table={1: "state:a.b.S"})
        assert fw.path_of_id(1) == "state:a.b.S"
        assert fw.id_of_path("state:a.b.S") == 1


class TestBoard:
    def test_cycles_to_us_at_clock(self):
        board = Board()
        board.clock_hz = 1_000_000  # 1 cycle == 1 us
        assert board.cycles_to_us(42) == 42

    def test_run_task_without_firmware_traps(self):
        with pytest.raises(TargetFault):
            Board().run_task("t")

    def test_debug_port_reads_do_not_count_target_accesses(self):
        board = Board()
        port = DebugPort(board)
        port.read_word(RAM_BASE)
        assert board.memory.reads == 0
        assert port.reads == 1

    def test_debug_port_halt_resume(self):
        board = Board()
        port = DebugPort(board)
        port.halt()
        assert board.stalled and port.is_halted
        port.resume()
        assert not board.stalled


class TestUart:
    def test_fifo_depth_must_be_positive(self):
        assert Uart(fifo_depth=1).fifo_depth == 1
        for depth in (0, -8):
            with pytest.raises(TargetFault):
                Uart(fifo_depth=depth)
