"""Tests for the IEEE 1149.1 TAP controller and the host probe."""

import pytest

from repro.comm.jtag import Instruction, JtagProbe, TapController, TapState
from repro.comm.usb import UsbTransport
from repro.errors import JtagError
from repro.target.board import BOARD_IDCODE, Board, DebugPort
from repro.target.memory import RAM_BASE


def make_probe(board=None, transport=None):
    board = board if board is not None else Board()
    tap = TapController(DebugPort(board))
    return board, JtagProbe(tap, transport=transport)


def memwrite(probe, addr, value):
    """One MEMADDR + MEMWRITE round trip, driven scan by scan."""
    probe.shift_ir(Instruction.MEMADDR)
    probe.shift_dr(addr, 32)
    probe.shift_ir(Instruction.MEMWRITE)
    probe.shift_dr(value & 0xFFFFFFFF, 32)


class TestTapController:
    def test_powers_up_in_test_logic_reset(self):
        tap = TapController(DebugPort(Board()))
        assert tap.state is TapState.TEST_LOGIC_RESET

    def test_canonical_walk_to_shift_dr(self):
        tap = TapController(DebugPort(Board()))
        for tms in (0, 1, 0, 0):  # RTI, Select-DR, Capture-DR, Shift-DR
            tap.drive(tms)
        assert tap.state is TapState.SHIFT_DR

    def test_reset_restores_idcode_instruction(self):
        tap = TapController(DebugPort(Board()))
        tap.ir = int(Instruction.MEMREAD)
        for _ in range(5):
            tap.drive(1)
        assert tap.ir == int(Instruction.IDCODE)

    def test_invalid_bit_values_rejected(self):
        tap = TapController(DebugPort(Board()))
        with pytest.raises(JtagError):
            tap.drive(2)

    def test_tck_counted(self):
        tap = TapController(DebugPort(Board()))
        for _ in range(7):
            tap.drive(0)
        assert tap.tck_count == 7


class TestProbeOperations:
    def test_read_idcode(self):
        _, probe = make_probe()
        probe.shift_ir(Instruction.IDCODE)
        assert probe.shift_dr(0, 32) == BOARD_IDCODE
        assert probe.tap.tck_count > 0

    def test_read_word_matches_memory(self):
        board, probe = make_probe()
        board.memory.poke(RAM_BASE + 5, 0xDEAD)
        assert probe.read_word_timed(RAM_BASE + 5)[0] == 0xDEAD

    def test_read_word_sign_extends(self):
        board, probe = make_probe()
        board.memory.poke(RAM_BASE, -7)
        assert probe.read_word_timed(RAM_BASE)[0] == -7

    def test_write_word_roundtrip(self):
        board, probe = make_probe()
        memwrite(probe, RAM_BASE + 2, 4242)
        assert board.memory.peek(RAM_BASE + 2) == 4242

    def test_reads_cost_zero_target_cycles(self):
        board, probe = make_probe()
        before = board.cpu.cycles
        probe.read_word_timed(RAM_BASE)
        assert board.cpu.cycles == before
        assert board.memory.reads == 0  # backdoor, not a CPU access

    def test_scan_cost_scales_with_tck(self):
        _, slow = make_probe()
        slow.tck_hz = 1_000_000
        _, v_slow_cost = slow.read_word_timed(RAM_BASE)
        _, fast = make_probe()
        fast.tck_hz = 10_000_000
        _, v_fast_cost = fast.read_word_timed(RAM_BASE)
        assert v_slow_cost > v_fast_cost

    def test_transport_charged_when_present(self):
        _, bare = make_probe()
        _, bare_cost = bare.read_word_timed(RAM_BASE)
        _, cabled = make_probe(transport=UsbTransport(latency_us=500))
        _, cabled_cost = cabled.read_word_timed(RAM_BASE)
        assert cabled_cost >= bare_cost + 500

    def test_halt_resume_through_tap(self):
        board, probe = make_probe()
        probe.halt_target()
        assert board.stalled
        probe.resume_target()
        assert not board.stalled

    def test_invalid_tck_rejected(self):
        tap = TapController(DebugPort(Board()))
        with pytest.raises(JtagError):
            JtagProbe(tap, tck_hz=0)


class TestBlockRead:
    def test_block_read_equals_per_word_reads(self):
        board, probe = make_probe()
        expected = []
        for offset in range(10):
            board.memory.poke(RAM_BASE + offset, (offset - 5) * 1234)
            expected.append((offset - 5) * 1234)
        values, _ = probe.read_scatter_timed(
            [RAM_BASE + offset for offset in range(10)])
        assert values == expected
        assert values == [probe.read_word_timed(RAM_BASE + offset)[0]
                          for offset in range(10)]

    def test_capture_auto_increments_address(self):
        board = Board()
        tap = TapController(DebugPort(board))
        probe = JtagProbe(tap)
        probe.shift_ir(Instruction.MEMADDR)
        probe.shift_dr(RAM_BASE, 32)
        probe.shift_ir(Instruction.BLOCKREAD)
        probe.shift_dr(0, 32)
        probe.shift_dr(0, 32)
        assert tap._address == RAM_BASE + 2

    def test_memread_does_not_auto_increment(self):
        board = Board()
        tap = TapController(DebugPort(board))
        probe = JtagProbe(tap)
        probe.shift_ir(Instruction.MEMADDR)
        probe.shift_dr(RAM_BASE, 32)
        probe.shift_ir(Instruction.MEMREAD)
        probe.shift_dr(0, 32)
        probe.shift_dr(0, 32)
        assert tap._address == RAM_BASE

    def test_out_of_range_words_capture_fault_pattern(self):
        board, probe = make_probe()
        last = RAM_BASE + len(board.memory) - 1
        board.memory.poke(last, 7)
        values, _ = probe.read_scatter_timed([last, last + 1])
        assert values[0] == 7
        assert values[1] & 0xFFFFFFFF == 0xDEADDEAD

    def test_block_read_fewer_tck_cycles_than_word_reads(self):
        _, block_probe = make_probe()
        block_probe.read_scatter_timed([RAM_BASE + i for i in range(16)])
        block_clocks = block_probe.tap.tck_count
        _, word_probe = make_probe()
        for offset in range(16):
            word_probe.read_word_timed(RAM_BASE + offset)
        assert block_clocks < word_probe.tap.tck_count / 2

    def test_scatter_rejects_empty(self):
        _, probe = make_probe()
        with pytest.raises(JtagError):
            probe.read_scatter_timed([])

    def test_five_tms_clocks_reset_with_blockread_selected(self):
        board = Board()
        tap = TapController(DebugPort(board))
        probe = JtagProbe(tap)
        probe.shift_ir(Instruction.BLOCKREAD)
        assert tap.ir == int(Instruction.BLOCKREAD)
        for _ in range(5):
            tap.drive(1)
        assert tap.state is TapState.TEST_LOGIC_RESET
        assert tap.ir == int(Instruction.IDCODE)


class TestBlockWrite:
    def test_block_write_equals_per_word_writes(self):
        board, probe = make_probe()
        values = [(offset - 5) * 4321 for offset in range(10)]
        probe.write_block_timed(RAM_BASE, values)
        blocked = [board.memory.peek(RAM_BASE + offset) for offset in range(10)]
        reference, ref_probe = make_probe()
        for offset, value in enumerate(values):
            memwrite(ref_probe, RAM_BASE + offset, value)
        worded = [reference.memory.peek(RAM_BASE + offset)
                  for offset in range(10)]
        assert blocked == worded == values

    def test_update_auto_increments_address(self):
        board = Board()
        tap = TapController(DebugPort(board))
        probe = JtagProbe(tap)
        probe.shift_ir(Instruction.MEMADDR)
        probe.shift_dr(RAM_BASE, 32)
        probe.shift_ir(Instruction.BLOCKWRITE)
        probe.shift_dr(11, 32)
        probe.shift_dr(22, 32)
        assert tap._address == RAM_BASE + 2
        assert board.memory.peek(RAM_BASE) == 11
        assert board.memory.peek(RAM_BASE + 1) == 22

    def test_memwrite_does_not_auto_increment(self):
        board = Board()
        tap = TapController(DebugPort(board))
        probe = JtagProbe(tap)
        probe.shift_ir(Instruction.MEMADDR)
        probe.shift_dr(RAM_BASE, 32)
        probe.shift_ir(Instruction.MEMWRITE)
        probe.shift_dr(11, 32)
        probe.shift_dr(22, 32)
        assert tap._address == RAM_BASE
        assert board.memory.peek(RAM_BASE) == 22

    def test_out_of_range_words_dropped(self):
        board, probe = make_probe()
        last = RAM_BASE + len(board.memory) - 1
        probe.write_block_timed(last, [7, 8])  # second word falls off RAM
        assert board.memory.peek(last) == 7

    def test_negative_values_roundtrip_signed(self):
        board, probe = make_probe()
        probe.write_block_timed(RAM_BASE, [-1, -1234])
        assert board.memory.peek(RAM_BASE) == -1
        assert board.memory.peek(RAM_BASE + 1) == -1234

    def test_one_usb_transaction_per_block(self):
        transport = UsbTransport()
        _, probe = make_probe(transport=transport)
        probe.write_block_timed(RAM_BASE, list(range(32)))
        assert transport.transactions == 1

    def test_block_write_fewer_tck_cycles_than_word_writes(self):
        _, block_probe = make_probe()
        block_probe.write_block_timed(RAM_BASE, list(range(16)))
        block_clocks = block_probe.tap.tck_count
        _, word_probe = make_probe()
        for offset in range(16):
            memwrite(word_probe, RAM_BASE + offset, offset)
        assert block_clocks < word_probe.tap.tck_count / 2

    def test_empty_block_rejected(self):
        _, probe = make_probe()
        with pytest.raises(JtagError):
            probe.write_block_timed(RAM_BASE, [])
