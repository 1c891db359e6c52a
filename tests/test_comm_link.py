"""Tests for the DebugLink layer: batching, accounting, cost model."""

import pytest

from repro.comdes.examples import blinker_system
from repro.codegen import InstrumentationPlan, generate_firmware
from repro.comm.channel import PassiveChannel, PollPlan, WatchSpec
from repro.comm.jtag import JtagProbe, TapController, group_runs
from repro.comm.link import DebugLink, JtagLink, SerialLink
from repro.comm.rs232 import Rs232Link
from repro.comm.usb import UsbTransport
from repro.errors import CommError
from repro.rtos.kernel import DtmKernel
from repro.sim.kernel import Simulator
from repro.target.board import Board, DebugPort
from repro.target.firmware import FirmwareImage, SymbolTable
from repro.target.isa import Instr
from repro.target.memory import RAM_BASE
from repro.util.timeunits import ms


def jtag_link(board=None, transport=None):
    board = board if board is not None else Board()
    probe = JtagProbe(TapController(DebugPort(board)), transport=transport)
    return board, JtagLink(probe)


def flat_firmware(n_symbols: int) -> FirmwareImage:
    """A do-nothing firmware with *n_symbols* watchable data words."""
    symbols = SymbolTable()
    for index in range(n_symbols):
        symbols.allocate(f"w{index}")
    return FirmwareImage("flat", [Instr("HALT")], {"idle": 0}, symbols, {})


class TestGroupRuns:
    def test_contiguous_addresses_form_one_run(self):
        assert group_runs([10, 11, 12, 13]) == [(10, 4)]

    def test_gaps_split_runs(self):
        assert group_runs([10, 11, 20, 21, 30]) == [(10, 2), (20, 2), (30, 1)]

    def test_order_and_duplicates_ignored(self):
        assert group_runs([12, 10, 11, 10]) == [(10, 3)]

    def test_run_word_total_matches_unique_addresses(self):
        addrs = [100, 101, 105, 103, 104, 101]
        runs = group_runs(addrs)
        assert sum(count for _, count in runs) == len(set(addrs))


class TestJtagLink:
    def test_read_word_matches_memory_and_counts_one_txn(self):
        board, link = jtag_link()
        board.memory.poke(RAM_BASE + 3, -77)
        value, cost = link.read_word(RAM_BASE + 3)
        assert value == -77
        assert cost > 0
        assert link.transactions == 1
        assert link.words_read == 1

    def test_read_block_equals_per_word_reads(self):
        board, link = jtag_link()
        for offset in range(6):
            board.memory.poke(RAM_BASE + offset, offset * 11 - 3)
        values, _ = link.read_block(RAM_BASE, 6)
        assert values == [offset * 11 - 3 for offset in range(6)]

    def test_scatter_preserves_input_order_and_duplicates(self):
        board, link = jtag_link()
        for offset in range(8):
            board.memory.poke(RAM_BASE + offset, 100 + offset)
        addrs = [RAM_BASE + 5, RAM_BASE, RAM_BASE + 5, RAM_BASE + 1]
        values, _ = link.read_scatter(addrs)
        assert values == [105, 100, 105, 101]
        assert link.transactions == 1

    def test_scatter_is_one_usb_transaction(self):
        transport = UsbTransport()
        board, link = jtag_link(transport=transport)
        link.read_scatter([RAM_BASE + i for i in range(64)])
        assert transport.transactions == 1

    def test_block_scan_cheaper_than_per_word_scans(self):
        _, batched = jtag_link(transport=UsbTransport())
        _, bursty = jtag_link(transport=UsbTransport())
        count = 16
        _, block_cost = batched.read_block(RAM_BASE, count)
        word_cost = sum(bursty.read_word(RAM_BASE + i)[1]
                        for i in range(count))
        assert block_cost < word_cost / 4

    def test_write_word_roundtrip(self):
        board, link = jtag_link()
        cost = link.write_word(RAM_BASE + 9, 4242)
        assert board.memory.peek(RAM_BASE + 9) == 4242
        assert cost > 0
        assert link.words_written == 1

    def test_halt_resume(self):
        board, link = jtag_link()
        link.halt_target()
        assert board.stalled
        link.resume_target()
        assert not board.stalled

    def test_reads_cost_zero_target_cycles(self):
        board, link = jtag_link()
        link.read_scatter([RAM_BASE + i for i in range(32)])
        assert board.cpu.cycles == 0
        assert board.memory.reads == 0  # backdoor plane, not the CPU's

    def test_stats_snapshot(self):
        _, link = jtag_link()
        link.read_block(RAM_BASE, 4)
        stats = link.stats()
        assert stats["kind"] == "jtag"
        assert stats["transactions"] == 1
        assert stats["words_read"] == 4
        assert stats["cost_us_total"] > 0


class TestSerialLink:
    def test_transmit_frame_charges_line_and_latency(self):
        link = SerialLink(Rs232Link(115200), host_latency_us=50)
        frame = b"\x7e12345678"
        wire, t_done, t_arrive = link.transmit_frame(1000, frame)
        assert wire == frame
        line_us = round(len(frame) * 10 * 1_000_000 / 115200)
        assert t_done == 1000 + line_us
        assert t_arrive == t_done + 50
        assert link.transactions == 1
        assert link.frames_carried == 1
        assert link.cost_us_total == line_us + 50

    def test_queueing_wait_is_not_billed_as_transport_cost(self):
        link = SerialLink(Rs232Link(9600), host_latency_us=50)
        frame = b"\x7e12345678"
        _, _, _ = link.transmit_frame(0, frame)
        first_cost = link.cost_us_total
        # Second frame ready immediately: it waits behind the first on
        # the line, but its transport cost is identical.
        _, t_done2, _ = link.transmit_frame(0, frame)
        assert link.cost_us_total == 2 * first_cost
        assert t_done2 > first_cost  # it did queue, though

    def test_cannot_read_memory(self):
        link = SerialLink(Rs232Link())
        with pytest.raises(CommError):
            link.read_word(RAM_BASE)

    def test_halt_needs_board(self):
        with pytest.raises(CommError):
            SerialLink(Rs232Link()).halt_target()
        board = Board()
        link = SerialLink(Rs232Link(), board=board)
        link.halt_target()
        assert board.stalled

    def test_negative_latency_rejected(self):
        with pytest.raises(CommError):
            SerialLink(Rs232Link(), host_latency_us=-1)


class TestDebugLink:
    def test_base_link_refuses_everything(self):
        link = DebugLink()
        for call in (lambda: link.read_word(0),
                     lambda: link.read_block(0, 1),
                     lambda: link.read_scatter([0]),
                     lambda: link.write_word(0, 0),
                     lambda: link.transmit_frame(0, b"x"),
                     lambda: link.halt_target()):
            with pytest.raises(CommError):
                call()


class TestPassivePollBatching:
    """The acceptance criterion: one transaction per poll, any watch count."""

    def make_channel(self, n_watches: int, poll_period_us: int = 500):
        firmware = flat_firmware(n_watches)
        board = Board()
        board.load_firmware(firmware)
        transport = UsbTransport()
        probe = JtagProbe(TapController(DebugPort(board)),
                          transport=transport)
        watches = [
            WatchSpec(f"w{index}",
                      lambda value, index=index: None)  # silent watches
            for index in range(n_watches)
        ]
        sim = Simulator()
        channel = PassiveChannel(sim, probe, firmware, watches,
                                 poll_period_us=poll_period_us)
        return sim, channel, transport

    def test_64_watches_poll_in_exactly_one_usb_transaction(self):
        sim, channel, transport = self.make_channel(64)
        channel.start()
        before = transport.transactions
        sim.run_until(500 * 10)  # ten polls
        assert channel.polls == 10
        assert transport.transactions - before == 10  # one txn per poll

    def test_poll_plan_compiled_once_with_contiguous_runs(self):
        sim, channel, _ = self.make_channel(8)
        assert channel.plan is None
        channel.start()
        assert isinstance(channel.plan, PollPlan)
        assert len(channel.plan.addrs) == 8
        assert channel.plan.runs == [(RAM_BASE, 8)]  # sequential allocation

    def test_scan_cost_grows_sublinearly_in_watch_count(self):
        def cost_per_poll(n):
            sim, channel, _ = self.make_channel(n)
            channel.start()
            sim.run_until(500)
            return channel.scan_us_total
        assert cost_per_poll(64) < 16 * cost_per_poll(1)

    def test_symbols_resolved_once_not_per_poll(self):
        """Satellite check: no symbol-table lookups on the poll path."""
        sim, channel, _ = self.make_channel(8)
        symbols = channel.firmware.symbols
        calls = {"addr_of": 0}
        original = symbols.addr_of

        def counting_addr_of(name):
            calls["addr_of"] += 1
            return original(name)

        symbols.addr_of = counting_addr_of
        channel.start()
        after_start = calls["addr_of"]
        assert after_start == 8  # once per watch, at compile time
        sim.run_until(500 * 50)  # fifty polls
        assert channel.polls == 50
        assert calls["addr_of"] == after_start  # polls never resolve again

    def test_channel_accepts_explicit_link(self):
        firmware = flat_firmware(2)
        board = Board()
        board.load_firmware(firmware)
        link = JtagLink(JtagProbe(TapController(DebugPort(board))))
        channel = PassiveChannel(
            Simulator(), None, firmware,
            [WatchSpec("w0", lambda v: None)], link=link)
        assert channel.link is link
        assert channel.probe is link.probe
        with pytest.raises(CommError):
            PassiveChannel(Simulator(), None, firmware,
                           [WatchSpec("w0", lambda v: None)])

    def test_end_to_end_batched_channel_still_sees_changes(self):
        """The refactored poll path against real generated firmware."""
        system = blinker_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        sim = Simulator()
        kernel = DtmKernel(system, firmware, sim=sim)
        board = kernel.board_of("node0")
        transport = UsbTransport()
        probe = JtagProbe(TapController(DebugPort(board)),
                          transport=transport)
        machine = system.actor("blinky").network.block("blink").machine
        channel = PassiveChannel(
            sim, probe, firmware,
            [WatchSpec.state_machine("blinky", "blink", machine),
             WatchSpec.signal("blinky", "led", "led")],
            poll_period_us=500)
        channel.start()
        received = []
        channel.subscribe(received.append)
        kernel.run(ms(10) * 30)
        assert received
        assert transport.transactions == channel.polls + 1  # + baseline
