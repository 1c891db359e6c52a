"""The clean-wire command path equals the frame-byte path it skips.

An :class:`~repro.comm.channel.ActiveChannel` on a plain ``SerialLink``
over a noiseless line hands each EMIT's fields straight to the host: no
``encode_frame``, no ``FrameDecoder.feed``. Behind any ``ChaosLink`` (a
zero-rate config included) or on a noisy line it still makes the bytes
and parses them back, and that byte path is the reference. Here:

* every example system's model-debugger rig, clean and forced onto the
  byte path by a zero-rate ``ChaosLink``, gives equal traces, monitor
  reports, kernel records, UART, channel, decoder, line and inner-link
  counters, at the default FIFO depth and at one small enough to overrun;
* values outside signed 32 bits arrive wrapped exactly as the decode
  wraps them;
* an out-of-range ``kind`` or ``path_id`` raises the byte path's
  ``FrameError`` and charges nothing;
* a noisy line, a zero-rate ``ChaosLink`` and a ``ChaosLink`` swapped in
  after construction all keep the byte path.
"""

from __future__ import annotations

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import (blinker_system, cruise_control_system,
                                   production_cell_system,
                                   traffic_light_system)
import repro.comm.channel as channel_module
from repro.comm.channel import ActiveChannel
from repro.comm.chaos import ChaosConfig, ChaosLink
from repro.comm.frames import FrameDecoder, FrameError, encode_frame
from repro.comm.rs232 import Rs232Link
from repro.engine.checks import MonitorSuite
from repro.experiments.requirements import (cruise_monitor_suite,
                                            production_cell_monitor_suite,
                                            traffic_light_monitor_suite)
from repro.faults.campaign import model_debugger_rig
from repro.rtos.task import JobRecord
from repro.sim.kernel import Simulator
from repro.target.board import Board
from repro.target.firmware import FirmwareImage, SymbolTable
from repro.target.isa import Instr
from repro.util.timeunits import sec

SYSTEMS = {
    "blinker": (blinker_system, lambda: MonitorSuite([])),
    "traffic": (traffic_light_system, traffic_light_monitor_suite),
    "cruise": (cruise_control_system, cruise_monitor_suite),
    "cell": (production_cell_system, production_cell_monitor_suite),
}


class CallCounts:
    """Counts ``encode_frame`` calls from the channel and decoder feeds."""

    def __init__(self, monkeypatch):
        self.encodes = 0
        self.feeds = 0
        real_feed = FrameDecoder.feed

        def encode(*args):
            self.encodes += 1
            return encode_frame(*args)

        def feed(decoder, data):
            self.feeds += 1
            return real_feed(decoder, data)

        monkeypatch.setattr(channel_module, "encode_frame", encode)
        monkeypatch.setattr(FrameDecoder, "feed", feed)


def rig_run(name, byte_path, fifo_depth=None):
    """Everything one model-debugger run shows of its wire."""
    system_factory, monitors = SYSTEMS[name]
    system = system_factory()
    firmware = generate_firmware(system, InstrumentationPlan.full())
    kernel, engine, suite = model_debugger_rig(
        system, firmware, monitors,
        chaos=ChaosConfig(seed=3) if byte_path else None)
    channels = engine.channel.children
    boards = [kernel.board_of(node) for node in system.nodes()]
    if fifo_depth is not None:
        for board in boards:
            board.uart.fifo_depth = fifo_depth
    kernel.run(sec(3))
    links = [ch.debug_link.inner if byte_path else ch.debug_link
             for ch in channels]
    assert all(type(ch.debug_link) is (ChaosLink if byte_path
                                       else channel_module.SerialLink)
               for ch in channels)
    return {
        "trace": engine.trace.to_dicts(),
        "reports": [(r.monitor, r.message, r.t_us) for r in suite.reports()],
        "records": [tuple(getattr(r, field) for field in JobRecord.__slots__)
                    for r in kernel.records],
        "uart": [(b.uart.overruns, b.uart.bytes_sent) for b in boards],
        "channels": [(ch.frames_sent, ch.frames_dropped,
                      ch.commands_delivered) for ch in channels],
        "decoders": [(ch.decoder.frames_decoded, ch.decoder.checksum_errors,
                      ch.decoder.framing_errors) for ch in channels],
        "lines": [(ch.link.bytes_carried, ch.link.bytes_corrupted,
                   ch.link.busy_us, ch.link.free_at) for ch in channels],
        "links": [link.stats() for link in links],
        "events": (kernel.sim.executed_events, kernel.sim.now),
    }


class TestCleanWireEqualsBytePath:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @pytest.mark.parametrize("fifo_depth", [None, 20])
    def test_rig_observables_equal(self, name, fifo_depth, monkeypatch):
        calls = CallCounts(monkeypatch)
        clean = rig_run(name, False, fifo_depth)
        assert (calls.encodes, calls.feeds) == (0, 0)
        byte = rig_run(name, True, fifo_depth)
        assert calls.encodes == sum(ch[0] + ch[1]
                                    for ch in byte["channels"])
        # frames still on the line at the horizon are never fed
        assert calls.feeds == sum(d[0] for d in byte["decoders"])
        assert clean == byte
        assert clean["trace"]
        assert sum(d[0] for d in clean["decoders"]) == len(clean["trace"])
        if fifo_depth is not None:
            assert sum(overruns for overruns, _ in clean["uart"]) > 0


def lone_channel(line=None):
    """An active channel on a bare board whose firmware knows path 1."""
    sim = Simulator()
    board = Board()
    firmware = FirmwareImage("wire", [Instr("HALT")], {}, SymbolTable(), {},
                             {1: "signal:x"})
    channel = ActiveChannel(sim, board, firmware,
                            link=line if line is not None else Rs232Link())
    channel.begin_job(0)
    delivered = []
    channel.subscribe(lambda c: delivered.append(
        (c.kind, c.path, c.value, c.t_target, c.t_host)))
    return channel, delivered


def drain(channel):
    """Deliver every frame in flight: each lands within a second."""
    channel.sim.run_until(channel.sim.now + sec(1))


def books(channel):
    return (channel.board.uart.bytes_sent, channel.board.uart.overruns,
            channel.frames_sent, channel.frames_dropped,
            channel.decoder.frames_decoded, channel.link.bytes_carried,
            channel.debug_link.stats())


class TestCleanWireFields:
    @pytest.mark.parametrize("value", [0, -1, 2 ** 31 - 1, 2 ** 31, -2 ** 31,
                                       -2 ** 31 - 1, 2 ** 32, 2 ** 40 + 3,
                                       -(2 ** 40) - 5])
    def test_value_wraps_as_the_decode_does(self, value, monkeypatch):
        clean, clean_seen = lone_channel()
        byte, byte_seen = lone_channel()
        byte.debug_link = ChaosLink(byte.debug_link)
        calls = CallCounts(monkeypatch)
        for channel in (clean, byte):
            channel._on_emit(2, 1, value)
            drain(channel)
        assert (calls.encodes, calls.feeds) == (1, 1)
        assert clean_seen == byte_seen
        (_, _, decoded), = FrameDecoder().feed(encode_frame(2, 1, value))
        assert clean_seen[0][2] == decoded
        assert books(clean)[:-1] == books(byte)[:-1]

    @pytest.mark.parametrize("kind, path_id", [(256, 1), (-1, 1), (2, -1),
                                               (2, 0x10000), (1000, -5)])
    def test_out_of_range_fields_raise_frame_error(self, kind, path_id,
                                                   monkeypatch):
        with pytest.raises(FrameError) as reference:
            encode_frame(kind, path_id, 0)
        channel, delivered = lone_channel()
        calls = CallCounts(monkeypatch)
        before = books(channel)
        with pytest.raises(FrameError) as raised:
            channel._on_emit(kind, path_id, 0)
        assert str(raised.value) == str(reference.value)
        assert calls.encodes == 0
        drain(channel)
        assert books(channel) == before
        assert delivered == []

    def test_unknown_kind_in_range_raises_at_delivery_on_both_paths(self):
        for byte_path in (False, True):
            channel, _ = lone_channel()
            if byte_path:
                channel.debug_link = ChaosLink(channel.debug_link)
            channel._on_emit(200, 1, 0)
            with pytest.raises(ValueError):
                drain(channel)
            assert channel.decoder.frames_decoded == 1


class TestBytePathKept:
    def test_noisy_line_feeds_the_decoder(self, monkeypatch):
        channel, _ = lone_channel(Rs232Link(byte_error_rate=0.05, seed=2))
        calls = CallCounts(monkeypatch)
        for step in range(20):
            channel.begin_job(step * 10_000)
            channel._on_emit(2, 1, step)
        drain(channel)
        assert (calls.encodes, calls.feeds) == (20, 20)

    def test_zero_rate_chaos_link_keeps_the_byte_path(self, monkeypatch):
        channel, _ = lone_channel()
        channel.debug_link = ChaosLink(channel.debug_link, ChaosConfig())
        assert not channel.debug_link.config.enabled
        calls = CallCounts(monkeypatch)
        channel._on_emit(2, 1, 7)
        drain(channel)
        assert (calls.encodes, calls.feeds) == (1, 1)

    def test_path_is_chosen_per_emit(self, monkeypatch):
        """A link or line swapped after construction takes effect at the
        next emission."""
        channel, delivered = lone_channel()
        calls = CallCounts(monkeypatch)
        channel._on_emit(2, 1, 1)
        drain(channel)
        assert (calls.encodes, calls.feeds) == (0, 0)
        channel.debug_link = ChaosLink(channel.debug_link)
        channel._on_emit(2, 1, 2)
        drain(channel)
        assert (calls.encodes, calls.feeds) == (1, 1)
        channel.debug_link = channel.debug_link.inner
        channel.link = Rs232Link(byte_error_rate=0.01)
        channel._on_emit(2, 1, 3)
        drain(channel)
        assert (calls.encodes, calls.feeds) == (2, 2)
        channel.link = Rs232Link()
        channel._on_emit(2, 1, 4)
        drain(channel)
        assert (calls.encodes, calls.feeds) == (2, 2)
        assert [value for _, _, value, _, _ in delivered] == [1, 2, 3, 4]
