"""Tests for transport fault injection on the serial frame plane.

:mod:`repro.comm.chaos` injects seeded, deterministic frame faults
(loss, corruption, duplication, reordering) into a serial link's
``transmit_frame``. The headline invariant: at a fixed chaos seed, two
runs produce byte-identical transcripts and transport accounting.
"""

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import traffic_light_system
from repro.comm.chaos import ChaosConfig, ChaosLink
from repro.comm.frames import FrameDecoder, encode_frame
from repro.comm.link import SerialLink
from repro.comm.rs232 import Rs232Link
from repro.errors import CommError
from repro.experiments.requirements import traffic_light_monitor_suite
from repro.faults.campaign import model_debugger_rig
from repro.faults.comm import comm_chaos_config
from repro.target.board import Board
from repro.util.timeunits import ms


class TestChaosConfig:
    def test_rates_validated(self):
        with pytest.raises(CommError):
            ChaosConfig(frame_loss=1.5)
        with pytest.raises(CommError):
            ChaosConfig(frame_duplicate=-0.1)
        with pytest.raises(CommError):
            ChaosConfig(reorder_delay_us=-1)

    def test_enabled_gate(self):
        assert not ChaosConfig().enabled
        assert not ChaosConfig(seed=99).enabled
        assert ChaosConfig(frame_loss=0.01).enabled
        assert ChaosConfig(frame_reorder=1.0).enabled

    def test_with_seed_copies_everything_else(self):
        config = ChaosConfig(seed=1, frame_loss=0.25, reorder_delay_us=700)
        clone = config.with_seed(42)
        assert clone.seed == 42
        assert clone.frame_loss == 0.25
        assert clone.reorder_delay_us == 700
        assert config.seed == 1  # original untouched


class TestChaosWrapper:
    def test_wrapper_delegates_unknown_attributes(self):
        board = Board()
        inner = SerialLink(Rs232Link(), board=board)
        chaos = ChaosLink(inner)
        assert chaos.board is board
        assert chaos.line is inner.line
        assert chaos.host_latency_us == SerialLink.host_latency_us
        assert chaos.kind == "chaos[serial]"
        chaos.halt_target()
        assert board.stalled
        chaos.resume_target()
        assert not board.stalled


def one_frame_link():
    return SerialLink(Rs232Link())


class TestChaosFramePlane:
    FRAME = encode_frame(1, 2, 3)

    def chaos_transmit(self, **rates):
        link = ChaosLink(one_frame_link(), ChaosConfig(seed=4, **rates))
        wire, t_done, t_arrive = link.transmit_frame(0, self.FRAME)
        return link, wire, t_done, t_arrive

    def test_loss_delivers_nothing(self):
        link, wire, _, _ = self.chaos_transmit(frame_loss=1.0)
        assert wire == b""
        assert FrameDecoder().feed(wire) == []
        assert link.stats()["frames_lost"] == 1
        assert link.frames_carried == 1  # the line time was still spent

    def test_corruption_fails_the_checksum(self):
        link, wire, _, _ = self.chaos_transmit(frame_corrupt=1.0)
        assert wire != self.FRAME and len(wire) == len(self.FRAME)
        decoder = FrameDecoder()
        assert decoder.feed(wire) == []
        assert decoder.checksum_errors + decoder.framing_errors > 0
        assert link.stats()["frames_corrupted"] == 1

    def test_duplication_decodes_twice(self):
        link, wire, _, _ = self.chaos_transmit(frame_duplicate=1.0)
        assert wire == self.FRAME + self.FRAME
        assert FrameDecoder().feed(wire) == [(1, 2, 3), (1, 2, 3)]
        assert link.stats()["frames_duplicated"] == 1

    def test_reordering_delays_arrival(self):
        clean = one_frame_link().transmit_frame(0, self.FRAME)
        link, wire, t_done, t_arrive = self.chaos_transmit(
            frame_reorder=1.0, reorder_delay_us=4000)
        assert wire == self.FRAME
        assert t_done == clean[1]
        assert t_arrive == clean[2] + 4000
        assert link.stats()["frames_reordered"] == 1

    def test_disabled_transmit_is_exact(self):
        clean = one_frame_link().transmit_frame(0, self.FRAME)
        link = ChaosLink(one_frame_link(), ChaosConfig(seed=9))
        assert link.transmit_frame(0, self.FRAME) == clean


class TestChaosSessions:
    def test_active_session_survives_frame_loss(self):
        system = traffic_light_system()

        def run(seed):
            kernel, engine, _ = model_debugger_rig(
                system, generate_firmware(system, InstrumentationPlan()),
                traffic_light_monitor_suite,
                chaos=comm_chaos_config("frame_loss", seed))
            commands = []
            engine.channel.subscribe(
                lambda c: commands.append((c.kind, c.path, c.value,
                                           c.t_target, c.t_host)))
            kernel.run(ms(600))
            counters = [child.debug_link.stats()
                        for child in engine.channel.children]
            return commands, counters, engine.commands_processed

        # at seed 4 the wire loses one of the run's three frames
        commands, counters, processed = run(4)
        assert sum(row["frames_lost"] for row in counters) > 0
        assert commands and processed > 0  # a lossy wire never silences
        assert (commands, counters, processed) == run(4)
