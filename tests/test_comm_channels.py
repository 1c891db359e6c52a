"""Tests for the active and passive debug channels."""

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import blinker_system, traffic_light_system
from repro.comm.channel import (
    ActiveChannel, CompositeChannel, PassiveChannel, WatchSpec,
)
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.protocol import Command, CommandKind
from repro.comm.rs232 import Rs232Link
from repro.errors import CommError
from repro.rtos.kernel import DtmKernel
from repro.sim.kernel import Simulator
from repro.target.board import Board, DebugPort
from repro.util.timeunits import ms


def active_setup(system=None, plan=None, baud=115200):
    system = system if system is not None else traffic_light_system()
    firmware = generate_firmware(system,
                                 plan or InstrumentationPlan.full())
    kernel = DtmKernel(system, firmware)
    sim = kernel.sim
    channel = ActiveChannel(sim, kernel.board_of("node0"), firmware,
                            link=Rs232Link(baud))
    kernel.add_job_hook("node0", channel.begin_job)
    received = []
    channel.subscribe(received.append)
    return sim, kernel, channel, received


class TestActiveChannel:
    def test_commands_arrive_decoded_with_paths(self):
        sim, kernel, channel, received = active_setup()
        kernel.run(ms(100) * 12)
        assert received
        state_cmds = [c for c in received if c.kind is CommandKind.STATE_ENTER]
        assert any(c.path == "state:lights.lamp.GREEN" for c in state_cmds)

    def test_host_time_after_target_time(self):
        sim, kernel, channel, received = active_setup()
        kernel.run(ms(100) * 12)
        for command in received:
            assert command.t_host >= command.t_target
            assert command.latency_us >= 0

    def test_latency_grows_at_lower_baud(self):
        def mean_latency(baud):
            sim, kernel, channel, received = active_setup(baud=baud)
            kernel.run(ms(100) * 20)
            return sum(c.latency_us for c in received) / len(received)
        assert mean_latency(9600) > mean_latency(115200)

    def test_fifo_overrun_drops_frames(self):
        # A tiny FIFO + slow line: burst traffic must overflow.
        system = traffic_light_system()
        firmware = generate_firmware(system, InstrumentationPlan.full())
        kernel = DtmKernel(system, firmware)
        sim = kernel.sim
        kernel.board_of("node0").uart.fifo_depth = 12
        channel = ActiveChannel(sim, kernel.board_of("node0"), firmware,
                                link=Rs232Link(300))
        kernel.add_job_hook("node0", channel.begin_job)
        kernel.run(ms(100) * 30)
        assert channel.frames_dropped > 0
        assert kernel.board_of("node0").uart.overruns == channel.frames_dropped

    def test_halt_resume_stalls_board(self):
        sim, kernel, channel, _ = active_setup()
        channel.halt_target()
        assert kernel.board_of("node0").stalled
        channel.resume_target()
        assert not kernel.board_of("node0").stalled


class TestPassiveChannel:
    def passive_setup(self, poll_period_us=500):
        system = blinker_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        kernel = DtmKernel(system, firmware)
        sim = kernel.sim
        board = kernel.board_of("node0")
        probe = JtagProbe(TapController(DebugPort(board)))
        watches = [
            WatchSpec.state_machine("blinky", "blink",
                                    system.actor("blinky").network
                                    .block("blink").machine),
            WatchSpec.signal("blinky", "led", "led"),
        ]
        channel = PassiveChannel(sim, probe, firmware, watches,
                                 poll_period_us=poll_period_us)
        channel.start()
        received = []
        channel.subscribe(received.append)
        return sim, kernel, channel, received

    def test_detects_state_changes_without_instrumentation(self):
        sim, kernel, channel, received = self.passive_setup()
        kernel.run(ms(10) * 30)
        states = [c for c in received if c.kind is CommandKind.STATE_ENTER]
        assert states
        assert {c.path for c in states} <= {
            "state:blinky.blink.ON", "state:blinky.blink.OFF",
        }

    def test_signal_watches_report_values(self):
        sim, kernel, channel, received = self.passive_setup()
        kernel.run(ms(10) * 30)
        sig = [c for c in received if c.kind is CommandKind.SIG_UPDATE]
        assert {c.value for c in sig} == {0, 1}

    def test_latency_bounded_by_poll_period(self):
        sim, kernel, channel, received = self.passive_setup(poll_period_us=2000)
        kernel.run(ms(10) * 40)
        for command in received:
            # t_target is the poll instant; host delivery adds scan cost only.
            assert command.latency_us < 2000

    def test_zero_target_cycles(self):
        sim, kernel, channel, received = self.passive_setup()
        board = kernel.board_of("node0")
        cycles_with_probe = None
        kernel.run(ms(10) * 20)
        cycles_with_probe = board.cpu.cycles
        # Reference: same workload with no channel at all.
        system = blinker_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        kernel2 = DtmKernel(system, firmware)
        kernel2.run(ms(10) * 20)
        assert cycles_with_probe == kernel2.board_of("node0").cpu.cycles

    def test_unknown_watch_symbol_rejected(self):
        system = blinker_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        sim = Simulator()
        board = Board()
        board.load_firmware(firmware)
        probe = JtagProbe(TapController(DebugPort(board)))
        with pytest.raises(Exception):
            PassiveChannel(sim, probe, firmware,
                           [WatchSpec("ghost.symbol", lambda v: None)])

    def test_needs_at_least_one_watch(self):
        system = blinker_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        board = Board()
        board.load_firmware(firmware)
        probe = JtagProbe(TapController(DebugPort(board)))
        with pytest.raises(CommError):
            PassiveChannel(Simulator(), probe, firmware, [])

    def test_double_start_rejected(self):
        sim, kernel, channel, _ = self.passive_setup(poll_period_us=1000)
        plan = channel.plan
        with pytest.raises(CommError, match="already started"):
            channel.start()
        assert channel.plan is plan
        kernel.run(ms(10))
        assert channel.polls == 10  # still one poll per period


class TestCompositeChannel:
    def test_fans_in_children(self):
        composite = CompositeChannel()
        a, b = CompositeChannel(), CompositeChannel()  # any DebugChannel works
        composite.add(a)
        composite.add(b)
        received = []
        composite.subscribe(received.append)
        command = Command(CommandKind.USER, "signal:x", 1)
        a.deliver(command)
        b.deliver(command)
        assert len(received) == 2

    def test_close_unsubscribes_down_the_fan_in(self):
        composite = CompositeChannel()
        child = composite.add(CompositeChannel())
        received = []
        composite.subscribe(received.append)
        composite.close()
        child.deliver(Command(CommandKind.USER, "signal:x", 1))
        composite.deliver(Command(CommandKind.USER, "signal:x", 2))
        assert received == []
        assert composite.children == [child]

    def test_watchspec_state_ignores_wild_index(self):
        from repro.comdes.examples import blinker_machine
        spec = WatchSpec.state_machine("a", "b", blinker_machine())
        assert spec.make_command(99) is None
        kind, path, value = spec.make_command(1)
        assert kind is CommandKind.STATE_ENTER
        assert path == "state:a.b.ON"
