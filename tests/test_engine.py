"""Tests for the debugger engine, breakpoints, stepping, trace and replay."""

import pytest

from repro.comdes.examples import traffic_light_system
from repro.comdes.reflect import system_to_model
from repro.comm.channel import DebugChannel
from repro.comm.protocol import Command, CommandKind
from repro.engine.breakpoints import BreakpointManager, StateEntryBreakpoint
from repro.engine.engine import DebuggerEngine, EngineState
from repro.engine.replay import ReplayPlayer
from repro.engine.stepping import StepController
from repro.engine.timing_diagram import TimingDiagram
from repro.engine.trace import ExecutionTrace
from repro.errors import DebuggerError
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.mapping import default_comdes_table


class FakeChannel(DebugChannel):
    """A hand-driven channel for engine unit tests."""

    def __init__(self):
        super().__init__()
        self.halted = False

    def halt_target(self):
        self.halted = True

    def resume_target(self):
        self.halted = False

    def send(self, kind, path, value=0, t=0):
        self.deliver(Command(kind, path, value, t_target=t, t_host=t))


def make_engine():
    model = system_to_model(traffic_light_system())
    gdm = AbstractionEngine(default_comdes_table(model.metamodel)).build(model)
    channel = FakeChannel()
    engine = DebuggerEngine(gdm, channel=channel)
    return engine, channel, gdm


S = "state:lights.lamp."


class TestEngineFsm:
    def test_starts_waiting_after_connect(self):
        engine, _, _ = make_engine()
        assert engine.state is EngineState.WAITING

    def test_disconnected_engine_rejects_commands(self):
        model = system_to_model(traffic_light_system())
        gdm = AbstractionEngine(default_comdes_table(model.metamodel)).build(model)
        engine = DebuggerEngine(gdm)
        with pytest.raises(DebuggerError):
            engine.on_command(Command(CommandKind.USER, "signal:light", 0))

    def test_command_applies_bound_reaction(self):
        engine, channel, gdm = make_engine()
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        assert gdm.element_by_path(f"{S}GREEN").highlighted
        assert engine.commands_processed == 1

    def test_trace_records_every_command(self):
        engine, channel, _ = make_engine()
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1, t=100)
        channel.send(CommandKind.SIG_UPDATE, "signal:light", 1, t=200)
        assert len(engine.trace) == 2
        assert engine.trace[0].command.path == f"{S}GREEN"

    def test_frames_captured_on_reactions(self):
        engine, channel, _ = make_engine()
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        assert len(engine.frames) == 1
        assert engine.frames[0].highlighted()

    def test_commands_while_paused_are_counted_not_processed(self):
        engine, channel, gdm = make_engine()
        engine.pause()
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        assert engine.commands_processed == 0
        assert engine.commands_while_paused == 1
        assert not gdm.element_by_path(f"{S}GREEN").highlighted

    def test_state_change_events_published(self):
        engine, channel, _ = make_engine()
        transitions = []
        engine.bus.subscribe("engine_state",
                             lambda previous, current: transitions.append(
                                 (previous, current)))
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        assert (EngineState.WAITING, EngineState.REACTING) in transitions
        assert (EngineState.REACTING, EngineState.WAITING) in transitions

    def test_close_unsubscribes_and_disconnects(self):
        engine, channel, _ = make_engine()
        seen = []
        engine.bus.subscribe("command", lambda **payload: seen.append(1))
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        engine.close()
        assert engine.state is EngineState.DISCONNECTED
        assert engine.channel is None
        assert engine.bus.subscriber_count("command") == 0
        channel.send(CommandKind.STATE_ENTER, f"{S}RED", 0)  # reaches no one
        assert seen == [1] and engine.commands_processed == 1
        assert len(engine.trace) == 1
        with pytest.raises(DebuggerError):
            engine.on_command(Command(CommandKind.USER, "signal:light", 0))


class TestBreakpoints:
    def test_state_entry_breakpoint_pauses_and_halts(self):
        engine, channel, _ = make_engine()
        engine.breakpoints.add(StateEntryBreakpoint(f"{S}YELLOW"))
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        assert engine.state is EngineState.WAITING
        channel.send(CommandKind.STATE_ENTER, f"{S}YELLOW", 2)
        assert engine.state is EngineState.PAUSED
        assert channel.halted

    def test_breakpoint_event_published(self):
        engine, channel, _ = make_engine()
        hits = []
        engine.bus.subscribe("breakpoint",
                             lambda breakpoint, command: hits.append(
                                 breakpoint.description))
        engine.breakpoints.add(StateEntryBreakpoint(f"{S}GREEN"))
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        assert hits

    def test_disabled_breakpoint_ignored(self):
        engine, channel, _ = make_engine()
        bp = engine.breakpoints.add(StateEntryBreakpoint(f"{S}GREEN"))
        bp.enabled = False
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        assert engine.state is EngineState.WAITING

    def test_hit_counts(self):
        manager = BreakpointManager()
        bp = manager.add(StateEntryBreakpoint(f"{S}GREEN"))
        manager.check(Command(CommandKind.STATE_ENTER, f"{S}GREEN", 1))
        manager.check(Command(CommandKind.STATE_ENTER, f"{S}RED", 0))
        manager.check(Command(CommandKind.STATE_ENTER, f"{S}GREEN", 1))
        assert bp.hit_count == 2

    def test_path_kind_validation(self):
        with pytest.raises(DebuggerError):
            StateEntryBreakpoint("signal:light")


class TestStepping:
    def test_step_processes_exactly_n_commands(self):
        engine, channel, _ = make_engine()
        stepper = StepController(engine)
        stepper.pause()
        stepper.step(2)
        assert engine.state is EngineState.WAITING
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        assert engine.state is EngineState.WAITING  # budget 1 left
        channel.send(CommandKind.STATE_ENTER, f"{S}YELLOW", 2)
        assert engine.state is EngineState.PAUSED   # budget exhausted
        assert channel.halted

    def test_resume_clears_budget(self):
        engine, channel, _ = make_engine()
        stepper = StepController(engine)
        stepper.pause()
        stepper.step(1)
        stepper.pause()
        stepper.resume()
        channel.send(CommandKind.STATE_ENTER, f"{S}GREEN", 1)
        assert engine.state is EngineState.WAITING  # free-running

    def test_step_requires_paused(self):
        engine, _, _ = make_engine()
        stepper = StepController(engine)
        with pytest.raises(DebuggerError):
            stepper.step()

    def test_step_count_positive(self):
        engine, _, _ = make_engine()
        stepper = StepController(engine)
        stepper.pause()
        with pytest.raises(DebuggerError):
            stepper.step(0)


class TestTraceAndReplay:
    def fill_trace(self):
        engine, channel, gdm = make_engine()
        script = [
            (CommandKind.STATE_ENTER, f"{S}GREEN", 1, 100),
            (CommandKind.SIG_UPDATE, "signal:light", 1, 150),
            (CommandKind.STATE_ENTER, f"{S}YELLOW", 2, 500),
            (CommandKind.SIG_UPDATE, "signal:light", 2, 550),
            (CommandKind.STATE_ENTER, f"{S}RED", 0, 700),
        ]
        for kind, path, value, t in script:
            channel.send(kind, path, value, t=t)
        return engine, gdm

    def test_trace_filters(self):
        engine, _ = self.fill_trace()
        states = engine.trace.events(kind=CommandKind.STATE_ENTER)
        assert len(states) == 3
        lamp = engine.trace.events(path_prefix="signal:")
        assert len(lamp) == 2

    def test_trace_serialization_roundtrip(self):
        engine, _ = self.fill_trace()
        data = engine.trace.to_dicts()
        restored = ExecutionTrace.from_dicts(data)
        assert restored.to_dicts() == data
        assert len(restored) == len(engine.trace)

    def test_replay_reproduces_final_highlight(self):
        engine, gdm = self.fill_trace()
        live_highlights = sorted(
            e.source_path for e in gdm.elements.values() if e.highlighted)
        player = ReplayPlayer(engine.trace, gdm)
        player.start()
        player.run_to_end()
        assert player.highlighted_paths() == live_highlights

    def test_replay_is_deterministic(self):
        engine, gdm = self.fill_trace()
        player = ReplayPlayer(engine.trace, gdm)
        player.start()
        player.run_to_end()
        first = [f.highlighted() for f in player.frames.frames()]
        player.start()
        player.run_to_end()
        second = [f.highlighted() for f in player.frames.frames()]
        assert first == second

    def test_replay_seek(self):
        engine, gdm = self.fill_trace()
        player = ReplayPlayer(engine.trace, gdm)
        player.seek(1)  # after GREEN highlight only
        assert player.highlighted_paths() == [f"{S}GREEN"]

    def test_seek_out_of_range(self):
        engine, gdm = self.fill_trace()
        player = ReplayPlayer(engine.trace, gdm)
        with pytest.raises(DebuggerError):
            player.seek(99)

    def test_replay_requires_start(self):
        engine, gdm = self.fill_trace()
        player = ReplayPlayer(engine.trace, gdm)
        with pytest.raises(DebuggerError):
            player.step()

    def test_engine_replay_handshake(self):
        engine, gdm = self.fill_trace()
        engine.enter_replay()
        assert engine.state is EngineState.REPLAYING
        with pytest.raises(DebuggerError):
            engine.on_command(Command(CommandKind.USER, "signal:light", 0))
        engine.leave_replay()
        assert engine.state is EngineState.WAITING


class TestTimingDiagram:
    def test_lanes_built_from_trace(self):
        engine, _ = TestTraceAndReplay().fill_trace()
        diagram = TimingDiagram(engine.trace)
        assert "state:lights.lamp" in diagram.lanes
        assert "signal:light" in diagram.lanes

    def test_state_lane_interval_labels(self):
        engine, _ = TestTraceAndReplay().fill_trace()
        diagram = TimingDiagram(engine.trace)
        labels = [label for _, _, label in
                  diagram.lanes["state:lights.lamp"].intervals]
        assert labels == ["GREEN", "YELLOW", "RED"]

    def test_ascii_render_contains_lanes(self):
        engine, _ = TestTraceAndReplay().fill_trace()
        art = TimingDiagram(engine.trace).render_ascii(40)
        assert "GREEN" in art and "signal:light" in art

    def test_svg_render_produces_document(self):
        engine, _ = TestTraceAndReplay().fill_trace()
        svg = TimingDiagram(engine.trace).render_svg()
        assert svg.startswith("<svg") and "YELLOW" in svg

    def test_empty_trace_rejected(self):
        with pytest.raises(DebuggerError):
            TimingDiagram(ExecutionTrace())
