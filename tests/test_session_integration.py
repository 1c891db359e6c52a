"""Integration tests: the full Fig 6 workflow end-to-end, both channels."""

from unittest import mock

import pytest

import repro.comdes.validate as validate
from repro.comdes.examples import cruise_control_system, traffic_light_system
from repro.comdes.signals import Signal
from repro.comm.protocol import CommandKind
from repro.engine.engine import EngineState
from repro.engine.breakpoints import StateEntryBreakpoint
from repro.engine.replay import ReplayPlayer
from repro.engine.session import DebugSession, default_watches, iter_blocks_with_scope
from repro.errors import DebuggerError, ValidationError
from repro.experiments.figures import (
    fig1_mdd_role, fig2_structural_view, fig3_gdm_metamodel,
    fig4_abstraction_guide, fig5_animated_model, fig6_execution_flow,
)
from repro.util.timeunits import ms


class TestWorkflowSteps:
    def test_five_steps_logged_in_order(self):
        session = DebugSession(traffic_light_system())
        session.setup()
        steps = [line.split("]")[0].strip("[") for line in session.workflow_log]
        assert steps == ["1", "2", "3", "4", "5"]

    def test_steps_enforce_prerequisites(self):
        session = DebugSession(traffic_light_system())
        with pytest.raises(DebuggerError):
            session.step3_abstraction()
        with pytest.raises(DebuggerError):
            session.step5_connect()
        with pytest.raises(DebuggerError):
            session.run(1000)

    def test_invalid_channel_kind_rejected(self):
        with pytest.raises(DebuggerError):
            DebugSession(traffic_light_system(), channel_kind="telepathy")

    def test_invalid_system_rejected_at_setup(self):
        system = traffic_light_system()
        system.signals["orphan"] = Signal("orphan")
        session = DebugSession(system)
        with pytest.raises(ValidationError, match="orphan"):
            session.setup()
        assert session.model is None and session.firmware is None

    def test_setup_validates_once(self):
        with mock.patch.object(validate, "system_problems",
                               wraps=validate.system_problems) as problems:
            DebugSession(traffic_light_system()).setup()
        assert problems.call_count == 1


class TestActiveSession:
    @pytest.fixture(scope="class")
    def session(self):
        session = DebugSession(traffic_light_system(), channel_kind="active")
        session.setup().run(ms(100) * 25)
        return session

    def test_commands_traced(self, session):
        assert len(session.trace) > 10

    def test_active_state_highlighted(self, session):
        highlighted = [e.source_path for e in session.gdm.elements.values()
                       if e.highlighted]
        assert len(highlighted) == 1
        assert highlighted[0].startswith("state:lights.lamp.")

    def test_snapshot_shows_highlight_marker(self, session):
        assert "*" in session.snapshot_ascii()

    def test_svg_snapshot_renders(self, session):
        svg = session.snapshot_svg()
        assert svg.startswith("<svg") and "RED" in svg

    def test_timing_diagram_lanes(self, session):
        diagram = session.timing_diagram()
        assert "state:lights.lamp" in diagram.lanes

    def test_trace_replay_equivalence(self, session):
        live = sorted(e.source_path for e in session.gdm.elements.values()
                      if e.highlighted)
        player = ReplayPlayer(session.trace, session.gdm)
        player.start()
        player.run_to_end()
        assert player.highlighted_paths() == live


class TestPassiveSession:
    @pytest.fixture(scope="class")
    def session(self):
        session = DebugSession(traffic_light_system(), channel_kind="passive",
                               poll_period_us=1000)
        session.setup().run(ms(100) * 25)
        return session

    def test_passive_code_is_clean(self, session):
        assert not any(i.op == "EMIT" for i in session.firmware.code)

    def test_states_still_observed(self, session):
        states = session.trace.events(kind=CommandKind.STATE_ENTER)
        assert states

    def test_probe_was_used(self, session):
        assert session.probes["node0"].operations > 0

    def test_active_and_passive_observe_same_state_sequence(self):
        active = DebugSession(traffic_light_system(), channel_kind="active")
        active.setup().run(ms(100) * 20)
        passive = DebugSession(traffic_light_system(), channel_kind="passive",
                               poll_period_us=500)
        passive.setup().run(ms(100) * 20)
        seq_active = [e.command.path for e in
                      active.trace.events(kind=CommandKind.STATE_ENTER)]
        seq_passive = [e.command.path for e in
                       passive.trace.events(kind=CommandKind.STATE_ENTER)]
        # Passive polling may lag but must see the same order of states.
        assert seq_passive == seq_active[:len(seq_passive)]
        assert len(seq_passive) >= len(seq_active) - 2


class TestModelBreakpoints:
    def test_breakpoint_pauses_target_and_stepping_resumes(self):
        session = DebugSession(traffic_light_system(), channel_kind="active")
        session.setup()
        session.engine.breakpoints.add(
            StateEntryBreakpoint("state:lights.lamp.YELLOW"))
        session.run(ms(100) * 40)
        assert session.engine.state is EngineState.PAUSED
        # The target is stalled: jobs are being skipped.
        assert session.kernel.board_of("node0").stalled
        skipped_before = session.kernel.jobs_skipped
        session.run_for(ms(100) * 5)
        assert session.kernel.jobs_skipped > skipped_before
        # Highlight frozen at YELLOW while paused.
        highlighted = [e.source_path for e in session.gdm.elements.values()
                       if e.highlighted]
        assert highlighted == ["state:lights.lamp.YELLOW"]
        # Step one model event: engine pauses again after exactly one command.
        session.stepper.step(1)
        session.run_for(ms(100) * 20)
        assert session.engine.state is EngineState.PAUSED
        assert session.engine.commands_processed > 0

    def test_resume_after_breakpoint_continues_animation(self):
        session = DebugSession(traffic_light_system(), channel_kind="active")
        session.setup()
        session.engine.breakpoints.add(
            StateEntryBreakpoint("state:lights.lamp.GREEN"))
        session.run(ms(100) * 10)
        assert session.engine.state is EngineState.PAUSED
        session.engine.breakpoints.all()[0].enabled = False
        session.stepper.resume()
        before = len(session.trace)
        session.run_for(ms(100) * 10)
        assert len(session.trace) > before


class TestMultiNodeSession:
    def test_cruise_control_session_over_two_nodes(self):
        session = DebugSession(cruise_control_system(), channel_kind="active")
        session.setup().run(ms(20) * 60)
        assert len(session.channel.children) == 2
        modes = session.trace.events(path_prefix="state:controller.mode_logic")
        assert any(e.command.path.endswith("CRUISE") for e in modes)


class TestSessionHelpers:
    def test_iter_blocks_recurses_into_modal_modes(self):
        system = cruise_control_system()
        scopes = [scope for scope, _ in iter_blocks_with_scope(
            system.actor("controller").network)]
        assert "regulator" in scopes
        assert "regulator.CRUISE.pi" in scopes

    def test_default_watches_cover_states_and_outputs(self):
        system = traffic_light_system()
        watches = default_watches(system, "node0")
        symbols = {w.symbol for w in watches}
        assert "lights.lamp.$_state" in symbols
        assert "lights.out.light" in symbols


class TestFigureArtifacts:
    def test_fig1_and_fig2_render(self):
        assert "MODEL DEBUGGER" in fig1_mdd_role()
        assert "GDM (server)" in fig2_structural_view()

    def test_fig3_metamodel_diagram(self):
        ascii_art, svg = fig3_gdm_metamodel()
        assert "DebugModel" in ascii_art
        assert svg.startswith("<svg") and "GraphicalElement" in svg

    def test_fig4_guide_dialog(self):
        dialog = fig4_abstraction_guide()
        assert "State -> Circle" in dialog
        assert "Transition -> Arrow" in dialog

    def test_fig5_animated_snapshot(self):
        ascii_art, svg, session = fig5_animated_model()
        assert "*" in ascii_art          # a highlighted state
        assert svg.startswith("<svg")
        assert len(session.trace) > 0

    def test_fig6_workflow_text(self):
        text = fig6_execution_flow()
        for step in ("[1]", "[2]", "[3]", "[4]", "[5]"):
            assert step in text
