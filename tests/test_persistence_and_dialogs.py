"""Tests for trace persistence, the command-setup dialog, line noise."""

import json

import pytest

from repro.comdes.examples import traffic_light_system
from repro.comdes.reflect import system_to_model
from repro.comm.protocol import CommandKind
from repro.comm.rs232 import Rs232Link
from repro.engine.session import DebugSession
from repro.engine.trace import ExecutionTrace
from repro.errors import CommError, DebuggerError
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.command_setup import CommandSetupDialog
from repro.gdm.mapping import default_comdes_table
from repro.util.timeunits import ms


def build_gdm():
    model = system_to_model(traffic_light_system())
    return AbstractionEngine(default_comdes_table(model.metamodel)).build(model)


class TestTracePersistence:
    def test_trace_file_roundtrip(self, tmp_path):
        session = DebugSession(traffic_light_system(), channel_kind="active")
        session.setup().run(ms(100) * 15)
        path = tmp_path / "run.trace.json"
        path.write_text(json.dumps(session.trace.to_dicts()))
        restored = ExecutionTrace.from_dicts(json.loads(path.read_text()))
        assert restored.to_dicts() == session.trace.to_dicts()


class TestCommandSetupDialog:
    def test_lists_sources_and_reactions(self):
        dialog = CommandSetupDialog(build_gdm())
        sources = dict(dialog.command_sources())
        assert sources["state:lights.lamp.RED"] == "STATE_ENTER"
        assert sources["signal:light"] == "SIG_UPDATE"
        assert "HIGHLIGHT" in dialog.reaction_options()

    def test_add_and_delete_bindings(self):
        gdm = build_gdm()
        dialog = CommandSetupDialog(gdm)
        before = len(dialog.bindings())
        dialog.add(CommandKind.SIG_UPDATE, "signal:btn", "PULSE")
        assert len(dialog.bindings()) == before + 1
        dialog.delete(before)
        assert len(dialog.bindings()) == before

    def test_unknown_reaction_rejected(self):
        dialog = CommandSetupDialog(build_gdm())
        with pytest.raises(DebuggerError):
            dialog.add(CommandKind.USER, "signal:btn", "EXPLODE")

    def test_delete_bounds_checked(self):
        dialog = CommandSetupDialog(build_gdm())
        with pytest.raises(DebuggerError):
            dialog.delete(999)

    def test_finish_requires_bindings_and_is_single_shot(self):
        gdm = build_gdm()
        dialog = CommandSetupDialog(gdm)
        dialog.finish()
        with pytest.raises(DebuggerError):
            dialog.add(CommandKind.USER, "signal:btn", "PULSE")

    def test_render_shows_all_three_panes(self):
        dialog = CommandSetupDialog(build_gdm())
        art = dialog.render_dialog()
        assert "Command sources" in art
        assert "Existing bindings" in art
        assert "Reaction types" in art


class TestLineNoise:
    def test_corrupt_flips_bits_at_configured_rate(self):
        link = Rs232Link(byte_error_rate=0.5, seed=42)
        data = bytes(100)
        out = link.corrupt(data)
        assert out != data
        assert 20 <= link.bytes_corrupted <= 80  # ~50 expected

    def test_zero_rate_is_identity(self):
        link = Rs232Link()
        data = b"\x01\x02\x03"
        assert link.corrupt(data) == data

    def test_invalid_rate_rejected(self):
        with pytest.raises(CommError):
            Rs232Link(byte_error_rate=1.5)

    def test_noisy_session_drops_frames_but_survives(self):
        session = DebugSession(traffic_light_system(), channel_kind="active")
        # Replace the node's link with a noisy one before any traffic.
        session.setup()
        channel = session.channel.children[0]
        channel.link = Rs232Link(byte_error_rate=0.05, seed=7)
        session.run(ms(100) * 40)
        assert channel.decoder.checksum_errors > 0
        # Lossy but alive: fewer commands than frames, engine still WAITING.
        assert channel.commands_delivered < channel.frames_sent
        assert session.engine.state.name == "WAITING"
        assert len(session.trace) > 0

    def test_clean_session_loses_nothing(self):
        session = DebugSession(traffic_light_system(), channel_kind="active")
        session.setup().run(ms(100) * 40)
        channel = session.channel.children[0]
        assert channel.decoder.checksum_errors == 0
        assert channel.commands_delivered == channel.frames_sent
