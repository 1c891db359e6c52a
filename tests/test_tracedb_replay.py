"""Spill-store replay fidelity: spilled history replays bit-identically
to in-memory, checkpointed seek equals linear replay at every boundary,
and the 50k-event acceptance scenario runs at flat memory."""

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comm.protocol import Command, CommandKind
from repro.engine.checks import MonitorSuite
from repro.engine.replay import ReplayPlayer
from repro.engine.timing_diagram import TimingDiagram
from repro.engine.trace import ExecutionTrace, TraceEvent
from repro.gdm.model import GdmModel
from repro.gdm.patterns import PatternKind, PatternSpec
from repro.gdm.reactions import ReactionKind, ReactionRecord
from repro.experiments.workloads import chain_system
from repro.faults.campaign import model_debugger_rig
from repro.tracedb.checkpoint import build_checkpoints
from repro.tracedb.store import StoredTrace, TraceStore
from repro.util.timeunits import ms


def frames_key(frames):
    return [(f.t_us, f.trigger, f.styles) for f in frames.frames()]


def synth_gdm() -> GdmModel:
    """A small model with an exclusive-highlight group and a value box."""
    gdm = GdmModel("synthetic")
    box = PatternSpec(PatternKind.RECTANGLE)
    for i in range(4):
        gdm.add_element(f"S{i}", box, f"state:a.m.S{i}", group="a.m")
    gdm.add_element("x", box, "signal:x")
    return gdm


def synth_events(n: int):
    """(command, reactions) pairs cycling states and annotating a value."""
    gdm = synth_gdm()
    state_ids = [gdm.element_by_path(f"state:a.m.S{i}").id for i in range(4)]
    x_id = gdm.element_by_path("signal:x").id
    out = []
    for i in range(n):
        t = i * 7
        if i % 3 == 0:
            path = f"state:a.m.S{(i // 3) % 4}"
            command = Command(CommandKind.STATE_ENTER, path, 1,
                              t_target=t, t_host=t + 2)
            reactions = [ReactionRecord(ReactionKind.HIGHLIGHT,
                                        state_ids[(i // 3) % 4], path,
                                        "highlight", t + 2)]
        else:
            command = Command(CommandKind.SIG_UPDATE, "signal:x", i,
                              t_target=t, t_host=t + 2)
            reactions = [ReactionRecord(ReactionKind.ANNOTATE, x_id,
                                        "signal:x", f"value={i}", t + 2)]
        out.append((command, reactions))
    return out


def record_pair(tmp_path, n, segment_events=1024, checkpoint_every=None):
    """The same event stream into (spilling trace, in-memory reference)."""
    store = TraceStore(str(tmp_path / "spill"), segment_events=segment_events,
                       checkpoint_every=checkpoint_every)
    spilled = ExecutionTrace(spill=store)
    ref = ExecutionTrace()
    for command, reactions in synth_events(n):
        spilled.record(command, reactions, "REACTING")
        ref.record(command, reactions, "REACTING")
    return spilled, ref, store


def run_rig(cells, duration_us, trace_store=None):
    """The campaign's model-debugger rig over a chain system; its engine."""
    system = chain_system(cells, period_us=ms(2))
    firmware = generate_firmware(system, InstrumentationPlan())
    kernel, engine, _ = model_debugger_rig(
        system, firmware, lambda: MonitorSuite([]), trace_store=trace_store)
    kernel.run(duration_us)
    return engine


class TestSpilledReplayFidelity:
    def test_rig_spill_equals_in_memory(self, tmp_path):
        """A real (active-channel) run records the same bytes either way."""
        reference = run_rig(8, ms(2) * 60)
        store = TraceStore(str(tmp_path / "s"), segment_events=64)
        spilling = run_rig(8, ms(2) * 60, trace_store=store)

        assert len(spilling.trace) == 0  # nothing kept in memory
        full = StoredTrace(store)
        assert len(full) == len(reference.trace) > 64
        assert [e.to_dict() for e in full] == reference.trace.to_dicts()

        p_ref = ReplayPlayer(reference.trace, reference.gdm)
        p_ref.start()
        p_ref.run_to_end()
        p_store = ReplayPlayer(full, spilling.gdm)
        p_store.start()
        p_store.run_to_end()
        assert frames_key(p_store.frames) == frames_key(p_ref.frames)
        assert p_store.highlighted_paths() == p_ref.highlighted_paths()

        assert (TimingDiagram.from_store(store).render_ascii()
                == TimingDiagram(reference.trace).render_ascii())
        assert (TimingDiagram.from_store(store).render_svg()
                == TimingDiagram(reference.trace).render_svg())

    def test_acceptance_50k_events_flat_memory_bit_identical(self, tmp_path):
        """50k events spilled through to a store: nothing kept in memory,
        full replay byte-identical to the in-memory trace."""
        n = 50_000
        spilled, ref, store = record_pair(tmp_path, n, segment_events=4096)
        assert len(spilled) == 0  # in-memory footprint independent of n
        assert store.event_count == n

        gdm_a, gdm_b = synth_gdm(), synth_gdm()
        p_ref = ReplayPlayer(ref, gdm_a)
        p_ref.start()
        assert p_ref.run_to_end() == n
        p_store = ReplayPlayer(StoredTrace(store), gdm_b)
        p_store.start()
        assert p_store.run_to_end() == n
        assert gdm_a.dynamic_state() == gdm_b.dynamic_state()
        # spot-check frame identity (full frame list comparison is O(n)
        # dict compares; ends + stride keep the test fast and honest)
        fa, fb = p_ref.frames, p_store.frames
        assert len(fa) == len(fb) == n
        for i in list(range(0, n, 997)) + [n - 1]:
            assert (fa[i].t_us, fa[i].styles) == (fb[i].t_us, fb[i].styles)


class TestCheckpointedSeek:
    def test_seek_equals_linear_at_every_boundary(self, tmp_path):
        n = 300
        _, ref, store = record_pair(tmp_path, n, checkpoint_every=None,
                                       segment_events=64)
        gdm = synth_gdm()
        built = build_checkpoints(store, gdm, every=48)
        assert built == n // 48
        view = StoredTrace(store)
        for position in range(n + 1):
            player = ReplayPlayer(view, gdm)
            applied = player.seek(position)
            checkpointed = gdm.dynamic_state()
            linear = ReplayPlayer(ref, synth_gdm())
            linear_gdm = linear.gdm
            linear.seek(position, use_checkpoints=False)
            assert checkpointed == linear_gdm.dynamic_state(), position
            assert applied <= 48  # never replays more than one interval

    def test_live_checkpoints_equal_offline_ones(self, tmp_path):
        """The engine's live snapshots match a post-hoc replay build."""
        live_store = TraceStore(str(tmp_path / "live"), segment_events=64,
                                checkpoint_every=40)
        engine = run_rig(6, ms(2) * 60, trace_store=live_store)

        offline_store = TraceStore(str(tmp_path / "offline"),
                                   segment_events=64)
        for record in live_store.events():
            offline_store.append(TraceEvent.from_dict(record))
        build_checkpoints(offline_store, engine.gdm, every=40)

        live = live_store.checkpoints()
        offline = offline_store.checkpoints()
        assert [c.seq for c in live] == [c.seq for c in offline]
        assert live, "run too short to checkpoint"
        for info_a, info_b in zip(live, offline):
            a = live_store.nearest_checkpoint(info_a.seq)
            b = offline_store.nearest_checkpoint(info_b.seq)
            assert a.payload == b.payload
            assert a.t_host == b.t_host

    def test_seek_bounds_checked(self, tmp_path):
        _, ref, store = record_pair(tmp_path, 10)
        player = ReplayPlayer(StoredTrace(store), synth_gdm())
        from repro.errors import DebuggerError
        with pytest.raises(DebuggerError):
            player.seek(11)
        with pytest.raises(DebuggerError):
            player.seek(-1)
