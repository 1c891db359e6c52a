"""Property tests (hypothesis): codec round trips, spill/reload/replay
equivalence against pure in-memory replay, checkpointed-seek equality,
and merge canonical-ordering invariance."""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm.protocol import Command, CommandKind
from repro.engine.replay import ReplayPlayer
from repro.engine.trace import ExecutionTrace
from repro.gdm.model import GdmModel
from repro.gdm.patterns import PatternKind, PatternSpec
from repro.gdm.reactions import ReactionKind, ReactionRecord
from repro.tracedb import CODECS, StoredTrace, TraceStore, build_checkpoints
from repro.tracedb.collect import merge_job_stores
from repro.tracedb.format import encode_record
from repro.tracedb.segment import SegmentWriter, read_segment

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

#: JSON-safe scalar values a record field can carry
scalars = st.one_of(st.integers(-2**40, 2**40), st.booleans(),
                    st.text(max_size=12), st.none())

records = st.fixed_dictionaries(
    {"t_target": st.integers(0, 10**9)},
    optional={"kind": st.sampled_from([k.name for k in CommandKind]),
              "path": st.text(max_size=20),
              "value": scalars,
              "reactions": st.lists(
                  st.fixed_dictionaries({"element": st.text(max_size=6)}),
                  max_size=3)},
)


def build_gdm(n_states=3):
    gdm = GdmModel("prop")
    box = PatternSpec(PatternKind.RECTANGLE)
    for i in range(n_states):
        gdm.add_element(f"S{i}", box, f"state:m.S{i}", group="m")
    gdm.add_element("x", box, "signal:x")
    return gdm


def events_from_choices(choices):
    """Deterministic (command, reactions) stream from a choice list."""
    gdm = build_gdm()
    ids = [gdm.element_by_path(f"state:m.S{i}").id for i in range(3)]
    x_id = gdm.element_by_path("signal:x").id
    out = []
    for i, choice in enumerate(choices):
        t = i * 5
        if choice < 3:
            path = f"state:m.S{choice}"
            command = Command(CommandKind.STATE_ENTER, path, 1,
                              t_target=t, t_host=t + 1)
            reactions = [ReactionRecord(ReactionKind.HIGHLIGHT, ids[choice],
                                        path, "highlight", t + 1)]
        elif choice == 3:
            command = Command(CommandKind.SIG_UPDATE, "signal:x", i,
                              t_target=t, t_host=t + 1)
            reactions = [ReactionRecord(ReactionKind.ANNOTATE, x_id,
                                        "signal:x", f"value={i}", t + 1)]
        else:
            command = Command(CommandKind.SIG_UPDATE, "signal:x", i,
                              t_target=t, t_host=t + 1)
            reactions = [ReactionRecord(ReactionKind.PULSE, x_id,
                                        "signal:x", "pulse", t + 1)]
        out.append((command, reactions))
    return out


class TestCodecRoundTrip:
    @SETTINGS
    @given(batch=st.lists(records, max_size=20),
           codec_name=st.sampled_from(sorted(CODECS)))
    def test_segment_roundtrip_preserves_records(self, tmp_path, batch,
                                                 codec_name):
        for i, record in enumerate(batch):
            record["seq"] = i
        path = tmp_path / f"seg-{codec_name}-{len(batch)}.trc"
        writer = SegmentWriter(str(tmp_path), path.name,
                               CODECS[codec_name], 0)
        for record in batch:
            writer.append(record)
        writer.close()
        assert list(read_segment(str(path))) == batch

    @SETTINGS
    @given(record=records)
    def test_encoding_is_deterministic(self, record):
        reordered = dict(reversed(list(record.items())))
        assert encode_record(record) == encode_record(reordered)


class TestSpillReplayEquivalence:
    @SETTINGS
    @given(choices=st.lists(st.integers(0, 4), min_size=1, max_size=120),
           segment_events=st.integers(1, 32),
           codec_name=st.sampled_from(sorted(CODECS)))
    def test_spill_reload_replay_is_bit_identical(self, tmp_path, choices,
                                                  segment_events, codec_name):
        # hypothesis reuses tmp_path across examples: every store (an
        # attach-on-exist resource) needs a fresh root
        root = os.path.join(tempfile.mkdtemp(dir=tmp_path), "store")
        store = TraceStore(root, segment_events=segment_events,
                           codec=codec_name)
        spilled = ExecutionTrace(spill=store)
        ref = ExecutionTrace()
        for command, reactions in events_from_choices(choices):
            spilled.record(command, reactions, "REACTING")
            ref.record(command, reactions, "REACTING")
        store.close()

        assert len(spilled) == 0
        view = StoredTrace(TraceStore.open(root))
        assert [e.to_dict() for e in view] == ref.to_dicts()

        gdm_a, gdm_b = build_gdm(), build_gdm()
        p_ref = ReplayPlayer(ref, gdm_a)
        p_ref.start()
        p_ref.run_to_end()
        p_view = ReplayPlayer(view, gdm_b)
        p_view.start()
        p_view.run_to_end()
        assert gdm_a.dynamic_state() == gdm_b.dynamic_state()
        assert ([(f.t_us, f.styles) for f in p_ref.frames.frames()]
                == [(f.t_us, f.styles) for f in p_view.frames.frames()])

    @SETTINGS
    @given(choices=st.lists(st.integers(0, 4), min_size=2, max_size=80),
           every=st.integers(1, 20),
           data=st.data())
    def test_checkpointed_seek_equals_linear(self, tmp_path, choices, every,
                                             data):
        root = os.path.join(tempfile.mkdtemp(dir=tmp_path), "store")
        store = TraceStore(root, segment_events=16)
        spilled, ref = ExecutionTrace(spill=store), ExecutionTrace()
        for command, reactions in events_from_choices(choices):
            spilled.record(command, reactions, "REACTING")
            ref.record(command, reactions, "REACTING")
        build_checkpoints(store, build_gdm(), every=every)
        position = data.draw(st.integers(0, len(choices)))

        gdm_ck = build_gdm()
        applied = ReplayPlayer(StoredTrace(store), gdm_ck).seek(position)
        gdm_lin = build_gdm()
        ReplayPlayer(ref, gdm_lin).seek(position, use_checkpoints=False)
        assert gdm_ck.dynamic_state() == gdm_lin.dynamic_state()
        assert applied <= every  # tail never exceeds one interval


class TestMergeOrdering:
    class FakeResult:
        def __init__(self, index, job_id, trace_path):
            self.index = index
            self.job_id = job_id
            self.trace_path = trace_path

    @SETTINGS
    @given(sizes=st.lists(st.integers(0, 12), min_size=1, max_size=6),
           shuffled=st.permutations(range(6)))
    def test_merge_is_execution_order_invariant(self, tmp_path, sizes,
                                                shuffled):
        base = tempfile.mkdtemp(dir=tmp_path)
        results = []
        for index, size in enumerate(sizes):
            root = os.path.join(base, f"job-{index:05d}")
            store = TraceStore(root)
            for i in range(size):
                store.append({"t_target": i, "value": index * 1000 + i})
            store.close()
            results.append(self.FakeResult(index, f"job{index}", root))

        canonical = merge_job_stores(results, os.path.join(base, "a"))
        reordered = [results[i] for i in shuffled if i < len(results)]
        missing = [r for r in results if r not in reordered]
        permuted = merge_job_stores(reordered + missing,
                                    os.path.join(base, "b"))
        a = list(canonical.events())
        b = list(permuted.events())
        assert a == b
        assert [r["job_index"] for r in a] == sorted(
            r["job_index"] for r in a)
        assert len(a) == sum(sizes)
        # per-job seq preserved for provenance
        for record in a:
            assert record["value"] == (record["job_index"] * 1000
                                       + record["job_seq"])
