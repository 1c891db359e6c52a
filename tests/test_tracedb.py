"""Unit tests for repro.tracedb: formats, segments, index, store,
checkpoints, and spilling an ExecutionTrace through to a store."""

import json
import os

import pytest

from repro.comm.protocol import Command, CommandKind
from repro.engine.replay import ReplayPlayer
from repro.engine.trace import ExecutionTrace, TraceEvent
from repro.errors import DebuggerError, TraceStoreError
from repro.gdm.model import GdmModel
from repro.tracedb.format import encode_record, read_header, write_header
from repro.tracedb.index import CheckpointInfo, StoreIndex
from repro.tracedb.segment import SegmentInfo, read_segment
from repro.tracedb.store import DEFAULT_SEGMENT_EVENTS, StoredTrace, TraceStore


def cmd(i: int) -> Command:
    return Command(CommandKind.SIG_UPDATE, f"signal:s{i % 3}", i,
                   t_target=i * 10, t_host=i * 10 + 1)


def event(i: int) -> TraceEvent:
    return TraceEvent(i, cmd(i), [], "REACTING")


def fill(trace: ExecutionTrace, n: int) -> None:
    for i in range(n):
        trace.record(cmd(i), [], "REACTING")


def make_store(tmp_path, n: int = 0, **kw) -> TraceStore:
    store = TraceStore(str(tmp_path / "store"), **kw)
    for i in range(n):
        store.append(event(i))
    return store


def listing(root: str) -> dict:
    """Every path under *root* with its mtime."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, root)] = os.stat(path).st_mtime_ns
    return found


class TestFormat:
    def test_encoding_is_canonical(self):
        a = encode_record({"b": 1, "a": [2, {"z": 3, "y": 4}]})
        b = encode_record({"a": [2, {"y": 4, "z": 3}], "b": 1})
        assert a == b
        assert b" " not in a

    def test_header_roundtrip(self, tmp_path):
        path = tmp_path / "seg.trc"
        with open(path, "wb") as fh:
            write_header(fh)
            fh.write(b'{"seq":0}\n')
        with open(path, "rb") as fh:
            read_header(fh)
            assert fh.read() == b'{"seq":0}\n'

    def test_header_is_readable_json_line(self, tmp_path):
        path = tmp_path / "seg.trc"
        with open(path, "wb") as fh:
            write_header(fh)
        first_line = open(path, "rb").readline()
        header = json.loads(first_line)
        assert header["codec"] == "jsonl" and header["version"] == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "seg.trc"
        path.write_bytes(b'{"magic": "something-else"}\n')
        with open(path, "rb") as fh:
            with pytest.raises(TraceStoreError):
                read_header(fh)

    def test_unknown_codec_rejected(self, tmp_path):
        path = tmp_path / "seg.trc"
        for codec in ("binary", "carrier-pigeon", None):
            header = {"magic": "repro-tracedb-segment", "version": 1}
            if codec is not None:
                header["codec"] = codec
            path.write_bytes(json.dumps(header).encode() + b"\n")
            with pytest.raises(TraceStoreError, match="codec"):
                list(read_segment(str(path)))


class TestStoreAppendAndQuery:
    def test_roundtrip(self, tmp_path):
        store = make_store(tmp_path, 50, segment_events=16)
        store.close()
        back = TraceStore.open(str(tmp_path / "store"))
        records = list(back.events())
        assert [r["seq"] for r in records] == list(range(50))
        assert records[17]["value"] == 17

    def test_rotation_seals_segments(self, tmp_path):
        store = make_store(tmp_path, 40, segment_events=16)
        names = [s.name for s in store._index.segments]
        assert names == ["seg-000000000000.trc", "seg-000000000016.trc"]
        store.close()
        assert len(TraceStore.open(store.root)._index.segments) == 3

    def test_live_reads_see_unsealed_tail(self, tmp_path):
        store = make_store(tmp_path, 10, segment_events=64)
        assert [r["seq"] for r in store.events()] == list(range(10))
        assert store.event_count == 10

    def test_append_refuses_a_dict(self, tmp_path):
        store = make_store(tmp_path, 2)
        with pytest.raises(TraceStoreError, match="TraceEvents, not dict"):
            store.append(event(2).to_dict())
        assert store.event_count == 2

    def test_out_of_order_append_rejected(self, tmp_path):
        store = make_store(tmp_path, 3)
        with pytest.raises(TraceStoreError):
            store.append(event(7))

    def test_append_after_close_rejected(self, tmp_path):
        store = make_store(tmp_path, 3)
        store.close()
        with pytest.raises(TraceStoreError):
            store.append(event(3))

    def test_existing_root_is_refused(self, tmp_path):
        # a store is written once: no second writer over a sealed store,
        # nor over one whose writer is still open
        make_store(tmp_path, 20, segment_events=8).close()
        with pytest.raises(TraceStoreError, match="already exists"):
            TraceStore(str(tmp_path / "store"))
        open_writer = TraceStore(str(tmp_path / "live"))
        with pytest.raises(TraceStoreError, match="written once"):
            TraceStore(open_writer.root)
        assert [r["seq"] for r in TraceStore.open(
            str(tmp_path / "store")).events()] == list(range(20))

    def test_seq_range_query_is_inclusive_and_pruned(self, tmp_path):
        store = make_store(tmp_path, 100, segment_events=10)
        got = [r["seq"] for r in store.events(seq_range=(25, 34))]
        assert got == list(range(25, 35))

    def test_open_missing_store_is_loud(self, tmp_path):
        with pytest.raises(TraceStoreError):
            TraceStore.open(str(tmp_path / "nothing"))

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(TraceStoreError):
            TraceStore(str(tmp_path / "a"), segment_events=0)
        with pytest.raises(TraceStoreError):
            TraceStore(str(tmp_path / "b"), checkpoint_every=0)


class TestIndex:
    def seg(self, first, count):
        return SegmentInfo(f"seg-{first:012d}.trc", first, first + count - 1,
                           count, 100)

    def test_index_naming_another_codec_rejected(self, tmp_path):
        make_store(tmp_path, 3).close()
        path = tmp_path / "store" / "index.json"
        data = json.loads(path.read_text())
        assert data["codec"] == "jsonl"
        data["codec"] = "binary"
        path.write_text(json.dumps(data))
        with pytest.raises(TraceStoreError, match="codec"):
            TraceStore.open(str(tmp_path / "store"))

    def test_gap_rejected(self):
        index = StoreIndex(16)
        index.add_segment(self.seg(0, 16))
        with pytest.raises(TraceStoreError):
            index.add_segment(self.seg(20, 16))

    def test_duplicate_checkpoint_rejected(self):
        index = StoreIndex(16)
        index.add_segment(self.seg(0, 16))
        index.add_checkpoint(CheckpointInfo(7, 70, "ckpt/a.json"))
        with pytest.raises(TraceStoreError):
            index.add_checkpoint(CheckpointInfo(7, 70, "ckpt/b.json"))

    def test_out_of_order_checkpoint_insertion_keeps_rows_sorted(self):
        # an offline build_checkpoints pass may fill gaps below
        # live-recorded checkpoints
        index = StoreIndex(16)
        index.add_checkpoint(CheckpointInfo(19, 190, "c19"))
        index.add_checkpoint(CheckpointInfo(9, 90, "c9"))
        index.add_checkpoint(CheckpointInfo(14, 140, "c14"))
        assert [c.seq for c in index.checkpoints] == [9, 14, 19]
        assert index.nearest_checkpoint(15).seq == 14

    def test_nearest_checkpoint_bisects(self):
        index = StoreIndex(16)
        for seq in (9, 19, 29):
            index.add_checkpoint(CheckpointInfo(seq, seq, f"c{seq}"))
        assert index.nearest_checkpoint(8) is None
        assert index.nearest_checkpoint(9).seq == 9
        assert index.nearest_checkpoint(28).seq == 19
        assert index.nearest_checkpoint(500).seq == 29

    def test_segment_intersection_predicates(self):
        info = self.seg(16, 16)  # seqs 16..31
        assert info.intersects_seq(31, 40) and info.intersects_seq(0, 16)
        assert not info.intersects_seq(0, 15)
        assert not info.intersects_seq(32, 99)
        empty = SegmentInfo("e", 5, 4, 0, 30)
        assert not empty.intersects_seq(0, 99)


class TestStoredTrace:
    def test_len_index_iterate_match(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=8)
        ref = ExecutionTrace()
        fill(ref, 30)
        for recorded in ref:
            store.append(recorded)
        view = StoredTrace(store)
        assert len(view) == 30
        assert [e.seq for e in view] == list(range(30))
        assert view[13].to_dict() == ref[13].to_dict()
        assert view[-1].seq == 29
        with pytest.raises(IndexError):
            view[30]

    def test_segment_cache_stays_bounded(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=4)
        ref = ExecutionTrace()
        fill(ref, 40)
        for recorded in ref:
            store.append(recorded)
        view = StoredTrace(store)
        for i in range(40):
            assert view[i].seq == i
        assert len(view._cache) <= StoredTrace._CACHE_SEGMENTS


class TestExecutionTraceSpill:
    def test_spill_keeps_dropped_zero_and_full_history(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=32)
        trace = ExecutionTrace(spill=store)
        ref = ExecutionTrace()
        fill(trace, 200)
        fill(ref, 200)
        assert len(trace) == 0  # every event went through to the store
        full = StoredTrace(store)
        assert len(full) == 200
        assert [e.to_dict() for e in full] == ref.to_dicts()

    def test_unbounded_trace_can_spill_too(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"))
        trace = ExecutionTrace(spill=store)
        events = [trace.record(cmd(i), [], "REACTING") for i in range(10)]
        assert [e.seq for e in events] == list(range(10))
        assert len(trace) == 0
        assert len(StoredTrace(store)) == 10


class TestTruncatedReplayGuard:
    def test_spilling_ring_full_history_replays_without_guard(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"))
        trace = ExecutionTrace(spill=store)
        fill(trace, 12)
        player = ReplayPlayer(StoredTrace(store), GdmModel("m"))
        player.start()
        assert player.run_to_end() == 12

    def test_untruncated_ring_replays_cleanly(self):
        trace = ExecutionTrace()
        fill(trace, 12)
        player = ReplayPlayer(trace, GdmModel("m"))
        player.start()
        assert player.run_to_end() == 12


class TestReviewRegressions:
    def test_offline_build_fills_gaps_below_live_checkpoints(self, tmp_path):
        # a store live-checkpointed at a coarse interval can later be
        # densified by build_checkpoints at a finer one
        store = TraceStore(str(tmp_path / "s"), segment_events=32)
        trace = ExecutionTrace(spill=store)
        fill(trace, 100)
        store.add_checkpoint(99, 991, {"elements": {}, "links": {}})
        from repro.tracedb.checkpoint import build_checkpoints
        built = build_checkpoints(store, GdmModel("m"), every=25)
        assert built == 3  # 24, 49, 74 inserted below the existing 99
        assert [c.seq for c in store.checkpoints()] == [24, 49, 74, 99]

    def test_job_store_reopen_replaces_stale_attempt(self, tmp_path):
        # the pool's crash retry re-runs a job whose first attempt may
        # have sealed segments: the retry must start clean, not collide
        from repro.tracedb.collect import open_job_store
        store = open_job_store(str(tmp_path), 3)
        for i in range(2 * DEFAULT_SEGMENT_EVENTS + 1):
            store.append(event(i))
        store.close()
        assert len(store._index.segments) == 3
        retry = open_job_store(str(tmp_path), 3)
        assert retry.event_count == 0
        assert retry.append(event(0)) == 0
        retry.close()

    def test_reused_campaign_root_is_rejected_with_cause(self, tmp_path):
        from repro.tracedb.collect import merge_job_stores, open_job_store

        class FakeResult:
            index, job_id = 0, "control"

            def __init__(self, path):
                self.trace_path = path

        job = open_job_store(str(tmp_path), 0)
        job.append(event(0))
        job.close()
        results = [FakeResult(job.root)]
        merge_job_stores(results, str(tmp_path / "campaign"))
        with pytest.raises(TraceStoreError) as err:
            merge_job_stores(results, str(tmp_path / "campaign"))
        assert "reused" in str(err.value)

    def test_reads_never_write_the_index(self, tmp_path):
        # opening and querying a store writes nothing: no ckpt/ directory,
        # no index save (read-only mounts stay queryable)
        store = make_store(tmp_path, 30, segment_events=8)
        store.close()
        os.rmdir(os.path.join(store.root, "ckpt"))
        before = listing(store.root)
        reader = TraceStore.open(store.root)
        list(reader.events())
        list(reader.events(seq_range=(10, 20)))
        StoredTrace(reader)[25]
        reader.close()
        assert listing(store.root) == before

    def test_opened_store_refuses_writes(self, tmp_path):
        make_store(tmp_path, 10, segment_events=8).close()
        reader = TraceStore.open(str(tmp_path / "store"))
        before = listing(reader.root)
        with pytest.raises(TraceStoreError, match="closed"):
            reader.append(event(10))
        with pytest.raises(TraceStoreError, match="closed"):
            reader.add_checkpoint(9, 91, {"elements": {}, "links": {}})
        with pytest.raises(TraceStoreError, match="closed"):
            reader.flush()
        with pytest.raises(TraceStoreError, match="closed"):
            ExecutionTrace(spill=reader).record(cmd(10), [], "REACTING")
        assert listing(reader.root) == before
        assert reader.event_count == 10

    def test_reused_trace_dir_fails_before_any_job_runs(self, tmp_path):
        from repro.tracedb.collect import (
            ensure_fresh_trace_dir,
            merge_job_stores,
        )

        class FakeResult:
            index, job_id = 0, "control"

            def __init__(self, path):
                self.trace_path = path

        trace_dir = str(tmp_path)
        ensure_fresh_trace_dir(trace_dir)  # fresh: fine
        job = make_store(tmp_path, 1)
        job.close()
        merge_job_stores([FakeResult(job.root)],
                         str(tmp_path / "campaign"))
        with pytest.raises(TraceStoreError) as err:
            ensure_fresh_trace_dir(trace_dir)
        assert "fresh trace_dir" in str(err.value)

    def test_checkpoint_interval_survives_reattach(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), checkpoint_every=64)
        store.append(event(0))
        store.close()
        reader = TraceStore.open(str(tmp_path / "s"))
        assert reader.checkpoint_every == 64
        assert reader.wants_checkpoint(63)

    def test_open_refuses_an_unsealed_store(self, tmp_path):
        # a writer that flushed and then died leaves its active segment
        # out of the index: opening reports that instead of reading a
        # shorter history
        store = make_store(tmp_path, 500, segment_events=200)
        store.flush()  # 2 sealed segments + 100 flushed-but-unsealed
        del store  # simulate a crash: no close()
        with pytest.raises(TraceStoreError, match="never sealed") as err:
            TraceStore.open(str(tmp_path / "store"))
        assert "seg-000000000400.trc" in str(err.value)

    def test_attach_refuses_unreachable_segments(self, tmp_path):
        # a gap in the chain means data we cannot order: refuse loudly
        store = make_store(tmp_path, 250, segment_events=100)
        store._flush_bytes()
        del store
        os.unlink(str(tmp_path / "store" / "seg-000000000100.trc"))
        with pytest.raises(TraceStoreError) as err:
            TraceStore.open(str(tmp_path / "store"))
        assert "seg-000000000200.trc" in str(err.value)

    def test_unmerged_run_leftovers_refuse_trace_dir_reuse(self, tmp_path):
        from repro.tracedb.collect import (
            ensure_fresh_trace_dir,
            open_job_store,
        )
        job = open_job_store(str(tmp_path), 7)
        job.append(event(0))
        job.close()  # a previous run died before its merge
        with pytest.raises(TraceStoreError) as err:
            ensure_fresh_trace_dir(str(tmp_path))
        assert "job-00007" in str(err.value)

    def test_corrupt_header_orphan_is_refused_not_deleted(self, tmp_path):
        store = make_store(tmp_path, 250, segment_events=100)
        store._flush_bytes()
        del store
        seg = str(tmp_path / "store" / "seg-000000000000.trc")
        data = open(seg, "rb").read()
        with open(seg, "wb") as fh:
            fh.write(b"garbage" + data[40:])  # torn header, intact tail
        with pytest.raises(TraceStoreError) as err:
            TraceStore.open(str(tmp_path / "store"))
        assert "never sealed" in str(err.value)
        with pytest.raises(TraceStoreError, match="already exists"):
            TraceStore(str(tmp_path / "store"))
        assert os.path.exists(seg)  # nothing was destroyed

    def test_failed_jobs_excluded_from_campaign_merge(self, tmp_path):
        from repro.tracedb.collect import merge_job_stores, open_job_store

        class FakeResult:
            def __init__(self, index, path, failed):
                self.index = index
                self.job_id = f"j{index}"
                self.trace_path = path
                self.failed = failed

        results = []
        for index, failed in ((0, False), (1, True), (2, False)):
            job = open_job_store(str(tmp_path), index)
            job.append(event(0))
            job.close()
            results.append(FakeResult(index, job.root, failed))
        campaign = merge_job_stores(results, str(tmp_path / "campaign"))
        # the failed job's partial trace stays out of the canonical
        # store (its trace_path remains for post-mortems)
        assert [r["job_index"] for r in campaign.events()] == [0, 2]

    def test_state_only_replay_captures_no_frames(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"))
        trace = ExecutionTrace(spill=store)
        fill(trace, 50)
        from repro.tracedb.checkpoint import build_checkpoints
        build_checkpoints(store, GdmModel("m"), every=10)
        player = ReplayPlayer(StoredTrace(store), GdmModel("m"),
                              capture_frames=False)
        player.start()
        assert player.run_to_end() == 50
        assert len(player.frames) == 0  # flat memory for state-only passes

    def test_deserialized_window_raises_without_spill_advice(self):
        # a trace is a whole record: a serialized window of a longer
        # history (seqs 6..9) would replay from mid-history, so loading
        # it is refused
        trace = ExecutionTrace()
        fill(trace, 10)
        with pytest.raises(DebuggerError, match="seqs 0..n-1"):
            ExecutionTrace.from_dicts(trace.to_dicts()[6:])
        with pytest.raises(DebuggerError):
            ExecutionTrace.from_dicts(trace.to_dicts()[:3] * 2)

    def test_resumed_engine_never_writes_live_checkpoints(self, tmp_path):
        # run A records 0..N with live checkpoints; run B's engine over
        # the reopened store has a fresh model that never saw run A's
        # events — its snapshots would lie to seek, so none may be written
        from repro.engine.engine import DebuggerEngine
        store = TraceStore(str(tmp_path / "s"), checkpoint_every=4)
        engine_a = DebuggerEngine(
            GdmModel("a"), trace=ExecutionTrace(spill=store))
        assert engine_a._live_checkpoints  # fresh store: snapshots valid
        for i in range(10):
            store.append(event(i))
        store.close()
        reopened = TraceStore.open(str(tmp_path / "s"))
        engine_b = DebuggerEngine(
            GdmModel("b"), trace=ExecutionTrace(spill=reopened))
        assert not engine_b._live_checkpoints

    def test_engine_over_populated_trace_never_checkpoints(self, tmp_path):
        # a reconnect handoff: new engine, old trace — its fresh model
        # never applied the recorded events, so snapshots would lie
        from repro.engine.engine import DebuggerEngine
        store = TraceStore(str(tmp_path / "s"), checkpoint_every=4)
        trace = ExecutionTrace(spill=store)
        fill(trace, 10)
        assert not DebuggerEngine(GdmModel("b"),
                                  trace=trace)._live_checkpoints

    def test_seek_leaves_identical_frames_on_both_paths(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=32)
        trace = ExecutionTrace(spill=store)
        fill(trace, 60)
        from repro.tracedb.checkpoint import build_checkpoints
        build_checkpoints(store, GdmModel("m"), every=20)
        view = StoredTrace(store)
        gdm = GdmModel("m")
        player = ReplayPlayer(view, gdm)
        player.seek(45)
        assert len(player.frames) == 0
        player.seek(45, use_checkpoints=False)
        assert len(player.frames) == 0
        # stepping after a seek captures frames from the seek point on
        player.step()
        assert len(player.frames) == 1
