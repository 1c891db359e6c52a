"""Unit tests for repro.tracedb: formats, segments, index, store,
checkpoints, and spilling an ExecutionTrace through to a store."""

import json
import os

import pytest

from repro.comm.protocol import Command, CommandKind
from repro.engine.replay import ReplayPlayer
from repro.engine.trace import ExecutionTrace
from repro.errors import DebuggerError, TraceStoreError
from repro.gdm.model import GdmModel
from repro.tracedb import (
    CODECS,
    StoredTrace,
    TraceStore,
    read_segment,
)
from repro.tracedb.format import encode_record, read_header, write_header
from repro.tracedb.index import CheckpointInfo, StoreIndex
from repro.tracedb.segment import SegmentInfo


def cmd(i: int) -> Command:
    return Command(CommandKind.SIG_UPDATE, f"signal:s{i % 3}", i,
                   t_target=i * 10, t_host=i * 10 + 1)


def fill(trace: ExecutionTrace, n: int) -> None:
    for i in range(n):
        trace.record(cmd(i), [], "REACTING")


def make_store(tmp_path, n: int = 0, **kw) -> TraceStore:
    store = TraceStore(str(tmp_path / "store"), **kw)
    for i in range(n):
        store.append({"seq": i, "t_target": i * 10, "kind": "SIG_UPDATE",
                      "path": f"signal:s{i % 3}", "value": i})
    return store


class TestFormat:
    def test_encoding_is_canonical(self):
        a = encode_record({"b": 1, "a": [2, {"z": 3, "y": 4}]})
        b = encode_record({"a": [2, {"y": 4, "z": 3}], "b": 1})
        assert a == b
        assert b" " not in a

    @pytest.mark.parametrize("codec", sorted(CODECS))
    def test_header_roundtrip(self, tmp_path, codec):
        path = tmp_path / "seg.trc"
        with open(path, "wb") as fh:
            write_header(fh, codec)
        with open(path, "rb") as fh:
            assert read_header(fh) is CODECS[codec]

    def test_header_is_readable_json_line(self, tmp_path):
        path = tmp_path / "seg.trc"
        with open(path, "wb") as fh:
            write_header(fh, "binary")
        first_line = open(path, "rb").readline()
        header = json.loads(first_line)
        assert header["codec"] == "binary" and header["version"] == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "seg.trc"
        path.write_bytes(b'{"magic": "something-else"}\n')
        with open(path, "rb") as fh:
            with pytest.raises(TraceStoreError):
                read_header(fh)

    def test_unknown_codec_rejected(self, tmp_path):
        with open(tmp_path / "seg.trc", "wb") as fh:
            with pytest.raises(TraceStoreError):
                write_header(fh, "carrier-pigeon")

    def test_truncated_binary_record_is_loud(self, tmp_path):
        path = tmp_path / "seg.trc"
        with open(path, "wb") as fh:
            write_header(fh, "binary")
            fh.write(CODECS["binary"].frame(encode_record({"seq": 0})))
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # chop the payload tail
        with pytest.raises(TraceStoreError):
            list(read_segment(str(path)))


class TestStoreAppendAndQuery:
    @pytest.mark.parametrize("codec", sorted(CODECS))
    def test_roundtrip_both_codecs(self, tmp_path, codec):
        store = make_store(tmp_path, 50, segment_events=16, codec=codec)
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

    def test_seq_stamped_when_absent(self, tmp_path):
        store = make_store(tmp_path)
        assert store.append({"t_target": 0}) == 0
        assert store.append({"t_target": 5}) == 1

    def test_out_of_order_append_rejected(self, tmp_path):
        store = make_store(tmp_path, 3)
        with pytest.raises(TraceStoreError):
            store.append({"seq": 7, "t_target": 0})

    def test_append_after_close_rejected(self, tmp_path):
        store = make_store(tmp_path, 3)
        store.close()
        with pytest.raises(TraceStoreError):
            store.append({"t_target": 0})

    def test_reopen_resumes_seq(self, tmp_path):
        make_store(tmp_path, 20, segment_events=8).close()
        again = TraceStore(str(tmp_path / "store"))
        assert again.next_seq == 20
        again.append({"t_target": 999})
        again.close()
        assert [r["seq"] for r in TraceStore.open(again.root).events()] \
            == list(range(21))

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
        with pytest.raises(TraceStoreError):
            TraceStore(str(tmp_path / "c"), codec="morse")


class TestIndex:
    def seg(self, first, count):
        return SegmentInfo(f"seg-{first:012d}.trc", first, first + count - 1,
                           first * 10, (first + count - 1) * 10, count, 100)

    def test_gap_rejected(self):
        index = StoreIndex("jsonl", 16)
        index.add_segment(self.seg(0, 16))
        with pytest.raises(TraceStoreError):
            index.add_segment(self.seg(20, 16))

    def test_duplicate_checkpoint_rejected(self):
        index = StoreIndex("jsonl", 16)
        index.add_segment(self.seg(0, 16))
        index.add_checkpoint(CheckpointInfo(7, 70, "ckpt/a.json"))
        with pytest.raises(TraceStoreError):
            index.add_checkpoint(CheckpointInfo(7, 70, "ckpt/b.json"))

    def test_out_of_order_checkpoint_insertion_keeps_rows_sorted(self):
        # an offline build_checkpoints pass may fill gaps below
        # live-recorded checkpoints
        index = StoreIndex("jsonl", 16)
        index.add_checkpoint(CheckpointInfo(19, 190, "c19"))
        index.add_checkpoint(CheckpointInfo(9, 90, "c9"))
        index.add_checkpoint(CheckpointInfo(14, 140, "c14"))
        assert [c.seq for c in index.checkpoints] == [9, 14, 19]
        assert index.nearest_checkpoint(15).seq == 14

    def test_nearest_checkpoint_bisects(self):
        index = StoreIndex("jsonl", 16)
        for seq in (9, 19, 29):
            index.add_checkpoint(CheckpointInfo(seq, seq, f"c{seq}"))
        assert index.nearest_checkpoint(8) is None
        assert index.nearest_checkpoint(9).seq == 9
        assert index.nearest_checkpoint(28).seq == 19
        assert index.nearest_checkpoint(500).seq == 29

    def test_segment_intersection_predicates(self):
        info = self.seg(16, 16)  # seqs 16..31, t_target 160..310
        assert info.intersects_seq(31, 40) and info.intersects_seq(0, 16)
        assert not info.intersects_seq(0, 15)
        assert not info.intersects_seq(32, 99)
        empty = SegmentInfo("e", 5, 4, 0, 0, 0, 30)
        assert not empty.intersects_seq(0, 99)

    def test_time_extent_is_min_max_not_first_last(self, tmp_path):
        # non-monotonic t_target (merged campaign stores interleave
        # per-job clocks): the index row holds the extent, not the ends
        store = TraceStore(str(tmp_path / "s"), segment_events=10)
        for t in (800, 900, 1000, 0, 100, 200):
            store.append({"t_target": t})
        store.close()
        back = TraceStore.open(store.root)
        info = back._index.segments[0]
        assert (info.first_t_target, info.last_t_target) == (0, 1000)


class TestStoredTrace:
    def test_len_index_iterate_match(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=8)
        ref = ExecutionTrace()
        fill(ref, 30)
        for event in ref:
            store.append(event.to_dict())
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
        for event in ref:
            store.append(event.to_dict())
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
        from repro.tracedb import build_checkpoints
        built = build_checkpoints(store, GdmModel("m"), every=25)
        assert built == 3  # 24, 49, 74 inserted below the existing 99
        assert [c.seq for c in store.checkpoints()] == [24, 49, 74, 99]

    def test_job_store_reopen_replaces_stale_attempt(self, tmp_path):
        # the pool's crash retry re-runs a job whose first attempt may
        # have sealed segments: the retry must start clean, not collide
        from repro.tracedb import open_job_store
        store = open_job_store(str(tmp_path), 3, segment_events=2)
        for i in range(5):
            store.append({"t_target": i})
        store.close()
        retry = open_job_store(str(tmp_path), 3, segment_events=2)
        assert retry.event_count == 0
        assert retry.append({"t_target": 0}) == 0
        retry.close()

    def test_reused_campaign_root_is_rejected_with_cause(self, tmp_path):
        from repro.tracedb import merge_job_stores, open_job_store

        class FakeResult:
            index, job_id = 0, "control"

            def __init__(self, path):
                self.trace_path = path

        job = open_job_store(str(tmp_path), 0)
        job.append({"t_target": 0})
        job.close()
        results = [FakeResult(job.root)]
        merge_job_stores(results, str(tmp_path / "campaign"))
        with pytest.raises(TraceStoreError) as err:
            merge_job_stores(results, str(tmp_path / "campaign"))
        assert "reused" in str(err.value)

    def test_reads_never_write_the_index(self, tmp_path):
        # queries on a store opened from elsewhere must not rewrite
        # index.json (read-only mounts stay queryable)
        store = make_store(tmp_path, 30, segment_events=8)
        store.close()
        reader = TraceStore.open(store.root)
        index_path = os.path.join(store.root, "index.json")
        before = os.stat(index_path).st_mtime_ns
        list(reader.events())
        list(reader.events(seq_range=(10, 20)))
        assert os.stat(index_path).st_mtime_ns == before

    def test_reused_trace_dir_fails_before_any_job_runs(self, tmp_path):
        from repro.tracedb import ensure_fresh_trace_dir, merge_job_stores

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
        store.append({"t_target": 0})
        store.close()
        resumed = TraceStore.open(str(tmp_path / "s"))
        assert resumed.checkpoint_every == 64
        assert resumed.wants_checkpoint(63)
        overridden = TraceStore(str(tmp_path / "s"), checkpoint_every=32)
        assert overridden.checkpoint_every == 32

    def test_attach_recovers_flushed_but_unclosed_records(self, tmp_path):
        # a recorder that flushed and then died must not lose its active
        # segment on reattach (previously the new writer zeroed the file)
        store = make_store(tmp_path, 500, segment_events=200)
        store.flush()  # 2 sealed segments + 100 flushed-but-unsealed
        del store  # simulate a crash: no close()
        revived = TraceStore(str(tmp_path / "store"))
        assert revived.event_count == 500
        assert [r["seq"] for r in revived.events(seq_range=(398, 402))] \
            == [398, 399, 400, 401, 402]
        revived.append({"t_target": 0})
        revived.close()
        assert TraceStore.open(revived.root).event_count == 501

    def test_attach_recovers_multiple_unindexed_segments(self, tmp_path):
        # a recorder that rotated several segments after the last index
        # publish must get ALL of them back, not just the first orphan
        store = make_store(tmp_path, 250, segment_events=100)
        store._flush_bytes()  # bytes durable, index.json still empty
        del store
        revived = TraceStore(str(tmp_path / "store"))
        assert revived.event_count == 250
        assert [r["seq"] for r in revived.events(seq_range=(95, 105))] \
            == list(range(95, 106))
        assert revived.append({"t_target": 0}) == 250

    def test_attach_refuses_unreachable_segments(self, tmp_path):
        # a gap in the chain means data we cannot order: refuse loudly
        # instead of silently overwriting the stranded file
        store = make_store(tmp_path, 250, segment_events=100)
        store._flush_bytes()
        del store
        os.unlink(str(tmp_path / "store" / "seg-000000000100.trc"))
        with pytest.raises(TraceStoreError) as err:
            TraceStore(str(tmp_path / "store"))
        assert "seg-000000000200.trc" in str(err.value)

    def test_attach_recovers_unindexed_checkpoints(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=8,
                           checkpoint_every=4)
        for i in range(10):
            store.append({"t_target": i})
            if store.wants_checkpoint(i):
                store.add_checkpoint(i, i, {"elements": {}, "links": {}})
        store._flush_bytes()  # bytes durable, index rows never published
        del store
        revived = TraceStore(str(tmp_path / "s"))
        assert [c.seq for c in revived.checkpoints()] == [3, 7]
        assert revived.nearest_checkpoint(9).seq == 7

    def test_attach_drops_torn_tail_record(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=100,
                           codec="binary")
        for i in range(10):
            store.append({"t_target": i})
        store.flush()
        seg = os.path.join(store.root, "seg-000000000000.trc")
        del store
        data = open(seg, "rb").read()
        with open(seg, "wb") as fh:
            fh.write(data[:-5])  # crash mid-append: torn last record
        revived = TraceStore(str(tmp_path / "s"))
        assert revived.event_count == 9  # intact prefix adopted
        assert revived.append({"t_target": 99}) == 9

    def test_zero_byte_orphan_segment_is_dropped_not_bricking(self, tmp_path):
        # SIGKILL before the first flush leaves the buffered header
        # unwritten: a 0-byte file provably holds nothing, so attach
        # must succeed instead of refusing forever
        store = make_store(tmp_path, 100, segment_events=100)
        store.close()
        open(str(tmp_path / "store" / "seg-000000000100.trc"), "wb").close()
        revived = TraceStore(str(tmp_path / "store"))
        assert revived.event_count == 100
        assert revived.append({"t_target": 0}) == 100

    def test_unmerged_run_leftovers_refuse_trace_dir_reuse(self, tmp_path):
        from repro.tracedb import ensure_fresh_trace_dir, open_job_store
        job = open_job_store(str(tmp_path), 7)
        job.append({"t_target": 0})
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
            TraceStore(str(tmp_path / "store"))
        assert "unreadable header" in str(err.value)
        assert os.path.exists(seg)  # nothing was destroyed

    def test_failed_jobs_excluded_from_campaign_merge(self, tmp_path):
        from repro.tracedb import merge_job_stores, open_job_store

        class FakeResult:
            def __init__(self, index, path, failed):
                self.index = index
                self.job_id = f"j{index}"
                self.trace_path = path
                self.failed = failed

        results = []
        for index, failed in ((0, False), (1, True), (2, False)):
            job = open_job_store(str(tmp_path), index)
            job.append({"t_target": index})
            job.close()
            results.append(FakeResult(index, job.root, failed))
        campaign = merge_job_stores(results, str(tmp_path / "campaign"))
        # the failed job's partial trace stays out of the canonical
        # store (its trace_path remains for post-mortems)
        assert [r["job_index"] for r in campaign.events()] == [0, 2]

    def test_stale_ahead_of_history_checkpoint_file_is_deleted(self, tmp_path):
        # ckpt files are atomic but segment bytes are buffered: a crash
        # can leave a checkpoint whose event never became durable. It
        # must be deleted at recovery — kept on disk, a LATER recovery
        # (after new events reuse that seq) would adopt its stale payload
        store = TraceStore(str(tmp_path / "s"), segment_events=100)
        store.append({"t_target": 0})
        store.flush()
        store.add_checkpoint(0, 1, {"elements": {}, "links": {}})
        # simulate: checkpoint for seq 5 hit disk, events 1..5 did not
        from repro.tracedb.checkpoint import Checkpoint, save_checkpoint
        stale = os.path.join(store.root, "ckpt", "ckpt-000000000005.json")
        save_checkpoint(stale, Checkpoint(5, 50, {"elements": {"x": {}},
                                                  "links": {}}))
        del store
        revived = TraceStore(str(tmp_path / "s"))
        assert not os.path.exists(stale)
        assert [c.seq for c in revived.checkpoints()] == [0]
        # second crash/attach cycle after seq 5 exists must not resurrect it
        for i in range(1, 8):
            revived.append({"t_target": i})
        revived.close()
        assert [c.seq for c in TraceStore.open(revived.root).checkpoints()] \
            == [0]

    def test_state_only_replay_captures_no_frames(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"))
        trace = ExecutionTrace(spill=store)
        fill(trace, 50)
        from repro.tracedb import StoredTrace, build_checkpoints
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
        # run A records 0..N with live checkpoints; run B resumes the
        # store with a fresh model that never saw run A's events — its
        # snapshots would lie to seek, so none may be written
        from repro.engine.engine import DebuggerEngine
        store = TraceStore(str(tmp_path / "s"), checkpoint_every=4)
        engine_a = DebuggerEngine(
            GdmModel("a"), trace=ExecutionTrace(spill=store))
        assert engine_a._live_checkpoints  # fresh store: snapshots valid
        for i in range(10):
            store.append({"seq": i, "t_target": i})
        store.close()
        resumed = TraceStore.open(str(tmp_path / "s"))
        engine_b = DebuggerEngine(
            GdmModel("b"), trace=ExecutionTrace(spill=resumed))
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

    def test_resumed_recorder_continues_the_seq_line(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=8)
        first = ExecutionTrace(spill=store)
        fill(first, 10)
        store.close()
        resumed_store = TraceStore.open(str(tmp_path / "s"))
        second = ExecutionTrace(spill=resumed_store)
        fill(second, 5)
        resumed_store.close()
        assert [r["seq"] for r in TraceStore.open(str(tmp_path / "s")).events()] \
            == list(range(15))

    def test_seek_leaves_identical_frames_on_both_paths(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=32)
        trace = ExecutionTrace(spill=store)
        fill(trace, 60)
        from repro.tracedb import StoredTrace, build_checkpoints
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
