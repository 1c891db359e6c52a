"""The campaign merge splices canonical payloads instead of decoding and
re-encoding records: byte-identical to the decode/re-encode reference
(``merge_reference.py``) on generated and real per-job stores of trace
events, loud on per-job payloads that are not trace events or carry the
wrong seq, and pinned to the campaign store bytes of a small
production-cell campaign."""

import hashlib
import json
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from merge_reference import reference_merge_job_stores
from repro.comdes.examples import (
    cruise_control_system,
    production_cell_system,
    traffic_light_system,
)
from repro.comm.protocol import Command, CommandKind
from repro.engine.trace import TraceEvent
from repro.errors import TraceStoreError
from repro.experiments.requirements import (
    cruise_code_watches,
    cruise_monitor_suite,
    production_cell_code_watches,
    production_cell_monitor_suite,
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import run_campaign
from repro.faults.comm import COMM_FAULT_KINDS
from repro.fleet.pool import SerialRunner
from repro.gdm.reactions import ReactionKind, ReactionRecord
from repro.tracedb.collect import merge_job_stores
from repro.tracedb.format import encode_record
from repro.tracedb.store import TraceStore
import repro.tracedb.collect as collect
from repro.util.timeunits import sec

#: sha256 of the merged campaign store of the cell :func:`small_campaign`
#: (every file, see :func:`tree_digest`). Its segment files are the ones
#: the decode/re-encode merge wrote before the splice replaced it; its
#: index rows carry seq extents only.
CELL_CAMPAIGN_STORE_SHA256 = (
    "c4ad3dae626259889ffb7216cde56055e6f7dc1d7534ea3ad350591fe8f8fbe9")


def tree_files(root):
    """Every file under *root* as {relative path: bytes}."""
    files = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root).replace(os.sep, "/")] = (
                    fh.read())
    return files


def tree_digest(root):
    """sha256 over every file under *root*: sorted relative paths, each
    followed by its bytes."""
    digest = hashlib.sha256()
    for name, data in sorted(tree_files(root).items()):
        digest.update(name.encode("utf-8") + b"\0" + data + b"\0")
    return digest.hexdigest()


def make_event(seq, kind=CommandKind.SIG_UPDATE, path="signal:x", value=0,
               t_target=0, t_host=0, state="REACTING", reactions=()):
    """A TraceEvent whose fields may be of any type (assigned after
    construction, so None and bool survive)."""
    command = Command(kind, "", 0)
    command.path, command.value = path, value
    command.t_target, command.t_host = t_target, t_host
    return TraceEvent(seq, command,
                      [ReactionRecord(*fields) for fields in reactions],
                      state)


def write_job_stores(base, jobs, segment_events=1024):
    """One per-job store per list of event fields (each a dict of
    :func:`make_event` keywords, numbered 0.. in its store); returns
    JobResult-shaped stubs."""
    results = []
    for index, events in enumerate(jobs):
        root = os.path.join(base, f"job-{index:05d}")
        with TraceStore(root, segment_events=segment_events) as store:
            for seq, fields in enumerate(events):
                store.append(make_event(seq, **fields))
        results.append(SimpleNamespace(index=index, job_id=f"job{index}",
                                       trace_path=root, failed=False))
    return results


def write_payload_store(base, payloads):
    """A per-job store holding *payloads* as they are (what a corrupt or
    foreign store holds; ``append`` writes events only)."""
    root = os.path.join(base, "job-00000")
    with TraceStore(root) as store:
        for seq, payload in enumerate(payloads):
            store._append_payload(seq, payload)
    return [SimpleNamespace(index=0, job_id="job0", trace_path=root,
                            failed=False)]


def assert_merges_agree(base, results, segment_events=1024):
    spliced = os.path.join(base, "spliced")
    reference = os.path.join(base, "reference")
    merge_job_stores(results, spliced, segment_events=segment_events)
    reference_merge_job_stores(results, reference,
                               segment_events=segment_events)
    assert tree_files(spliced) == tree_files(reference)
    return spliced


# -- generated per-job stores -------------------------------------------------

#: quotes, backslashes, the ,"seq": token, brackets and non-ASCII
STRINGS = st.one_of(
    st.sampled_from(['"', "\\", ',"seq":', ',"seq":1}', '\\",\\"seq\\":',
                     '"job_id":', "}", "{", "é☃\U0001f600", ""]),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8))
INTS = st.integers(-2**70, 2**70)
#: fields of other types take the reference encoding
OTHERS = st.one_of(st.booleans(), st.none(),
                   st.floats(allow_nan=True, allow_infinity=True))
STR_FIELDS = st.one_of(STRINGS, STRINGS, STRINGS, OTHERS, INTS)
INT_FIELDS = st.one_of(INTS, INTS, INTS, OTHERS, STRINGS)
#: nested keys may be anything, provenance and seq names included
NESTED_KEYS = st.one_of(
    st.sampled_from(["seq", "job_id", "job_index", "job_seq", "kind",
                     "t_target", 'q"k', "b\\k", ',"seq":', "é", "☃"]),
    st.text(max_size=5))
VALUES = st.recursive(
    st.one_of(INTS, OTHERS, STRINGS),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(NESTED_KEYS, children, max_size=4)),
    max_leaves=10)
EVENTS = st.fixed_dictionaries({
    "kind": st.sampled_from(list(CommandKind)),
    "path": STR_FIELDS,
    "value": VALUES,
    "t_target": INT_FIELDS,
    "t_host": INT_FIELDS,
    "state": STR_FIELDS,
    "reactions": st.lists(st.tuples(
        st.sampled_from(list(ReactionKind)), STR_FIELDS, STR_FIELDS,
        STR_FIELDS, INT_FIELDS), max_size=3),
})


class TestSpliceEqualsReencode:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(jobs=st.lists(st.lists(EVENTS, max_size=8), min_size=1,
                         max_size=5),
           source_events=st.sampled_from([1, 3, 1024]),
           dest_events=st.sampled_from([1, 3, 1024]),
           failed=st.lists(st.booleans(), min_size=5, max_size=5),
           order=st.permutations(range(5)))
    @example(jobs=[[{"value": {"seq": 1}}, {"path": ',"seq":2'}], [],
                   [{"state": 'j"', "t_target": -5}]],
             source_events=3, dest_events=1,
             failed=[False] * 5, order=[2, 0, 1, 3, 4])
    def test_byte_identical_campaign_store(self, tmp_path, jobs,
                                           source_events, dest_events,
                                           failed, order):
        base = tempfile.mkdtemp(dir=tmp_path)
        results = write_job_stores(base, jobs, segment_events=source_events)
        for result in results:
            result.failed = failed[result.index]
            result.job_id = f'j"{result.index}é'
        results = [results[i] for i in order if i < len(results)]
        assert_merges_agree(base, results, segment_events=dest_events)

    @pytest.mark.parametrize("record", [
        # the trace-record shape a model run writes
        {"kind": CommandKind.TASK_START, "path": "actor:x", "value": 1,
         "t_target": 5, "t_host": 9,
         "reactions": [(ReactionKind.PULSE, "el#5", "actor:x", "pulse", 9)]},
        {},  # every field at its default, no reaction
        {"t_target": -3, "t_host": -2**40},
        {"path": ',"seq":7,'},                        # seq token before
        {"value": {"x": {"seq": 7}}},                 # nested seq after
        # the last ',"seq":' is nested (and equal to the record's seq)
        {"state": "x", "t_target": 4, "value": {"a": 1, "seq": 0}},
        {"value": [{"a": 1, "seq": 1}]},
        {"value": [{"seq": 1}, ',"seq":2']},
        {"reactions": [(ReactionKind.ANNOTATE, "e", "p", ',"seq":1}', 1)]},
        {"state": '"job_id":1,"job_index":2', "path": "job_seq"},
        {"value": {"job_id": "nested", "job_seq": 3}, "path": "☃"},
        {"path": 'q"k\\s', "state": "é\U0001f600"},
        {"value": None, "t_target": True, "t_host": 1.5, "path": None},
    ])
    def test_record_shapes(self, tmp_path, record):
        results = write_job_stores(str(tmp_path), [[record, dict(record)]])
        assert_merges_agree(str(tmp_path), results, segment_events=1)


# -- real campaigns -----------------------------------------------------------

CAMPAIGNS = {
    "traffic": (traffic_light_system, traffic_light_monitor_suite,
                traffic_light_code_watches),
    "cruise": (cruise_control_system, cruise_monitor_suite,
               cruise_code_watches),
    "cell": (production_cell_system, production_cell_monitor_suite,
             production_cell_code_watches),
}


def small_campaign(trace_dir, name="cell"):
    """A one-seed-per-kind traced campaign (every comm-fault kind
    included) on SerialRunner; returns (result, per-job results)."""
    captured = []
    real = collect.collect_campaign_store

    def capture(results, *args, **kwargs):
        captured.extend(results)
        return real(results, *args, **kwargs)

    with mock.patch.object(collect, "collect_campaign_store", capture):
        result = run_campaign(
            *CAMPAIGNS[name], comm_kinds=tuple(COMM_FAULT_KINDS),
            runner=SerialRunner(), master_seed=1, seeds_per_kind=1,
            duration_us=sec(1), trace_dir=trace_dir)
    return result, captured


class TestRealCampaigns:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_campaign_per_job_stores_merge_identically(self, tmp_path, name):
        result, job_results = small_campaign(str(tmp_path / "t"), name)
        assert result.trace_store.event_count > 0
        spliced = assert_merges_agree(str(tmp_path), job_results)
        assert tree_files(spliced) == tree_files(result.trace_store.root)

    def test_cell_campaign_store_bytes_are_pinned(self, tmp_path):
        result, _ = small_campaign(str(tmp_path / "t"))
        assert tree_digest(result.trace_store.root) == (
            CELL_CAMPAIGN_STORE_SHA256)


# -- per-job records the merge refuses ----------------------------------------

def event_dict(seq, **fields):
    return make_event(seq, **fields).to_dict()


class TestRefusedRecords:
    @pytest.mark.parametrize("key", ["job_id", "job_index", "job_seq"])
    @pytest.mark.parametrize("shape", [{}, {"state": "IDLE"},
                                       {"value": {"seq": 1}}])
    def test_provenance_key_is_not_clobbered(self, tmp_path, key, shape):
        record = dict(event_dict(1, **shape), **{key: "mine"})
        results = write_payload_store(
            str(tmp_path), [encode_record(event_dict(0)),
                            encode_record(record)])
        with pytest.raises(TraceStoreError) as err:
            merge_job_stores(results, str(tmp_path / "campaign"))
        assert "job0" in str(err.value)
        assert "position 1" in str(err.value)
        assert f'"{key}"' in str(err.value)

    @pytest.mark.parametrize("payload", [
        encode_record({"seq": 1}),
        encode_record({"seq": 1, "t_target": 3}),
        # one key short, one key too many (sorting between reactions
        # and seq, before the first key, after the last)
        encode_record({k: v for k, v in event_dict(1).items()
                       if k != "reactions"}),
        encode_record(dict(event_dict(1), rz=1)),
        encode_record(dict(event_dict(1), a=1)),
        encode_record(dict(event_dict(1), zz=[1])),
        # not canonical, not an object, truncated, trailing bytes
        json.dumps(event_dict(1), sort_keys=True).encode(),
        json.dumps(event_dict(1)).replace(" ", "").encode(),
        b"[1]",
        encode_record(event_dict(1))[:-1],
        encode_record(event_dict(1)) + b"{}",
    ], ids=["seq-only", "no-event-keys", "key-missing", "key-between",
            "key-before", "key-after", "whitespace", "unsorted",
            "not-an-object", "truncated", "trailing-bytes"])
    def test_payload_that_is_not_an_event_is_refused(self, tmp_path,
                                                     payload):
        results = write_payload_store(
            str(tmp_path), [encode_record(event_dict(0)), payload])
        campaign = str(tmp_path / "campaign")
        with pytest.raises(TraceStoreError) as err:
            merge_job_stores(results, campaign)
        assert "job0" in str(err.value)
        assert "position 1" in str(err.value)
        # a refused merge never seals: the campaign store cannot be read
        # as a complete one
        with pytest.raises(TraceStoreError, match="never sealed"):
            TraceStore.open(campaign)

    @pytest.mark.parametrize("record", [
        {"t_target": 3},
        {"state": "IDLE", "kind": CommandKind.TASK_START, "t_target": 3},
        {"t_target": 3, "value": {"seq": 9}},
    ])
    def test_seq_that_is_not_its_position_is_loud(self, tmp_path, record):
        results = write_job_stores(str(tmp_path), [[record] * 3])
        segment = os.path.join(results[0].trace_path,
                               "seg-000000000000.trc")
        with open(segment, "rb") as fh:
            data = fh.read()
        assert data.count(b'"seq":1,') == 1
        with open(segment, "wb") as fh:
            fh.write(data.replace(b'"seq":1,', b'"seq":7,'))
        with pytest.raises(TraceStoreError) as err:
            merge_job_stores(results, str(tmp_path / "campaign"))
        assert "job0" in str(err.value)
        assert "position 1" in str(err.value)
        assert "seq 7" in str(err.value)

    def test_merge_never_reencodes_a_record(self, tmp_path):
        jobs = [[{"state": "IDLE", "t_target": i} for i in range(50)],
                [{"value": {"a": {"seq": 1}, "seq": 2}}] * 30]
        results = write_job_stores(str(tmp_path), jobs)
        calls = []
        real_dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            calls.append(args)
            return real_dumps(*args, **kwargs)

        with mock.patch("json.dumps", counting_dumps), \
                mock.patch("repro.tracedb.store.encode_event",
                           side_effect=AssertionError("re-encoded")):
            campaign = merge_job_stores(results, str(tmp_path / "campaign"))
        # the job_id and job_index texts of each job plus one header line
        # per campaign segment: nothing per record
        segments = len(campaign._all_segments())
        assert len(calls) == 2 * len(jobs) + segments
