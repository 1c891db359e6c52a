"""The campaign merge splices canonical payloads instead of decoding and
re-encoding records: byte-identical to the decode/re-encode reference
(``merge_reference.py``) on generated and real per-job stores, loud on
per-job records it cannot merge faithfully, and pinned to the campaign
store bytes of a small production-cell campaign."""

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
from repro.tracedb.collect import merge_job_stores
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


def write_job_stores(base, jobs, segment_events=1024):
    """One per-job store per record list; returns JobResult-shaped stubs."""
    results = []
    for index, records in enumerate(jobs):
        root = os.path.join(base, f"job-{index:05d}")
        with TraceStore(root, segment_events=segment_events) as store:
            for record in records:
                store.append(record)
        results.append(SimpleNamespace(index=index, job_id=f"job{index}",
                                       trace_path=root, failed=False))
    return results


def assert_merges_agree(base, results, segment_events=1024):
    spliced = os.path.join(base, "spliced")
    reference = os.path.join(base, "reference")
    merge_job_stores(results, spliced, segment_events=segment_events)
    reference_merge_job_stores(results, reference,
                               segment_events=segment_events)
    assert tree_files(spliced) == tree_files(reference)
    return spliced


# -- generated per-job stores -------------------------------------------------

#: keys sorting before, among and after job_id..job_seq and around seq,
#: plus quotes, backslashes, the ,"seq": token and non-ASCII
EDGE_KEYS = ["a", "engine_state", "job", "job_", "job_i", "job_id0",
             "job_idx", "job_index0", "job_j", "job_s", "job_seq0", "job_sz",
             "jobs", "kind", "reactions", "s", "se", "seq0", "seq_",
             "sequence", "t_host", "t_target0", "value", "z", "~", "é",
             "☃", 'q"k', "b\\k", ',"seq":', "J"]
#: nested keys may be anything, provenance and seq names included
NESTED_KEYS = st.one_of(
    st.sampled_from(EDGE_KEYS + ["seq", "job_id", "job_index", "job_seq",
                                 "t_target"]),
    st.text(max_size=5))
TOP_KEYS = st.one_of(
    st.sampled_from(EDGE_KEYS),
    st.text(max_size=5).filter(lambda k: k not in (
        "seq", "job_id", "job_index", "job_seq", "t_target")))
STRINGS = st.one_of(
    st.sampled_from(['"', "\\", ',"seq":', ',"seq":1}', '\\",\\"seq\\":',
                     "}", "{", "é☃\U0001f600", ""]),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8))
SCALARS = st.one_of(st.integers(-2**70, 2**70), st.booleans(), st.none(),
                    st.floats(allow_nan=True, allow_infinity=True), STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(NESTED_KEYS, children, max_size=4)),
    max_leaves=10)


@st.composite
def records(draw):
    record = draw(st.dictionaries(TOP_KEYS, VALUES, max_size=5))
    if draw(st.booleans()):  # missing t_target defaults to 0
        record["t_target"] = draw(st.integers(-10**6, 10**9))
    return record


class TestSpliceEqualsReencode:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(jobs=st.lists(st.lists(records(), max_size=8), min_size=1,
                         max_size=5),
           source_events=st.sampled_from([1, 3, 1024]),
           dest_events=st.sampled_from([1, 3, 1024]),
           failed=st.lists(st.booleans(), min_size=5, max_size=5),
           order=st.permutations(range(5)))
    @example(jobs=[[{"value": {"seq": 1}}, {"a": {"seq": 2}}], [],
                   [{"job_idx": 1, "t_target": -5}]],
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
        # the trace-record shape: one head key before the insertion point
        {"engine_state": "REACTING", "kind": "TASK_START", "path": "actor:x",
         "reactions": [{"detail": "pulse", "element": "el#5"}],
         "t_host": 9, "t_target": 5, "value": 1},
        {},  # seq is the first key: no ',"seq":' token at all
        {"t_target": -3},
        {"a": {"seq": 7}, "t_target": 4},              # nested seq before
        {"t_target": 4, "value": {"x": {"seq": 7}}},   # nested seq after
        # the last ',"seq":' is nested (and equal to the record's seq)
        {"engine_state": "x", "t_target": 4, "value": {"a": 1, "seq": 0}},
        {"kind": "x", "value": [{"a": 1, "seq": 1}]},
        {"value": [{"seq": 1}, ',"seq":2']},
        {"z": ',"seq":1}', "t_target": 1},
        {"job_": 1, "job_idx": 2, "job_index0": 3, "job_s": 4, "t_target": 5},
        {"job_id0": {"job_id": "nested"}, "kind": "☃"},
        {'q"k': "b\\s", "é": "\U0001f600"},
        {"seq_": 1, "seq0": 2, "sequence": 3, "s": 4},
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

class TestRefusedRecords:
    @pytest.mark.parametrize("key", ["job_id", "job_index", "job_seq"])
    @pytest.mark.parametrize("shape", [{}, {"engine_state": "IDLE"},
                                       {"value": {"seq": 1}}])
    def test_provenance_key_is_not_clobbered(self, tmp_path, key, shape):
        records = [{"t_target": 0}, dict(shape, **{key: "mine"})]
        results = write_job_stores(str(tmp_path), [records])
        with pytest.raises(TraceStoreError) as err:
            merge_job_stores(results, str(tmp_path / "campaign"))
        assert "job0" in str(err.value)
        assert "seq 1" in str(err.value)
        assert repr(key) in str(err.value)

    @pytest.mark.parametrize("record", [
        {"t_target": 3},
        {"engine_state": "IDLE", "kind": "TASK_START", "t_target": 3},
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
        jobs = [[{"engine_state": "IDLE", "t_target": i} for i in range(50)],
                [{"a": {"seq": 1}, "value": {"seq": 2}}] * 30]
        results = write_job_stores(str(tmp_path), jobs)
        calls = []
        real_dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            calls.append(args)
            return real_dumps(*args, **kwargs)

        with mock.patch("json.dumps", counting_dumps), \
                mock.patch("repro.tracedb.store.encode_record",
                           side_effect=AssertionError("re-encoded")):
            campaign = merge_job_stores(results, str(tmp_path / "campaign"))
        # the job_id and job_index texts of each job plus one header line
        # per campaign segment: nothing per record
        segments = len(campaign._all_segments())
        assert len(calls) == 2 * len(jobs) + segments
