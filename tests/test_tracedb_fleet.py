"""Fleet trace collection: per-job spill stores, path-based handoff,
and the canonical campaign store — byte-identical serial vs parallel."""

import filecmp
import os

import pytest

from repro.comdes.examples import traffic_light_system
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import campaign_seeds, run_campaign
from repro.fleet.jobs import enumerate_campaign_jobs, JobSpec
from repro.fleet.pool import FleetRunner, SerialRunner
from repro.codegen.instrument import InstrumentationPlan
from repro.tracedb.collect import campaign_store_root, job_store_root
from repro.tracedb.store import TraceStore
from repro.util.timeunits import sec

KW = dict(design_kinds=("wrong_target",), impl_kinds=("inverted_branch",),
          seeds=(1, 2), duration_us=sec(1))


def collect(tmp_path, name, runner):
    trace_dir = str(tmp_path / name)
    result = run_campaign(
        traffic_light_system, traffic_light_monitor_suite,
        traffic_light_code_watches, runner=runner, trace_dir=trace_dir,
        **KW)
    return result, trace_dir


def store_files(root):
    return sorted(f for f in os.listdir(root)
                  if f.endswith(".trc") or f == "index.json")


class TestCampaignTraceCollection:
    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        return collect(tmp_path_factory.mktemp("serial"), "t", SerialRunner())

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        return collect(tmp_path_factory.mktemp("fleet"), "t",
                       FleetRunner(workers=2))

    def test_campaign_store_attached_to_result(self, serial):
        result, trace_dir = serial
        assert result.trace_store is not None
        assert result.trace_store.root == campaign_store_root(trace_dir)
        assert result.trace_store.event_count > 0

    def test_per_job_stores_exist_and_are_sealed(self, serial):
        result, trace_dir = serial
        # control + 2 design + 2 implementation jobs
        for index in range(5):
            root = job_store_root(trace_dir, index)
            store = TraceStore.open(root)  # raises if index.json missing
            assert store.event_count >= 0

    def test_campaign_store_is_canonically_ordered(self, serial):
        result, _ = serial
        records = list(result.trace_store.events())
        indices = [r["job_index"] for r in records]
        assert indices == sorted(indices)
        # within a job, original per-job seq order is preserved
        by_job = {}
        for record in records:
            by_job.setdefault(record["job_index"], []).append(
                record["job_seq"])
        for seqs in by_job.values():
            assert seqs == list(range(len(seqs)))
        assert {r["job_id"] for r in records} >= {
            "control", "design/wrong_target/1",
            "implementation/inverted_branch/2"}

    def test_fleet_collected_store_equals_serial_byte_for_byte(self, serial,
                                                               fleet):
        (r1, dir1), (r2, dir2) = serial, fleet
        c1, c2 = campaign_store_root(dir1), campaign_store_root(dir2)
        files1, files2 = store_files(c1), store_files(c2)
        assert files1 == files2
        for name in files1:
            assert filecmp.cmp(os.path.join(c1, name),
                               os.path.join(c2, name), shallow=False), name

    def test_detection_results_unchanged_by_collection(self, serial):
        result, _ = serial
        bare = run_campaign(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, runner=SerialRunner(), **KW)
        key = lambda r: [(o.fault.fault_id, o.model_detected, o.code_detected,
                          o.model_latency_us, o.code_latency_us)
                         for o in r.outcomes]
        assert key(result) == key(bare)
        assert bare.trace_store is None

    def test_failed_job_result_still_points_at_its_trace(self, tmp_path):
        # a job that dies mid-experiment leaves a sealed store; the
        # failure result must reference it for the post-mortem
        from repro.fleet.worker import run_job
        # monitor_ref resolves fine but blows up when used inside the
        # experiment — i.e. after the per-job store was created
        spec = JobSpec(2, "design", "wrong_target", 1, sec(1),
                       "repro.comdes.examples:traffic_light_system",
                       "repro.errors:ReproError",
                       "repro.experiments.requirements:"
                       "traffic_light_code_watches",
                       InstrumentationPlan.full(),
                       trace_dir=str(tmp_path))
        result = run_job(spec)
        assert result.failed
        assert result.trace_path
        assert TraceStore.open(result.trace_path).event_count == 0

    def test_failed_before_store_has_no_trace_path(self):
        from repro.fleet.worker import run_job
        spec = JobSpec(1, "design", "wrong_target", 1, sec(1),
                       "nonexistent_module:boom", "also:bad", "still:bad",
                       InstrumentationPlan.full())  # no trace_dir at all
        result = run_job(spec)
        assert result.failed
        assert result.trace_path == ""


class TestSeedExpansion:
    def test_campaign_seeds_passthrough_without_master(self):
        assert campaign_seeds("design", "wrong_target", (1, 2, 3)) == (1, 2, 3)

    def test_seeds_per_kind_without_master_seed_is_loud(self):
        from repro.errors import FleetError
        with pytest.raises(FleetError):
            campaign_seeds("design", "wrong_target", (1, 2, 3),
                           seeds_per_kind=50)

    def test_derived_streams_are_deterministic_and_distinct(self):
        a = campaign_seeds("design", "wrong_target", (1,), master_seed=7,
                          seeds_per_kind=4)
        b = campaign_seeds("design", "wrong_target", (1,), master_seed=7,
                          seeds_per_kind=4)
        c = campaign_seeds("implementation", "wrong_target", (1,),
                          master_seed=7, seeds_per_kind=4)
        assert a == b and len(a) == 4
        assert set(a).isdisjoint(c)  # category is part of the identity

    def test_enumeration_matches_inline_seed_plan(self):
        specs = enumerate_campaign_jobs(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches,
            design_kinds=("wrong_target",), impl_kinds=("op_swap",),
            seeds=(1,), duration_us=sec(1), plan=InstrumentationPlan.full(),
            master_seed=99, seeds_per_kind=3)
        fault_specs = [s for s in specs if s.category != "control"]
        assert len(fault_specs) == 6
        expected = (list(campaign_seeds("design", "wrong_target", (1,),
                                        99, 3))
                    + list(campaign_seeds("implementation", "op_swap", (1,),
                                          99, 3)))
        assert [s.seed for s in fault_specs] == expected

    def test_trace_dir_lands_on_every_spec(self, tmp_path):
        specs = enumerate_campaign_jobs(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches,
            design_kinds=(), impl_kinds=(), seeds=(),
            duration_us=sec(1), plan=InstrumentationPlan.full(),
            trace_dir=str(tmp_path))
        assert all(s.trace_dir == str(tmp_path) for s in specs)

    def test_spec_default_has_no_trace_dir(self):
        spec = JobSpec(0, "control", "", 0, 100, "a:b", "c:d", "e:f",
                       InstrumentationPlan.full())
        assert spec.trace_dir == ""
