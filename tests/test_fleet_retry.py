"""Tests for bounded fleet retry, per-job timeouts and the comm corpus.

The crash-containment contract after this PR: a job whose worker dies is
retried in isolation up to ``max_retries`` times with exponential
backoff; a job that wedges past ``job_timeout_s`` is killed; both come
back as structured failures carrying the burned retry count — campaigns
over faulty workers complete with partial results, never hang.
"""

import os
import time

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.comdes.examples import traffic_light_system
from repro.errors import FleetError
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import run_campaign
from repro.fleet.jobs import (
    JobSpec,
    callable_ref,
    enumerate_campaign_jobs,
    JobResult,
)
from repro.fleet.pool import FleetRunner
from repro.util.timeunits import sec


def exiting_system():
    """A system factory that kills its worker process outright."""
    os._exit(3)


def hanging_system():
    """A system factory that wedges its worker forever."""
    time.sleep(600)


def spec(index, system_ref, kind="wrong_target"):
    return JobSpec(index, "design", kind, 1, sec(1), system_ref,
                   callable_ref(traffic_light_monitor_suite),
                   callable_ref(traffic_light_code_watches),
                   InstrumentationPlan.full())


class TestRunnerConfig:
    def test_validation(self):
        with pytest.raises(FleetError):
            FleetRunner(max_retries=-1)
        with pytest.raises(FleetError):
            FleetRunner(retry_backoff_s=-0.1)
        with pytest.raises(FleetError):
            FleetRunner(job_timeout_s=0)

    def test_repr_names_the_retry_budget(self):
        runner = FleetRunner(workers=2, max_retries=3, job_timeout_s=5.0)
        assert "retries=3" in repr(runner)
        assert "timeout=5.0s" in repr(runner)

    def test_job_result_carries_retry_count(self):
        result = JobResult(0, "control")
        assert result.retries == 0
        assert JobResult(1, "x", retries=2).retries == 2


class TestBoundedCrashRetry:
    def test_crasher_exhausts_its_budget_with_structured_failure(self):
        specs = [spec(0, callable_ref(traffic_light_system)),
                 spec(1, "test_fleet_retry:exiting_system"),
                 spec(2, callable_ref(traffic_light_system),
                      kind="remove_transition")]
        runner = FleetRunner(workers=2, max_retries=2)
        results = runner.run(specs)
        assert [r.index for r in results] == [0, 1, 2]
        assert not results[0].failed and not results[2].failed
        crashed = results[1]
        assert crashed.failed
        assert crashed.error["type"] == "WorkerCrashed"
        assert crashed.error["retries"] == 2
        assert crashed.retries == 2

    def test_zero_retries_reports_the_first_crash(self):
        runner = FleetRunner(workers=1, max_retries=0)
        results = runner.run([spec(0, "test_fleet_retry:exiting_system")])
        assert results[0].failed
        assert results[0].error["type"] == "WorkerCrashed"
        assert results[0].retries == 0

    def test_innocent_chunk_mates_are_unaffected(self):
        # one worker, one crasher queued behind an innocent: the
        # innocent's result is already home when the crasher takes the
        # worker down — it never reruns, never burns a retry
        specs = [spec(0, callable_ref(traffic_light_system)),
                 spec(1, "test_fleet_retry:exiting_system")]
        runner = FleetRunner(workers=1, max_retries=1)
        results = runner.run(specs)
        assert not results[0].failed
        assert results[0].retries == 0
        assert results[1].failed
        assert results[1].error["type"] == "WorkerCrashed"
        assert results[1].retries == 1

    def test_backoff_sleeps_between_attempts(self):
        runner = FleetRunner(workers=1, max_retries=2, retry_backoff_s=0.2)
        start = time.monotonic()
        results = runner.run([spec(0, "test_fleet_retry:exiting_system")])
        elapsed = time.monotonic() - start
        assert results[0].failed
        assert elapsed >= 0.2 + 0.4  # 0.2 * 2**0, then 0.2 * 2**1


class TestJobTimeout:
    def test_hanging_job_is_killed_and_structured(self):
        # one short deadline; the two-attempt accounting is pinned on a
        # virtual clock in test_sched
        runner = FleetRunner(workers=1, max_retries=0, job_timeout_s=0.5)
        results = runner.run([spec(0, "test_fleet_retry:hanging_system")])
        assert results[0].failed
        assert results[0].error["type"] == "JobTimeout"
        assert "0.5s" in results[0].error["message"]
        assert results[0].retries == 0

    def test_healthy_jobs_finish_under_a_timeout(self):
        runner = FleetRunner(workers=2, job_timeout_s=120.0)
        results = runner.run([spec(0, callable_ref(traffic_light_system))])
        assert not results[0].failed
        assert results[0].retries == 0


class TestCommCorpus:
    CAMPAIGN_KW = dict(design_kinds=(), impl_kinds=(),
                       comm_kinds=("frame_loss", "frame_reorder"),
                       seeds=(1, 2), duration_us=sec(1))

    def test_enumeration_places_comm_after_implementation(self):
        specs = enumerate_campaign_jobs(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, plan=InstrumentationPlan.full(),
            design_kinds=("wrong_target",), impl_kinds=("init_corrupt",),
            comm_kinds=("frame_loss",), seeds=(1,), duration_us=sec(1))
        assert [s.job_id for s in specs] == [
            "control", "design/wrong_target/1",
            "implementation/init_corrupt/1", "comm/frame_loss/1"]

    def test_comm_campaign_runs_and_summarizes(self):
        result = run_campaign(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, **self.CAMPAIGN_KW)
        assert len(result.outcomes) == 4
        assert all(o.fault.category == "comm" for o in result.outcomes)
        assert all(o.classified_as == "" for o in result.outcomes)
        rows = result.summary_rows()
        assert [r["category"] for r in rows] == ["comm"]
        assert rows[0]["faults"] == 4

    def test_comm_campaign_is_deterministic(self):
        def fingerprint():
            result = run_campaign(
                traffic_light_system, traffic_light_monitor_suite,
                traffic_light_code_watches, **self.CAMPAIGN_KW)
            return [(o.fault.fault_id, o.model_detected, o.model_latency_us,
                     o.model_how, o.code_detected) for o in result.outcomes]

        assert fingerprint() == fingerprint()

    def test_unknown_comm_kind_is_a_structured_error(self):
        from repro.faults.comm import comm_chaos_config
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="unknown comm fault kind"):
            comm_chaos_config("cable_gremlin", 1)
