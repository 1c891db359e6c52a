"""Automated post-mortems for failed campaign jobs.

Contract (``repro/obs/postmortem.py``): a failed
:class:`~repro.fleet.jobs.JobResult` renders to a self-contained text
artifact — failure type/message, extracted fault pc (for
``TargetFault`` deaths), the tail of the job's sealed per-job trace
store (most recent first), transport/chaos counters at time of death,
and the worker traceback. Everything comes from data the fleet already
ships; no new wire formats.
"""

import pytest

from repro.comdes.examples import traffic_light_system
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import run_campaign
from repro.fleet.jobs import (
    callable_ref,
    enumerate_campaign_jobs,
    JobResult,
    JobSpec,
)
from repro.fleet.merge import merge_results
from repro.fleet.pool import SerialRunner
from repro.codegen.instrument import InstrumentationPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.postmortem import (
    campaign_postmortem,
    fault_pc_of,
    job_postmortem,
)
from repro.tracedb.collect import job_store_root
from repro.util.timeunits import sec


def raising_system():
    """Importable module-level factory that dies inside the worker."""
    raise RuntimeError("synthetic postmortem explosion")


class TestFaultPc:
    def test_extracts_pc_from_target_fault(self):
        error = {"type": "TargetFault",
                 "message": "target fault at pc=42: stack underflow"}
        assert fault_pc_of(error) == 42

    def test_other_types_and_missing_pc(self):
        assert fault_pc_of(None) is None
        assert fault_pc_of({"type": "RuntimeError",
                            "message": "pc=42 red herring"}) is None
        assert fault_pc_of({"type": "TargetFault",
                            "message": "no pc here"}) is None
        assert fault_pc_of({"type": "TargetFault",
                            "message": "target fault at pc=-1: boot"}) is None


@pytest.fixture(scope="module")
def traced_campaign(tmp_path_factory):
    trace_dir = str(tmp_path_factory.mktemp("obs_pm") / "t")
    run_campaign(traffic_light_system, traffic_light_monitor_suite,
                 traffic_light_code_watches, runner=SerialRunner(),
                 trace_dir=trace_dir, design_kinds=("wrong_target",),
                 impl_kinds=(), seeds=(1,), duration_us=sec(1))
    return trace_dir


def fake_target_fault(trace_dir, index=1):
    return JobResult(
        index, "design/wrong_target/1",
        error={"type": "TargetFault",
               "message": "target fault at pc=42: stack underflow",
               "traceback": ("Traceback (most recent call last):\n"
                             "  ...\n"
                             "TargetFault: target fault at pc=42\n")},
        trace_path=job_store_root(trace_dir, index))


class TestJobPostmortem:
    def test_sections_present(self, traced_campaign):
        reg = MetricsRegistry()
        reg.counter("transport.transactions").inc(9)
        reg.counter("chaos.fault", plane="mem", fault="transient").inc(2)
        reg.counter("unrelated.series").inc(5)
        text = job_postmortem(fake_target_fault(traced_campaign),
                              metrics=reg.snapshot(), tail=5)
        assert "POST-MORTEM  job #1  design/wrong_target/1" in text
        assert "TargetFault: target fault at pc=42" in text
        assert "fault pc   : 42" in text
        assert "last model events" in text
        assert "seq=" in text  # real events streamed from the store
        assert "transport.transactions = 9" in text
        assert "chaos.fault{fault=transient,plane=mem} = 2" in text
        assert "unrelated.series" not in text
        assert "worker traceback:" in text

    def test_tail_is_most_recent_first_and_bounded(self, traced_campaign):
        text = job_postmortem(fake_target_fault(traced_campaign), tail=3)
        seqs = [int(line.split("seq=")[1].split()[0])
                for line in text.splitlines() if "seq=" in line]
        assert len(seqs) == 3
        assert seqs == sorted(seqs, reverse=True)
        assert "earlier event(s) in the store" in text

    def test_job_without_store(self):
        result = JobResult(0, "control",
                           error={"type": "RuntimeError", "message": "boom",
                                  "traceback": ""})
        text = job_postmortem(result)
        assert "RuntimeError: boom" in text
        assert "job collected no trace" in text

    def test_non_failure_renders_gracefully(self):
        text = job_postmortem(JobResult(0, "control"))
        assert "completed normally" in text


class TestCampaignPostmortem:
    def test_real_failures_via_lenient_merge(self):
        specs = list(enumerate_campaign_jobs(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, design_kinds=(), impl_kinds=(),
            seeds=(), duration_us=sec(1), plan=InstrumentationPlan.full()))
        specs.append(JobSpec(
            len(specs), "design", "wrong_target", 1, sec(1),
            "test_obs_postmortem:raising_system",
            callable_ref(traffic_light_monitor_suite),
            callable_ref(traffic_light_code_watches),
            InstrumentationPlan.full()))
        results = SerialRunner().run(specs)
        merged = merge_results(specs, results, strict=False)
        assert len(merged.failures) == 1
        text = campaign_postmortem(merged.failures,
                                   total_jobs=len(specs))
        assert "CAMPAIGN POST-MORTEM: 1 failed job(s) of 2" in text
        assert "RuntimeError: synthetic postmortem explosion" in text
        assert "raising_system" in text  # worker traceback included

    def test_no_failures(self):
        assert "all jobs completed" in campaign_postmortem([])

    def test_ordered_by_index(self, traced_campaign):
        a = fake_target_fault(traced_campaign, index=1)
        b = JobResult(0, "control",
                      error={"type": "RuntimeError", "message": "x",
                             "traceback": ""})
        text = campaign_postmortem([a, b])
        assert text.index("job #0") < text.index("job #1")
