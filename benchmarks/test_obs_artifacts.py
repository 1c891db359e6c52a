"""Committed observability exemplars: a Perfetto trace + a post-mortem.

Regenerates (and structurally asserts) the two artifacts the ISSUE asks
to ship:

* ``artifacts/obs_campaign.perfetto.json`` — the Chrome trace-event
  export of a small deterministic campaign, loadable as-is in
  https://ui.perfetto.dev or ``chrome://tracing``;
* ``artifacts/obs_postmortem.txt`` — an example automated post-mortem
  for a failed campaign job (fault pc, store tail, transport counters
  at time of death).

Everything here is modeled-time and fixed-seed, so re-running the suite
rewrites both files byte-identically — a dirty git tree after a test
run would itself be a determinism regression. The sha256 of each file
is pinned below, so a change to either is a deliberate edit of the pin.
"""

import hashlib
import json

from repro.comdes.examples import traffic_light_system
from repro.experiments.harness import save_artifact
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import run_campaign
from repro.fleet.jobs import JobResult
from repro.fleet.pool import SerialRunner
from repro.obs.export import export_campaign
from repro.obs.postmortem import campaign_postmortem
from repro.obs.runtime import disable, enable
from repro.tracedb.collect import campaign_store_root, job_store_root
from repro.util.timeunits import sec

#: sha256 of the committed ``artifacts/obs_campaign.perfetto.json``
PERFETTO_SHA256 = (
    "8098db606a801e9c9ee0dbce463339ac81b5a4323fc0c5d9d0120eb8a9a5e2e8")
#: sha256 of the committed ``artifacts/obs_postmortem.txt``
POSTMORTEM_SHA256 = (
    "90c6f98951180533c4eebe49cf270d5d035ddc846d9e4c6846cfccedc27f7088")


def file_sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def test_obs_artifacts(tmp_path):
    trace_dir = str(tmp_path / "campaign")
    reg = enable()
    try:
        run_campaign(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, runner=SerialRunner(),
            trace_dir=trace_dir, design_kinds=("wrong_target",),
            impl_kinds=("inverted_branch",), seeds=(1,),
            duration_us=sec(1))
        snapshot = reg.snapshot()
    finally:
        disable()

    # -- Perfetto / Chrome trace-event export ---------------------------
    data = export_campaign(campaign_store_root(trace_dir), metrics=snapshot)
    doc = json.loads(data)
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert slices and all(e["ts"] >= 0 and e["dur"] >= 0 for e in slices)
    assert doc["otherData"]["metrics"]["counters"]  # registry rode along
    path = save_artifact("obs_campaign.perfetto.json",
                         data.decode("ascii"))

    # -- example post-mortem over the sealed per-job store --------------
    # A representative terminal failure: the fault-injection job died of
    # a target fault after recording 1s of model events. The error dict
    # is the exact JobResult.error shape a worker ships.
    failed = JobResult(
        1, "design/wrong_target/1",
        error={"type": "TargetFault",
               "message": "target fault at pc=42: stack underflow",
               "traceback": ("Traceback (most recent call last):\n"
                             "  File \"repro/target/cpu.py\", in _run_debug\n"
                             "TargetFault: target fault at pc=42: "
                             "stack underflow\n")},
        trace_path=job_store_root(trace_dir, 1))
    text = campaign_postmortem([failed], total_jobs=3, metrics=snapshot)
    assert "fault pc   : 42" in text
    assert "last model events" in text
    assert "transport/chaos counters at time of death:" in text
    postmortem = save_artifact("obs_postmortem.txt", text)
    assert path.endswith("obs_campaign.perfetto.json")
    assert file_sha256(path) == PERFETTO_SHA256
    assert file_sha256(postmortem) == POSTMORTEM_SHA256
