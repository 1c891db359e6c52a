"""The job entry point: run one experiment, return one result.

:func:`run_job` is the whole contract between a runner and a job — a
pure function from :class:`~repro.fleet.jobs.JobSpec` to
:class:`~repro.fleet.jobs.JobResult`. Every campaign job, in process or
in a worker, runs through it: it rebuilds the experiment from the spec's
declarative refs and executes
:func:`~repro.faults.campaign.run_fault_experiment` (the control job
included), which is how parallel results stay equal to serial ones by
construction rather than by testing luck.

Worker-side exceptions never escape as pickled tracebacks-of-doom: they
come back as structured failures (``JobResult.error``) carrying the
exception type, message and formatted traceback, so a campaign can report
*which* fault recipe blew up and keep going.

Workers memoize the pristine firmware per ``(system_ref, plan)``: the
control, implementation-fault and comm-fault jobs all start from the same
deterministic codegen output, so regenerating it per job is pure waste.
The cache is per-process and read-only shared state (firmware images are
never mutated after generation; implementation-fault injectors copy the
image and replace instructions, never edit one in place — see
:mod:`repro.faults.implementation`).
"""

from __future__ import annotations

import os
import traceback
from typing import Dict, Tuple

from repro.codegen.pipeline import generate_firmware
from repro.faults.campaign import run_fault_experiment
from repro.fleet.jobs import JobResult, JobSpec, resolve_ref
from repro.obs.runtime import OBS
from repro.target.firmware import FirmwareImage

#: per-process pristine-firmware memo: (system_ref, plan key) -> image
_base_firmware_cache: Dict[Tuple[str, tuple], FirmwareImage] = {}


def _plan_key(plan) -> tuple:
    return (plan.state_enter, plan.signal_update, plan.transitions,
            plan.task_markers)


def _base_firmware(spec: JobSpec) -> FirmwareImage:
    key = (spec.system_ref, _plan_key(spec.plan))
    firmware = _base_firmware_cache.get(key)
    if firmware is None:
        system = resolve_ref(spec.system_ref)()
        firmware = generate_firmware(system, spec.plan)
        _base_firmware_cache[key] = firmware
    return firmware


def _sealed_trace_path(spec: JobSpec) -> str:
    """The job's per-job store root — only if a sealed store exists.

    Failure results still point at whatever trace the job recorded
    before dying (the post-mortem artifact); an empty string means the
    job failed before its store was created.
    """
    if not spec.trace_dir:
        return ""
    from repro.tracedb.collect import job_store_root
    root = job_store_root(spec.trace_dir, spec.index)
    if os.path.exists(os.path.join(root, "index.json")):
        return root
    return ""


def run_job(spec: JobSpec) -> JobResult:
    """Execute one experiment; exceptions become structured failures."""
    registry = OBS.metrics
    mark = registry.binding_mark() if registry is not None else 0
    try:
        result = _execute(spec)
    except Exception as exc:  # noqa: BLE001 - the whole point is capture
        result = JobResult(
            spec.index, spec.job_id,
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
            trace_path=_sealed_trace_path(spec),
        )
    if OBS.metrics is not None:
        # in-process telemetry (SerialRunner, or a worker
        # that enabled its own OBS state): one job-status series per
        # fault category
        OBS.metrics.counter("fleet.job", category=spec.category,
                            status=result.status).inc()
    if registry is not None:
        # the job's kernels, links and channels are finished: fold
        # their books into fixed series and stop pinning them
        registry.release_bindings(mark)
    return result


def _job_trace_store(spec: JobSpec):
    """The per-job spill store when this job collects traces, else None."""
    if not spec.trace_dir:
        return None
    from repro.tracedb.collect import open_job_store
    return open_job_store(spec.trace_dir, spec.index)


def _execute(spec: JobSpec) -> JobResult:
    system_factory = resolve_ref(spec.system_ref)
    monitor_factory = resolve_ref(spec.monitor_ref)
    watch_specs = resolve_ref(spec.watch_ref)()
    trace_store = _job_trace_store(spec)
    trace_path = trace_store.root if trace_store is not None else ""

    try:
        base_firmware = (_base_firmware(spec) if spec.category != "design"
                         else None)
        outcome = run_fault_experiment(
            system_factory, monitor_factory, watch_specs,
            spec.category, spec.kind, spec.seed, spec.duration_us, spec.plan,
            base_firmware=base_firmware, trace_store=trace_store)
        return JobResult(spec.index, spec.job_id, outcome,
                         trace_path=trace_path)
    finally:
        # Seal the store whatever happened: a parent only ever opens
        # complete, index-finalized per-job stores.
        if trace_store is not None:
            trace_store.close()

