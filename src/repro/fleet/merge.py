"""Merge worker results back into a CampaignResult, canonically ordered.

The merge is where "parallel equals serial" is enforced: results arrive
keyed by their spec's canonical index (enumeration order), declined jobs
vanish, and the control job's outcome becomes the false-positive count.
Execution order and worker count leave no fingerprint on the output.

Failures are loud by default: a campaign with worker-side failures raises
:class:`~repro.errors.FleetError` listing every broken job (type, message
and the worker traceback of the first few), because a detection-rate
table silently missing experiments would be a lie. Pass ``strict=False``
to drop failed *fault* jobs instead (exploratory sweeps over known-flaky
corpora), in which case the failures are still returned on the result as
``CampaignResult.failures``. A failed or missing **control** job is
fatal in either mode — ``false_positives`` without a control run is not
a number, it is fiction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import FleetError
from repro.faults.campaign import CampaignResult, FaultOutcome
from repro.fleet.jobs import JobResult, JobSpec


def _format_failure(result: JobResult) -> str:
    return f"{result.job_id}: {result.error['type']}: {result.error['message']}"


def merge_results(specs: Sequence[JobSpec], results: Sequence[JobResult],
                  strict: bool = True,
                  trace_dir: Optional[str] = None) -> CampaignResult:
    """Fold job results into a :class:`CampaignResult` in canonical order.

    With ``trace_dir`` (a campaign that collected traces), the per-job
    stores named by each result's ``trace_path`` are additionally merged
    into one canonically-ordered campaign
    :class:`~repro.tracedb.store.TraceStore` under
    ``trace_dir/campaign``, returned as ``CampaignResult.trace_store``.
    """
    if len(specs) != len(results):
        raise FleetError(f"result count {len(results)} does not match "
                         f"spec count {len(specs)}")
    by_index = {}
    for result in results:
        if result.index in by_index:
            raise FleetError(f"duplicate result for job index {result.index}")
        by_index[result.index] = result

    failures: List[JobResult] = []
    false_positives = 0
    outcomes: List[FaultOutcome] = []
    saw_control = False

    for spec in sorted(specs, key=lambda s: s.index):
        try:
            result = by_index[spec.index]
        except KeyError:
            raise FleetError(f"no result for job {spec.job_id!r} "
                             f"(index {spec.index})") from None
        if result.failed:
            if spec.category == "control":
                raise FleetError(
                    f"the control job failed — false positives cannot be "
                    f"scored: {_format_failure(result)}\n"
                    f"{result.error['traceback']}")
            failures.append(result)
            continue
        if spec.category == "control":
            saw_control = True
            control = result.outcome
            false_positives = (int(control.model_detected)
                               + int(control.code_detected))
        elif not result.declined:
            outcomes.append(result.outcome)

    if failures and strict:
        head = failures[:3]
        detail = "\n".join(f"  - {_format_failure(f)}" for f in head)
        tracebacks = "\n".join(f.error["traceback"] for f in head
                               if f.error["traceback"])
        raise FleetError(
            f"{len(failures)} of {len(specs)} fleet job(s) failed:\n"
            f"{detail}\n{tracebacks}"
        )
    if not saw_control:
        raise FleetError("corpus has no control job; cannot score "
                         "false positives")

    merged = CampaignResult(outcomes, false_positives)
    merged.failures = failures
    if trace_dir is not None:
        from repro.tracedb.collect import collect_campaign_store
        merged.trace_store = collect_campaign_store(results, trace_dir)
    return merged
