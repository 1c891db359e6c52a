"""Automated post-mortem reports for failed campaign jobs.

A fleet campaign run with ``strict=False`` hands back the jobs that
died on :attr:`CampaignResult.failures` — each a structured
``{"type", "message", "traceback"}`` plus the sealed per-job trace
store the worker spilled before dying (``JobResult.trace_path``; the
worker seals the store in a ``finally``, so the trace survives the
crash it describes). This module turns those raw materials into the
report a debugging engineer wants *first*:

* what died and how (error type/message, retry count, worker pid);
* the **fault pc** for target faults, recovered from the structured
  ``TargetFault`` message (``target fault at pc=N: reason``);
* **backtrace-style context**: the last N model-level events from the
  sealed store, most recent first — what the model was doing when the
  target died, in model terms (paths and states), not interpreter
  frames;
* transport/chaos counters at time of death, when a metrics snapshot
  is available (registry series from :mod:`repro.obs.metrics`).

Reports are deterministic plain text (no wall-clock, no absolute
paths beyond what the caller passed in) so they can be committed as
artifacts and diffed across runs.
"""

from __future__ import annotations

import os
import re
from typing import Any, Iterable, List, Optional

from repro.obs.metrics import MetricsSnapshot

_FAULT_PC = re.compile(r"pc=(-?\d+)")
_RULE = "-" * 72

#: counter-name prefixes worth quoting in a death report, in order
_DEATH_STATS = ("link.", "chaos.", "transport.", "fleet.", "tracedb.")


def fault_pc_of(error: Optional[dict]) -> Optional[int]:
    """The faulting program counter, when the failure was a target fault.

    Recovered from the canonical :class:`~repro.errors.TargetFault`
    message (``target fault at pc=N: reason``); None for non-target
    failures or an unpinned fault (pc=-1).
    """
    if not error or error.get("type") != "TargetFault":
        return None
    match = _FAULT_PC.search(error.get("message", ""))
    if match is None:
        return None
    pc = int(match.group(1))
    return pc if pc >= 0 else None


def _event_line(rec: dict) -> str:
    return (f"  seq={rec.get('seq', rec.get('job_seq')):>6} "
            f"t={rec.get('t_target', 0):>9}us  {rec.get('kind', 'EVENT'):<12} "
            f"{rec.get('path', '')}={rec.get('value')} "
            f"[{rec.get('engine_state', '?')}]")


def _store_tail(trace_path: str, tail: int) -> List[str]:
    if not trace_path:
        return ["  (job collected no trace)"]
    if not os.path.exists(os.path.join(trace_path, "index.json")):
        return [f"  (no store found under {os.path.basename(trace_path)!r})"]
    from repro.tracedb.store import TraceStore
    store = TraceStore.open(trace_path)
    total = store.event_count
    if total == 0:
        return ["  (store sealed empty: the job died before its first "
                "model event)"]
    lo = max(0, total - tail)
    recent = list(store.events((lo, total - 1)))
    lines = [_event_line(rec) for rec in reversed(recent)]
    if lo:
        lines.append(f"  ... {lo} earlier event(s) in the store")
    return lines


def _metrics_section(metrics: Optional[MetricsSnapshot]) -> List[str]:
    if metrics is None:
        return ["  (telemetry was disabled for this run)"]
    lines: List[str] = []
    for name in sorted(metrics.counters):
        if not name.startswith(_DEATH_STATS):
            continue
        for labels, value in sorted(metrics.counters[name].items()):
            if value == 0:
                continue
            tag = ",".join(f"{k}={v}" for k, v in labels)
            lines.append(f"  {name}{{{tag}}} = {value}" if tag
                         else f"  {name} = {value}")
    return lines or ["  (no transport/chaos counters fired)"]


def job_postmortem(result, metrics: Optional[MetricsSnapshot] = None,
                   tail: int = 20) -> str:
    """Render one failed :class:`~repro.fleet.jobs.JobResult` as text.

    Accepts non-failed results too (reported as such) so callers can
    map it over a whole result list without filtering first.
    """
    lines = [_RULE,
             f"POST-MORTEM  job #{result.index}  {result.job_id}",
             _RULE]
    if not getattr(result, "failed", False):
        lines.append("job completed normally; nothing to report")
        return "\n".join(lines) + "\n"
    error: dict = result.error
    lines.append(f"failure    : {error.get('type')}: {error.get('message')}")
    lines.append(f"retries    : {result.retries} isolated retry attempt(s) "
                 f"burned before this terminal failure")
    pc = fault_pc_of(error)
    if pc is not None:
        lines.append(f"fault pc   : {pc}")
    lines.append("")
    lines.append(f"last model events (most recent first, tail {tail}):")
    lines.extend(_store_tail(result.trace_path, tail))
    lines.append("")
    lines.append("transport/chaos counters at time of death:")
    lines.extend(_metrics_section(metrics))
    traceback_text = (error.get("traceback") or "").rstrip()
    if traceback_text:
        lines.append("")
        lines.append("worker traceback:")
        lines.extend("  " + ln for ln in traceback_text.splitlines())
    return "\n".join(lines) + "\n"


def campaign_postmortem(failures: Iterable[Any],
                        total_jobs: Optional[int] = None,
                        metrics: Optional[MetricsSnapshot] = None,
                        tail: int = 20) -> str:
    """One report over every failed job of a campaign.

    *failures* is ``CampaignResult.failures`` (or any JobResult
    iterable); pass the corpus size as *total_jobs* for the headline.
    Deterministic: failures are reported in canonical job-index order
    regardless of completion order.
    """
    failures = sorted(failures, key=lambda r: r.index)
    headline = (f"CAMPAIGN POST-MORTEM: {len(failures)} failed job(s)"
                + (f" of {total_jobs}" if total_jobs is not None else ""))
    if not failures:
        return headline + "\n\nall jobs completed; nothing to report\n"
    sections = [headline, ""]
    sections.extend(job_postmortem(result, metrics=metrics, tail=tail)
                    for result in failures)
    return "\n".join(sections)
