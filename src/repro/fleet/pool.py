"""Campaign runners: thin policy shells over the FIFO scheduler core.

Runner contract — ``run(specs) -> results`` where ``results[i]`` answers
``specs[i]`` (canonical order restored no matter which worker finished
first). Every runner implements it identically, so every call site takes
a ``runner`` and stays oblivious to whether experiments fan out or not.

No dispatch/retry/timeout/collection loop lives here:
:class:`SerialRunner` and :class:`FleetRunner` only choose a *policy* —
backend, worker count, retry budget — and hand the specs to
:class:`~repro.fleet.sched.ElasticScheduler`, the one event loop under
both runners (see :mod:`repro.fleet.sched`).

* **SerialRunner** — one in-process slot
  (:class:`~repro.fleet.sched.InlineBackend`), canonical dispatch order.
  It *is* the parity baseline every other schedule is measured against.
* **FleetRunner** — persistent worker processes
  (:class:`~repro.fleet.sched.ProcessBackend`), each taking the next
  spec off one FIFO queue as it goes idle: per-job deadlines
  (``job_timeout_s`` is per in-flight job, not a whole-pass bound),
  and bounded non-blocking retry with exponential backoff. A worker
  holds one job at a time, so a crasher costs exactly its own job.

**crash containment** — a worker that dies outright (segfault,
``os._exit``) is respawned; the job it was executing burns one retry
attempt and is resubmitted after a backoff *deadline* (the event loop
keeps scheduling — no blocking sleeps), and a job that exhausts
``max_retries`` comes back as a structured ``WorkerCrashed`` failure
with the burned count on the :class:`~repro.fleet.jobs.JobResult`.

**hang containment** — with ``job_timeout_s``, the in-flight job of
every worker has its own deadline; a wedged job gets its worker killed
and is reported as a structured ``JobTimeout`` failure after the retry
budget, while the rest of the queue continues on the other workers.

Per-job seeds come from :func:`repro.util.seeds.seed_stream`, a stable
63-bit stream derived from ``(master_seed, *parts)`` via SHA-256 —
independent of process, hash randomization and Python version, so a
campaign described by one master seed enumerates the same per-job seeds
everywhere.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import FleetError
from repro.fleet.jobs import JobResult, JobSpec
from repro.fleet.sched import ElasticScheduler, InlineBackend, ProcessBackend
from repro.fleet.worker import run_job
from repro.obs.runtime import OBS

__all__ = ["FleetRunner", "SerialRunner", "default_workers"]


def default_workers() -> int:
    """Worker-count policy: fill the small-machine cores, cap at 4."""
    import os
    return max(1, min(4, os.cpu_count() or 1))


def _crash_result(spec: JobSpec, retries: int = 0) -> JobResult:
    return JobResult(
        spec.index, spec.job_id,
        error={
            "type": "WorkerCrashed",
            "message": ("worker process died while running this job "
                        "(hard exit or signal; no Python traceback)"),
            "traceback": "",
            "retries": retries,
        },
        retries=retries,
    )


def _timeout_result(spec: JobSpec, retries: int, timeout_s: float) -> JobResult:
    return JobResult(
        spec.index, spec.job_id,
        error={
            "type": "JobTimeout",
            "message": (f"job exceeded its {timeout_s}s per-job timeout "
                        f"and its worker was killed"),
            "traceback": "",
            "retries": retries,
        },
        retries=retries,
    )


class SerialRunner:
    """The in-process fallback: identical interface, zero processes.

    A policy shell over :class:`~repro.fleet.sched.ElasticScheduler`:
    one inline slot running the queue in canonical order — i.e. the
    canonical serial schedule every fleet schedule must be
    byte-identical to. Jobs run through the same
    :func:`~repro.fleet.worker.run_job` the pool workers use.
    """

    workers = 1

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        specs = list(specs)
        if not specs:
            return []
        by_index = ElasticScheduler(InlineBackend(run_job)).run(specs)
        return [by_index[spec.index] for spec in specs]

    def __repr__(self) -> str:
        return "<SerialRunner>"


class FleetRunner:
    """FIFO campaign dispatch over persistent worker processes."""

    def __init__(self, workers: Optional[int] = None,
                 max_retries: int = 1,
                 retry_backoff_s: float = 0.0,
                 job_timeout_s: Optional[float] = None) -> None:
        if workers is not None and workers < 1:
            raise FleetError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise FleetError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise FleetError(f"retry_backoff_s must be >= 0, "
                             f"got {retry_backoff_s}")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise FleetError(f"job_timeout_s must be positive, "
                             f"got {job_timeout_s}")
        self.workers = workers if workers is not None else default_workers()
        #: resubmission attempts for a job whose worker died or was
        #: deadline-killed (0 = report the first death as terminal)
        self.max_retries = max_retries
        #: retry attempt N is gated on a deadline backoff * 2**(N-1)
        #: seconds after the death — the event loop never sleeps through
        #: it, so N stranded jobs recover in max-of-backoffs wall time
        self.retry_backoff_s = retry_backoff_s
        #: per-job deadline: the in-flight job of each worker is killed
        #: this many wall-clock seconds after dispatch
        self.job_timeout_s = job_timeout_s

    def _terminal_result(self, spec: JobSpec, kind: str,
                         retries: int) -> JobResult:
        if kind == "timeout":
            return _timeout_result(spec, retries, self.job_timeout_s)
        return _crash_result(spec, retries)

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Run the corpus; results come back in canonical spec order."""
        specs = list(specs)
        if not specs:
            return []
        backend = ProcessBackend(slot_count=min(self.workers, len(specs)))
        scheduler = ElasticScheduler(
            backend,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s,
            job_timeout_s=self.job_timeout_s,
            terminal_result=self._terminal_result,
        )
        try:
            by_index = scheduler.run(specs)
        finally:
            backend.close()

        missing = [spec.job_id for spec in specs if spec.index not in by_index]
        if missing:
            raise FleetError(f"runner lost {len(missing)} job result(s): "
                             f"{missing[:5]}")
        results = [by_index[spec.index] for spec in specs]
        if OBS.metrics is not None:
            # parent-side job lifecycle books (worker processes have
            # their own OBS state; counts, not wall-clock spans, are
            # what is deterministic here)
            metrics = OBS.metrics
            metrics.counter("fleet.jobs_dispatched").inc(len(specs))
            metrics.counter("fleet.jobs_stranded").inc(
                len(scheduler.stranded_items))
            for result in results:
                if result.failed:
                    metrics.counter("fleet.jobs_failed",
                                    error=result.error["type"]).inc()
                else:
                    metrics.counter("fleet.jobs_completed").inc()
                if result.retries:
                    metrics.counter("fleet.job_retries").inc(result.retries)
        return results

    def __repr__(self) -> str:
        timeout = (f" timeout={self.job_timeout_s}s"
                   if self.job_timeout_s is not None else "")
        return (f"<FleetRunner workers={self.workers} "
                f"retries={self.max_retries}{timeout}>")
