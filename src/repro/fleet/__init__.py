"""repro.fleet — elastic scheduled execution for campaigns and sharding.

Parson's observation (*Extension Language Automation of Embedded System
Debugging*) is that a debugger becomes an experimentation platform the
moment its runs can be scripted and batched. This package is that batch
layer: fault campaigns and multi-board simulations stop serializing on
one interpreter and fan out over worker processes, so scenario count
scales with cores instead of wall-clock.

Architecture — policy shells around one scheduler core::

    merge.py     results -> CampaignResult       canonical order, loud failures
    pool.py      SerialRunner / FleetRunner   }  policy shells: unit shape,
    sharding.py  ShardedDtmKernel epochs      }  backend, retry budget
    sched.py     ElasticScheduler + WorkUnit     THE event loop: per-worker
                 Inline/Process backends         queues, cost-hint placement,
                                                 work stealing, per-item
                                                 deadlines, non-blocking retry,
                                                 heartbeat draining
    worker.py    run_job / run_unit_stealable    the process entry points
    jobs.py      JobSpec / JobResult             picklable recipes, cost hints

Every runner builds :class:`~repro.fleet.sched.WorkUnit`\\ s — single
specs (serial), contiguous chunks (fleet), pinned shard epochs
(sharding) — and hands them to :class:`~repro.fleet.sched.ElasticScheduler`,
which owns per-worker
local queues, steals from the longest queue for idle workers, preempts
multi-item units when everything else is dry (workers return *partial
batches* and the remainder migrates), enforces per-item deadlines, and
folds crash/timeout retries into the same loop as dispatch and
heartbeat draining.

The load-bearing design rules:

* **Recipes cross processes, objects never do.** A ``JobSpec`` carries
  ``"module:qualname"`` references plus ``(category, kind, seed)`` fault
  coordinates; the worker rebuilds system, firmware and fault locally.
  No live ``Board``, monitor lambda or half-run simulator is ever
  pickled, so results cannot depend on which process ran the job.
* **Any schedule, one answer.** Workers execute the exact functions the
  inline serial loop uses, results key on the canonical corpus index,
  and the live plane canonicalizes on ``(job, window)`` — so any steal
  schedule, worker count, chunking or interleaving produces a
  ``CampaignResult``, campaign trace store and live-alert transcript
  byte-identical to ``SerialRunner`` at the same master seed
  (hypothesis-forced in ``tests/test_sched.py``).
* **Failures are data, and they are contained.** Workers stream one
  result per item, so a crash or deadline kill costs exactly the item
  being executed: finished chunk mates are already home, queued mates
  re-dispatch uncharged, and the victim retries on a backoff *deadline*
  (never a blocking sleep) until its budget produces a structured
  ``WorkerCrashed``/``JobTimeout`` failure. The merge refuses to
  fabricate a detection table from a corpus with holes unless
  explicitly asked (``strict=False``).

Entry points:

* campaigns — ``run_campaign(..., runner=FleetRunner(workers=4))`` in
  :mod:`repro.faults.campaign`; on a core-starved host keep the default
  ``SerialRunner`` — process scale-out cannot win there;
* multi-board sharding — :class:`repro.rtos.sharding.ShardedDtmKernel`
  runs node-subset kernels in persistent shard workers
  (:mod:`repro.fleet.shards`), their lookahead epochs dispatched as
  pinned scheduler units (process shards run each epoch concurrently);
* scoreboard — ``benchmarks/perf_fleet.py`` (BENCH_fleet.json) tracks
  campaign throughput and parity; ``benchmarks/perf_sched.py``
  (BENCH_sched.json) floors steal speedup on a skewed corpus, schedule
  parity and stranded-recovery wall time.
"""

from repro.fleet.jobs import (
    JobResult,
    JobSpec,
    callable_ref,
    enumerate_campaign_jobs,
    estimate_cost_hints,
    resolve_ref,
)
from repro.fleet.merge import merge_results
from repro.fleet.pool import (
    FleetRunner,
    SerialRunner,
    default_workers,
    derive_seed,
    seed_stream,
    serial_live_scope,
)
from repro.fleet.sched import (
    ElasticScheduler,
    InlineBackend,
    ProcessBackend,
    WorkUnit,
    unit_cost,
)
from repro.fleet.worker import run_job, run_unit_stealable

__all__ = [
    "JobSpec", "JobResult", "callable_ref", "resolve_ref",
    "enumerate_campaign_jobs", "estimate_cost_hints",
    "FleetRunner", "SerialRunner", "default_workers", "serial_live_scope",
    "ElasticScheduler", "WorkUnit", "unit_cost",
    "InlineBackend", "ProcessBackend",
    "derive_seed", "seed_stream",
    "run_job", "run_unit_stealable",
    "merge_results",
]
