"""FIFO scheduler scoreboard: queue speedup, parity, stranded recovery.

Three numbers, one per scheduler property the fleet claims:

* **queue_speedup_skew** — makespan of a *skewed* synthetic corpus
  (a few heavy jobs clustered at the head, a tail of light ones) under
  static contiguous thirds vs the FIFO job queue. Jobs are
  ``time.sleep`` units executed by real worker processes, so the
  makespan is decided by *scheduling*, not by host core count — the
  ratio is machine-independent and CI floors it. The static arm runs
  three jobs, one per contiguous third of ``[10,10,10,10] + [1]*12``,
  each sleeping its third's summed units, so one worker serializes 42
  units. The queue arm runs the 16 jobs in canonical order, each idle
  worker taking the head job, and lands on the 20-unit critical path.
* **sched_parity_identical** — a real mini-campaign through
  ``FleetRunner`` (2 workers) vs ``SerialRunner``:
  summary rows and per-fault outcomes must be byte-identical. The
  any-schedule-one-answer invariant, floored at 1.
* **stranded_recovery_s** — wall-clock for two crash-on-arrival jobs
  with a 1.0s retry backoff and one retry each. The event loop gates
  retries on deadlines, so both recover concurrently (~ max of
  backoffs); the old serial stranded pass slept the *sum* (>= 2s).
  Recorded, not floored: it is a small absolute wall-time.

Writes ``BENCH_sched.json`` (or ``BENCH_sched_quick.json`` with
``--quick``) next to this file.

Usage::

    python benchmarks/perf_sched.py           # full sleep units, best-of reps
    python benchmarks/perf_sched.py --quick   # CI smoke
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.fleet.pool import FleetRunner, SerialRunner
from repro.fleet.sched import ElasticScheduler, ProcessBackend

WORKERS = 3
HEAVY, LIGHT = 10, 1
COSTS = [HEAVY] * 4 + [LIGHT] * 12


class SleepJob:
    """A schedulable sleep: ``units`` units of ``unit_s`` each."""

    __slots__ = ("index", "units", "unit_s")

    def __init__(self, index: int, units: int, unit_s: float) -> None:
        self.index = index
        self.units = units
        self.unit_s = unit_s


def sleepy_execute(job: SleepJob) -> int:
    """The worker entry for synthetic jobs (``entry_ref`` target)."""
    time.sleep(job.units * job.unit_s)
    return job.index


def exiting_system():
    """System factory that kills its worker (stranded-recovery probe)."""
    os._exit(3)


def static_thirds(jobs):
    """The static baseline: one job per worker, sleeping the summed
    units of that worker's even contiguous slice of *jobs*."""
    per, extra = divmod(len(jobs), WORKERS)
    thirds, at = [], 0
    for worker in range(WORKERS):
        size = per + (1 if worker < extra else 0)
        units = sum(job.units for job in jobs[at:at + size])
        thirds.append(SleepJob(worker, units, jobs[0].unit_s))
        at += size
    return thirds


def run_arm(jobs) -> float:
    """Seconds for the FIFO scheduler to run *jobs* on WORKERS processes."""
    backend = ProcessBackend(slot_count=WORKERS,
                             entry_ref="perf_sched:sleepy_execute")
    start = time.perf_counter()
    try:
        results = ElasticScheduler(backend).run(jobs)
    finally:
        backend.close()
    elapsed = time.perf_counter() - start
    assert results == {job.index: job.index for job in jobs}, \
        "scheduler lost or misrouted synthetic results"
    return elapsed


def outcome_fingerprint(result) -> str:
    rows = json.dumps(result.summary_rows(), sort_keys=True)
    outcomes = [
        (o.fault.fault_id, o.model_detected, o.model_latency_us, o.model_how,
         o.code_detected, o.code_latency_us, o.code_how, o.classified_as)
        for o in result.outcomes
    ]
    return rows + "|" + repr(outcomes) + f"|fp={result.false_positives}"


def measure_parity() -> int:
    from repro.faults.campaign import run_campaign
    from repro.comdes.examples import traffic_light_system
    from repro.experiments.requirements import (
        traffic_light_code_watches, traffic_light_monitor_suite)
    kw = dict(design_kinds=("wrong_target",), impl_kinds=("inverted_branch",),
              seeds=(1, 2), duration_us=1_000_000)
    serial = run_campaign(traffic_light_system, traffic_light_monitor_suite,
                          traffic_light_code_watches, runner=SerialRunner(),
                          **kw)
    fleet = run_campaign(traffic_light_system, traffic_light_monitor_suite,
                         traffic_light_code_watches,
                         runner=FleetRunner(workers=2), **kw)
    return int(outcome_fingerprint(serial) == outcome_fingerprint(fleet))


def measure_stranded_recovery(backoff_s: float) -> float:
    from repro.codegen.instrument import InstrumentationPlan
    from repro.experiments.requirements import (
        traffic_light_code_watches, traffic_light_monitor_suite)
    from repro.fleet.jobs import JobSpec, callable_ref
    specs = [
        JobSpec(i, "design", kind, 1, 1_000_000,
                "perf_sched:exiting_system",
                callable_ref(traffic_light_monitor_suite),
                callable_ref(traffic_light_code_watches),
                InstrumentationPlan.full())
        for i, kind in enumerate(("wrong_target", "remove_transition"))
    ]
    runner = FleetRunner(workers=2, max_retries=1, retry_backoff_s=backoff_s)
    start = time.perf_counter()
    results = runner.run(specs)
    elapsed = time.perf_counter() - start
    assert all(r.failed and r.error["type"] == "WorkerCrashed"
               for r in results), "stranded probe produced a verdict?"
    return elapsed


def main() -> None:
    quick = "--quick" in sys.argv
    unit_s = 0.01 if quick else 0.025
    reps = 1 if quick else 3
    backoff_s = 0.5 if quick else 1.0
    jobs = [SleepJob(i, cost, unit_s) for i, cost in enumerate(COSTS)]
    thirds = static_thirds(jobs)

    static_best = queue_best = None
    for _ in range(reps):
        static_s = run_arm(thirds)
        queue_s = run_arm(jobs)
        if static_best is None or static_s < static_best:
            static_best = static_s
        if queue_best is None or queue_s < queue_best:
            queue_best = queue_s

    parity = measure_parity()
    stranded_s = measure_stranded_recovery(backoff_s)

    results = {
        "workers": WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "corpus_jobs": len(COSTS),
        "cost_profile": f"{COSTS.count(HEAVY)}x{HEAVY} + "
                        f"{COSTS.count(LIGHT)}x{LIGHT}",
        "sleep_unit_ms": unit_s * 1000,
        "static_units": max(job.units for job in thirds),
        "static_s": round(static_best, 3),
        "queue_s": round(queue_best, 3),
        "queue_speedup_skew": round(static_best / queue_best, 2),
        "sched_parity_identical": parity,
        "stranded_backoff_s": backoff_s,
        "stranded_jobs": 2,
        "stranded_recovery_s": round(stranded_s, 3),
        "quick": quick,
    }

    name = "BENCH_sched_quick.json" if quick else "BENCH_sched.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"skew corpus ({results['cost_profile']} sleep units, "
          f"{WORKERS} workers): static {results['static_s']}s, "
          f"FIFO queue {results['queue_s']}s "
          f"({results['queue_speedup_skew']}x); "
          f"parity={'OK' if parity else 'BROKEN'}; "
          f"stranded recovery {results['stranded_recovery_s']}s "
          f"(2 jobs @ {backoff_s}s backoff)")
    print(f"-> {out}")
    if not parity:
        sys.exit(1)


if __name__ == "__main__":
    main()
