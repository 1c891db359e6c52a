"""Campaign throughput through the fleet subsystem: serial vs process pool.

The scoreboard for campaign scale-out. Over the full traffic-light fault
corpus (every design and implementation kind x seeds, control included)
it measures:

* **serial_jobs_per_sec** — the :class:`SerialRunner` baseline (the
  identical-interface in-process fallback every campaign can use);
* **fleet_jobs_per_sec** — :class:`FleetRunner` at 4 workers, one FIFO
  job queue over worker processes;
* **speedup_4w** — fleet over serial wall-clock. Campaign jobs are pure
  CPU, so this scales with available cores: ~1.0 on a single-core
  container, >= 2.5 expected on a 4-core host. ``cpu_count`` is recorded
  next to it so the number can be read honestly;
* **parity_identical** — 1 iff the parallel campaign's ``summary_rows()``
  and per-fault outcomes are byte-identical to the serial runner's. This
  is the hard invariant (CI floors it at 1): parallelism must never
  change results.

The payload records the scheduling configuration that produced the
number — ``runner`` (class name) and ``max_retries`` — so
``speedup_4w`` trajectories across PRs compare like with like instead
of silently mixing retry regimes.

Writes ``BENCH_fleet.json`` next to this file so the fleet's perf
trajectory is tracked across PRs.

Usage::

    python benchmarks/perf_fleet.py           # full corpus, best-of reps
    python benchmarks/perf_fleet.py --quick   # CI smoke
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.faults.campaign import run_campaign
from repro.faults.design import DESIGN_FAULT_KINDS
from repro.faults.implementation import IMPL_FAULT_KINDS
from repro.fleet.pool import FleetRunner, SerialRunner

WORKERS = 4
FULL_REPS = 3
QUICK_REPS = 1


def corpus_kw(quick: bool) -> dict:
    if quick:
        return dict(
            design_kinds=("wrong_target", "remove_transition",
                          "wrong_initial"),
            impl_kinds=("inverted_branch", "init_corrupt", "store_drop"),
            seeds=(1, 2),
            duration_us=2_000_000,
        )
    return dict(
        design_kinds=tuple(DESIGN_FAULT_KINDS),
        impl_kinds=tuple(IMPL_FAULT_KINDS),
        seeds=(1, 2, 3),
        # Long enough per experiment that pool startup and job
        # dispatch are noise next to the simulated seconds of work.
        duration_us=8_000_000,
    )


def run_once(runner, kw):
    from repro.comdes.examples import traffic_light_system
    from repro.experiments.requirements import (
        traffic_light_code_watches, traffic_light_monitor_suite)
    start = time.perf_counter()
    result = run_campaign(traffic_light_system, traffic_light_monitor_suite,
                          traffic_light_code_watches, runner=runner, **kw)
    return result, time.perf_counter() - start


def outcome_fingerprint(result) -> str:
    rows = json.dumps(result.summary_rows(), sort_keys=True)
    outcomes = [
        (o.fault.fault_id, o.model_detected, o.model_latency_us, o.model_how,
         o.code_detected, o.code_latency_us, o.code_how, o.classified_as)
        for o in result.outcomes
    ]
    return rows + "|" + repr(outcomes) + f"|fp={result.false_positives}"


def main() -> None:
    quick = "--quick" in sys.argv
    reps = QUICK_REPS if quick else FULL_REPS
    kw = corpus_kw(quick)
    jobs = 1 + (len(kw["design_kinds"]) + len(kw["impl_kinds"])) * len(kw["seeds"])

    serial_result, _ = run_once(SerialRunner(), kw)  # warm-up + reference

    serial_s = min(run_once(SerialRunner(), kw)[1] for _ in range(reps))
    fleet_runner = FleetRunner(workers=WORKERS)
    fleet_best = None
    fleet_result = None
    for _ in range(reps):
        result, elapsed = run_once(fleet_runner, kw)
        if fleet_best is None or elapsed < fleet_best:
            fleet_best, fleet_result = elapsed, result

    parity = int(outcome_fingerprint(serial_result)
                 == outcome_fingerprint(fleet_result))

    results = {
        "corpus_jobs": jobs,
        "duration_us_per_job": kw["duration_us"],
        "workers": WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "runner": type(fleet_runner).__name__,
        "max_retries": fleet_runner.max_retries,
        "serial_s": round(serial_s, 3),
        "fleet_s": round(fleet_best, 3),
        "serial_jobs_per_sec": round(jobs / serial_s, 1),
        "fleet_jobs_per_sec": round(jobs / fleet_best, 1),
        "speedup_4w": round(serial_s / fleet_best, 2),
        "parity_identical": parity,
        "quick": quick,
    }

    name = "BENCH_fleet_quick.json" if quick else "BENCH_fleet.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"{jobs} jobs: serial {results['serial_jobs_per_sec']} jobs/s, "
          f"fleet({WORKERS}w) {results['fleet_jobs_per_sec']} jobs/s, "
          f"speedup {results['speedup_4w']}x on {results['cpu_count']} cpu(s), "
          f"parity={'OK' if parity else 'BROKEN'}")
    print(f"-> {out}")
    if not parity:
        sys.exit(1)


if __name__ == "__main__":
    main()
