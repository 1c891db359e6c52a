"""Sensitivity test: slowing one layer moves the predicted numbers only.

Runs the benchmark with and without fixed extra work added to one public
layer entry point (``run.py --delay``) and checks the predictions. A delay
is interpreter work that takes the given time on the reference host, so
like the program's own work it scales with the host's speed:

* ``classify_bug`` + 15 ms: ``traffic-serial`` ``jobs_per_s`` drops by
  more than its bound; ``cruise-serial`` (2 classifier calls per
  campaign) stays within it; the traced run puts the added time in
  ``classify.self_s``.
* ``TraceStore.append`` + 60 us: ``cell-fleet-traced`` ``jobs_per_s``
  drops by more than its bound; the serial workloads, which collect no
  traces, stay within it; the traced run puts the time in
  ``tracedb.append_self_s``.
* ``ProcessBackend.poll`` + 50 ms: the fleet's parent burns CPU each time
  it wakes for a result, on the cores its workers run on, so
  ``cell-fleet-traced`` ``jobs_per_s`` drops by more than its bound. The
  host-speed factor must not cancel parent-side CPU use.

Usage, from the repository root (about twelve minutes)::

    python3 perfbench/check_sensitivity.py

Exits 0 when every prediction holds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: run length and workload seeds of every benchmark run here
SECONDS = 12
SEEDS = (1, 2, 3)

CLASSIFY = "classify_bug:0.015"
APPEND = "TraceStore.append:0.00006"
POLL = "ProcessBackend.poll:0.05"

#: (delay, workload, moves?) — the end-to-end predictions
PREDICTIONS = [
    (CLASSIFY, "traffic-serial", True),
    (CLASSIFY, "cruise-serial", False),
    (APPEND, "cell-fleet-traced", True),
    (APPEND, "traffic-serial", False),
    (APPEND, "cruise-serial", False),
    (POLL, "cell-fleet-traced", True),
]

#: (delay, workload, layer metric that must absorb the delay)
ATTRIBUTION = [
    (CLASSIFY, "traffic-serial", "classify.self_s", "classify.calls"),
    (APPEND, "cell-fleet-traced", "tracedb.append_self_s", "tracedb.events"),
]


def bench(workload: str, seed: int, trace: int, delay: str = "") -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    if delay:
        cmd += ["--delay", delay]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect run: {' '.join(cmd)}\n{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bound = {m["name"]: m["bound"]
                 for m in json.load(handle)["end_to_end"]}["jobs_per_s"]

    ok = True
    baseline = {}
    for delay, workload, moves in PREDICTIONS:
        if workload not in baseline:
            baseline[workload] = statistics.median(
                bench(workload, s, 0)["jobs_per_s"] for s in SEEDS)
        delayed = statistics.median(
            bench(workload, s, 0, delay)["jobs_per_s"] for s in SEEDS)
        change = delayed / baseline[workload] - 1.0
        holds = change < -bound if moves else abs(change) <= bound
        ok &= holds
        print(f"{'PASS' if holds else 'FAIL'} {delay:26s} {workload:18s} "
              f"jobs_per_s {baseline[workload]:8.3f} -> {delayed:8.3f} "
              f"({change:+.1%}; predicted "
              f"{'a drop beyond' if moves else 'within'} {bound:.0%})",
              flush=True)

    for delay, workload, metric, calls in ATTRIBUTION:
        before = bench(workload, SEEDS[0], 1)
        after = bench(workload, SEEDS[0], 1, delay)
        seconds = float(delay.rpartition(":")[2])
        expected = after[calls] * seconds
        added = after[metric] - before[metric]
        # the host speed drifts between the two runs, so allow a margin
        holds = 0.5 * expected <= added <= 2.0 * expected
        ok &= holds
        print(f"{'PASS' if holds else 'FAIL'} {delay:26s} {workload:18s} "
              f"{metric} +{added:.3f} s (calls x delay = {expected:.3f} s)",
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
