"""Overhead and throughput scoreboard for the repro.obs live plane.

Three claims gated here (see ``repro/obs/__init__.py`` live-plane
invariants):

* **heartbeats are near-free** — the exemplar serial campaign with a
  ``SerialRunner(live=...)`` heartbeat stream vs the same campaign
  with the live plane off must stay within a 1.10x wall-clock ratio
  (``overhead.live_disabled_ratio``, ceiling-gated: the median of the
  per-rep on/off ratios). Within a rep the arms take turns campaign by
  campaign until each arm's timed window reaches ``MIN_ARM_S``, and
  which arm goes first alternates from rep to rep, so host-speed drift
  hits both arms alike; each arm reports seconds per campaign. Every
  rep's ratio and their spread are recorded;
* **the aggregator keeps up** — parent-side ingest of synthetic
  window-delta messages (the fleet's hot path while workers stream)
  is recorded as ``aggregator.deltas_per_sec``, floor-gated well below
  measured so the gate catches an accidental O(history) merge, not
  host noise;
* **the transcript is deterministic** — the same master seed through
  ``SerialRunner(live=...)`` and ``FleetRunner(workers=2, live=...)``
  must yield byte-identical alert transcripts and window histories
  (``determinism.transcript_identical``, floor-gated), the live-plane
  analogue of the fleet parity gate.

Writes ``BENCH_live.json`` (or ``BENCH_live_quick.json`` under
``--quick``) next to this file.

Usage::

    python benchmarks/perf_live.py           # full run
    python benchmarks/perf_live.py --quick   # CI smoke
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.comdes.examples import traffic_light_system
from repro.experiments import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults import run_campaign
from repro.fleet import FleetRunner, SerialRunner
from repro.obs import HeartbeatConfig, LiveAggregator, disable
from repro.obs.metrics import MetricsSnapshot
from repro.util.timeunits import sec

PERIOD_US = 250_000
FULL_REPS = 5
QUICK_REPS = 3
#: shortest timed window per arm and rep; one campaign takes ~50 ms
MIN_ARM_S = 0.5
FULL_DELTAS = 200_000
QUICK_DELTAS = 20_000
SERIES_PER_DELTA = 6
JOBS = 16

CAMPAIGN_KW = dict(design_kinds=("wrong_target",),
                   impl_kinds=("inverted_branch",),
                   comm_kinds=("frame_loss", "frame_corrupt"),
                   seeds=(1,))


def synthetic_messages(count: int):
    """Deterministic worker-stream shape: JOBS lanes, rolling windows."""
    messages = []
    for job in range(JOBS):
        messages.append(("start", f"w{job % 4}", job, f"job/{job}"))
    per_job = count // JOBS
    for job in range(JOBS):
        for window in range(per_job):
            delta = MetricsSnapshot()
            for series in range(SERIES_PER_DELTA):
                delta.counters[f"bench.series_{series}"] = {
                    (("lane", str(job % 3)),): window % 7 + 1}
            messages.append(("window", f"w{job % 4}", job, f"job/{job}",
                             window, window * PERIOD_US + 1, delta))
    for job in range(JOBS):
        messages.append(("finish", f"w{job % 4}", job, f"job/{job}",
                         per_job, per_job * PERIOD_US, "ok", "", None))
    return messages


def measure_aggregator(deltas: int):
    """Parent-side ingest rate over the synthetic fleet stream."""
    messages = synthetic_messages(deltas)
    windows = sum(1 for m in messages if m[0] == "window")
    best = float("inf")
    for _ in range(3):
        agg = LiveAggregator(HeartbeatConfig(period_us=PERIOD_US))
        start = time.perf_counter()
        for msg in messages:
            agg.feed(msg)
        best = min(best, time.perf_counter() - start)
        agg.close()
    return {
        "messages": len(messages),
        "window_deltas": windows,
        "series_per_delta": SERIES_PER_DELTA,
        "deltas_per_sec": int(windows / best) if best else 0,
    }


def run_exemplar(duration_us: int, runner) -> str:
    run_campaign(traffic_light_system, traffic_light_monitor_suite,
                 traffic_light_code_watches, runner=runner,
                 duration_us=duration_us, **CAMPAIGN_KW)
    return ""


def live_campaign_transcript(duration_us: int, runner_of) -> tuple:
    agg = LiveAggregator(HeartbeatConfig(period_us=PERIOD_US))
    run_campaign(traffic_light_system, traffic_light_monitor_suite,
                 traffic_light_code_watches, runner=runner_of(agg),
                 duration_us=duration_us, **CAMPAIGN_KW)
    transcript = agg.close()
    history = [w.to_dict() for w in agg.history()]
    return transcript, history


def run_arm(duration_us: int, live: bool) -> float:
    """Wall seconds of one exemplar campaign, heartbeats on or off."""
    start = time.perf_counter()
    if live:
        agg = LiveAggregator(HeartbeatConfig(period_us=PERIOD_US))
        run_exemplar(duration_us, SerialRunner(live=agg))
        agg.close()
    else:
        run_exemplar(duration_us, SerialRunner())
    return time.perf_counter() - start


def timed_pair(duration_us: int, live_first: bool):
    """Seconds per campaign for each arm over one rep. The arms take
    turns campaign by campaign, so both see the same host speed, until
    each arm's timed window reaches ``MIN_ARM_S``."""
    spent = {False: 0.0, True: 0.0}
    runs = {False: 0, True: 0}
    order = (True, False) if live_first else (False, True)
    while min(spent.values()) < MIN_ARM_S:
        for live in order:
            spent[live] += run_arm(duration_us, live)
            runs[live] += 1
    return spent[False] / runs[False], spent[True] / runs[True]


def measure_overhead(duration_us: int, reps: int):
    """The exemplar serial campaign, heartbeats on vs off, interleaved;
    which arm goes first alternates from rep to rep."""
    disable()
    off_s, on_s, ratios = [], [], []
    for rep in range(reps):
        off, on = timed_pair(duration_us, live_first=rep % 2 == 1)
        off_s.append(off)
        on_s.append(on)
        ratios.append(on / off)
    return {
        "campaign_off_wall_s": round(min(off_s), 4),
        "campaign_live_wall_s": round(min(on_s), 4),
        "min_arm_window_s": MIN_ARM_S,
        "rep_ratios": [round(ratio, 3) for ratio in ratios],
        "ratio_spread": round(max(ratios) - min(ratios), 3),
        "live_disabled_ratio": round(statistics.median(ratios), 3),
    }


def measure_determinism(duration_us: int):
    """Serial vs 2-worker fleet at one seed: transcript + window parity."""
    disable()
    serial = live_campaign_transcript(
        duration_us, lambda agg: SerialRunner(live=agg))
    fleet = live_campaign_transcript(
        duration_us, lambda agg: FleetRunner(workers=2, live=agg))
    return {
        "transcript_identical": int(serial == fleet),
        "alerts": serial[0].count("\n") - 2,
        "windows": len(serial[1]),
    }


def main() -> None:
    quick = "--quick" in sys.argv
    reps = QUICK_REPS if quick else FULL_REPS
    deltas = QUICK_DELTAS if quick else FULL_DELTAS
    horizon = sec(1) if quick else sec(2)

    run_exemplar(sec(1), SerialRunner())  # warm caches and the allocator

    try:
        results = {
            "aggregator": measure_aggregator(deltas),
            "overhead": measure_overhead(horizon, reps),
            "determinism": measure_determinism(horizon),
            "quick": quick,
        }
    finally:
        disable()
    assert results["determinism"]["transcript_identical"] == 1

    name = "BENCH_live_quick.json" if quick else "BENCH_live.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    agg = results["aggregator"]
    print(f"aggregator: {agg['window_deltas']} window deltas "
          f"({agg['series_per_delta']} series each) at "
          f"{agg['deltas_per_sec']}/s")
    over = results["overhead"]
    print(f"heartbeat campaign: off {over['campaign_off_wall_s']}s, "
          f"live {over['campaign_live_wall_s']}s "
          f"(ratio {over['live_disabled_ratio']}x)")
    det = results["determinism"]
    print(f"determinism: serial==fleet identical="
          f"{det['transcript_identical']} ({det['alerts']} alert(s), "
          f"{det['windows']} window(s))")
    print(f"-> {out}")


if __name__ == "__main__":
    main()
