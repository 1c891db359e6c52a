"""Campaign benchmark: jobs/s and job latency of the paper's debug loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload traffic-serial --seed 1 \
        --seconds 20 --trace 0

A run repeats the workload's campaign, each in a fresh process
(``campaign.py``), until ``--seconds`` of wall time are used, then prints
a digest line, one line per metric with its unit, and as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced campaigns and reports the
per-layer metrics. The output is correct when every campaign answered
every job spec exactly once without an error, passed its trace-store
checks, and all campaigns of the run produced the same outcome digest
and the same deterministic layer counts. At a seed with a recorded digest
(``workloads.EXPECTED_DIGESTS``) the digest must also match the record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import CAL_REF_S  # noqa: E402
from workloads import EXPECTED_DIGESTS, WORKLOADS  # noqa: E402

#: default workload seed (seed 2 is held out for checking later claims)
DEFAULT_SEED = 1
#: job latency samples a run needs before it may stop (10 beyond p90)
MIN_JOB_SAMPLES = 100
#: a run starts no campaign after this long, whatever it lacks
HARD_STOP_S = 120.0
#: campaigns still running this long after the run began are killed
DEADLINE_S = 170.0

#: jobs on each side of a job whose calibrations give its local speed
SPEED_WINDOW = 3

#: layer counts that must repeat exactly between campaigns of a run
DETERMINISTIC_COUNTS = (
    "engine.commands", "comm.frames", "comm.retries", "rtos.events",
    "target.model.instructions", "target.code.instructions",
    "debugger.watch_hits", "classify.calls", "tracedb.events",
    "tracedb.bytes", "campaign.jobs",
)


def run_campaign_process(args, traced: bool, run_dir: str, number: int,
                         timeout: float):
    """One campaign in a child process; returns (report, wall seconds)."""
    work = os.path.join(run_dir, f"c{number:03d}")
    os.makedirs(work)
    out = os.path.join(work, "report.json")
    cmd = [sys.executable, os.path.join(HERE, "campaign.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--work", work, "--out", out]
    if args.delay:
        cmd += ["--delay", args.delay]
    env = dict(os.environ, TMPDIR=work)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    wall = time.monotonic() - start
    if code != 0 or not os.path.exists(out):
        report = {"problems": [f"campaign process exited with {code}"],
                  "attempted": 0, "failed": 0, "ok": 0, "traced": traced}
    else:
        with open(out) as handle:
            report = json.load(handle)
        normalize(report, start)
    shutil.rmtree(work, ignore_errors=True)
    return report, wall


def local_speeds(jobs) -> list:
    """Host speed next to each job: its process's mean calibration CPU
    time over the SPEED_WINDOW jobs on either side, over the reference."""
    by_pid = {}
    for position, (pid, _, _, _, cal) in enumerate(jobs):
        by_pid.setdefault(pid, []).append((position, cal))
    speeds = [1.0] * len(jobs)
    for runs in by_pid.values():
        cals = [cal for _, cal in runs]
        for i, (position, _) in enumerate(runs):
            window = cals[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1]
            speeds[position] = statistics.fmean(window) / CAL_REF_S
    return speeds


def normalize(report: dict, start: float) -> None:
    """Host-speed-normalized times of one campaign.

    Each job's wall time is divided by the host speed measured next to
    it; the campaign span (less the calibration kernel's own time) and
    the per-layer times shrink by the same job-time-weighted factor, and
    set-up by the speed of the campaign's first jobs.
    """
    jobs = report["jobs"]
    speeds = local_speeds(jobs)
    walls = [job[2] for job in jobs]
    report["job_wall_s"] = [w / s for w, s in zip(walls, speeds)]
    report["speed"] = sum(walls) / sum(report["job_wall_s"])
    report["setup_s"] = ((report["first_job_start"] - start)
                         / statistics.median(speeds[:2 * SPEED_WINDOW + 1]))
    calibration = sum(job[3] for job in jobs) / report["slots"]
    report["campaign_s"] = (report["end"] - report["first_job_start"]
                            - calibration) / report["speed"]


def run_campaigns(args, run_dir: str) -> list:
    """Closed-loop campaigns until the run's time is used."""
    reports, walls = [], {False: [], True: []}
    begin = time.monotonic()
    traced = False
    while True:
        report, wall = run_campaign_process(
            args, traced, run_dir, len(reports),
            DEADLINE_S - (time.monotonic() - begin))
        reports.append(report)
        walls[traced].append(wall)
        if report["problems"]:
            break
        if args.trace:
            traced = not traced
        elapsed = time.monotonic() - begin
        samples = sum(len(r["job_wall_s"]) for r in reports
                      if not r["traced"])
        have = (all(walls.values()) if args.trace
                else samples >= MIN_JOB_SAMPLES)
        next_wall = statistics.median(walls[traced] or walls[not traced])
        if elapsed > HARD_STOP_S or (
                have and elapsed + next_wall > args.seconds):
            break
    return reports


def end_to_end(reports) -> dict:
    plain = [r for r in reports if not r["traced"]]
    walls_ms = [1000.0 * w for r in plain for w in r["job_wall_s"]]
    deciles = statistics.quantiles(walls_ms, n=10, method="inclusive")
    jobs = sum(len(r["job_wall_s"]) for r in plain)
    return {
        "jobs_per_s": jobs / sum(r["campaign_s"] for r in plain),
        "job_ms_p50": deciles[4],
        "job_ms_p90": deciles[8],
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_frac": (sum(r["ok"] for r in plain)
                    / sum(r["attempted"] for r in plain)),
    }, len(walls_ms)


#: how a per-layer unit scales with host speed (times shrink on a fast host)
SPEED_POWER = {"s": -1, "ms": -1, "us": -1, "Minstr/s": 1}


def per_layer(reports, declared) -> dict:
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]
    units = {m["name"]: m["unit"] for m in declared}

    def scaled(report, name):
        power = SPEED_POWER.get(units.get(name), 0)
        value = report["layers"][name]
        return value * report["speed"] ** power if power else value

    values = {name: statistics.median(scaled(r, name) for r in traced)
              for name in traced[0]["layers"]}
    quality = traced[0]["quality"]
    values.update({
        "engine.checks.detect_rate": quality["model_detect_rate"],
        "engine.checks.latency_ms_mean": quality["model_latency_ms_mean"],
        "debugger.detect_rate": quality["code_detect_rate"],
        "classify.accuracy": quality["classify_accuracy"],
        "campaign.false_positives": quality["false_positives"],
        "trace.overhead_frac": (
            statistics.median(r["campaign_s"] for r in traced)
            / statistics.median(r["campaign_s"] for r in plain) - 1.0),
    })
    return values


def consistency_problems(reports, workload: str, seed: int) -> list:
    """Campaigns of one run share a seed, so their outputs must agree,
    and with the recorded digest where the seed has one."""
    problems = []
    digests = {r["quality"]["digest"] for r in reports}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different outcome digests")
    expected = EXPECTED_DIGESTS.get(workload, {}).get(seed)
    if expected is not None and digests != {expected}:
        problems.append(f"outcome digest differs from the one recorded "
                        f"for seed {seed}: the detection results changed")
    traced = [r for r in reports if r["traced"]]
    for name in DETERMINISTIC_COUNTS:
        seen = {r["layers"][name] for r in traced if name in r["layers"]}
        if len(seen) > 1:
            problems.append(f"{name} differs between campaigns: {seen}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay", default="",
                        help="NAME:SECONDS fixed work (SECONDS on the "
                             "reference host) added to one layer "
                             "entry point (the sensitivity test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program sources under src/repro; run from a "
              "full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=work_root)
    try:
        reports = run_campaigns(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run is still using it

    problems = [p for r in reports for p in r["problems"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {}
    if not problems:
        problems = consistency_problems(reports, args.workload, args.seed)
        dropped = set(reports[-1]["dropped_groups"])
        if args.trace:
            values = per_layer(reports, declared)
        else:
            values, samples = end_to_end(reports)
        first = reports[0]
        quality = first["quality"]
        print(f"digest {args.workload} seed={args.seed} "
              f"campaigns={len(reports)} jobs/campaign={first['attempted']} "
              f"outcomes={quality['outcomes']} sha256={quality['digest']}")
        print("quality " + " ".join(
            f"{k}={quality[k]}" for k in sorted(quality)
            if k not in ("digest", "outcomes")))
        traced = [r for r in reports if r["traced"]]
        if traced:
            print("counts " + " ".join(
                f"{k}={traced[0]['layers'][k]}" for k in DETERMINISTIC_COUNTS))
        else:
            print(f"job latency samples: {samples}")
        for metric in declared:
            name = metric["name"]
            if name.partition(".")[0] in dropped:
                continue
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
            print(f"  {name:32s} {values[name]:14.6g} {metric['unit']}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
