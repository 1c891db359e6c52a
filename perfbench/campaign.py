"""Run one workload campaign in this process and write its measurements.

A benchmark run repeats this in fresh processes, so every campaign pays
its own imports, job enumeration and worker spawn, and no memo outlives
it. Usage (``run.py`` does this)::

    python3 perfbench/campaign.py --workload traffic-serial --seed 1 \
        --trace 0 --work DIR --out FILE [--delay classify_bug:0.01]

The report holds per-job wall times (measured where each job runs), the
campaign's outcome digest and quality numbers, the output-check
failures, and with ``--trace 1`` the per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (KiB->MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def quality(result) -> dict:
    """Detection quality and the outcome digest: fixed by the seed."""
    outcomes = result.outcomes
    rows = [[o.fault.fault_id, o.model_detected, o.model_latency_us,
             o.model_how, o.code_detected, o.code_latency_us, o.code_how,
             o.classified_as] for o in outcomes]
    blob = json.dumps([rows, result.false_positives]).encode()
    latencies = [o.model_latency_us for o in outcomes
                 if o.model_latency_us is not None]
    n = max(len(outcomes), 1)
    return {
        "digest": hashlib.sha256(blob).hexdigest(),
        "outcomes": len(outcomes),
        "model_detect_rate": sum(o.model_detected for o in outcomes) / n,
        "code_detect_rate": sum(o.code_detected for o in outcomes) / n,
        "classify_accuracy": result.classification_accuracy() or 0.0,
        "false_positives": result.false_positives,
        "model_latency_ms_mean": (statistics.fmean(latencies) / 1000.0
                                  if latencies else 0.0),
    }


def check_answers(specs, results, records) -> list:
    """Every spec answered exactly once, by one job run, with no error."""
    problems = []
    indexes = [spec.index for spec in specs]
    if [r.index for r in results] != indexes:
        problems.append("results do not answer the specs one to one")
    failed = [r.job_id for r in results if r.failed]
    if failed:
        problems.append(f"{len(failed)} job(s) failed: {failed[:3]}")
    ran = sorted(record["index"] for record in records)
    if ran != sorted(indexes):
        problems.append(f"{len(ran)} job runs recorded for "
                        f"{len(indexes)} specs")
    return problems


def layer_metrics(records, parent: dict, specs, results, probe,
                  campaign_s: float, slots: int, store_bytes: int) -> dict:
    """Per-layer numbers of one traced campaign."""
    self_s, calls, counts = {}, {}, {}
    ref_keys = []
    for layers in [r["layers"] for r in records] + [parent]:
        for table, into in ((layers["self_s"], self_s),
                            (layers["calls"], calls),
                            (layers["counts"], counts)):
            for key, value in table.items():
                into[key] = into.get(key, 0) + value
        ref_keys.extend(layers["ref_keys"])
    seen, repeats = set(), 0
    for key in ref_keys:
        repeats += key in seen
        seen.add(key)

    walls = [r["wall_s"] for r in records]
    last_end = {}
    for r in records:
        end = r["start"] + r["wall_s"]
        last_end[r["pid"]] = max(last_end.get(r["pid"], end), end)
    waits = [1000.0 * (r["start"] - probe.dispatched[r["index"]])
             for r in records if r["index"] in probe.dispatched]

    commands = counts.get("engine.commands", 0)
    code_instr = counts.get("target.code.instructions", 0)
    code_s = self_s.get("target.code", 0.0)
    return {
        "engine.commands": commands,
        "engine.self_s": self_s.get("engine", 0.0),
        "engine.us_per_command": (1e6 * self_s.get("engine", 0.0) / commands
                                  if commands else 0.0),
        "engine.checks.self_s": self_s.get("engine.checks", 0.0),
        "comm.frames": counts.get("comm.frames", 0),
        "comm.self_s": self_s.get("comm", 0.0),
        "comm.retries": counts.get("comm.retries", 0),
        "rtos.events": counts.get("rtos.events", 0),
        "rtos.self_s": self_s.get("rtos", 0.0),
        "gdm.build_self_s": self_s.get("gdm.build", 0.0),
        "comdes.reflect_self_s": self_s.get("comdes.reflect", 0.0),
        "target.model.instructions": counts.get("target.model.instructions",
                                                0),
        "target.model.self_s": self_s.get("target.model", 0.0),
        "target.code.instructions": code_instr,
        "target.code.self_s": code_s,
        "target.code.minstr_per_s": (code_instr / code_s / 1e6
                                     if code_s else 0.0),
        "debugger.watch_hits": counts.get("debugger.watch_hits", 0),
        "classify.calls": calls.get("classify", 0),
        "classify.self_s": self_s.get("classify", 0.0),
        "classify.model_ref_s": self_s.get("classify.model_ref", 0.0),
        "classify.firmware_s": self_s.get("classify.firmware", 0.0),
        "classify.ref_repeat_frac": (repeats / len(ref_keys)
                                     if ref_keys else 0.0),
        "faults.inject_self_s": self_s.get("faults.inject", 0.0),
        "codegen.self_s": self_s.get("codegen", 0.0),
        "fleet.worker_busy_frac": sum(walls) / (slots * campaign_s),
        "fleet.tail_idle_s": (max(last_end.values())
                              - min(last_end.values())),
        "fleet.queue_wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "fleet.steals": probe.steals,
        "fleet.spawns": probe.spawns,
        "fleet.retries": sum(r.retries for r in results),
        "fleet.merge_s": self_s.get("fleet.merge", 0.0),
        "tracedb.events": counts.get("tracedb.events", 0),
        "tracedb.bytes": store_bytes,
        "tracedb.append_self_s": self_s.get("tracedb.append", 0.0),
        "tracedb.close_s": self_s.get("tracedb.close", 0.0),
        "tracedb.merge_s": self_s.get("tracedb.merge", 0.0),
        "campaign.jobs": len(specs),
        "campaign.other_self_s": self_s.get("campaign", 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="empty directory for job records and traces")
    parser.add_argument("--out", required=True, help="report JSON path")
    parser.add_argument("--delay", default="",
                        help="NAME:SECONDS fixed work (sensitivity test)")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import layers
    from workloads import DURATION_US, WORKLOADS

    workload = WORKLOADS[args.workload]
    jobs_dir = os.path.join(args.work, "jobs")
    os.makedirs(jobs_dir)
    probe = layers.Probe(jobs_dir, trace=bool(args.trace), delay=args.delay)

    from repro.faults.campaign import run_campaign
    from repro.faults.comm import COMM_FAULT_KINDS
    from repro.fleet.jobs import resolve_ref
    from repro.fleet.pool import FleetRunner, SerialRunner

    runner = (FleetRunner(workers=workload.workers)
              if workload.runner == "fleet" else SerialRunner())
    trace_dir = (os.path.join(args.work, "traces")
                 if workload.collect_traces else None)
    report = {"workload": args.workload, "seed": args.seed,
              "traced": bool(args.trace), "problems": []}
    problems = report["problems"]
    try:
        result = run_campaign(
            resolve_ref(workload.system), resolve_ref(workload.monitors),
            resolve_ref(workload.watches),
            comm_kinds=tuple(COMM_FAULT_KINDS), duration_us=DURATION_US,
            runner=runner, master_seed=args.seed,
            seeds_per_kind=workload.seeds_per_kind, trace_dir=trace_dir)
    except Exception:  # noqa: BLE001 - reported, and the run fails
        result = None
        problems.append("campaign raised:\n" + traceback.format_exc())
    end = time.monotonic()
    parent = probe.tracer.export()

    records = sorted(probe.sink.read_all(), key=lambda r: r["start"])
    if len(probe.merged) != 1:
        problems.append(f"{len(probe.merged)} merges for one campaign")
    specs, results = probe.merged[0] if probe.merged else ([], [])
    problems += check_answers(specs, results, records)
    report.update({
        "attempted": len(specs),
        "failed": sum(r.failed for r in results),
        "ok": sum(not r.failed for r in results),
        "first_job_start": min((r["start"] for r in records), default=end),
        "end": end,
        # (pid, start, wall, calibration wall, calibration CPU) per job
        # run, in start order
        "jobs": sorted([r["pid"], r["start"], r["wall_s"], r["cal_s"],
                        r["cal_cpu_s"]] for r in records),
        "slots": runner.workers,
        "peak_rss_mb": _peak_rss_mb(),
        "dropped_groups": probe.dropped,
    })
    if result is None:
        return _write(args.out, report)
    report["quality"] = quality(result)

    store_bytes = 0
    if trace_dir is not None:
        from repro.tracedb.store import TraceStore
        per_job = sum(TraceStore.open(r.trace_path).event_count
                      for r in results if r.trace_path)
        merged = (result.trace_store.event_count
                  if result.trace_store is not None else -1)
        if merged != per_job:
            problems.append(f"merged store holds {merged} events, per-job "
                            f"stores {per_job}")
        report["store_events"] = merged
        store_bytes = sum(_tree_bytes(os.path.join(trace_dir, name))
                          for name in os.listdir(trace_dir)
                          if name.startswith("job-"))
    if args.trace:
        calibration = sum(r["cal_s"] for r in records) / runner.workers
        campaign_s = end - report["first_job_start"] - calibration
        report["layers"] = layer_metrics(
            records, parent, specs, results, probe, campaign_s,
            runner.workers, store_bytes)
        if (trace_dir is not None and "tracedb" not in probe.dropped
                and report["layers"]["tracedb.events"]
                != report["store_events"]):
            problems.append("tracedb.events differs from the merged store")
    return _write(args.out, report)


def _write(path: str, report: dict) -> int:
    with open(path, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
