"""Trace-store throughput, checkpointed-seek latency, and flat-memory proof.

The scoreboard for the spill-to-disk trace subsystem:

* **append events/sec** — wall-clock rate of spilling synthetic trace
  events through ``ExecutionTrace(spill=TraceStore(...))`` (binary
  codec, segment rotation included);
* **seek latency** — wall-clock ``ReplayPlayer.seek`` into a stored
  history with checkpoints vs the same seek forced linear, plus the
  *deterministic* ``max_tail_events`` (events actually re-applied after
  restoring the nearest checkpoint — bounded by ``checkpoint_every`` by
  construction, enforced as a FLOORS ceiling);
* **memory ratio** — tracemalloc peak while spilling N vs 4N events:
  flat-memory means the ratio stays ~1.0 no matter how much history
  lands on disk;
* **merge events/sec** — ``merge_job_stores`` folding a cell-campaign-
  shaped corpus (85 per-job stores, ~32k ``ExecutionTrace`` records,
  default segment size and codec) into one campaign store, in process CPU
  time (best rep), plus ``memory_ratio``: the tracemalloc peak merging
  4N per-job stores over merging N, into one destination segment so the
  O(segments) index rows stay out of it (~1.0: the merge streams).

Writes ``BENCH_trace.json`` next to this file so the trace subsystem's
perf trajectory is tracked across PRs.

Usage::

    python benchmarks/perf_trace.py           # full run
    python benchmarks/perf_trace.py --quick   # CI smoke
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
import tracemalloc
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.comm.protocol import Command, CommandKind
from repro.engine.replay import ReplayPlayer
from repro.engine.trace import ExecutionTrace
from repro.gdm.model import GdmModel
from repro.gdm.patterns import PatternKind, PatternSpec
from repro.gdm.reactions import ReactionKind, ReactionRecord
from repro.tracedb import (
    StoredTrace,
    TraceStore,
    build_checkpoints,
    merge_job_stores,
)
from repro.tracedb.store import DEFAULT_SEGMENT_EVENTS

SEGMENT_EVENTS = 4096
CHECKPOINT_EVERY = 512
FULL_EVENTS = 50_000
QUICK_EVENTS = 8_000
#: shaped like the traced production-cell campaign: 85 per-job stores,
#: ~32k records
MERGE_JOBS = 85
QUICK_MERGE_JOBS = 16
MERGE_JOB_EVENTS = 377
MERGE_REPS = 3


def make_gdm() -> GdmModel:
    gdm = GdmModel("bench")
    box = PatternSpec(PatternKind.RECTANGLE)
    for i in range(4):
        gdm.add_element(f"S{i}", box, f"state:a.m.S{i}", group="a.m")
    gdm.add_element("x", box, "signal:x")
    return gdm


def synth_event(gdm: GdmModel, i: int):
    t = i * 7
    if i % 3 == 0:
        path = f"state:a.m.S{(i // 3) % 4}"
        element = gdm.element_by_path(path)
        return (Command(CommandKind.STATE_ENTER, path, 1,
                        t_target=t, t_host=t + 2),
                [ReactionRecord(ReactionKind.HIGHLIGHT, element.id, path,
                                "highlight", t + 2)])
    element = gdm.element_by_path("signal:x")
    return (Command(CommandKind.SIG_UPDATE, "signal:x", i,
                    t_target=t, t_host=t + 2),
            [ReactionRecord(ReactionKind.ANNOTATE, element.id, "signal:x",
                            f"value={i}", t + 2)])


def record_spilled(root: str, n: int, checkpoint_every=None,
                   prebuild: bool = True) -> tuple:
    """Record n synthetic events through a spilling trace; returns
    (store, wall seconds).

    ``prebuild`` materializes the event list up front so the timed loop
    measures only the spill path; the memory benchmark streams instead
    (``prebuild=False``) so tracemalloc sees the trace's footprint, not
    the workload generator's.
    """
    gdm = make_gdm()
    store = TraceStore(root, segment_events=SEGMENT_EVENTS, codec="binary",
                       checkpoint_every=checkpoint_every)
    trace = ExecutionTrace(spill=store)
    events = ([synth_event(gdm, i) for i in range(n)] if prebuild
              else (synth_event(gdm, i) for i in range(n)))
    start = time.perf_counter()
    for command, reactions in events:
        trace.record(command, reactions, "REACTING")
    store.flush()
    elapsed = time.perf_counter() - start
    return store, elapsed


def measure_append(base: str, n: int) -> dict:
    store, elapsed = record_spilled(os.path.join(base, "append"), n)
    store.close()
    return {
        "events": n,
        "codec": "binary",
        "segment_events": SEGMENT_EVENTS,
        "events_per_sec": round(n / max(elapsed, 1e-9), 1),
    }


def measure_seek(base: str, n: int) -> dict:
    store, _ = record_spilled(os.path.join(base, "seek"), n)
    gdm = make_gdm()
    build_checkpoints(store, gdm, every=CHECKPOINT_EVERY)
    view = StoredTrace(store)
    positions = [n // 4, n // 2, (3 * n) // 4, n - 1]

    def bench(use_checkpoints: bool):
        total, max_tail = 0.0, 0
        for position in positions:
            player = ReplayPlayer(view, make_gdm())
            start = time.perf_counter()
            applied = player.seek(position, use_checkpoints=use_checkpoints)
            total += time.perf_counter() - start
            max_tail = max(max_tail, applied)
        return (total / len(positions)) * 1000, max_tail

    ck_ms, max_tail = bench(True)
    linear_ms, _ = bench(False)
    store.close()
    return {
        "events": n,
        "checkpoint_every": CHECKPOINT_EVERY,
        "probes": len(positions),
        "seek_ms_checkpointed": round(ck_ms, 3),
        "seek_ms_linear": round(linear_ms, 3),
        "speedup": round(linear_ms / max(ck_ms, 1e-9), 1),
        "max_tail_events": max_tail,
    }


def measure_memory(base: str, n: int) -> dict:
    def peak_kb(count: int, tag: str) -> float:
        tracemalloc.start()
        store, _ = record_spilled(os.path.join(base, f"mem-{tag}"), count,
                                  prebuild=False)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        store.close()
        return peak / 1024

    small = peak_kb(n, "1x")
    large = peak_kb(4 * n, "4x")
    return {
        "events_1x": n,
        "peak_kb_1x": round(small, 1),
        "peak_kb_4x": round(large, 1),
        "ratio": round(large / max(small, 1e-9), 3),
    }


def build_job_stores(base: str, jobs: int, events_per_job: int) -> list:
    """Per-job stores spilled through ``ExecutionTrace`` as campaign
    workers do; returns JobResult-shaped stubs pointing at them."""
    gdm = make_gdm()
    results = []
    for index in range(jobs):
        root = os.path.join(base, f"job-{index:05d}")
        store = TraceStore(root)
        trace = ExecutionTrace(spill=store)
        for i in range(events_per_job):
            command, reactions = synth_event(gdm, index * events_per_job + i)
            trace.record(command, reactions, "REACTING")
        store.close()
        results.append(SimpleNamespace(index=index, job_id=f"job/{index}",
                                       trace_path=root, failed=False))
    return results


def measure_merge(base: str, jobs: int, events_per_job: int) -> dict:
    results = build_job_stores(os.path.join(base, "jobs"), jobs,
                               events_per_job)
    events = jobs * events_per_job

    def merge(subset, segment_events: int = DEFAULT_SEGMENT_EVENTS) -> float:
        dest = os.path.join(base, "campaign")
        start = time.process_time()
        merged = merge_job_stores(subset, dest, segment_events=segment_events)
        elapsed = time.process_time() - start
        count = merged.event_count
        shutil.rmtree(dest)
        assert count == len(subset) * events_per_job
        return elapsed

    cpu_s = [merge(results) for _ in range(MERGE_REPS)]

    def peak_kb(count: int) -> float:
        # one destination segment for both sizes: the index keeps one
        # row per sealed segment (O(segments) by design, the same for
        # any merge) and would otherwise dominate the ratio, which
        # guards against memory growing with the records or stores merged
        tracemalloc.start()
        merge(results[:count], segment_events=events)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak / 1024

    small_jobs = jobs // 4
    small = peak_kb(small_jobs)
    large = peak_kb(4 * small_jobs)
    return {
        "jobs": jobs,
        "events": events,
        "cpu_s": [round(c, 4) for c in cpu_s],
        "events_per_sec": round(events / max(min(cpu_s), 1e-9), 1),
        "memory_jobs_1x": small_jobs,
        "peak_kb_1x": round(small, 1),
        "peak_kb_4x": round(large, 1),
        "memory_ratio": round(large / max(small, 1e-9), 3),
    }


def main() -> None:
    quick = "--quick" in sys.argv
    n = QUICK_EVENTS if quick else FULL_EVENTS
    merge_jobs = QUICK_MERGE_JOBS if quick else MERGE_JOBS
    base = tempfile.mkdtemp(prefix="perf_trace_")
    try:
        results = {
            "append": measure_append(base, n),
            "seek": measure_seek(base, n),
            "memory": measure_memory(base, max(2000, n // 8)),
            "merge": measure_merge(base, merge_jobs, MERGE_JOB_EVENTS),
            "quick": quick,
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)

    assert results["seek"]["max_tail_events"] <= CHECKPOINT_EVERY
    name = "BENCH_trace_quick.json" if quick else "BENCH_trace.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"append: {results['append']['events_per_sec']} events/sec "
          f"({n} events, binary codec)")
    print(f"seek:   {results['seek']['seek_ms_checkpointed']}ms checkpointed "
          f"vs {results['seek']['seek_ms_linear']}ms linear "
          f"({results['seek']['speedup']}x, tail <= "
          f"{results['seek']['max_tail_events']} events)")
    print(f"memory: peak {results['memory']['peak_kb_1x']}KB @1x vs "
          f"{results['memory']['peak_kb_4x']}KB @4x "
          f"(ratio {results['memory']['ratio']})")
    print(f"merge:  {results['merge']['events_per_sec']} events/sec "
          f"({results['merge']['events']} events from "
          f"{results['merge']['jobs']} job stores, CPU time), memory ratio "
          f"{results['merge']['memory_ratio']} (4x over 1x job stores)")
    print(f"-> {out}")


if __name__ == "__main__":
    main()
