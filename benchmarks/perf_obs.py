"""Overhead and determinism scoreboard for the repro.obs telemetry layer.

Three claims gated here (see ``repro/obs/__init__.py`` invariants):

* **zero cost when unused (poll plane)** — with ``OBS`` disabled, a
  64-watch scatter read through the instrumented :class:`JtagLink`
  makes exactly the raw probe's Python calls plus the link's own two
  (``read_scatter`` and its accounting). The probe sits *below* every
  telemetry tap, so it is the obs-free baseline this layer can never
  touch (``overhead.poll_extra_calls``, ceiling-gated);
* **zero cost when unused (interp plane)** — the interpreter loops
  carry no telemetry at all, so enabling the registry must not add a
  single Python call to the counting-loop kernel
  (``overhead.interp_extra_calls`` = enabled minus disabled calls,
  ceiling-gated at 0: any future per-dispatch tap trips this);
* **deterministic export** — two campaigns at the same seed, collected
  into different directories, must export byte-identical Chrome
  trace-event documents (``determinism.export_identical``,
  floor-gated). Export throughput over the first of those campaign
  stores is recorded as ``export.events_per_sec``.

Both overhead gates count Python ``call`` events (``sys.setprofile``),
so they hold on any host. The wall-clock ratios beside them
(``overhead.poll_disabled_ratio``: best-of-reps link time over probe
time; ``overhead.interp_disabled_ratio``: enabled over disabled loop
time, interleaved) are recorded but not gated: their true value is
~1.0 and host noise moves them by more than any margin a gate could
hold.

Writes ``BENCH_obs.json`` (or ``BENCH_obs_quick.json`` under
``--quick``) next to this file.

Usage::

    python benchmarks/perf_obs.py           # full run
    python benchmarks/perf_obs.py --quick   # CI smoke
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.comdes.examples import traffic_light_system
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import JtagLink
from repro.comm.usb import UsbTransport
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import run_campaign
from repro.fleet.pool import SerialRunner
from repro.obs.export import export_campaign, chrome_trace, render_bytes
from repro.obs.runtime import disable, enable
from repro.target.assembler import Assembler
from repro.target.board import Board, DebugPort
from repro.target.cpu import Cpu
from repro.target.memory import RAM_BASE, MemoryMap
from repro.tracedb.collect import campaign_store_root
from repro.tracedb.store import TraceStore
from repro.util.timeunits import sec

WATCHES = 64
FULL_REPS = 40
QUICK_REPS = 5
FULL_ITERS = 200_000
QUICK_ITERS = 50_000
INTERP_REPS = 5  # interleaved off/on pairs, best-of each arm
#: counting-loop iterations of the interp plane's call count
CALL_ITERS = 50_000


def watch_addrs(count: int):
    main = [RAM_BASE + i for i in range(count - 2)]
    return main + [RAM_BASE + 1000, RAM_BASE + 1001]


def jtag_pair():
    board = Board()
    probe = JtagProbe(TapController(DebugPort(board)), tck_hz=4_000_000,
                      transport=UsbTransport())
    return probe, JtagLink(probe)


def best_elapsed(fn, arg, reps):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


def count_calls(fn, arg) -> int:
    """Python-level call events (``sys.setprofile``) of ``fn(arg)``, the
    call of *fn* itself included."""
    calls = 0

    def count(frame, event, _):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn(arg)
    finally:
        sys.setprofile(None)
    return calls


def measure_poll_overhead(reps: int):
    """Instrumented link vs the obs-free probe beneath it, OBS disabled:
    calls of one poll each (fresh pairs, same scan state), then the
    best-of-*reps* times."""
    disable()
    addrs = watch_addrs(WATCHES)
    probe_calls = count_calls(jtag_pair()[0].read_scatter_timed, addrs)
    link_calls = count_calls(jtag_pair()[1].read_scatter, addrs)
    probe, link = jtag_pair()
    probe_t = best_elapsed(probe.read_scatter_timed, addrs, reps)
    link_t = best_elapsed(link.read_scatter, addrs, reps)
    return {
        "watches": WATCHES,
        "probe_poll_calls": probe_calls,
        "link_poll_calls": link_calls,
        "poll_extra_calls": link_calls - probe_calls,
        "probe_poll_us": round(probe_t * 1e6, 1),
        "link_poll_us": round(link_t * 1e6, 1),
        "poll_disabled_ratio": round(link_t / probe_t, 3),
    }


def counting_loop(iterations: int):
    counter = RAM_BASE
    asm = Assembler()
    asm.label("top")
    asm.emit("LOAD", counter)
    asm.emit("PUSH", 1)
    asm.emit("ADD")
    asm.emit("STORE", counter)
    asm.emit("LOAD", counter)
    asm.emit("PUSH", iterations)
    asm.emit("LT")
    asm.emit_jump("JNZ", "top")
    asm.emit("HALT")
    return asm.assemble()


def run_interp(iterations: int):
    memory = MemoryMap(16)
    cpu = Cpu(memory)
    cpu.load(counting_loop(iterations))
    cpu.reset_task(0)
    start = time.perf_counter()
    cpu.run(max_instructions=10 * iterations)
    wall_s = time.perf_counter() - start
    assert memory.peek(RAM_BASE) == iterations
    return wall_s


def measure_interp_overhead(iterations: int, reps: int):
    """The counting loop on the fast loop with the registry on vs off:
    calls of one :data:`CALL_ITERS` run each, after a warm-up of the
    same size, then the best-of-*reps* times.

    Timed arms are interleaved (off, on, off, on, ...) so clock/thermal
    drift over the run cancels instead of biasing whichever arm went
    first.
    """
    run_interp(CALL_ITERS)
    disable()
    disabled_calls = count_calls(run_interp, CALL_ITERS)
    enable()
    enabled_calls = count_calls(run_interp, CALL_ITERS)
    disabled_t = enabled_t = float("inf")
    for _ in range(reps):
        disable()
        disabled_t = min(disabled_t, run_interp(iterations))
        enable()
        enabled_t = min(enabled_t, run_interp(iterations))
    disable()
    return {
        "call_iterations": CALL_ITERS,
        "interp_disabled_calls": disabled_calls,
        "interp_enabled_calls": enabled_calls,
        "interp_extra_calls": enabled_calls - disabled_calls,
        "iterations": iterations,
        "disabled_wall_s": round(disabled_t, 4),
        "enabled_wall_s": round(enabled_t, 4),
        "interp_disabled_ratio": round(enabled_t / disabled_t, 3),
    }


def measure_export(trace_dir: str):
    """Export throughput over a traced campaign store (modeled-us slices)."""
    store = TraceStore.open(campaign_store_root(trace_dir))
    events = store.event_count
    start = time.perf_counter()
    data = render_bytes(chrome_trace(store))
    wall_s = time.perf_counter() - start
    return {
        "store_events": events,
        "export_bytes": len(data),
        "events_per_sec": int(events / wall_s) if wall_s else 0,
    }


def campaign_export(tmp_dir: str, name: str, duration_us: int) -> bytes:
    trace_dir = os.path.join(tmp_dir, name)
    run_campaign(traffic_light_system, traffic_light_monitor_suite,
                 traffic_light_code_watches, runner=SerialRunner(),
                 trace_dir=trace_dir, design_kinds=("wrong_target",),
                 impl_kinds=("inverted_branch",), seeds=(1,),
                 duration_us=duration_us)
    return export_campaign(campaign_store_root(trace_dir))


def measure_determinism(tmp_dir: str, duration_us: int):
    disable()
    first = campaign_export(tmp_dir, "a", duration_us)
    again = campaign_export(tmp_dir, "b", duration_us)
    return {
        "export_identical": int(first == again),
        "export_bytes": len(first),
    }


def main() -> None:
    quick = "--quick" in sys.argv
    reps = QUICK_REPS if quick else FULL_REPS
    iters = QUICK_ITERS if quick else FULL_ITERS
    horizon = sec(1) if quick else sec(4)

    measure_poll_overhead(1)  # warm up caches and the allocator
    run_interp(QUICK_ITERS)

    tmp_dir = tempfile.mkdtemp(prefix="perf_obs_")
    try:
        overhead = {
            **measure_poll_overhead(reps),
            **measure_interp_overhead(iters, INTERP_REPS),
        }
        determinism = measure_determinism(tmp_dir, horizon)
        results = {
            "overhead": overhead,
            "export": measure_export(os.path.join(tmp_dir, "a")),
            "determinism": determinism,
            "quick": quick,
        }
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        disable()
    assert results["determinism"]["export_identical"] == 1

    name = "BENCH_obs_quick.json" if quick else "BENCH_obs.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    over = results["overhead"]
    print(f"64-watch poll: probe {over['probe_poll_calls']} calls "
          f"{over['probe_poll_us']}us, instrumented link "
          f"{over['link_poll_calls']} calls {over['link_poll_us']}us "
          f"(+{over['poll_extra_calls']} calls, "
          f"disabled ratio {over['poll_disabled_ratio']}x)")
    print(f"interp: off {over['interp_disabled_calls']} calls "
          f"{over['disabled_wall_s']}s, on {over['interp_enabled_calls']} "
          f"calls {over['enabled_wall_s']}s "
          f"(+{over['interp_extra_calls']} calls, "
          f"ratio {over['interp_disabled_ratio']}x)")
    exp = results["export"]
    print(f"export: {exp['store_events']} events -> {exp['export_bytes']}B "
          f"at {exp['events_per_sec']}/s")
    det = results["determinism"]
    print(f"determinism: identical={det['export_identical']} "
          f"({det['export_bytes']}B campaign export)")
    print(f"-> {out}")


if __name__ == "__main__":
    main()
