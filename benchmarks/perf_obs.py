"""Overhead and determinism scoreboard for the repro.obs telemetry layer.

Three claims gated here (see ``repro/obs/__init__.py`` invariants):

* **zero cost when unused (poll plane)** — with ``OBS`` disabled, a
  64-watch scatter read through the instrumented :class:`JtagLink`
  must run at the raw probe's rate. The probe sits *below* every
  telemetry tap, so it is the obs-free baseline this layer can never
  touch (``overhead.poll_disabled_ratio``, ceiling-gated);
* **zero cost when unused (interp plane)** — the per-instruction
  interpreter loop carries no telemetry at all, so enabling the
  registry must not move the fused counting-loop kernel
  (``overhead.interp_disabled_ratio`` = enabled/disabled wall-clock,
  ceiling-gated: any future per-instruction tap trips this);
* **deterministic export** — two campaigns at the same seed, collected
  into different directories, must export byte-identical Chrome
  trace-event documents (``determinism.export_identical``,
  floor-gated). Export throughput over a kernel spill store is
  recorded as ``export.events_per_sec``.

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

from repro.codegen import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import traffic_light_system
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import JtagLink
from repro.comm.usb import UsbTransport
from repro.experiments import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults import run_campaign
from repro.fleet import SerialRunner
from repro.obs import disable, enable
from repro.obs.export import export_campaign, chrome_trace, render_bytes
from repro.rtos.kernel import DtmKernel
from repro.target.assembler import Assembler
from repro.target.board import Board, DebugPort
from repro.target.cpu import Cpu
from repro.target.memory import RAM_BASE, MemoryMap
from repro.tracedb import TraceStore, campaign_store_root
from repro.util.timeunits import ms, sec

WATCHES = 64
FULL_REPS = 40
QUICK_REPS = 5
FULL_ITERS = 200_000
QUICK_ITERS = 50_000
INTERP_REPS = 5  # interleaved off/on pairs, best-of each arm


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


def measure_poll_overhead(reps: int):
    """Instrumented link vs the obs-free probe beneath it, OBS disabled."""
    disable()
    addrs = watch_addrs(WATCHES)
    probe, link = jtag_pair()
    probe_t = best_elapsed(probe.read_scatter_timed, addrs, reps)
    link_t = best_elapsed(link.read_scatter, addrs, reps)
    return {
        "watches": WATCHES,
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
    cpu = Cpu(memory, fuse=True)
    cpu.load(counting_loop(iterations))
    cpu.reset_task(0)
    start = time.perf_counter()
    cpu.run(max_instructions=10 * iterations)
    wall_s = time.perf_counter() - start
    assert memory.peek(RAM_BASE) == iterations
    return wall_s


def measure_interp_overhead(iterations: int, reps: int):
    """The fused fast loop with the registry on vs off.

    Arms are interleaved (off, on, off, on, ...) so clock/thermal drift
    over the run cancels instead of biasing whichever arm went first.
    """
    disabled_t = enabled_t = float("inf")
    for _ in range(reps):
        disable()
        disabled_t = min(disabled_t, run_interp(iterations))
        enable()
        enabled_t = min(enabled_t, run_interp(iterations))
    disable()
    return {
        "iterations": iterations,
        "disabled_wall_s": round(disabled_t, 4),
        "enabled_wall_s": round(enabled_t, 4),
        "interp_disabled_ratio": round(enabled_t / disabled_t, 3),
    }


def measure_export(tmp_dir: str, duration_us: int):
    """Export throughput over a kernel spill store (modeled-us slices)."""
    disable()
    system = traffic_light_system()
    firmware = generate_firmware(system, InstrumentationPlan.none())
    store = TraceStore(os.path.join(tmp_dir, "spill"), segment_events=4096)
    kernel = DtmKernel(system, firmware, record_capacity=256,
                       record_spill=store)
    kernel.run(duration_us)
    store.flush()
    events = store.event_count
    start = time.perf_counter()
    data = render_bytes(chrome_trace(store=store))
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
        results = {
            "overhead": {
                **measure_poll_overhead(reps),
                **measure_interp_overhead(iters, INTERP_REPS),
            },
            "export": measure_export(tmp_dir, sec(30) if quick else sec(120)),
            "determinism": measure_determinism(tmp_dir, horizon),
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
    print(f"64-watch poll: probe {over['probe_poll_us']}us, "
          f"instrumented link {over['link_poll_us']}us "
          f"(disabled ratio {over['poll_disabled_ratio']}x)")
    print(f"fused interp: off {over['disabled_wall_s']}s, "
          f"on {over['enabled_wall_s']}s "
          f"(ratio {over['interp_disabled_ratio']}x)")
    exp = results["export"]
    print(f"export: {exp['store_events']} events -> {exp['export_bytes']}B "
          f"at {exp['events_per_sec']}/s")
    det = results["determinism"]
    print(f"determinism: identical={det['export_identical']} "
          f"({det['export_bytes']}B campaign export)")
    print(f"-> {out}")


if __name__ == "__main__":
    main()
