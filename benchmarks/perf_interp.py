"""Sustained interpreter throughput on a tight synthetic loop.

Measures instructions/second of ``Cpu.run`` on a counting loop whose
opcode mix (load/store, immediate, ALU, compare, branch) resembles
generated firmware, on both of the CPU's loops:

* ``fused_instr_per_sec`` — the fast loop (``Cpu.load`` compiles the
  loop body into one block row, ``block_rows`` in the payload);
* ``checked_instr_per_sec`` — the checked per-instruction loop (forced
  with ``profile={}``), the reference semantics;
* ``fusion_speedup`` — their ratio, the machine-independent gate;
* ``watched_instr_per_sec`` — the cruise control firmware's task jobs
  under a ``SourceDebugger`` holding its code watches: watched stores
  are stop pcs of the fast loop;
* ``watch_speedup`` — that rate over the same jobs on the checked
  loop, the machine-independent gate of the code debugger's watch path;
* ``activation`` — short activations: every task job of the cruise
  control and traffic light firmware through ``Board.run_task``, no
  debugger attached. Per firmware it records ``activation_us`` (CPU time
  per job), ``instr_per_activation`` and ``activation_instr_per_sec``.
  Campaign jobs are this shape, a few dozen instructions per entry, so
  per-activation entry costs weigh here and not on the long loop;
* ``activation_dispatches`` — deterministic rather than timed: rows
  dispatched per task activation of the cruise control and traffic
  light firmware over one bare-kernel run (``DtmKernel``, no debugger)
  of 3 s modeled time. Each board's CPU gets row lists that count their
  own indexing: the fast loop indexes its block rows once per dispatch,
  and the checked loop its plain rows once per instruction it retires
  (a pc outside every block), so the count is exact on any host.

Reps alternate the fast, checked and activation arms (and stop-pc and
checked for the watched arms), so a host-speed dip hits every arm
alike, and each rep is timed in process CPU time
(``time.process_time``), which does not count time the process spent
descheduled. The best rep per arm is reported, with every rep's rate in
``rep_instr_per_sec`` (and ``rep_activation_us``) as the recorded
spread.

Block rows must be *observably invisible*, so the run also asserts both
loops retire identical instruction and cycle counts; the watched arms
must retire identical counts and record identical watch hits. The
payload also carries ``opcode_profile`` — the measured per-opcode
retirement counts from ``Cpu.run(profile=...)`` on the same workload,
hottest first. Writes ``BENCH_interp.json`` next to this file so the
perf trajectory of the hot loop is tracked across PRs.

Usage::

    python benchmarks/perf_interp.py           # full run (~4M instructions/rep)
    python benchmarks/perf_interp.py --quick   # CI smoke (~400k instructions)
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import cruise_control_system, traffic_light_system
from repro.debugger.gdb import SourceDebugger
from repro.experiments.requirements import cruise_code_watches
from repro.rtos.kernel import DtmKernel
from repro.target.assembler import Assembler
from repro.target.board import Board
from repro.target.cpu import Cpu, StopReason
from repro.target.isa import profile_names
from repro.target.memory import RAM_BASE, MemoryMap
from repro.util.timeunits import sec

#: loop iterations per rep; 8 instructions each
FULL_ITERS = 500_000
QUICK_ITERS = 50_000
REPS = 5  # per arm, interleaved; best-of rides out host noise
#: rounds of every cruise control task job per watched rep
FULL_WATCH_ROUNDS = 4_000
QUICK_WATCH_ROUNDS = 600
#: rounds of every task job per activation rep, per firmware
FULL_ACTIVATION_ROUNDS = 2_000
QUICK_ACTIVATION_ROUNDS = 300
#: firmware of the activation arm
ACTIVATION_SYSTEMS = {"cruise": cruise_control_system,
                      "traffic": traffic_light_system}
#: modeled time of the dispatch-count arm's bare-kernel run
DISPATCH_US = sec(3)


def counting_loop(iterations: int):
    """``for i in range(iterations): m[0] = i`` as stack code."""
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


def run_once(iterations: int, checked: bool):
    """The counting loop on the fast loop, or on the checked loop when
    *checked*."""
    memory = MemoryMap(16)
    cpu = Cpu(memory)
    cpu.load(counting_loop(iterations))
    cpu.reset_task(0)
    start = time.process_time()
    result = cpu.run(max_instructions=10 * iterations,
                     profile={} if checked else None)
    cpu_s = time.process_time() - start
    assert result.reason is StopReason.HALTED, result
    assert memory.peek(RAM_BASE) == iterations
    return result, cpu_s, cpu


def run_activations(firmware, rounds: int):
    """Every task job of *firmware*, *rounds* times, through
    ``Board.run_task`` with no debugger. Returns (activations,
    instructions, cpu_s)."""
    board = Board()
    board.load_firmware(firmware)
    tasks = list(firmware.entries)
    instructions = 0
    start = time.process_time()
    for _ in range(rounds):
        for task in tasks:
            result = board.run_task(task)
            instructions += result.instructions
    cpu_s = time.process_time() - start
    assert result.reason is StopReason.HALTED, result
    return rounds * len(tasks), instructions, cpu_s


def activation_record(reps):
    """Best rep (least CPU time) of one firmware's activation arm."""
    assert len({rep[:2] for rep in reps}) == 1, "activation reps disagree"
    count, instructions, cpu_s = min(reps, key=lambda rep: rep[2])
    return {
        "activation_us": round(cpu_s / count * 1e6, 3),
        "instr_per_activation": round(instructions / count, 1),
        "activation_instr_per_sec": round(instructions / cpu_s),
        "activations": count,
        "rep_activation_us": [round(rep[2] / count * 1e6, 3)
                              for rep in reps],
    }


class CountingRows(list):
    """Decoded rows that count every index: the fast loop reads
    ``rows[pc]`` once per dispatch, and the checked loop once per
    instruction."""

    reads = 0

    def __getitem__(self, index):
        CountingRows.reads += 1
        return list.__getitem__(self, index)


def activation_dispatches(factory) -> dict:
    """Rows dispatched per task activation over one bare-kernel run of
    *factory*'s system (no debugger, no emit handler)."""
    system = factory()
    firmware = generate_firmware(system, InstrumentationPlan.full())
    kernel = DtmKernel(system, firmware)
    runs = [0]
    for node in system.nodes():
        cpu = kernel.board_of(node).cpu
        # private copies: the decoded rows are shared and read-only
        cpu._rows = CountingRows(cpu._rows)
        cpu._brows = CountingRows(cpu._brows)
        run = cpu.run

        def counted_run(*args, _run=run, **kwargs):
            runs[0] += 1
            return _run(*args, **kwargs)
        cpu.run = counted_run
    CountingRows.reads = 0
    kernel.run(DISPATCH_US)
    dispatches = CountingRows.reads
    kernel.close()
    return {"per_activation": round(dispatches / runs[0], 1),
            "dispatches": dispatches, "activations": runs[0]}


def interleaved_best(iterations: int, activation_rounds: int):
    """Alternate fast, checked and activation reps; best rep and all
    rates per arm.

    Returns ``({checked: (best rate, result, cpu_s, block_rows,
    rates)}, {firmware: activation record})``.
    """
    firmwares = {name: generate_firmware(factory(),
                                         InstrumentationPlan.full())
                 for name, factory in ACTIVATION_SYSTEMS.items()}
    best = {}
    rates = {False: [], True: []}
    activations = {name: [] for name in firmwares}
    for _ in range(REPS):
        for checked in (False, True):
            result, cpu_s, cpu = run_once(iterations, checked)
            rate = result.instructions / cpu_s
            rates[checked].append(round(rate))
            if checked not in best or rate > best[checked][0]:
                best[checked] = (rate, result, cpu_s, cpu.block_rows)
        for name, firmware in firmwares.items():
            activations[name].append(
                run_activations(firmware, activation_rounds))
    return ({checked: best[checked] + (rates[checked],)
             for checked in best},
            {name: activation_record(reps)
             for name, reps in activations.items()})


def run_watched(firmware, rounds: int, checked: bool):
    """Every task job of *firmware*, *rounds* times, on one board under a
    ``SourceDebugger`` with the cruise control code watches; *checked*
    forces the per-instruction loop. Returns (instructions, cycles,
    hits, cpu_s)."""
    board = Board()
    board.load_firmware(firmware)
    debugger = SourceDebugger(board, firmware)
    for symbol, predicate, description in cruise_code_watches():
        debugger.watch(symbol, predicate, description)
    cpu = board.cpu
    entries = [firmware.entry_of(task) for task in firmware.entries]
    profile = {} if checked else None
    instructions = 0
    start = time.process_time()
    for _ in range(rounds):
        for entry in entries:
            cpu.reset_task(entry)
            result = cpu.run(profile=profile)
            instructions += result.instructions
    cpu_s = time.process_time() - start
    assert result.reason is StopReason.HALTED, result
    hits = [(hit.watchpoint.symbol, hit.pc, hit.cycles, hit.value,
             hit.previous) for hit in debugger.hits]
    return instructions, cpu.cycles, hits, cpu_s


def interleaved_watched(rounds: int):
    """Alternate the stop-pc and checked watched arms; best rate and all
    rates per arm, after checking both arms observe the same machine."""
    firmware = generate_firmware(cruise_control_system(),
                                 InstrumentationPlan.full())
    best = {}
    rates = {False: [], True: []}
    outcomes = {}
    for rep in range(REPS):
        # alternate which arm goes first
        for checked in ((False, True) if rep % 2 == 0 else (True, False)):
            instructions, cycles, hits, cpu_s = run_watched(
                firmware, rounds, checked)
            outcomes[checked] = (instructions, cycles, hits)
            rate = instructions / cpu_s
            rates[checked].append(round(rate))
            best[checked] = max(best.get(checked, 0.0), rate)
    assert outcomes[False] == outcomes[True], "watched arms disagree"
    return best, rates, outcomes[False]


def main() -> None:
    quick = "--quick" in sys.argv
    iterations = QUICK_ITERS if quick else FULL_ITERS
    run_once(QUICK_ITERS, checked=False)  # warm up caches and the allocator
    run_once(QUICK_ITERS, checked=True)

    arms, activation = interleaved_best(
        iterations,
        QUICK_ACTIVATION_ROUNDS if quick else FULL_ACTIVATION_ROUNDS)
    watch_best, watch_rates, watched = interleaved_watched(
        QUICK_WATCH_ROUNDS if quick else FULL_WATCH_ROUNDS)
    fused_rate, fused_result, fused_cpu_s, block_rows, fused_reps = arms[False]
    checked_rate, checked_result, checked_cpu_s, _, checked_reps = arms[True]
    dispatches = {name: activation_dispatches(factory)
                  for name, factory in ACTIVATION_SYSTEMS.items()}

    # measured opcode mix of the scoreboard workload (plain decoded
    # opcodes, never block rows)
    memory = MemoryMap(16)
    cpu = Cpu(memory)
    cpu.load(counting_loop(QUICK_ITERS))
    cpu.reset_task(0)
    counts: dict = {}
    profiled = cpu.run(max_instructions=10 * QUICK_ITERS, profile=counts)
    assert profiled.reason is StopReason.HALTED, profiled
    opcode_profile = profile_names(counts)

    # the timing-identity invariant, enforced on the scoreboard workload:
    # block rows change wall time, never the architectural counters
    assert fused_result.instructions == checked_result.instructions, (
        fused_result, checked_result)
    assert fused_result.cycles == checked_result.cycles, (
        fused_result, checked_result)

    best = {
        "fused_instr_per_sec": round(fused_rate),
        "checked_instr_per_sec": round(checked_rate),
        "fusion_speedup": round(fused_rate / checked_rate, 2),
        "block_rows": block_rows,
        "cycles": fused_result.cycles,
        "fused_cpu_s": round(fused_cpu_s, 6),
        "checked_cpu_s": round(checked_cpu_s, 6),
        "rep_instr_per_sec": {"fused": fused_reps, "checked": checked_reps,
                              "watched": watch_rates[False],
                              "watched_checked": watch_rates[True]},
        "watched_instr_per_sec": round(watch_best[False]),
        "watched_checked_instr_per_sec": round(watch_best[True]),
        "watch_speedup": round(watch_best[False] / watch_best[True], 2),
        "watched_instructions": watched[0],
        "watch_hits": len(watched[2]),
        "activation": activation,
        "activation_dispatches": dispatches,
        "instructions": fused_result.instructions,
        "opcode_profile": opcode_profile,
        "quick": quick,
    }

    # quick (CI smoke) runs get their own file so they never clobber the
    # committed full-run scoreboard
    name = "BENCH_interp_quick.json" if quick else "BENCH_interp.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(best, handle, indent=2)
        handle.write("\n")
    print(f"{best['fused_instr_per_sec']:,} instr/sec on block rows, "
          f"{best['checked_instr_per_sec']:,} checked "
          f"({best['fusion_speedup']}x, {block_rows} block rows; "
          f"{best['instructions']:,} instructions, "
          f"{best['cycles']:,} cycles); watched "
          f"{best['watched_instr_per_sec']:,} instr/sec, "
          f"{best['watch_speedup']}x the checked loop; activations "
          + ", ".join(f"{name} {record['activation_us']} us"
                      for name, record in activation.items())
          + "; dispatches per activation "
          + ", ".join(f"{name} {record['per_activation']}"
                      for name, record in dispatches.items())
          + f" -> {out}")


if __name__ == "__main__":
    main()
