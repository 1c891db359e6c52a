"""Event-kernel and command-path throughput of the model debugger.

Runs the cruise control model-debugger simulation exactly as a campaign
job wires and runs it (:func:`repro.faults.campaign.model_debugger_rig`:
a :class:`repro.engine.rig.Rig` with the DTM kernel, one active channel
per node, the GDM engine and the monitor suite on one simulator, run by
:func:`repro.engine.rig.run_to_verdict`) for 3 s of modeled time, and
reports:

* ``events`` — the heap entries the simulator executed, the actor
  releases, and ``per_release``, entries per release (deterministic).
  The kernel releases a same-period actor group through one entry per
  instant and publishes it through one deadline entry, so this counts
  the per-job event plumbing left: frame deliveries, bus updates and
  whatever entries a job still pays for;
* ``events_per_sec`` — simulator events executed per CPU second. It is
  a rate of heap entries, so it falls when the kernel needs fewer
  entries for the same work; it stays in the payload, ungated;
* ``commands_per_sec`` — debug commands the engine reacted to per CPU
  second (clean-wire delivery, binding dispatch, reactions, monitors).

Each rep builds a fresh rig (untimed) and times its run, which ends by
closing the rig, in process CPU time (``time.process_time``), which
does not count time the process spent descheduled. The monitors do not
settle the run, so it reaches the horizon. The best rep per metric is reported, with
every rep's rates recorded as the spread. Every rep must execute the
same event and command counts — the run is deterministic — and the
counts are recorded too.

The ``job_garbage`` arm is deterministic rather than timed: with the
cyclic garbage collector disabled it runs one cruise control job and one
implementation job whose model run traps (``jump_offby`` seed 1)
through the campaign path (``run_fault_experiment``) and records what ``gc.collect()`` finds after
each. A job whose rig is freed by reference counting leaves only the
model containment graph ``system_to_model`` builds (~107 objects; ~190
while every job built its own COMDES metamodel); a rig left in
reference cycles leaves ~11k.

The ``calls`` arm is deterministic too: it counts the Python-level
``call`` events (``sys.setprofile``) of one cruise control job
(``run_fault_experiment`` with ``category="control"``: codegen, the
model-debugger run and the code-debugger run). The job runs once uncounted first, so per-process
first-use work (the shared COMDES metamodel, the firmware decode memo)
is not charged to it. Each task activation and each debug command pays
a fixed number of calls, so the count tracks the per-event plumbing the
interpreter loop does not account for. ``calls.per_detected_job``
counts the same way one traffic light job whose model run a monitor
detects at 0.30 s (``design/wrong_initial`` seed 1): a debugger run
stops at its verdict, so this job pays for 0.30 s of model run, not
3 s.

Writes ``BENCH_kernel.json`` (or ``BENCH_kernel_quick.json`` under
``--quick``) next to this file.

Usage::

    python benchmarks/perf_kernel.py           # full run (15 reps)
    python benchmarks/perf_kernel.py --quick   # CI smoke (5 reps)
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import cruise_control_system, traffic_light_system
from repro.experiments.requirements import (
    cruise_code_watches,
    cruise_monitor_suite,
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.engine.rig import run_to_verdict
from repro.faults.campaign import model_debugger_rig, run_fault_experiment
from repro.util.timeunits import sec

DURATION_US = sec(3)
FULL_REPS = 15
QUICK_REPS = 5


def one_rep(system, firmware):
    """(events, releases, commands, CPU seconds) of one simulated run."""
    kernel, engine, _ = model_debugger_rig(system, firmware,
                                           cruise_monitor_suite)
    start = time.process_time()
    run_to_verdict(kernel, DURATION_US, engine)
    elapsed = time.process_time() - start
    return (kernel.sim.executed_events, kernel.releases,
            engine.commands_processed, elapsed)


def measure(reps: int):
    system = cruise_control_system()
    firmware = generate_firmware(system, InstrumentationPlan.full())
    one_rep(system, firmware)  # warm caches and the allocator
    counts = set()
    event_rates, command_rates = [], []
    for _ in range(reps):
        events, releases, commands, elapsed = one_rep(system, firmware)
        counts.add((events, releases, commands))
        event_rates.append(events / elapsed)
        command_rates.append(commands / elapsed)
    if len(counts) != 1:
        raise RuntimeError(f"non-deterministic run: counts {sorted(counts)}")
    (events, releases, commands), = counts
    return {
        "system": "cruise_control",
        "duration_us": DURATION_US,
        "events": {"count": events, "releases": releases,
                   "per_release": round(events / releases, 3)},
        "commands": commands,
        "events_per_sec": int(max(event_rates)),
        "commands_per_sec": int(max(command_rates)),
        "rep_events_per_sec": [int(rate) for rate in event_rates],
        "rep_commands_per_sec": [int(rate) for rate in command_rates],
    }


def cruise_job(category: str, kind: str = "", seed: int = 0):
    """One cruise campaign job, as a campaign runs it."""
    return run_fault_experiment(
        cruise_control_system, cruise_monitor_suite, cruise_code_watches(),
        category, kind, seed, DURATION_US, InstrumentationPlan.full())


def job_garbage():
    """Objects the cyclic collector finds after each of two campaign jobs."""
    def control():
        cruise_job("control")

    def trapping_implementation():
        outcome = cruise_job("implementation", "jump_offby", 1)
        if outcome.model_how != "crash":
            raise RuntimeError(f"expected a trapping job, got {outcome!r}")

    per_job = {}
    for name, job in (("control", control),
                      ("implementation_trap", trapping_implementation)):
        gc.collect()
        gc.disable()
        try:
            job()
            per_job[name] = gc.collect()
        finally:
            gc.enable()
    return {"per_job": per_job, "max_per_job": max(per_job.values())}


def counted_calls(job) -> int:
    """Python calls (``sys.setprofile`` "call" events) of *job*, after
    one uncounted warm-up run of it."""
    job()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        job()
    finally:
        sys.setprofile(None)
    return calls


def detected_traffic_job():
    """The traffic job whose model run a monitor detects at 0.30 s."""
    outcome = run_fault_experiment(
        traffic_light_system, traffic_light_monitor_suite,
        traffic_light_code_watches(), "design", "wrong_initial", 1,
        DURATION_US, InstrumentationPlan.full())
    if outcome.model_how != "monitor":
        raise RuntimeError(f"expected a monitor detection, got {outcome!r}")


def job_calls():
    """Calls of one cruise control job and of one detected traffic job."""
    return {"per_job": counted_calls(lambda: cruise_job("control")),
            "per_detected_job": counted_calls(detected_traffic_job)}


def main() -> None:
    quick = "--quick" in sys.argv
    results = measure(QUICK_REPS if quick else FULL_REPS)
    results["job_garbage"] = job_garbage()
    results["calls"] = job_calls()
    results["quick"] = quick
    name = "BENCH_kernel_quick.json" if quick else "BENCH_kernel.json"
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"cruise model debugger, {results['duration_us']} us modeled: "
          f"{results['events']['count']} events "
          f"({results['events']['per_release']} per release) at "
          f"{results['events_per_sec']}/s, "
          f"{results['commands']} commands at "
          f"{results['commands_per_sec']}/s")
    print(f"cyclic garbage per job: {results['job_garbage']['per_job']}")
    print(f"python calls per control job: {results['calls']['per_job']}, "
          f"per detected traffic job: "
          f"{results['calls']['per_detected_job']}")
    print(f"-> {out}")


if __name__ == "__main__":
    main()
