"""E8 (paper §III claim): Distributed Timed Multitasking eliminates I/O jitter.

"Input and output signals are latched at task (transaction) start and
deadline instants, respectively, resulting in the elimination of I/O jitter
at both actor task and transaction levels."

Ablation: the same cruise-control system runs with and without deadline
latching under increasing interference load; output jitter of the plant's
``speed`` signal is measured.

Expected shape: latched jitter is exactly 0 at every load; unlatched jitter
grows with interference until deadlines start missing.
"""

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import cruise_control_system
from repro.experiments.harness import ResultTable, save_artifact
from repro.rtos.kernel import DtmKernel
from repro.rtos.task import LoadTask
from repro.util.timeunits import ms

LOADS_US = (0, 300, 700, 1200)
RUN_US = ms(20) * 80


def run_once(latched, load_us):
    system = cruise_control_system()
    firmware = generate_firmware(system, InstrumentationPlan.none())
    kernel = DtmKernel(system, firmware, latched=latched)
    if load_us:
        # Interference on the plant's node, above the plant's priority.
        kernel.add_load_task(LoadTask("noise", "node1", period_us=3100,
                                      demand_us=load_us, priority=0))
    kernel.run(RUN_US)
    jitter = kernel.jitter.jitter_us("speed", skip=3)
    mean_phase = kernel.jitter.mean_phase_us("speed", skip=3)
    return jitter, mean_phase, kernel.deadline_misses


def test_e8_jitter_elimination(benchmark):
    """Jitter table: latched vs unlatched across interference levels."""
    table = ResultTable(
        "E8 — output jitter of 'speed' vs interference (80 jobs)",
        ["interference (us per 3.1ms)", "DTM latched jitter (us)",
         "unlatched jitter (us)", "latched mean phase (us)", "misses"],
    )
    results = {}
    for load_us in LOADS_US:
        latched_jitter, latched_phase, misses = run_once(True, load_us)
        unlatched_jitter, _, _ = run_once(False, load_us)
        results[load_us] = (latched_jitter, unlatched_jitter)
        table.add_row(load_us, latched_jitter, unlatched_jitter,
                      f"{latched_phase:.0f}", misses)
    table.print()
    save_artifact("e8_jitter.txt", table.render())

    # The DTM claim: zero jitter with latching, at every interference level.
    for load_us, (latched, unlatched) in results.items():
        assert latched == 0, f"latched jitter {latched} at load {load_us}"
    # Without latching, interference shows through as output jitter.
    assert results[LOADS_US[-1]][1] > 0
    assert results[LOADS_US[-1]][1] >= results[LOADS_US[1]][1]
    # Latched outputs appear exactly at the deadline (phase == deadline).
    system = cruise_control_system()
    _, phase, _ = run_once(True, 0)
    assert round(phase) == system.actor("plant").task.deadline_us

    benchmark(run_once, True, 700)
