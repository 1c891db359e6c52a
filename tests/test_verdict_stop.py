"""A debugger run stopped at its verdict scores like one run to the horizon.

An untraced model run ends at its first monitor report and every code
run at its first watch hit (:class:`repro.errors.RunSettled`). The
full-horizon runners in ``tests/fault_reference.py`` keep the old
behaviour: no stop, and a crash wins over an earlier detection. Every
fault kind of every category, on each example system at fault seeds 1
and 2, must give the same :class:`FaultOutcome` row under both.

The stop is exact only if no command delivered after the first report
carries an earlier host time, so the full-horizon runs also record the
``command`` stream of the engine bus and check that ``t_host`` never
decreases in delivery order, on the chaos wires too.
"""

from __future__ import annotations

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import (
    cruise_control_system,
    production_cell_system,
    traffic_light_system,
)
from repro.experiments.requirements import (
    cruise_code_watches,
    cruise_monitor_suite,
    production_cell_code_watches,
    production_cell_monitor_suite,
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import FaultOutcome, run_fault_experiment
from repro.faults.comm import COMM_FAULT_KINDS
from repro.faults.design import DESIGN_FAULT_KINDS
from repro.faults.implementation import IMPL_FAULT_KINDS
from repro.util.timeunits import sec

from fault_reference import full_horizon_experiment

DURATION_US = sec(3)
SEEDS = (1, 2)

SYSTEMS = {
    "traffic": (traffic_light_system, traffic_light_monitor_suite,
                traffic_light_code_watches),
    "cruise": (cruise_control_system, cruise_monitor_suite,
               cruise_code_watches),
    "cell": (production_cell_system, production_cell_monitor_suite,
             production_cell_code_watches),
}

#: (category, kind, seed) of every job compared: the control job, then
#: every kind of every category at each seed
JOBS = [("control", "", 0)] + [
    (category, kind, seed)
    for category, kinds in (("design", DESIGN_FAULT_KINDS),
                            ("implementation", IMPL_FAULT_KINDS),
                            ("comm", COMM_FAULT_KINDS))
    for kind in kinds for seed in SEEDS]


def row(outcome):
    """Every field of an outcome, the fault by its own fields."""
    if outcome is None:
        return None
    fault = outcome.fault
    return tuple(
        tuple(getattr(fault, name) for name in fault.__slots__)
        if name == "fault" and fault is not None else getattr(outcome, name)
        for name in FaultOutcome.__slots__)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_stopped_runs_score_like_full_horizon_runs(name):
    system, monitors, watches = SYSTEMS[name]
    plan = InstrumentationPlan.full()
    specs = watches()
    base = generate_firmware(system(), plan)
    hows = set()
    for category, kind, seed in JOBS:
        args = (system, monitors, specs, category, kind, seed, DURATION_US,
                plan)
        firmware = None if category == "design" else base
        delivered = []
        reference = full_horizon_experiment(
            *args, base_firmware=firmware,
            on_command=lambda command, **_: delivered.append(command.t_host))
        stopped = run_fault_experiment(*args, base_firmware=firmware)
        job = (name, category, kind, seed)
        assert row(stopped) == row(reference), job
        assert all(a <= b for a, b in zip(delivered, delivered[1:])), job
        if stopped is not None:
            hows.update((stopped.model_how, stopped.code_how))
    # the corpus exercises the stop, not only runs that detect nothing
    assert "monitor" in hows, (name, hows)
