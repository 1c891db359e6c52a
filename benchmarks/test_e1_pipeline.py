"""E1 (paper Fig 1): the end-to-end MDD pipeline with the model debugger.

Regenerates the Fig 1 artifact and measures each pipeline stage — modeling,
reflection, code generation, abstraction, debug session — for the
cruise-control workload.
"""

import time

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import cruise_control_system
from repro.comdes.reflect import system_to_model
from repro.engine.session import DebugSession
from repro.experiments.figures import fig1_mdd_role
from repro.experiments.harness import ResultTable, save_artifact
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.mapping import default_comdes_table
from repro.util.timeunits import ms


def _stage_times():
    times = {}
    t0 = time.perf_counter()
    system = cruise_control_system()
    times["model construction"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = system_to_model(system)
    times["reflection (EMF bridge)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    firmware = generate_firmware(system, InstrumentationPlan())
    times["model transformation (codegen)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gdm = AbstractionEngine(default_comdes_table(model.metamodel)).build(model)
    times["abstraction (GDM generation)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    session = DebugSession(cruise_control_system(), channel_kind="active")
    session.setup().run(ms(20) * 50)
    times["debug session (1s simulated)"] = time.perf_counter() - t0
    return times, model, firmware, gdm, session


def test_e1_pipeline_stages(benchmark):
    """Stage timing table + Fig 1 artifact; benchmark = full cold pipeline."""
    times, model, firmware, gdm, session = _stage_times()

    table = ResultTable("E1 — MDD pipeline stages (cruise control)",
                        ["stage", "output"])
    # wall-clock times differ on every run: printed, not saved
    timing = ResultTable("E1 — MDD pipeline stage wall time",
                         ["stage", "wall time (ms)"])
    outputs = {
        "model construction": "3 actors, 5 signals",
        "reflection (EMF bridge)": f"{len(model)} model objects",
        "model transformation (codegen)":
            f"{firmware.instruction_count()} instructions",
        "abstraction (GDM generation)":
            f"{len(gdm.elements)} elements, {len(gdm.links)} links",
        "debug session (1s simulated)":
            f"{len(session.trace)} commands traced",
    }
    for stage, seconds in times.items():
        table.add_row(stage, outputs[stage])
        timing.add_row(stage, f"{seconds * 1000:.2f}")
    table.print()
    timing.print()
    save_artifact("e1_pipeline.txt", table.render())
    save_artifact("fig1_mdd_role.txt", fig1_mdd_role())

    # The headline number: a cold model->debuggable-session pipeline.
    def cold_pipeline():
        s = DebugSession(cruise_control_system(), channel_kind="active")
        s.setup()
        return s

    session = benchmark(cold_pipeline)
    assert session.engine.state.name == "WAITING"
    assert len(session.gdm.elements) > 10
