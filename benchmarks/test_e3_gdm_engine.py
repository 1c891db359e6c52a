"""E3 (paper Fig 3): the GDM as an event-driven FSM.

Checks the debug model conforms to the GDM metamodel at every size, and
measures the engine's reaction dispatch latency as the model grows — the
"waiting state, listening for commands, performing reactions" loop.

Expected shape: dispatch is dominated by binding matching, growing linearly
with binding count; conformance holds at every size.
"""

import time

from repro.comdes.reflect import system_to_model
from repro.comm.protocol import Command, CommandKind
from repro.engine.engine import DebuggerEngine
from repro.experiments.figures import fig3_gdm_metamodel
from repro.experiments.harness import ResultTable, save_artifact
from repro.experiments.workloads import chain_system
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.mapping import default_comdes_table
from repro.meta.validate import validate_model

SIZES = (10, 50, 200, 500)


def build_engine(n_states):
    system = chain_system(n_states)
    model = system_to_model(system)
    gdm = AbstractionEngine(default_comdes_table(model.metamodel)).build(model)
    return DebuggerEngine(gdm, capture_frames=False), gdm


def test_e3_engine_dispatch_scaling(benchmark):
    """Dispatch latency vs model size; conformance at every size."""
    table = ResultTable(
        "E3 — GDM engine reaction dispatch vs model size",
        ["states", "elements", "bindings", "conforms to GDM metamodel"],
    )
    # wall-clock latencies differ on every run: printed, not saved
    timing = ResultTable("E3 — GDM engine dispatch latency",
                         ["states", "dispatch (us/cmd)"])
    dispatch_us = {}
    for size in SIZES:
        engine, gdm = build_engine(size)
        # Feed commands directly (unit-level, no simulated transport).
        from repro.comm.channel import DebugChannel
        engine.connect(DebugChannel())
        command = Command(CommandKind.STATE_ENTER,
                          f"state:walker.fsm.S{size // 2}", 0)
        loops = 300
        t0 = time.perf_counter()
        for _ in range(loops):
            engine.on_command(command)
        elapsed = (time.perf_counter() - t0) / loops * 1e6
        dispatch_us[size] = elapsed

        meta_form = gdm.to_meta_model()
        validate_model(meta_form)
        table.add_row(size, len(gdm.elements), len(gdm.bindings), True)
        timing.add_row(size, f"{elapsed:.1f}")

    table.print()
    timing.print()
    save_artifact("e3_gdm_engine.txt", table.render())
    ascii_art, svg = fig3_gdm_metamodel()
    save_artifact("fig3_gdm_metamodel.txt", ascii_art)
    save_artifact("fig3_gdm_metamodel.svg", svg)

    # Dispatch grows with model size but stays interactive (< 50ms/cmd).
    assert dispatch_us[SIZES[-1]] < 50_000

    engine, gdm = build_engine(100)
    from repro.comm.channel import DebugChannel
    engine.connect(DebugChannel())
    command = Command(CommandKind.STATE_ENTER, "state:walker.fsm.S50", 0)
    benchmark(engine.on_command, command)
