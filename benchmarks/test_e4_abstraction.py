"""E4 (paper Fig 4): the abstraction guide and automatic GDM generation.

Walks the pairing workflow programmatically and measures abstraction time
against model size — "once user specified mapping is finished, a GDM can be
obtained automatically".

Expected shape: abstraction cost grows roughly linearly in model size; the
guide dialog regenerates at every size.
"""

import time

from repro.experiments.figures import fig4_abstraction_guide
from repro.experiments.harness import ResultTable, save_artifact
from repro.experiments.workloads import scaled_model
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.guide import AbstractionGuide
from repro.gdm.mapping import default_comdes_table

SIZES = (10, 50, 200, 800)


def test_e4_abstraction_scaling(benchmark):
    """Abstraction time vs model size; guide workflow exercised end-to-end."""
    table = ResultTable(
        "E4 — abstraction (model -> GDM) vs model size",
        ["states in model", "model objects", "GDM elements", "GDM links"],
    )
    # wall-clock times differ on every run: printed, not saved
    timing = ResultTable("E4 — abstraction wall time",
                         ["states in model", "abstraction (ms)"])
    elapsed_by_size = {}
    for size in SIZES:
        model = scaled_model(size)
        engine = AbstractionEngine(default_comdes_table(model.metamodel))
        t0 = time.perf_counter()
        gdm = engine.build(model)
        elapsed = (time.perf_counter() - t0) * 1000
        elapsed_by_size[size] = elapsed
        table.add_row(size, len(model), len(gdm.elements), len(gdm.links))
        timing.add_row(size, f"{elapsed:.2f}")
    table.print()
    timing.print()
    save_artifact("e4_abstraction.txt", table.render())
    save_artifact("fig4_abstraction_guide.txt", fig4_abstraction_guide())

    # The interactive workflow itself: pair, inspect, delete, re-pair, finish.
    model = scaled_model(20)
    guide = AbstractionGuide(model)
    guide.pair("State", "Circle", group_by_container=True)
    guide.pair("Signal", "Triangle")
    guide.delete_pairing("Signal")
    guide.pair("Signal", "Rectangle")
    guide.pair("Transition", "Arrow")
    assert ("Signal", "Rectangle") in guide.pairings()
    gdm = guide.finish()
    assert len(gdm.elements) == 20 + 1  # states + the pos signal

    # GDM element count scales with the model (sanity on the sweep).
    model_big = scaled_model(SIZES[-1])
    gdm_big = AbstractionEngine(
        default_comdes_table(model_big.metamodel)).build(model_big)
    assert len(gdm_big.elements) > SIZES[-1]

    benchmark(
        AbstractionEngine(default_comdes_table(model.metamodel)).build, model
    )
