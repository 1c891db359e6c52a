"""E9 (paper §II claim): the model debugger detects design errors and
implementation errors; design errors are its "primary job".

Fault-injection campaign over the traffic-light system: 8 design-fault
kinds and 8 implementation-fault kinds, three seeds each. The model-level
debugger (GMDF + requirement monitors) competes with the code-level
baseline (source debugger + 4 hardware watchpoints with range predicates).

Expected shape: the model debugger detects a large majority of both
categories; the code debugger catches crashes and little else — on design
errors in particular it is nearly blind, which is the paper's motivation.
"""

from repro.comdes.examples import traffic_light_system
from repro.experiments.harness import ResultTable, save_artifact
from repro.experiments.requirements import (
    traffic_light_code_watches, traffic_light_monitor_suite,
)
from repro.faults.campaign import run_campaign
from repro.util.timeunits import sec


def test_e9_detection_campaign(benchmark):
    """The campaign table (the reproduction's main quantitative result)."""
    result = run_campaign(
        traffic_light_system,
        traffic_light_monitor_suite,
        traffic_light_code_watches,
        seeds=(1, 2, 3),
        duration_us=sec(4),
    )

    table = ResultTable(
        "E9 — fault detection: model debugger vs code debugger",
        ["category", "faults", "model detect", "code detect",
         "model latency (ms)", "code latency (ms)"],
    )
    for row in result.summary_rows():
        table.add_row(
            row["category"], row["faults"],
            f"{row['model_rate'] * 100:.0f}%",
            f"{(row['code_rate'] or 0) * 100:.0f}%",
            "-" if row["model_latency_us"] is None
            else f"{row['model_latency_us'] / 1000:.0f}",
            "-" if row["code_latency_us"] is None
            else f"{row['code_latency_us'] / 1000:.0f}",
        )
    table.print()

    detail = ResultTable(
        "E9 — per-fault outcomes",
        ["fault", "model", "how", "code", "how", "description"],
    )
    for outcome in result.outcomes:
        detail.add_row(
            outcome.fault.fault_id,
            outcome.model_detected, outcome.model_how,
            outcome.code_detected, outcome.code_how,
            outcome.fault.description[:48],
        )
    save_artifact("e9_detection.txt",
                  table.render() + "\n\n" + detail.render())

    # No false positives on the fault-free control run.
    assert result.false_positives == 0
    # The headline shape: model-level detection dominates.
    assert result.detection_rate("design", "model") >= 0.6
    assert result.detection_rate("implementation", "model") >= 0.6
    assert (result.detection_rate("design", "model")
            > (result.detection_rate("design", "code") or 0.0))
    assert (result.detection_rate("implementation", "model")
            >= (result.detection_rate("implementation", "code") or 0.0))

    # Benchmark one full model-debugger fault run.
    from repro.faults.campaign import _run_model_debugger
    from repro.faults.design import inject_design_fault
    from repro.codegen.instrument import InstrumentationPlan
    from repro.codegen.pipeline import generate_firmware
    mutant, _ = inject_design_fault(traffic_light_system(), "wrong_target", 1)
    firmware = generate_firmware(mutant, InstrumentationPlan.full())
    benchmark(_run_model_debugger, mutant, firmware,
              traffic_light_monitor_suite, sec(2))
