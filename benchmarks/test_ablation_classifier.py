"""Ablation: the bug classifier (paper's future work, repro.engine.classify).

Runs the differential oracle over every fault the E9 campaign injects and
scores classification accuracy against the injected ground truth. Faults
whose code mutation is behaviourally equivalent (no divergence, no
violation) are excluded — there is nothing to classify.

Expected shape: design faults are classified 'design' whenever a faithful
code generator is used (by construction); implementation faults are
classified 'implementation' whenever they actually diverge.
"""

from repro.codegen import InstrumentationPlan, generate_firmware
from repro.comdes.examples import traffic_light_system
from repro.engine.classify import BugClass, classify_bug
from repro.experiments.harness import ResultTable, save_artifact
from repro.faults.design import DESIGN_FAULT_KINDS, inject_design_fault
from repro.faults.implementation import (
    IMPL_FAULT_KINDS, inject_implementation_fault,
)

PLAN = InstrumentationPlan.none()
SEEDS = (1, 2, 3)


def test_ablation_bug_classification(benchmark):
    """Classifier accuracy table over the full fault population."""
    rows = []
    correct = {"design": 0, "implementation": 0}
    total = {"design": 0, "implementation": 0}
    inconclusive = 0

    for kind in DESIGN_FAULT_KINDS:
        for seed in SEEDS:
            mutant, fault = inject_design_fault(traffic_light_system(),
                                                kind, seed)
            if mutant is None:
                continue
            firmware = generate_firmware(mutant, PLAN)
            result = classify_bug(mutant, firmware)
            total["design"] += 1
            if result.verdict is BugClass.DESIGN:
                correct["design"] += 1
            rows.append((fault.fault_id, "design", result.verdict.value))

    base_system = traffic_light_system()
    base_firmware = generate_firmware(base_system, PLAN)
    for kind in IMPL_FAULT_KINDS:
        for seed in SEEDS:
            mutant_fw, fault = inject_implementation_fault(base_firmware,
                                                           kind, seed)
            if mutant_fw is None:
                continue
            result = classify_bug(base_system, mutant_fw)
            if result.divergence is None and result.verdict is BugClass.DESIGN:
                # Behaviourally equivalent code mutation: nothing observable
                # to classify. Excluded from scoring, counted for honesty.
                inconclusive += 1
                rows.append((fault.fault_id, "implementation",
                             "equivalent (excluded)"))
                continue
            total["implementation"] += 1
            if result.verdict is BugClass.IMPLEMENTATION:
                correct["implementation"] += 1
            rows.append((fault.fault_id, "implementation",
                         result.verdict.value))

    table = ResultTable(
        "Ablation — differential bug classifier (future work of the paper)",
        ["injected category", "classified correctly", "accuracy"],
    )
    for category in ("design", "implementation"):
        accuracy = correct[category] / total[category]
        table.add_row(category, f"{correct[category]}/{total[category]}",
                      f"{accuracy * 100:.0f}%")
    table.add_row("equivalent code mutants", inconclusive, "excluded")
    table.print()

    detail = "\n".join(f"{fid:34s} truth={truth:15s} verdict={verdict}"
                       for fid, truth, verdict in rows)
    save_artifact("ablation_classifier.txt",
                  table.render() + "\n\n" + detail)

    # By construction the oracle is exact on these fault populations.
    assert correct["design"] == total["design"]
    assert correct["implementation"] == total["implementation"]

    mutant, _ = inject_design_fault(traffic_light_system(), "wrong_target", 1)
    firmware = generate_firmware(mutant, PLAN)
    benchmark(classify_bug, mutant, firmware)
