"""Tests for the bug classifier (the paper's future-work extension)."""

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import traffic_light_system
from repro.engine.classify import BugClass, BugClassifier, classify_bug
from repro.faults.design import DESIGN_FAULT_KINDS, inject_design_fault
from repro.faults.implementation import (
    IMPL_FAULT_KINDS, inject_implementation_fault,
)

PLAN = InstrumentationPlan.none()


class TestVerdicts:
    def test_clean_pair_is_consistent(self):
        system = traffic_light_system()
        firmware = generate_firmware(system, PLAN)
        result = classify_bug(system, firmware, violation_observed=False)
        assert result.verdict is BugClass.CONSISTENT

    def test_design_fault_classified_as_design(self):
        mutant, _ = inject_design_fault(traffic_light_system(),
                                        "wrong_target", 1)
        firmware = generate_firmware(mutant, PLAN)  # faithful codegen
        result = classify_bug(mutant, firmware, violation_observed=True)
        assert result.verdict is BugClass.DESIGN
        assert result.divergence is None

    def test_implementation_fault_classified_as_implementation(self):
        system = traffic_light_system()
        firmware = generate_firmware(system, PLAN)
        mutant_fw, _ = inject_implementation_fault(firmware,
                                                   "inverted_branch", 1)
        result = classify_bug(system, mutant_fw, violation_observed=True)
        assert result.verdict is BugClass.IMPLEMENTATION
        assert result.divergence is not None
        assert result.divergence.model_value != result.divergence.target_value

    def test_crashing_firmware_is_implementation(self):
        system = traffic_light_system()
        firmware = generate_firmware(system, PLAN)
        mutant_fw, fault = inject_implementation_fault(firmware, "op_swap", 2)
        # seed 2 produces the stack-corrupting swap (crashes in campaign runs)
        result = classify_bug(system, mutant_fw)
        assert result.verdict is BugClass.IMPLEMENTATION

    def test_invalid_rounds_rejected(self):
        system = traffic_light_system()
        firmware = generate_firmware(system, PLAN)
        with pytest.raises(ValueError):
            BugClassifier(system, firmware, rounds=0)


class TestClassifierAccuracy:
    """The classifier must be near-perfect by construction: design faults

    never create divergence (codegen is faithful to the mutated model) and
    implementation faults either diverge or are behaviourally equivalent.
    """

    def test_all_design_faults_classified_design(self):
        for kind in DESIGN_FAULT_KINDS:
            for seed in (1, 2):
                mutant, fault = inject_design_fault(traffic_light_system(),
                                                    kind, seed)
                if mutant is None:
                    continue
                firmware = generate_firmware(mutant, PLAN)
                result = classify_bug(mutant, firmware)
                assert result.verdict is BugClass.DESIGN, (fault, result)

    def test_implementation_faults_never_classified_design_when_divergent(self):
        system = traffic_light_system()
        base = generate_firmware(system, PLAN)
        divergent = 0
        for kind in IMPL_FAULT_KINDS:
            for seed in (1, 2):
                mutant_fw, fault = inject_implementation_fault(base, kind, seed)
                if mutant_fw is None:
                    continue
                result = classify_bug(system, mutant_fw)
                # Equivalent mutants legitimately come back CONSISTENT-like
                # (classified DESIGN only because we *claim* a violation);
                # whenever the oracle finds divergence it must say so.
                if result.divergence is not None:
                    divergent += 1
                    assert result.verdict is BugClass.IMPLEMENTATION
        assert divergent >= 8  # most code mutations visibly diverge
