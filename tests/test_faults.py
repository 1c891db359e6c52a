"""Tests for fault injectors and the detection campaign."""

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware, run_firmware_lockstep
from repro.comdes.examples import traffic_light_system
from repro.errors import ReproError
from repro.faults.campaign import run_campaign
from repro.faults.design import DESIGN_FAULT_KINDS, inject_design_fault
from repro.faults.implementation import (
    IMPL_FAULT_KINDS,
    inject_implementation_fault,
)
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.util.timeunits import sec


class TestDesignFaults:
    def test_mutant_is_a_copy(self):
        original = traffic_light_system()
        before = len(original.actor("lights").network
                     .block("lamp").machine.transitions)
        mutant, fault = inject_design_fault(original, "remove_transition", 1)
        assert fault.category == "design"
        assert len(original.actor("lights").network
                   .block("lamp").machine.transitions) == before
        assert len(mutant.actor("lights").network
                   .block("lamp").machine.transitions) == before - 1

    def test_injection_is_seed_deterministic(self):
        a = inject_design_fault(traffic_light_system(), "wrong_target", 7)[1]
        b = inject_design_fault(traffic_light_system(), "wrong_target", 7)[1]
        assert a.description == b.description

    def test_all_kinds_apply_or_decline_cleanly(self):
        for kind in DESIGN_FAULT_KINDS:
            mutant, fault = inject_design_fault(traffic_light_system(), kind, 3)
            if mutant is None:
                assert fault is None
                continue
            # Mutants still compile and run.
            firmware = generate_firmware(mutant)
            run_firmware_lockstep(mutant, firmware, 10)

    def test_inapplicable_kind_returns_none(self):
        # Traffic light has no gain blocks.
        mutant, fault = inject_design_fault(traffic_light_system(),
                                            "gain_sign", 1)
        assert mutant is None and fault is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            inject_design_fault(traffic_light_system(), "martian", 1)

    def test_mutant_behaviour_differs_for_wrong_initial(self):
        original = traffic_light_system()
        mutant, _ = inject_design_fault(original, "wrong_initial", 1)
        assert (original.lockstep_run(10) != mutant.lockstep_run(10))


class TestImplementationFaults:
    def test_firmware_copy_not_aliased(self):
        firmware = generate_firmware(traffic_light_system())
        mutant, fault = inject_implementation_fault(firmware, "op_swap", 1)
        assert fault.category == "implementation"
        diffs = [i for i, (a, b) in enumerate(zip(firmware.code, mutant.code))
                 if a != b]
        assert len(diffs) == 1

    def test_instrumentation_never_mutated(self):
        firmware = generate_firmware(traffic_light_system(),
                                     InstrumentationPlan.full())
        emit_pcs = {pc for pc, i in enumerate(firmware.code)
                    if i.op == "EMIT"}
        protected = set()
        for pc in emit_pcs:
            protected.update({pc, pc - 1, pc - 2, pc - 3})
        for kind in IMPL_FAULT_KINDS:
            for seed in (1, 2):
                mutant, fault = inject_implementation_fault(firmware, kind, seed)
                if mutant is None:
                    continue
                diffs = [i for i, (a, b) in
                         enumerate(zip(firmware.code, mutant.code)) if a != b]
                assert not (set(diffs) & protected), (kind, seed, fault)

    def test_seed_determinism(self):
        firmware = generate_firmware(traffic_light_system())
        a = inject_implementation_fault(firmware, "const_corrupt", 5)[1]
        b = inject_implementation_fault(firmware, "const_corrupt", 5)[1]
        assert a.description == b.description

    def test_unknown_kind_rejected(self):
        firmware = generate_firmware(traffic_light_system())
        with pytest.raises(ReproError):
            inject_implementation_fault(firmware, "cosmic_ray", 1)


class TestGrownCorpusKinds:
    """The PR-4 corpus growth: guard inversion + stuck-at signal value."""

    def test_guard_inversion_registered_and_applies(self):
        assert "guard_inversion" in DESIGN_FAULT_KINDS
        mutant, fault = inject_design_fault(traffic_light_system(),
                                            "guard_inversion", 1)
        assert mutant is not None
        assert "guard inverted" in fault.description
        # the mutant still compiles and runs (structural validity)
        firmware = generate_firmware(mutant)
        run_firmware_lockstep(mutant, firmware, 10)

    def test_guard_inversion_changes_behaviour(self):
        original = traffic_light_system()
        mutant, _ = inject_design_fault(original, "guard_inversion", 1)
        assert original.lockstep_run(40) != mutant.lockstep_run(40)

    def test_stuck_at_signal_registered_and_applies(self):
        assert "stuck_at_signal" in IMPL_FAULT_KINDS
        firmware = generate_firmware(traffic_light_system())
        mutant, fault = inject_implementation_fault(firmware,
                                                    "stuck_at_signal", 1)
        assert mutant is not None
        assert "stuck-at" in fault.description
        assert ".in." in fault.description  # targets a latched input word

    def test_stuck_at_signal_rewrites_exactly_one_load(self):
        firmware = generate_firmware(traffic_light_system())
        mutant, _ = inject_implementation_fault(firmware, "stuck_at_signal", 3)
        diffs = [(a, b) for a, b in zip(firmware.code, mutant.code) if a != b]
        assert len(diffs) == 1
        old, new = diffs[0]
        assert old.op == "LOAD" and new.op == "PUSH"
        assert new.arg in (0, 1)


class TestCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(
            traffic_light_system,
            traffic_light_monitor_suite,
            traffic_light_code_watches,
            design_kinds=("wrong_target", "remove_transition", "wrong_initial"),
            impl_kinds=("inverted_branch", "store_drop"),
            seeds=(1, 2),
            duration_us=sec(4),
        )

    def test_no_false_positives(self, result):
        assert result.false_positives == 0

    def test_model_debugger_detects_design_errors(self, result):
        assert result.detection_rate("design", "model") >= 0.5

    def test_model_beats_code_on_design_errors(self, result):
        model = result.detection_rate("design", "model")
        code = result.detection_rate("design", "code") or 0.0
        assert model > code

    def test_latency_reported_for_detections(self, result):
        for outcome in result.outcomes:
            if outcome.model_detected:
                assert outcome.model_latency_us is not None

    def test_summary_rows_shape(self, result):
        rows = result.summary_rows()
        assert {row["category"] for row in rows} == {"design",
                                                     "implementation"}
        for row in rows:
            assert 0.0 <= row["model_rate"] <= 1.0

    @pytest.mark.parametrize("category", ["design", "comm"])
    def test_unknown_debugger_name_rejected(self, result, category):
        # "comm" has no outcomes here: the name is checked regardless
        for bad in ("modle", "Model", "gdb", ""):
            with pytest.raises(ValueError, match="unknown debugger"):
                result.detection_rate(category, bad)
            with pytest.raises(ValueError, match="unknown debugger"):
                result.mean_latency_us(category, bad)

    def test_detections_carry_oracle_verdicts(self, result):
        for outcome in result.outcomes:
            if outcome.model_detected:
                assert outcome.classified_as in ("design", "implementation",
                                                 "consistent")
            else:
                assert outcome.classified_as == ""

    def test_classification_accuracy_on_clear_cut_faults(self):
        # wrong_target is a pure model bug; inverted_branch a pure code
        # bug — the differential oracle must call both correctly.
        result = run_campaign(
            traffic_light_system,
            traffic_light_monitor_suite,
            traffic_light_code_watches,
            design_kinds=("wrong_target",),
            impl_kinds=("inverted_branch",),
            seeds=(1,),
            duration_us=sec(4),
        )
        verdicts = {o.fault.category: o.classified_as
                    for o in result.outcomes if o.model_detected}
        assert verdicts.get("design") == "design"
        assert verdicts.get("implementation") == "implementation"
        assert result.classification_accuracy() == 1.0
