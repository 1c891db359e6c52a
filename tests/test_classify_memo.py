"""The classifier's model-reference memo equals a fresh replay, bit for bit.

``repro.engine.classify.model_reference`` memoizes
``System.lockstep_run`` per ``(pickled system, rounds)``. Every verdict,
divergence and detail string must be the same cold, warm and under the
un-memoized reference classifier kept in ``tests/fault_reference.py``.
"""

from __future__ import annotations

import functools
import random
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import (
    blinker_system,
    cruise_control_system,
    production_cell_system,
    traffic_light_system,
)
from repro.comdes.system import System
import repro.engine.classify as classify
from repro.engine.classify import (
    REFERENCE_MEMO_SIZE,
    classify_bug,
    model_reference,
)
from repro.faults.design import DESIGN_FAULT_KINDS, inject_design_fault
from repro.faults.implementation import (
    IMPL_FAULT_KINDS,
    inject_implementation_fault,
)

from fault_reference import ReferenceClassifier

PLAN = InstrumentationPlan.full()

SYSTEMS = {
    "blinker": blinker_system,
    "traffic": traffic_light_system,
    "cruise": cruise_control_system,
    "cell": production_cell_system,
}

KINDS = ([("design", kind) for kind in DESIGN_FAULT_KINDS]
         + [("implementation", kind) for kind in IMPL_FAULT_KINDS])


@functools.lru_cache(maxsize=None)
def base_firmware(name: str):
    return generate_firmware(SYSTEMS[name](), PLAN)


def build_case(name: str, category: str, kind: str, seed: int):
    """The (system, firmware) pair a campaign job would classify, built
    from scratch; the pristine pair when the injector declines."""
    system = SYSTEMS[name]()
    if category == "design":
        mutant, _ = inject_design_fault(system, kind, seed)
        if mutant is None:
            return system, base_firmware(name)
        return mutant, generate_firmware(mutant, PLAN)
    mutant_fw, _ = inject_implementation_fault(base_firmware(name), kind,
                                               seed)
    return system, mutant_fw if mutant_fw is not None else base_firmware(name)


def no_replay():
    """Fail the test if the model is replayed (the memo must hit)."""
    return mock.patch.object(System, "lockstep_run",
                             side_effect=AssertionError("memo missed"))


def counting_replays():
    """Patch ``System.lockstep_run`` to count calls; returns (patch, calls)."""
    calls = []
    original = System.lockstep_run

    def replay(self, rounds, overrides=None):
        calls.append(rounds)
        return original(self, rounds, overrides)

    return mock.patch.object(System, "lockstep_run", replay), calls


@pytest.fixture(autouse=True)
def empty_memo():
    classify._reference_memo.clear()
    yield
    classify._reference_memo.clear()


def assert_cold_warm_reference_agree(name, category, kind, seed,
                                     violation=True):
    classify._reference_memo.clear()
    system, firmware = build_case(name, category, kind, seed)
    cold = classify_bug(system, firmware, violation_observed=violation)
    # a freshly built, equal system: the key is content, not identity
    system, firmware = build_case(name, category, kind, seed)
    with no_replay():
        warm = classify_bug(system, firmware, violation_observed=violation)
    reference = ReferenceClassifier(system, firmware).classify(violation)
    assert cold == warm == reference, (name, category, kind, seed)


class TestBitIdentity:
    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(SYSTEMS)),
           case=st.sampled_from(KINDS),
           seed=st.integers(0, 19),
           violation=st.booleans())
    def test_cold_warm_and_reference_agree(self, name, case, seed,
                                           violation):
        assert_cold_warm_reference_agree(name, *case, seed, violation)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_every_kind_at_one_seed(self, name):
        for category, kind in KINDS:
            assert_cold_warm_reference_agree(name, category, kind, 1)


class TestMemoContract:
    def test_miss_replays_through_lockstep_run_once(self):
        system = traffic_light_system()
        firmware = base_firmware("traffic")
        patch, calls = counting_replays()
        with patch:
            classify_bug(system, firmware)
            classify_bug(traffic_light_system(), firmware)
            classify_bug(system, firmware, rounds=50)
        assert calls == [200, 50]

    def test_in_place_mutation_misses(self):
        system = traffic_light_system()
        firmware = base_firmware("traffic")
        assert classify_bug(system, firmware).verdict.value == "design"
        DESIGN_FAULT_KINDS["wrong_initial"](system, random.Random(1))
        after = classify_bug(system, firmware)
        assert after == ReferenceClassifier(system, firmware).classify()
        assert after.verdict.value == "implementation"
        assert len(classify._reference_memo) == 2

    def test_unpicklable_system_classifies_without_memo(self):
        system = traffic_light_system()
        system.lock = threading.Lock()  # locks cannot be pickled
        firmware = base_firmware("traffic")
        patch, calls = counting_replays()
        with patch:
            first = classify_bug(system, firmware)
            second = classify_bug(system, firmware)
        assert first == second == ReferenceClassifier(
            system, firmware).classify()
        assert calls == [200, 200]
        assert not classify._reference_memo

    def test_bounded_least_recently_used(self):
        systems = [blinker_system(period_us=period)
                   for period in range(10_000, 16_000, 1_000)]
        patch, calls = counting_replays()
        with patch:
            for system in systems[:REFERENCE_MEMO_SIZE]:
                model_reference(system, 20)
            model_reference(systems[0], 20)   # oldest becomes newest
            for system in systems[REFERENCE_MEMO_SIZE:]:
                model_reference(system, 20)
                assert len(classify._reference_memo) <= REFERENCE_MEMO_SIZE
            replays = len(calls)
            model_reference(systems[0], 20)   # kept: recently used
            assert len(calls) == replays
            model_reference(systems[1], 20)   # evicted first
            assert len(calls) == replays + 1
        assert len(classify._reference_memo) == REFERENCE_MEMO_SIZE

    def test_returned_rows_cannot_corrupt_the_memo(self):
        system = traffic_light_system()
        firmware = base_firmware("traffic")
        rows = model_reference(system, 200)
        assert [dict(row) for row in rows] == system.lockstep_run(200)
        signal = next(iter(rows[0]))
        with pytest.raises(TypeError):
            rows[0][signal] = -1
        with pytest.raises(TypeError):
            del rows[0][signal]
        with pytest.raises((TypeError, AttributeError)):
            rows.append({})
        assert model_reference(system, 200) is rows
        assert (classify_bug(system, firmware)
                == ReferenceClassifier(system, firmware).classify())
