"""Implementation-fault injection copies firmware structurally, safely.

``inject_implementation_fault`` builds the mutant with the
``FirmwareImage`` constructor and shares the ``Instr`` objects and the
symbol table with the base image. These tests hold it to the deep-copy
reference in ``tests/fault_reference.py``: the base image never changes,
and the mutant, its descriptor and its memory patches are the same.
"""

from __future__ import annotations

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import (
    blinker_system,
    cruise_control_system,
    production_cell_system,
    traffic_light_system,
)
from repro.faults.implementation import (
    IMPL_FAULT_KINDS,
    inject_implementation_fault,
    split_memory_patches,
)

from fault_reference import deepcopy_inject

PLAN = InstrumentationPlan.full()

SYSTEMS = {
    "blinker": blinker_system,
    "traffic": traffic_light_system,
    "cruise": cruise_control_system,
    "cell": production_cell_system,
}

SEEDS = range(20)


def image_state(firmware):
    """Everything observable about an image, by value."""
    return (
        firmware.name,
        [(i.op, i.arg, i.src_path, i.code) for i in firmware.code],
        dict(firmware.entries),
        dict(firmware.data_init),
        dict(firmware.path_table),
        [(s.name, s.addr, s.kind) for s in firmware.symbols.symbols()],
        {path: firmware.id_of_path(path)
         for path in firmware.path_table.values()},
    )


def descriptor_state(fault):
    return (fault.fault_id, fault.category, fault.kind, fault.location,
            fault.description)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_structural_copy_equals_deepcopy_and_leaves_base_alone(name):
    base = generate_firmware(SYSTEMS[name](), PLAN)
    pristine = image_state(base)
    instrs = list(base.code)
    applied = 0
    for kind in IMPL_FAULT_KINDS:
        for seed in SEEDS:
            mutant, fault = inject_implementation_fault(base, kind, seed)
            expected, expected_fault = deepcopy_inject(base, kind, seed)
            assert (mutant is None) == (expected is None), (kind, seed)
            if mutant is None:
                continue
            applied += 1
            assert image_state(mutant) == image_state(expected), (kind, seed)
            assert descriptor_state(fault) == descriptor_state(
                expected_fault)
            run_fw, patches = split_memory_patches(base, mutant)
            ref_fw, ref_patches = split_memory_patches(base, expected)
            assert image_state(run_fw) == image_state(ref_fw), (kind, seed)
            assert patches == ref_patches, (kind, seed)
            # the documented sharing, and nothing more
            assert mutant.symbols is base.symbols
            assert mutant.code is not base.code
            assert mutant.data_init is not base.data_init
            assert mutant.entries is not base.entries
            assert mutant.path_table is not base.path_table
            # replace, never mutate: the base holds the same objects
            assert all(a is b for a, b in zip(base.code, instrs)), (kind, seed)
            assert image_state(base) == pristine, (kind, seed)
    assert applied > 0
    assert image_state(base) == image_state(
        generate_firmware(SYSTEMS[name](), PLAN))


def test_mutant_edits_do_not_reach_the_base():
    base = generate_firmware(traffic_light_system(), PLAN)
    pristine = image_state(base)
    mutant, _ = inject_implementation_fault(base, "init_corrupt", 1)
    mutant.code.pop()
    mutant.data_init.clear()
    mutant.entries.clear()
    mutant.path_table.clear()
    assert image_state(base) == pristine
