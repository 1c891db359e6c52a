"""Reference forms of the classifier's model replay and fault injection.

``src/`` memoizes the classifier's model reference and copies firmware
structurally when it injects an implementation fault. This module keeps
the straightforward forms, as they were before, so tests can prove the
fast ones bit-identical:

* :func:`reference_first_divergence` — replays the model on every call;
* :class:`ReferenceClassifier` — a :class:`BugClassifier` that uses it;
* :func:`deepcopy_inject` — ``copy.deepcopy`` of the whole image, then
  the same injector.
"""

from __future__ import annotations

import copy
import random
from typing import Optional, Tuple

from repro.codegen.pipeline import run_firmware_lockstep
from repro.comdes.system import System
from repro.engine.classify import BugClassifier, Divergence
from repro.faults.design import FaultDescriptor
from repro.faults.implementation import IMPL_FAULT_KINDS
from repro.target.board import Board
from repro.target.firmware import FirmwareImage


def reference_first_divergence(system: System, firmware: FirmwareImage,
                               rounds: int) -> Optional[Divergence]:
    """First model/firmware disagreement, with a fresh model replay."""
    reference = system.lockstep_run(rounds)
    target = run_firmware_lockstep(system, firmware, rounds, board=Board())
    for index, (ref_row, tgt_row) in enumerate(zip(reference, target)):
        if ref_row == tgt_row:
            continue
        for signal in sorted(ref_row):
            if ref_row[signal] != tgt_row[signal]:
                return Divergence(index, signal, ref_row[signal],
                                  tgt_row[signal])
    return None


class ReferenceClassifier(BugClassifier):
    """The classifier with the un-memoized model replay."""

    def _first_divergence(self) -> Optional[Divergence]:
        return reference_first_divergence(self.system, self.firmware,
                                          self.rounds)


def deepcopy_inject(firmware: FirmwareImage, kind: str, seed: int
                    ) -> Tuple[Optional[FirmwareImage],
                               Optional[FaultDescriptor]]:
    """``inject_implementation_fault`` on a deep copy of *firmware*."""
    mutant = copy.deepcopy(firmware)
    description = IMPL_FAULT_KINDS[kind](mutant, random.Random(seed))
    if description is None:
        return None, None
    descriptor = FaultDescriptor(
        fault_id=f"impl/{kind}/{seed}", category="implementation", kind=kind,
        location=description.split(":")[0], description=description,
    )
    return mutant, descriptor
