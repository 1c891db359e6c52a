"""Bug classification: design error or implementation error?

The paper leaves this open: "The differentiation of different types of bugs
in such a complex situation is a subject of future work, and this could
possibly be another potential advantage of the model debugger technique."

This module implements that future work with a **differential oracle**,
something only a *model* debugger can do, because it owns both artifacts:

* replay the scenario on the **reference model interpreter** (the model's
  ground-truth semantics), and
* replay it on the **generated firmware** (a fresh board, no debugger);

then compare the signal histories. If they diverge — or the firmware traps —
the code does not implement the model: an **implementation error** (bad
transformation / manual coding). If they agree bit-for-bit, the code
faithfully implements the model, so an observed requirement violation must
originate in the model itself: a **design error**.

The model side of that comparison depends only on the system and the
round count, never on the firmware under test. Campaigns classify the
pristine system once per implementation fault, and design mutants repeat,
so :func:`model_reference` memoizes it:

* the key is ``(pickle.dumps(system), rounds)``. The raw pickle bytes are
  the key, not a hash of them, so two keys are equal exactly when the two
  systems serialize to the same object graph. Keying on object identity
  would be wrong: campaigns build a fresh system per job, and a design
  mutant is a mutated copy;
* the memo is exact because :meth:`System.lockstep_run` is a pure
  function of that pickled state. A system mutated in place after a
  lookup pickles differently and misses;
* at most :data:`REFERENCE_MEMO_SIZE` entries are kept, and the least
  recently used goes first. A campaign's repeats lie close together in
  its call sequence, so a small bound catches them;
* entries hold read-only rows, so no caller can corrupt one;
* a system that cannot be pickled is replayed without the memo.
"""

from __future__ import annotations

import enum
import pickle
from collections import OrderedDict
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from repro.codegen.pipeline import run_firmware_lockstep
from repro.comdes.system import System
from repro.errors import TargetFault
from repro.target.board import Board
from repro.target.firmware import FirmwareImage


class BugClass(enum.Enum):
    """Verdicts of the differential oracle."""

    DESIGN = "design"                  # model and code agree; model is wrong
    IMPLEMENTATION = "implementation"  # code diverges from the model
    CONSISTENT = "consistent"          # no divergence, no violation reported


class Divergence(NamedTuple):
    """First point where firmware and model semantics disagree."""

    round_index: int
    signal: str
    model_value: int
    target_value: int


class Classification(NamedTuple):
    """A verdict plus supporting evidence."""

    verdict: BugClass
    divergence: Optional[Divergence]
    detail: str


#: model references kept by :func:`model_reference`
REFERENCE_MEMO_SIZE = 4

#: (pickled system, rounds) -> read-only reference rows, oldest use first
_reference_memo: OrderedDict = OrderedDict()


def model_reference(system: System,
                    rounds: int) -> Sequence[Mapping[str, int]]:
    """``system.lockstep_run(rounds)``, memoized as read-only rows.

    See the module docstring for the key and why it is exact.
    """
    try:
        key = (pickle.dumps(system, pickle.HIGHEST_PROTOCOL), rounds)
    except Exception:  # pickling raises several types; all mean "no memo"
        return system.lockstep_run(rounds)
    rows = _reference_memo.get(key)
    if rows is None:
        rows = _reference_memo[key] = tuple(
            MappingProxyType(row) for row in system.lockstep_run(rounds))
        if len(_reference_memo) > REFERENCE_MEMO_SIZE:
            _reference_memo.popitem(last=False)
    else:
        _reference_memo.move_to_end(key)
    return rows


class BugClassifier:
    """Differential model-vs-code oracle for one system/firmware pair."""

    def __init__(self, system: System, firmware: FirmwareImage,
                 rounds: int = 200) -> None:
        if rounds <= 0:
            raise ValueError(f"rounds must be positive, got {rounds}")
        self.system = system
        self.firmware = firmware
        self.rounds = rounds

    def _first_divergence(self) -> Optional[Divergence]:
        reference = model_reference(self.system, self.rounds)
        target = run_firmware_lockstep(self.system, self.firmware,
                                       self.rounds, board=Board())
        for index, (ref_row, tgt_row) in enumerate(zip(reference, target)):
            if ref_row == tgt_row:
                continue
            for signal in sorted(ref_row):
                if ref_row[signal] != tgt_row[signal]:
                    return Divergence(index, signal, ref_row[signal],
                                      tgt_row[signal])
        return None

    def classify(self, violation_observed: bool = True) -> Classification:
        """Run the oracle.

        ``violation_observed`` records whether the debugging session actually
        saw a requirement violation (a clean differential run without a
        violation is simply CONSISTENT).
        """
        try:
            divergence = self._first_divergence()
        except TargetFault as fault:
            return Classification(
                BugClass.IMPLEMENTATION, None,
                f"firmware trapped during differential run: {fault}",
            )
        if divergence is not None:
            return Classification(
                BugClass.IMPLEMENTATION, divergence,
                f"code diverges from model at round "
                f"{divergence.round_index}: {divergence.signal} is "
                f"{divergence.target_value} on the target but "
                f"{divergence.model_value} per the model",
            )
        if violation_observed:
            return Classification(
                BugClass.DESIGN, None,
                "code implements the model exactly; the violated requirement "
                "is a property of the model itself",
            )
        return Classification(
            BugClass.CONSISTENT, None,
            "no divergence and no violation observed",
        )


def classify_bug(system: System, firmware: FirmwareImage,
                 violation_observed: bool = True,
                 rounds: int = 200) -> Classification:
    """Convenience wrapper around :class:`BugClassifier`."""
    return BugClassifier(system, firmware, rounds).classify(violation_observed)
