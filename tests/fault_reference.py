"""Reference forms of the classifier's model replay, fault injection and
debugger runs.

``src/`` memoizes the classifier's model reference, copies firmware
structurally when it injects an implementation fault, and stops each
debugger run at its verdict. This module keeps the straightforward
forms, as they were before, so tests can prove the fast ones
bit-identical:

* :func:`reference_first_divergence` — replays the model on every call;
* :class:`ReferenceClassifier` — a :class:`BugClassifier` that uses it;
* :func:`deepcopy_inject` — ``copy.deepcopy`` of the whole image, then
  the same injector;
* :func:`full_horizon_model_debugger` and
  :func:`full_horizon_code_debugger` — every debugger run goes on to its
  horizon (or a crash), and a crash wins over any earlier monitor report
  or watch hit; :func:`full_horizon_experiment` runs a campaign job
  with both.
"""

from __future__ import annotations

import copy
import functools
import random
from typing import Callable, List, Optional, Sequence, Tuple
from unittest import mock

from repro.codegen.pipeline import run_firmware_lockstep
from repro.comdes.system import System
from repro.engine.checks import MonitorSuite
from repro.engine.classify import BugClassifier, Divergence
from repro.engine.rig import CodeWatchSpec, MemoryPatches, Rig, run_to_verdict
import repro.faults.campaign as campaign
from repro.faults.campaign import FaultOutcome, model_debugger_rig
from repro.faults.design import FaultDescriptor
from repro.faults.implementation import IMPL_FAULT_KINDS
from repro.target.board import Board
from repro.target.firmware import FirmwareImage

#: one debugger run's verdict: (detected, latency, how)
Verdict = Tuple[bool, Optional[int], str]


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


def full_horizon_model_debugger(
        system: System, firmware: FirmwareImage,
        monitor_factory: Callable[[], MonitorSuite], duration_us: int,
        memory_patches: MemoryPatches = (),
        trace_store: Optional[object] = None,
        chaos: Optional[object] = None,
        on_command: Optional[Callable[..., None]] = None) -> Verdict:
    """The model debugger run to the horizon; a crash wins.

    *on_command*, if given, is subscribed to the engine bus's
    ``command`` topic after the monitors.
    """
    kernel, engine, suite = model_debugger_rig(
        system, firmware, monitor_factory, memory_patches=memory_patches,
        trace_store=trace_store, chaos=chaos)
    if on_command is not None:
        engine.bus.subscribe("command", on_command)
    crashed_at = run_to_verdict(kernel, duration_us, engine)
    if crashed_at is not None:
        return True, crashed_at, "crash"
    if suite.any_violation:
        return True, suite.first_violation_time(), "monitor"
    return False, None, ""


def full_horizon_code_debugger(system: System, firmware: FirmwareImage,
                               watch_specs: Sequence[CodeWatchSpec],
                               duration_us: int,
                               memory_patches: MemoryPatches = ()
                               ) -> Verdict:
    """The source debugger run to the horizon; a crash wins."""
    rig = Rig(system, firmware, memory_patches)
    hits: List[int] = []
    rig.watch_code(watch_specs, lambda hit, s=rig.sim: hits.append(s.now))
    crashed_at = run_to_verdict(rig.kernel, duration_us)
    if crashed_at is not None:
        return True, crashed_at, "crash"
    if hits:
        return True, min(hits), "watch"
    return False, None, ""


def full_horizon_experiment(*args,
                            on_command: Optional[Callable[..., None]] = None,
                            **kwargs) -> Optional[FaultOutcome]:
    """:func:`~repro.faults.campaign.run_fault_experiment` with both
    debugger runs going to the horizon; *on_command* as in
    :func:`full_horizon_model_debugger`."""
    model = functools.partial(full_horizon_model_debugger,
                              on_command=on_command)
    with mock.patch.object(campaign, "_run_model_debugger", model), \
            mock.patch.object(campaign, "_run_code_debugger",
                              full_horizon_code_debugger):
        return campaign.run_fault_experiment(*args, **kwargs)
