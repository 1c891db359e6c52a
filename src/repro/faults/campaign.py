"""Fault-injection campaigns: model debugger vs code debugger.

For every injected fault the campaign runs the same scenario twice:

* **model level** — GMDF with requirement monitors attached to the engine's
  command stream (plus crash detection);
* **code level** — the source debugger with up to
  :data:`~repro.debugger.gdb.HW_WATCHPOINT_SLOTS` hardware watchpoints
  carrying value-range predicates (plus crash detection). The watchpoints
  deliberately have no sequencing knowledge: that is what a code-level
  debugger can express.

Detection and detection latency are recorded per fault; aggregation by
category reproduces the paper's claim that the model debugger's "primary
job" — design errors — is where it pulls ahead.

A campaign is a list of fleet jobs (:mod:`repro.fleet`): the control
job (the pristine system, whose detections are false positives), then
one job per fault. Every job executes :func:`run_fault_experiment`.

Each debugger run builds a fresh :class:`~repro.engine.rig.Rig`, as a
:class:`~repro.engine.session.DebugSession` does, and ends in
:func:`~repro.engine.rig.run_to_verdict`, which closes the rig whether
the run reached its horizon, trapped or settled. A run *settles* at its
first detection, because a job's verdict (detected, latency, how) is
fixed there: the code run at its first watch hit, the model run at its
first monitor report unless it records a trace. The rule is "the first
detection wins": a crash counts only when no report or hit came before
it. A traced model run goes on to the horizon, so a job's trace store
(and the campaign store merged from it) holds the same events whether
or not the job detected its fault. A finished job's rigs are freed by
reference counting as soon as its verdict is read, not at the next full
garbage collection; a closed rig cannot run again.
:func:`model_debugger_rig` hands its rig to the caller unclosed, so the
caller can inspect it after ``kernel.run``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.reflect import system_to_model
from repro.comdes.system import System
from repro.debugger.gdb import WatchHit
from repro.engine.checks import MonitorSuite
from repro.engine.classify import classify_bug
from repro.engine.engine import DebuggerEngine
from repro.engine.rig import (CodeWatchSpec, MemoryPatches, Rig,
                              _patch_boards, run_to_verdict)
from repro.errors import FleetError, RunSettled
from repro.faults.comm import comm_chaos_config, comm_fault_descriptor
from repro.faults.design import DESIGN_FAULT_KINDS, FaultDescriptor, inject_design_fault
from repro.faults.implementation import (
    IMPL_FAULT_KINDS,
    inject_implementation_fault,
    split_memory_patches,
)
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.mapping import default_comdes_table
from repro.rtos.kernel import DtmKernel
from repro.target.firmware import FirmwareImage
from repro.util.seeds import seed_stream

#: with ``_patch_boards``: perfbench's ``faults.inject`` layer wraps it at
#: this path, and the wrapper replaces the rig's own binding as well
__all__ = ["CampaignResult", "FaultOutcome", "campaign_seeds",
           "model_debugger_rig", "run_campaign", "run_fault_experiment",
           "_patch_boards"]


class FaultOutcome:
    """Detection result of one fault under both debuggers.

    ``fault`` is ``None`` for the control job (the pristine system).
    ``classified_as`` carries the differential oracle's verdict
    (:func:`repro.engine.classify.classify_bug`) for faults the model
    debugger detected: ``"design"``, ``"implementation"`` or
    ``"consistent"``; empty when the fault went undetected (nothing to
    classify).
    """

    __slots__ = ("fault", "model_detected", "model_latency_us", "model_how",
                 "code_detected", "code_latency_us", "code_how",
                 "classified_as")

    def __init__(self, fault: Optional[FaultDescriptor],
                 model_detected: bool, model_latency_us: Optional[int],
                 model_how: str,
                 code_detected: bool, code_latency_us: Optional[int],
                 code_how: str, classified_as: str = "") -> None:
        self.fault = fault
        self.model_detected = model_detected
        self.model_latency_us = model_latency_us
        self.model_how = model_how
        self.code_detected = code_detected
        self.code_latency_us = code_latency_us
        self.code_how = code_how
        self.classified_as = classified_as

    def __repr__(self) -> str:
        name = self.fault.fault_id if self.fault is not None else "control"
        return (f"<FaultOutcome {name} "
                f"model={'HIT' if self.model_detected else 'miss'} "
                f"code={'HIT' if self.code_detected else 'miss'}>")


def _debugger_prefix(debugger: str) -> str:
    """The outcome-field prefix of a debugger name; unknown names raise."""
    if debugger not in ("model", "code"):
        raise ValueError(
            f"unknown debugger {debugger!r}; options: 'model', 'code'")
    return debugger


class CampaignResult:
    """Aggregated campaign outcomes.

    ``failures`` is empty unless a lenient merge
    (``merge_results(..., strict=False)``) dropped failed jobs: it parks
    their structured worker-side failures there.
    """

    def __init__(self, outcomes: Sequence[FaultOutcome],
                 false_positives: int) -> None:
        self.outcomes = list(outcomes)
        self.false_positives = false_positives
        self.failures: List[object] = []
        #: merged campaign TraceStore when the run collected traces
        self.trace_store = None

    def of_category(self, category: str) -> List[FaultOutcome]:
        """Outcomes of one fault category."""
        return [o for o in self.outcomes if o.fault.category == category]

    def detection_rate(self, category: str, debugger: str) -> Optional[float]:
        """Fraction detected: debugger is 'model' or 'code'."""
        flag = f"{_debugger_prefix(debugger)}_detected"
        selected = self.of_category(category)
        if not selected:
            return None
        return sum(getattr(o, flag) for o in selected) / len(selected)

    def mean_latency_us(self, category: str, debugger: str) -> Optional[float]:
        """Mean detection latency among detected faults."""
        attr = f"{_debugger_prefix(debugger)}_latency_us"
        values = [getattr(o, attr) for o in self.of_category(category)
                  if getattr(o, attr) is not None]
        if not values:
            return None
        return sum(values) / len(values)

    def classification_accuracy(self,
                                category: Optional[str] = None
                                ) -> Optional[float]:
        """Fraction of classified detections whose oracle verdict matches
        the injected category (the classifier's campaign-scale score)."""
        selected = (self.outcomes if category is None
                    else self.of_category(category))
        classified = [o for o in selected if o.classified_as]
        if not classified:
            return None
        return (sum(o.classified_as == o.fault.category for o in classified)
                / len(classified))

    def summary_rows(self) -> List[Dict[str, object]]:
        """Per-category summary for table printing."""
        rows = []
        for category in ("design", "implementation", "comm"):
            if not self.of_category(category):
                continue
            rows.append({
                "category": category,
                "faults": len(self.of_category(category)),
                "model_rate": self.detection_rate(category, "model"),
                "code_rate": self.detection_rate(category, "code"),
                "model_latency_us": self.mean_latency_us(category, "model"),
                "code_latency_us": self.mean_latency_us(category, "code"),
            })
        return rows


def model_debugger_rig(system: System, firmware: FirmwareImage,
                       monitor_factory: Callable[[], MonitorSuite],
                       memory_patches: MemoryPatches = (),
                       trace_store: Optional[object] = None,
                       chaos: Optional[object] = None,
                       ) -> Tuple[DtmKernel, DebuggerEngine, MonitorSuite]:
    """A :class:`~repro.engine.rig.Rig` with one active channel per
    node, the GDM engine and the monitor suite, ready to run; see
    :func:`_run_model_debugger` for ``trace_store`` and ``chaos``."""
    rig = Rig(system, firmware, memory_patches)
    rig.attach_active(chaos=chaos)
    model = system_to_model(system)
    gdm = AbstractionEngine(default_comdes_table(model.metamodel)).build(model)
    engine = rig.attach_engine(gdm, capture_frames=False, spill=trace_store)
    suite = monitor_factory()
    suite.attach(engine)
    return rig.kernel, engine, suite


def _run_model_debugger(system: System, firmware: FirmwareImage,
                        monitor_factory: Callable[[], MonitorSuite],
                        duration_us: int,
                        memory_patches: MemoryPatches = (),
                        trace_store: Optional[object] = None,
                        chaos: Optional[object] = None,
                        ) -> Tuple[bool, Optional[int], str]:
    """Run GMDF over the faulty target; returns (detected, latency, how).

    Without ``trace_store`` the run stops at its first monitor report
    (:meth:`MonitorSuite.settle_on_first_report`): that report fixes the
    verdict, and the modeled time after it is waste. A crash is the
    verdict only when no report came before it.

    With ``trace_store`` the engine writes each trace event through to
    the store: the model-level execution trace lands on disk for
    post-campaign replay, none of it in memory. Such a run goes on to
    the horizon (or a crash): the trace is the job's record for replay,
    and a store cut at the verdict would change the campaign store's
    bytes. With ``chaos`` (a :class:`~repro.comm.chaos.ChaosConfig`)
    the model debugger observes the target through a deterministically
    faulty wire per node, the comm-fault campaign plane.
    """
    kernel, engine, suite = model_debugger_rig(
        system, firmware, monitor_factory, memory_patches=memory_patches,
        trace_store=trace_store, chaos=chaos)
    if trace_store is None:
        suite.settle_on_first_report()
    crashed_at = run_to_verdict(kernel, duration_us, engine)
    # a crash ends the run, so every report came before it
    if suite.any_violation:
        return True, suite.first_violation_time(), "monitor"
    if crashed_at is not None:
        return True, crashed_at, "crash"
    return False, None, ""


def _run_code_debugger(system: System, firmware: FirmwareImage,
                       watch_specs: Sequence[CodeWatchSpec],
                       duration_us: int,
                       memory_patches: MemoryPatches = ()
                       ) -> Tuple[bool, Optional[int], str]:
    """Run the source-debugger baseline; returns (detected, latency, how).

    The run stops at its first watch hit, which fixes the verdict; a
    crash is the verdict only when no hit came before it.
    """
    rig = Rig(system, firmware, memory_patches)
    sim = rig.sim
    hit_at: List[int] = []

    def settle(hit: WatchHit) -> None:
        hit_at.append(sim.now)
        raise RunSettled(f"watch on {hit.watchpoint.symbol} hit")

    rig.watch_code(watch_specs, settle)
    crashed_at = run_to_verdict(rig.kernel, duration_us)
    if hit_at:
        return True, hit_at[0], "watch"
    if crashed_at is not None:
        return True, crashed_at, "crash"
    return False, None, ""


def run_fault_experiment(
    system_factory: Callable[[], System],
    monitor_factory: Callable[[], MonitorSuite],
    watch_specs: Sequence[CodeWatchSpec],
    category: str,
    kind: str,
    seed: int,
    duration_us: int,
    plan: InstrumentationPlan,
    base_firmware: Optional[FirmwareImage] = None,
    trace_store: Optional[object] = None,
) -> Optional[FaultOutcome]:
    """Inject one fault and score it under both debuggers.

    This is the unit of work every campaign job executes
    (:func:`repro.fleet.worker.run_job`). ``category="control"`` runs
    the pristine system with no fault: its outcome has ``fault=None``,
    and anything it detects is a false positive. Returns ``None`` when
    the injector declines (the kind does not apply to this system).
    ``base_firmware`` optionally reuses a pre-generated pristine image
    (every category but design; codegen is deterministic, so this is a
    pure time save). ``trace_store`` collects the model debugger's
    execution trace.
    """
    fault: Optional[FaultDescriptor] = None
    patches: MemoryPatches = ()
    chaos = None
    # the image the differential oracle replays (None: nothing to classify)
    oracle_fw: Optional[FirmwareImage] = None
    if category == "design":
        system, fault = inject_design_fault(system_factory(), kind, seed)
        if system is None:
            return None
        firmware = oracle_fw = generate_firmware(system, plan)
    elif category in ("control", "implementation", "comm"):
        system = system_factory()
        firmware = (base_firmware if base_firmware is not None
                    else generate_firmware(system, plan))
    else:
        raise FleetError(f"unknown experiment category {category!r}")
    if category == "implementation":
        oracle_fw, fault = inject_implementation_fault(firmware, kind, seed)
        if oracle_fw is None:
            return None
        # Code corruptions stay in the flashed image; data-word
        # corruptions are applied to the live boards over the debug
        # link (batched BLOCKWRITE) — fault injection over JTAG. The
        # oracle replays the full mutant image (patches baked in): a
        # fresh differential board has no debug link to patch over.
        firmware, patches = split_memory_patches(firmware, oracle_fw)
    elif category == "comm":
        # Pristine system and firmware; the fault lives on the wire the
        # model debugger observes through. The code debugger reads the
        # target directly (no serial hop), so it runs clean — the
        # comparison isolates how transport faults degrade model-level
        # observability. No differential classification: there is no
        # design or implementation bug to classify.
        fault = comm_fault_descriptor(kind, seed)
        chaos = comm_chaos_config(kind, seed)
    model_result = _run_model_debugger(system, firmware, monitor_factory,
                                       duration_us, memory_patches=patches,
                                       trace_store=trace_store, chaos=chaos)
    code_result = _run_code_debugger(system, firmware, watch_specs,
                                     duration_us, memory_patches=patches)
    verdict = (_classify(system, oracle_fw, model_result[0])
               if oracle_fw is not None else "")
    return FaultOutcome(fault, *model_result, *code_result,
                        classified_as=verdict)


def _classify(system: System, firmware: FirmwareImage,
              model_detected: bool) -> str:
    """Differential-oracle verdict for a detected fault ('' if undetected)."""
    if not model_detected:
        return ""
    return classify_bug(system, firmware, violation_observed=True).verdict.value


def campaign_seeds(
    category: str,
    kind: str,
    seeds: Sequence[int],
    master_seed: Optional[int] = None,
    seeds_per_kind: Optional[int] = None,
) -> Sequence[int]:
    """The per-kind seed list a campaign enumerates.

    With ``master_seed=None`` this is just *seeds* (every kind shares
    one small list — the original corpus shape). With a master seed,
    each ``category/kind`` gets its own deterministic
    :func:`~repro.util.seeds.seed_stream` of ``seeds_per_kind`` seeds
    (default: ``len(seeds)``) — corpus size scales with one knob, and
    no two kinds ever reuse a seed, so campaigns enumerate genuinely
    distinct scenarios as they grow.
    """
    if seeds_per_kind is not None and master_seed is None:
        raise FleetError(
            f"seeds_per_kind={seeds_per_kind} needs a master_seed to "
            f"derive from; without one the campaign would silently fall "
            f"back to the {len(seeds)} explicit seed(s)")
    if master_seed is None:
        return seeds
    count = seeds_per_kind if seeds_per_kind is not None else len(seeds)
    return seed_stream(master_seed, f"{category}/{kind}", count)


def run_campaign(
    system_factory: Callable[[], System],
    monitor_factory: Callable[[], MonitorSuite],
    code_watch_specs: Callable[[], Sequence[CodeWatchSpec]],
    design_kinds: Sequence[str] = tuple(DESIGN_FAULT_KINDS),
    impl_kinds: Sequence[str] = tuple(IMPL_FAULT_KINDS),
    comm_kinds: Sequence[str] = (),
    seeds: Sequence[int] = (1, 2, 3),
    duration_us: int = 3_000_000,
    plan: Optional[InstrumentationPlan] = None,
    runner: Optional[object] = None,
    master_seed: Optional[int] = None,
    seeds_per_kind: Optional[int] = None,
    trace_dir: Optional[str] = None,
) -> CampaignResult:
    """Inject faults, run both debuggers on each, aggregate detection.

    The corpus is enumerated as fleet jobs
    (:func:`repro.fleet.jobs.enumerate_campaign_jobs`: the control job
    first, then every fault), so the three factories must be importable
    module-level callables; ``code_watch_specs`` is a zero-argument
    factory of watch specs. ``runner`` executes the jobs: ``None`` means
    a :class:`repro.fleet.pool.SerialRunner` (in-process, the right
    choice on core-starved hosts); a
    :class:`repro.fleet.pool.FleetRunner` fans them out over worker
    processes. Every runner is a policy shell over the
    one FIFO scheduler core (:mod:`repro.fleet.sched`), and the
    canonical merge makes any worker count or completion order
    byte-identical to ``SerialRunner`` at the same master seed.

    ``comm_kinds`` (off by default) adds the transport-fault plane:
    each kind in :data:`~repro.faults.comm.COMM_FAULT_KINDS` runs the
    pristine system with a seeded
    :class:`~repro.comm.chaos.ChaosLink` degrading the model debugger's
    wire. ``master_seed``/``seeds_per_kind`` switch seed selection to
    :func:`campaign_seeds` derivation (per-kind deterministic streams);
    a bad pairing raises during enumeration, before any job runs.
    ``trace_dir`` turns on trace collection: every job spills its model
    debugger's execution trace to a per-job store under that directory
    and the merged, canonically-ordered campaign store comes back as
    ``CampaignResult.trace_store``; serial and parallel campaigns
    produce byte-identical campaign stores.
    """
    from repro.fleet.jobs import enumerate_campaign_jobs  # deferred: cycle
    from repro.fleet.merge import merge_results
    from repro.fleet.pool import SerialRunner

    specs = enumerate_campaign_jobs(
        system_factory, monitor_factory, code_watch_specs,
        design_kinds=design_kinds, impl_kinds=impl_kinds, seeds=seeds,
        duration_us=duration_us,
        plan=plan if plan is not None else InstrumentationPlan.full(),
        master_seed=master_seed, seeds_per_kind=seeds_per_kind,
        trace_dir=trace_dir, comm_kinds=comm_kinds,
    )
    if trace_dir is not None:
        # fail on a reused trace_dir *now*, not after the whole corpus ran
        from repro.tracedb.collect import ensure_fresh_trace_dir
        ensure_fresh_trace_dir(trace_dir)
    runner = runner if runner is not None else SerialRunner()
    return merge_results(specs, runner.run(specs), trace_dir=trace_dir)
