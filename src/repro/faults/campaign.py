"""Fault-injection campaigns: model debugger vs code debugger.

For every injected fault the campaign runs the same scenario twice:

* **model level** — GMDF with requirement monitors attached to the engine's
  command stream (plus crash detection);
* **code level** — the source debugger with up to four hardware watchpoints
  carrying value-range predicates (plus crash detection). The watchpoints
  deliberately have no sequencing knowledge: that is what a code-level
  debugger can express.

Detection and detection latency are recorded per fault; aggregation by
category reproduces the paper's claim that the model debugger's "primary
job" — design errors — is where it pulls ahead.

Each debugger run builds a fresh rig (simulator, DTM kernel, boards,
channels, engine, monitors or watchpoints) and ends in
:func:`_run_and_close`, which closes the kernel and the engine whether
the run completed or trapped. A finished job's rigs are therefore freed
by reference counting as soon as its verdict is read, not at the next
full garbage collection; a closed rig cannot run again.
:func:`model_debugger_rig` hands its rig to the caller unclosed, so the
caller can inspect it after ``kernel.run``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.reflect import system_to_model
from repro.comdes.system import System
from repro.comm.channel import ActiveChannel, CompositeChannel
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import JtagLink, write_patches
from repro.comm.rs232 import Rs232Link
from repro.debugger.gdb import SourceDebugger
from repro.engine.checks import MonitorSuite
from repro.engine.engine import DebuggerEngine
from repro.engine.trace import ExecutionTrace
from repro.errors import FleetError, TargetFault
from repro.faults.design import DESIGN_FAULT_KINDS, FaultDescriptor, inject_design_fault
from repro.faults.implementation import (
    IMPL_FAULT_KINDS,
    inject_implementation_fault,
    split_memory_patches,
)
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.mapping import default_comdes_table
from repro.rtos.kernel import DtmKernel
from repro.sim.kernel import Simulator
from repro.target.board import DebugPort
from repro.target.firmware import FirmwareImage

#: code-level watch: (symbol, predicate-or-None, description)
CodeWatchSpec = Tuple[str, Optional[Callable[[int], bool]], str]

#: watch specs, given directly or as a zero-argument factory (the factory
#: form is what the process-pool runner ships to workers)
WatchSpecsInput = Union[Sequence[CodeWatchSpec],
                        Callable[[], Sequence[CodeWatchSpec]]]

#: memory patches applied over the debug link before the run starts
MemoryPatches = Sequence[Tuple[int, int]]


class FaultOutcome:
    """Detection result of one fault under both debuggers.

    ``classified_as`` carries the differential oracle's verdict
    (:func:`repro.engine.classify.classify_bug`) for faults the model
    debugger detected: ``"design"``, ``"implementation"`` or
    ``"consistent"``; empty when the fault went undetected (nothing to
    classify).
    """

    __slots__ = ("fault", "model_detected", "model_latency_us", "model_how",
                 "code_detected", "code_latency_us", "code_how",
                 "classified_as")

    def __init__(self, fault: FaultDescriptor,
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
        return (f"<FaultOutcome {self.fault.fault_id} "
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

    ``failures`` is empty for inline campaigns; a lenient fleet merge
    (``merge_results(..., strict=False)``) parks its structured
    worker-side failures there so both code paths return the same shape.
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


def _patch_boards(kernel: DtmKernel, system: System,
                  patches: MemoryPatches) -> None:
    """Apply fault memory patches to every node board over JTAG.

    Bulk patching rides the TAP's BLOCKWRITE auto-increment: contiguous
    patch runs become single block transactions on a throwaway
    :class:`JtagLink`, the same path bench hardware uses to corrupt RAM
    without reflashing.
    """
    for node in system.nodes():
        board = kernel.board_of(node)
        link = JtagLink(JtagProbe(TapController(DebugPort(board))))
        write_patches(link, patches)


def model_debugger_rig(system: System, firmware: FirmwareImage,
                       monitor_factory: Callable[[], MonitorSuite],
                       memory_patches: MemoryPatches = (),
                       trace_store: Optional[object] = None,
                       chaos: Optional[object] = None,
                       ) -> Tuple[DtmKernel, DebuggerEngine, MonitorSuite]:
    """Wire the model debugger over a fresh target, ready to run.

    One simulator carries the DTM kernel, one active channel per node
    (fanned into a composite), the GDM engine and the monitor suite;
    ``kernel.run(duration_us)`` drives the whole loop. See
    :func:`_run_model_debugger` for ``trace_store`` and ``chaos``.
    """
    sim = Simulator()
    kernel = DtmKernel(system, firmware, sim=sim, latched=True)
    if memory_patches:
        _patch_boards(kernel, system, memory_patches)
    composite = CompositeChannel()
    for node in system.nodes():
        channel = ActiveChannel(sim, kernel.board_of(node), firmware,
                                link=Rs232Link())
        if chaos is not None:
            from repro.comm.chaos import ChaosLink
            from repro.util.seeds import derive_seed
            channel.debug_link = ChaosLink(
                channel.debug_link,
                chaos.with_seed(derive_seed(chaos.seed, "node", node)))
        kernel.add_job_hook(node, channel.begin_job)
        composite.add(channel)
    model = system_to_model(system)
    gdm = AbstractionEngine(default_comdes_table(model.metamodel)).build(model)
    trace = ExecutionTrace(spill=trace_store)
    engine = DebuggerEngine(gdm, channel=composite, capture_frames=False,
                            trace=trace)
    suite = monitor_factory()
    suite.attach(engine)
    return kernel, engine, suite


def _run_and_close(kernel: DtmKernel, duration_us: int,
                   engine: Optional[DebuggerEngine] = None) -> Optional[int]:
    """Run one debugger rig to *duration_us*, then close it.

    Returns the simulated time of a :class:`TargetFault`, or ``None``
    when the run completed. The kernel and the engine are closed
    whatever happens, which breaks the rig's reference cycles.
    """
    try:
        kernel.run(duration_us)
    except TargetFault:
        return kernel.sim.now
    finally:
        kernel.close()
        if engine is not None:
            engine.close()
    return None


def _run_model_debugger(system: System, firmware: FirmwareImage,
                        monitor_factory: Callable[[], MonitorSuite],
                        duration_us: int,
                        memory_patches: MemoryPatches = (),
                        trace_store: Optional[object] = None,
                        chaos: Optional[object] = None,
                        ) -> Tuple[bool, Optional[int], str]:
    """Run GMDF over the faulty target; returns (detected, latency, how).

    With ``trace_store`` the engine writes each trace event through to
    the store (``ExecutionTrace(spill=trace_store)``): the full
    model-level execution trace lands on disk for post-campaign replay
    and none of it stays in memory.

    With ``chaos`` (a :class:`~repro.comm.chaos.ChaosConfig`) every
    node's serial transport is wrapped in a
    :class:`~repro.comm.chaos.ChaosLink` seeded per node, so the model
    debugger observes the target through a deterministically faulty
    wire — the comm-fault campaign plane.
    """
    kernel, engine, suite = model_debugger_rig(
        system, firmware, monitor_factory, memory_patches=memory_patches,
        trace_store=trace_store, chaos=chaos)
    crashed_at = _run_and_close(kernel, duration_us, engine)
    if crashed_at is not None:
        return True, crashed_at, "crash"
    if suite.any_violation:
        return True, suite.first_violation_time(), "monitor"
    return False, None, ""


def _run_code_debugger(system: System, firmware: FirmwareImage,
                       watch_specs: Sequence[CodeWatchSpec],
                       duration_us: int,
                       memory_patches: MemoryPatches = ()
                       ) -> Tuple[bool, Optional[int], str]:
    """Run the source-debugger baseline; returns (detected, latency, how)."""
    sim = Simulator()
    kernel = DtmKernel(system, firmware, sim=sim, latched=True)
    if memory_patches:
        _patch_boards(kernel, system, memory_patches)
    hits: List[int] = []
    for node in system.nodes():
        debugger = SourceDebugger(kernel.board_of(node), firmware)
        installed = 0
        for symbol, predicate, description in watch_specs:
            if installed >= 4:
                break
            if not firmware.symbols.has(symbol):
                continue
            debugger.watch(symbol, predicate, description)
            installed += 1
        debugger.on_hit = lambda hit, s=sim: hits.append(s.now)
    crashed_at = _run_and_close(kernel, duration_us)
    if crashed_at is not None:
        return True, crashed_at, "crash"
    if hits:
        return True, min(hits), "watch"
    return False, None, ""


def run_control_experiment(
    system_factory: Callable[[], System],
    monitor_factory: Callable[[], MonitorSuite],
    watch_specs: Sequence[CodeWatchSpec],
    duration_us: int,
    plan: InstrumentationPlan,
    base_firmware: Optional[FirmwareImage] = None,
    trace_store: Optional[object] = None,
) -> Tuple[bool, bool]:
    """Fault-free run under both debuggers; returns detection flags.

    Anything detected here is a false positive. ``trace_store``
    optionally collects the model debugger's full execution trace.
    """
    pristine = system_factory()
    firmware = (base_firmware if base_firmware is not None
                else generate_firmware(pristine, plan))
    detected, _, _ = _run_model_debugger(pristine, firmware,
                                         monitor_factory, duration_us,
                                         trace_store=trace_store)
    code_detected, _, _ = _run_code_debugger(pristine, firmware,
                                             watch_specs, duration_us)
    return detected, code_detected


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

    This is the unit of work both the inline loop and the fleet workers
    execute — one code path, so parallel campaigns reproduce serial
    results exactly. Returns ``None`` when the injector declines (the
    kind does not apply to this system). ``base_firmware`` optionally
    reuses a pre-generated pristine image (implementation faults only;
    codegen is deterministic, so this is a pure time save).
    ``trace_store`` collects the model debugger's execution trace.
    """
    if category == "design":
        mutant, fault = inject_design_fault(system_factory(), kind, seed)
        if mutant is None:
            return None
        firmware = generate_firmware(mutant, plan)
        model_result = _run_model_debugger(mutant, firmware,
                                           monitor_factory, duration_us,
                                           trace_store=trace_store)
        code_result = _run_code_debugger(mutant, firmware,
                                         watch_specs, duration_us)
        verdict = _classify(mutant, firmware, model_result[0])
        return FaultOutcome(fault, *model_result, *code_result,
                            classified_as=verdict)

    if category == "implementation":
        base = system_factory()
        base_fw = (base_firmware if base_firmware is not None
                   else generate_firmware(base, plan))
        mutant_fw, fault = inject_implementation_fault(base_fw, kind, seed)
        if mutant_fw is None:
            return None
        # Code corruptions stay in the flashed image; data-word
        # corruptions are applied to the live boards over the debug
        # link (batched BLOCKWRITE) — fault injection over JTAG.
        run_fw, patches = split_memory_patches(base_fw, mutant_fw)
        model_result = _run_model_debugger(base, run_fw, monitor_factory,
                                           duration_us,
                                           memory_patches=patches,
                                           trace_store=trace_store)
        code_result = _run_code_debugger(base, run_fw, watch_specs,
                                         duration_us,
                                         memory_patches=patches)
        # The oracle replays the full mutant image (patches baked in):
        # a fresh differential board has no debug link to patch over.
        verdict = _classify(base, mutant_fw, model_result[0])
        return FaultOutcome(fault, *model_result, *code_result,
                            classified_as=verdict)

    if category == "comm":
        # Pristine system and firmware; the fault lives on the wire the
        # model debugger observes through. The code debugger reads the
        # target directly (no serial hop), so it runs clean — the
        # comparison isolates how transport faults degrade model-level
        # observability. No differential classification: there is no
        # design or implementation bug to classify.
        from repro.faults.comm import comm_chaos_config, comm_fault_descriptor
        base = system_factory()
        base_fw = (base_firmware if base_firmware is not None
                   else generate_firmware(base, plan))
        fault = comm_fault_descriptor(kind, seed)
        chaos = comm_chaos_config(kind, seed)
        model_result = _run_model_debugger(base, base_fw, monitor_factory,
                                           duration_us,
                                           trace_store=trace_store,
                                           chaos=chaos)
        code_result = _run_code_debugger(base, base_fw, watch_specs,
                                         duration_us)
        return FaultOutcome(fault, *model_result, *code_result,
                            classified_as="")

    raise FleetError(f"unknown experiment category {category!r}")


def _classify(system: System, firmware: FirmwareImage,
              model_detected: bool) -> str:
    """Differential-oracle verdict for a detected fault ('' if undetected)."""
    if not model_detected:
        return ""
    from repro.engine.classify import classify_bug
    return classify_bug(system, firmware, violation_observed=True).verdict.value


def _validate_seed_plan(seeds: Sequence[int], master_seed: Optional[int],
                        seeds_per_kind: Optional[int]) -> None:
    """One source of truth for the seeds_per_kind/master_seed pairing."""
    if seeds_per_kind is not None and master_seed is None:
        raise FleetError(
            f"seeds_per_kind={seeds_per_kind} needs a master_seed to "
            f"derive from; without one the campaign would silently fall "
            f"back to the {len(seeds)} explicit seed(s)")


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
    :func:`~repro.fleet.pool.seed_stream` of ``seeds_per_kind`` seeds
    (default: ``len(seeds)``) — corpus size scales with one knob, and
    no two kinds ever reuse a seed, so campaigns enumerate genuinely
    distinct scenarios as they grow.
    """
    _validate_seed_plan(seeds, master_seed, seeds_per_kind)
    if master_seed is None:
        return seeds
    from repro.fleet.pool import seed_stream  # deferred: cycle via worker
    count = seeds_per_kind if seeds_per_kind is not None else len(seeds)
    return seed_stream(master_seed, f"{category}/{kind}", count)


def run_campaign(
    system_factory: Callable[[], System],
    monitor_factory: Callable[[], MonitorSuite],
    code_watch_specs: WatchSpecsInput,
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

    With ``runner=None`` experiments run inline, one after another. Pass
    a :class:`repro.fleet.FleetRunner` (worker processes for scale-out)
    or a :class:`repro.fleet.SerialRunner` (in-process, the right choice
    on core-starved hosts) to execute the same corpus through the fleet
    subsystem, which requires the three factories to be importable
    module-level callables (``code_watch_specs`` given as a factory,
    not a list). Every runner is a policy shell over the one FIFO
    scheduler core (:mod:`repro.fleet.sched`), and all of them produce
    identical results through the canonical merge — any worker count or
    completion order is byte-identical to ``SerialRunner`` at the same
    master seed.

    ``comm_kinds`` (off by default) adds the transport-fault plane:
    each kind in :data:`~repro.faults.comm.COMM_FAULT_KINDS` runs the
    pristine system with a seeded
    :class:`~repro.comm.chaos.ChaosLink` degrading the model debugger's
    wire. ``master_seed``/``seeds_per_kind`` switch seed selection to
    :func:`campaign_seeds` derivation (per-kind deterministic streams).
    ``trace_dir`` turns on trace collection: every job spills its model
    debugger's execution trace to a per-job store under that directory
    and the merged, canonically-ordered campaign store comes back as
    ``CampaignResult.trace_store``. Collection runs through the fleet
    job path (``runner=None`` falls back to a
    :class:`~repro.fleet.pool.SerialRunner`), so it needs importable
    factories too — and serial and parallel campaigns produce
    byte-identical campaign stores.
    """
    plan = plan if plan is not None else InstrumentationPlan.full()

    # argument errors fail before any experiment burns wall-clock (the
    # control run alone simulates the full duration twice)
    _validate_seed_plan(seeds, master_seed, seeds_per_kind)

    if trace_dir is not None:
        # fail on a reused trace_dir *now*, not after the whole corpus ran
        from repro.tracedb.collect import ensure_fresh_trace_dir
        ensure_fresh_trace_dir(trace_dir)
        if runner is None:
            from repro.fleet.pool import SerialRunner
            runner = SerialRunner()

    if runner is not None:
        from repro.fleet.jobs import enumerate_campaign_jobs
        from repro.fleet.merge import merge_results
        specs = enumerate_campaign_jobs(
            system_factory, monitor_factory, code_watch_specs,
            design_kinds=design_kinds, impl_kinds=impl_kinds, seeds=seeds,
            duration_us=duration_us, plan=plan,
            master_seed=master_seed, seeds_per_kind=seeds_per_kind,
            trace_dir=trace_dir, comm_kinds=comm_kinds,
        )
        return merge_results(specs, runner.run(specs), trace_dir=trace_dir)

    watch_specs = (code_watch_specs() if callable(code_watch_specs)
                   else code_watch_specs)
    outcomes: List[FaultOutcome] = []

    # Control run: the fault-free system must trigger nothing.
    detected, code_detected = run_control_experiment(
        system_factory, monitor_factory, watch_specs, duration_us, plan)
    false_positives = int(detected) + int(code_detected)

    for category, kinds in (("design", design_kinds),
                            ("implementation", impl_kinds),
                            ("comm", comm_kinds)):
        for kind in kinds:
            for seed in campaign_seeds(category, kind, seeds,
                                       master_seed, seeds_per_kind):
                outcome = run_fault_experiment(
                    system_factory, monitor_factory, watch_specs,
                    category, kind, seed, duration_us, plan)
                if outcome is not None:
                    outcomes.append(outcome)

    return CampaignResult(outcomes, false_positives)
