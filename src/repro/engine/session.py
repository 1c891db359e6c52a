"""Debug sessions: the prototype's execution flow (paper Fig 6).

The five numbered steps:

1. input prerequisites become available (meta-model, model, executable code);
2. the input files are selected;
3. the abstraction guide sets up the model mapping;
4. command reaction information is added;
5. the GDM is created and a communication channel to the embedded
   controller is established — the debugger enters its initial state,
   waiting for commands.

Then the GDM "continuously interacts with code execution at runtime".
:class:`DebugSession` drives those steps against the simulated target and
keeps the numbered workflow log as the Fig 6 artifact.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.blocks import FunctionBlock, StateMachineFB
from repro.comdes.composite import CompositeFB
from repro.comdes.dataflow import ComponentNetwork
from repro.comdes.modal import ModalFB
from repro.comdes.reflect import system_to_model
from repro.comdes.system import System
from repro.comdes.validate import validate_system
from repro.comm.channel import (
    ActiveChannel,
    CompositeChannel,
    PassiveChannel,
    WatchSpec,
)
from repro.comm.chaos import ChaosConfig, ChaosLink
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import DebugLink, JtagLink
from repro.comm.retry import RetryPolicy, RetryingLink
from repro.comm.rs232 import Rs232Link
from repro.comm.usb import UsbTransport
from repro.engine.engine import DebuggerEngine
from repro.engine.stepping import StepController
from repro.engine.timing_diagram import TimingDiagram
from repro.errors import BudgetExceededError, DebuggerError
from repro.gdm.guide import AbstractionGuide
from repro.gdm.mapping import MappingTable, default_comdes_table
from repro.gdm.model import CommandBinding, GdmModel
from repro.gdm.scenegen import gdm_to_scene
from repro.meta.registry import MetamodelRegistry
from repro.obs.runtime import OBS
from repro.render.ascii_art import scene_to_ascii
from repro.render.svg import scene_to_svg
from repro.rtos.kernel import DtmKernel
from repro.sim.kernel import Simulator
from repro.target.board import DebugPort
from repro.util.seeds import derive_seed


def iter_blocks_with_scope(network: ComponentNetwork,
                           scope: str = "") -> List[Tuple[str, FunctionBlock]]:
    """All blocks (recursively) with their reflect-convention scope strings."""
    found: List[Tuple[str, FunctionBlock]] = []
    for block in network.blocks:
        block_scope = f"{scope}.{block.name}" if scope else block.name
        found.append((block_scope, block))
        if isinstance(block, ModalFB):
            for mode in block.modes:
                found.extend(iter_blocks_with_scope(
                    mode.network, f"{block_scope}.{mode.name}"))
        elif isinstance(block, CompositeFB):
            found.extend(iter_blocks_with_scope(block.network, block_scope))
    return found


def default_watches(system: System, node: str) -> List[WatchSpec]:
    """Monitored-variable selection for a node: state vars + output signals.

    This is the paper's "the user needs to select one or more monitored
    variables that are considered to be critical (e.g. variable s is
    critical if it saves state information in a state machine model)".
    """
    watches: List[WatchSpec] = []
    for actor in system.actors.values():
        if actor.node != node:
            continue
        for block_scope, block in iter_blocks_with_scope(actor.network):
            if isinstance(block, StateMachineFB):
                watches.append(WatchSpec.state_machine(
                    actor.name, block_scope, block.machine))
        for port, signal in sorted(actor.outputs.items()):
            watches.append(WatchSpec.signal(actor.name, port, signal))
    return watches


class TransportBudget:
    """Per-session ceilings on what the debug transport may consume.

    Budgets are written against :meth:`DebugLink.stats` aggregates — the
    accounting every link keeps — so they hold for any channel kind:

    * ``max_transactions`` — host round trips (USB/serial scheduling is
      usually the scarce resource on real probes);
    * ``max_cost_us`` — total modeled transport time, the budget that
      keeps a "passive" observation plan honest about bus occupancy.

    ``per_channel`` attaches sub-budgets keyed by link attribution label
    (``"passive"``, ``"active"``, ``"inspect"``) so a plan can, say, cap
    the active command stream without starving passive polling. Every
    violation string names the offending channel; global violations name
    the busiest channel when a per-channel breakdown is available.

    A session with a budget fails its experiment the moment a run ends
    over the ceiling (:class:`~repro.errors.BudgetExceededError`), which
    is how campaign-scale sweeps reject observation plans too expensive
    to deploy rather than silently reporting their detections.
    """

    __slots__ = ("max_transactions", "max_cost_us", "per_channel")

    def __init__(self, max_transactions: Optional[int] = None,
                 max_cost_us: Optional[int] = None,
                 per_channel: Optional[Dict[str, "TransportBudget"]] = None
                 ) -> None:
        for name, value in (("max_transactions", max_transactions),
                            ("max_cost_us", max_cost_us)):
            if value is not None and value < 0:
                raise DebuggerError(f"{name} must be non-negative, "
                                    f"got {value}")
        self.max_transactions = max_transactions
        self.max_cost_us = max_cost_us
        self.per_channel = dict(per_channel) if per_channel else {}
        for label, sub in self.per_channel.items():
            if sub.per_channel:
                # a channel stats row carries no further breakdown, so a
                # nested sub-budget could never fire — dead silently
                raise DebuggerError(
                    f"per-channel budget for {label!r} has its own "
                    f"per_channel; channel budgets do not nest")

    @staticmethod
    def _busiest(stats: Dict[str, object], metric: str) -> str:
        """Name the channel dominating *metric* ('' without breakdown)."""
        channels = stats.get("channels")
        if not channels:
            return ""
        label, row = max(channels.items(), key=lambda kv: kv[1][metric])
        return f" (busiest channel: {label}, {row[metric]})"

    def violations(self, stats: Dict[str, object]) -> List[str]:
        """Ceilings exceeded by an aggregated stats snapshot."""
        found = []
        if (self.max_transactions is not None
                and stats["transactions"] > self.max_transactions):
            found.append(f"{stats['transactions']} transactions > "
                         f"budget {self.max_transactions}"
                         + self._busiest(stats, "transactions"))
        if (self.max_cost_us is not None
                and stats["cost_us_total"] > self.max_cost_us):
            found.append(f"{stats['cost_us_total']}us transport cost > "
                         f"budget {self.max_cost_us}us"
                         + self._busiest(stats, "cost_us_total"))
        for label in sorted(self.per_channel):
            row = stats.get("channels", {}).get(label)
            if row is None:
                continue
            found.extend(f"channel '{label}': {violation}"
                         for violation in self.per_channel[label].violations(row))
        return found

    def __repr__(self) -> str:
        return (f"<TransportBudget txn<={self.max_transactions} "
                f"cost<={self.max_cost_us}us "
                f"channels={sorted(self.per_channel) or '-'}>")


class DegradationPolicy:
    """Graceful degradation instead of budget failure.

    Attached to a :class:`DebugSession` next to a
    :class:`TransportBudget`, this closes the budget work's open tail:
    a passive observation plan that *would* bust a ceiling no longer
    raises — the session degrades observability until the projected
    spend fits, applying the cheapest-loss step first:

    1. **slow the poll** — double the poll period, up to
       ``max_slowdown``× the configured period (latency cost only);
    2. **split the plan** — double the poll stride
       (:meth:`~repro.comm.channel.PassiveChannel.set_stride`), polling
       a contiguous fraction of the watches per tick (latency cost per
       watch, full coverage retained);
    3. **shed watches** — drop the lowest-priority (last-listed)
       watches one at a time down to ``min_watches`` (coverage cost —
       the last resort).

    Every step lands in ``DebugSession.degradation_events`` with the
    simulated time, action and detail, so a degraded run is queryable
    after the fact. When every knob is exhausted and the projection
    still busts the ceiling, the default is to record the fact and run
    anyway (partial observability beats none); ``raise_on_exhausted``
    restores the hard failure for campaigns that prefer rejection.
    """

    __slots__ = ("max_slowdown", "max_stride", "min_watches",
                 "raise_on_exhausted")

    def __init__(self, max_slowdown: int = 8, max_stride: int = 4,
                 min_watches: int = 1,
                 raise_on_exhausted: bool = False) -> None:
        if max_slowdown < 1:
            raise DebuggerError(f"max_slowdown must be >= 1, "
                                f"got {max_slowdown}")
        if max_stride < 1:
            raise DebuggerError(f"max_stride must be >= 1, got {max_stride}")
        if min_watches < 1:
            raise DebuggerError(f"min_watches must be >= 1, "
                                f"got {min_watches}")
        self.max_slowdown = max_slowdown
        self.max_stride = max_stride
        self.min_watches = min_watches
        self.raise_on_exhausted = raise_on_exhausted

    def degrade_step(self, channel) -> Optional[Dict[str, object]]:
        """Apply the cheapest available degradation to a passive channel.

        Returns an event dict describing what changed, or ``None`` when
        the channel is already degraded to this policy's floor.
        """
        period_cap = channel.initial_poll_period_us * self.max_slowdown
        if channel.poll_period_us * 2 <= period_cap:
            channel.set_poll_period(channel.poll_period_us * 2)
            return {"action": "slow_poll",
                    "detail": f"poll period -> {channel.poll_period_us}us"}
        if (channel.stride * 2 <= self.max_stride
                and channel.stride * 2 <= len(channel.watches)):
            channel.set_stride(channel.stride * 2)
            return {"action": "split_plan",
                    "detail": f"poll stride -> {channel.stride}"}
        if len(channel.watches) > self.min_watches:
            dropped = channel.shed_watches(1)
            return {"action": "shed_watch",
                    "detail": f"dropped {', '.join(dropped)}"}
        return None

    def __repr__(self) -> str:
        return (f"<DegradationPolicy slowdown<={self.max_slowdown}x "
                f"stride<={self.max_stride} watches>={self.min_watches} "
                f"{'raise' if self.raise_on_exhausted else 'record'}"
                f"-on-exhausted>")


class DebugSession:
    """One GMDF debugging session over a simulated target."""

    CHANNEL_KINDS = ("active", "passive")

    def __init__(self, system: System, channel_kind: str = "active",
                 plan: Optional[InstrumentationPlan] = None,
                 latched: bool = True, net_delay_us: int = 100,
                 baud: int = 115200, poll_period_us: int = 500,
                 tck_hz: int = 4_000_000,
                 budget: Optional[TransportBudget] = None,
                 trace_capacity: Optional[int] = None,
                 trace_spill: Optional[object] = None,
                 chaos: Optional[ChaosConfig] = None,
                 retry: Optional[RetryPolicy] = None,
                 degradation: Optional[DegradationPolicy] = None) -> None:
        """``chaos`` injects seeded wire faults into every per-node debug
        link (:class:`~repro.comm.chaos.ChaosLink`; each node derives its
        own schedule from the config seed). ``retry`` wraps the links in
        a :class:`~repro.comm.retry.RetryingLink` so transient faults are
        absorbed under the policy's attempt/backoff budget. ``degradation``
        (with a ``budget``) degrades passive observation plans instead of
        raising :class:`~repro.errors.BudgetExceededError`.

        ``trace_capacity``/``trace_spill`` configure the engine's
        execution trace: a bounded ring, and/or a
        :class:`~repro.tracedb.store.TraceStore` the ring spills into so
        arbitrarily long sessions keep their full history replayable at
        flat memory (the store's ``checkpoint_every`` additionally turns
        on live seek checkpoints). A spilling session defaults its ring
        to :data:`DEFAULT_SPILL_CACHE_EVENTS` — spilling with an
        unbounded in-memory copy would defeat the flat-memory point.
        """
        if channel_kind not in self.CHANNEL_KINDS:
            raise DebuggerError(
                f"channel_kind must be one of {self.CHANNEL_KINDS}, "
                f"got {channel_kind!r}"
            )
        validate_system(system)
        self.system = system
        self.channel_kind = channel_kind
        # Active debugging needs instrumented code; passive debugging works
        # on clean production code (that is its selling point).
        if plan is None:
            plan = (InstrumentationPlan() if channel_kind == "active"
                    else InstrumentationPlan.none())
        self.plan = plan
        self.latched = latched
        self.net_delay_us = net_delay_us
        self.baud = baud
        self.poll_period_us = poll_period_us
        self.tck_hz = tck_hz
        self.trace_capacity = trace_capacity
        self.trace_spill = trace_spill

        self.sim = Simulator()
        self.registry = MetamodelRegistry()
        self.workflow_log: List[str] = []

        self.model = None
        self.firmware = None
        self.guide: Optional[AbstractionGuide] = None
        self.gdm: Optional[GdmModel] = None
        self.kernel: Optional[DtmKernel] = None
        self.engine: Optional[DebuggerEngine] = None
        self.stepper: Optional[StepController] = None
        self.channel = None
        self.probes: Dict[str, JtagProbe] = {}
        #: one DebugLink per node — the transport every debug byte crosses
        self.links: Dict[str, DebugLink] = {}
        #: extra budgeted links registered via :meth:`add_debug_link`
        self._extra_links: List[DebugLink] = []
        #: optional transport ceilings; checked after every run
        self.budget = budget
        #: set once a run ends over budget (the experiment is failed)
        self.budget_failed = False
        self._warned_absent_channels: set = set()
        #: transport fault injection / retry / degradation configuration
        self.chaos = chaos
        self.retry = retry
        self.degradation = degradation
        #: every degradation step taken, in order: dicts with at least
        #: ``t_us``, ``action`` and ``detail`` (queryable after a run)
        self.degradation_events: List[Dict[str, object]] = []
        #: per-node passive channels (degradation targets)
        self._passive_channels: List[PassiveChannel] = []
        if OBS.metrics is not None:
            # the canonical transport totals (outermost links only, so
            # no wrapper double-count) become transport.* series —
            # including the merged retry/timeout/degradation key set
            OBS.metrics.bind_stats("transport", self.transport_stats,
                                   owner=self)

    def _log(self, step: int, message: str) -> None:
        self.workflow_log.append(f"[{step}] {message}")

    # -- Fig 6 steps -------------------------------------------------------

    def step1_provide_inputs(self) -> "DebugSession":
        """Prerequisites: input meta-model, input model, executable code."""
        self.model = system_to_model(self.system)
        self.firmware = generate_firmware(self.system, self.plan)
        self._log(1, (
            f"inputs ready: metamodel '{self.model.metamodel.name}', "
            f"model '{self.model.name}' ({len(self.model)} objects), "
            f"executable '{self.firmware.name}' "
            f"({self.firmware.instruction_count()} instructions, "
            f"{'instrumented' if self.plan.any_enabled else 'clean'})"
        ))
        return self

    def step2_select_inputs(self) -> "DebugSession":
        """Select the input files (metamodel registration + model pick)."""
        self._require(self.model is not None, "run step1_provide_inputs first")
        self.registry.register(self.model.metamodel)
        self._log(2, (
            f"selected metamodel '{self.model.metamodel.name}' and model "
            f"file '{self.model.name}.model'"
        ))
        return self

    def step3_abstraction(self,
                          table: Optional[MappingTable] = None) -> "DebugSession":
        """Run the abstraction guide and generate the initial GDM."""
        self._require(self.model is not None, "run step1_provide_inputs first")
        self.guide = AbstractionGuide(self.model)
        if table is None:
            table = default_comdes_table(self.model.metamodel)
        self.guide.use_table(table)
        self.gdm = self.guide.finish()
        self._log(3, (
            f"abstraction finished: {len(self.gdm.elements)} elements, "
            f"{len(self.gdm.links)} links from "
            f"{len(table.pairings())} pairings"
        ))
        return self

    def step4_command_setup(self,
                            extra_bindings: Sequence[CommandBinding] = ()
                            ) -> "DebugSession":
        """Add command reaction information (defaults + user additions)."""
        self._require(self.gdm is not None, "run step3_abstraction first")
        for binding in extra_bindings:
            self.gdm.add_binding(binding)
        self._log(4, (
            f"command setup complete: {len(self.gdm.bindings)} bindings "
            f"({len(extra_bindings)} user-defined)"
        ))
        return self

    def step5_connect(self) -> "DebugSession":
        """Create the GDM runtime and the communication channel."""
        self._require(self.gdm is not None, "run step3_abstraction first")
        self.kernel = DtmKernel(
            self.system, self.firmware, sim=self.sim,
            latched=self.latched, net_delay_us=self.net_delay_us,
        )
        composite = CompositeChannel()
        for node in self.system.nodes():
            board = self.kernel.board_of(node)
            if self.channel_kind == "active":
                channel = ActiveChannel(self.sim, board, self.firmware,
                                        link=Rs232Link(self.baud))
                channel.debug_link = self._wrap_link(channel.debug_link,
                                                     node, "active")
                self.links[node] = channel.debug_link
                self.kernel.add_job_hook(
                    node,
                    lambda actor, t, ch=channel: ch.begin_job(t),
                )
                composite.add(channel)
            else:
                tap = TapController(DebugPort(board))
                probe = JtagProbe(tap, tck_hz=self.tck_hz,
                                  transport=UsbTransport())
                self.probes[node] = probe
                link = self._wrap_link(JtagLink(probe), node, "passive")
                self.links[node] = link
                watches = default_watches(self.system, node)
                if watches:
                    channel = PassiveChannel(
                        self.sim, probe, self.firmware, watches,
                        poll_period_us=self.poll_period_us,
                        link=link,
                    )
                    channel.start()
                    composite.add(channel)
                    self._passive_channels.append(channel)
        self.channel = composite
        trace = None
        if self.trace_capacity is not None or self.trace_spill is not None:
            from repro.engine.trace import ExecutionTrace
            capacity = self.trace_capacity
            if capacity is None:
                # spill without a ring would keep an unbounded in-memory
                # duplicate of the on-disk history (deferred import: a
                # plain bounded-ring session never loads tracedb)
                from repro.tracedb.store import DEFAULT_SPILL_CACHE_EVENTS
                capacity = DEFAULT_SPILL_CACHE_EVENTS
            trace = ExecutionTrace(capacity=capacity, spill=self.trace_spill)
        self.engine = DebuggerEngine(self.gdm, channel=composite, trace=trace)
        self.stepper = StepController(self.engine)
        self._log(5, (
            f"GDM created and {self.channel_kind} communication established "
            f"({len(composite.children)} node channel(s)); engine "
            f"{self.engine.state.name}"
        ))
        return self

    def setup(self, table: Optional[MappingTable] = None,
              extra_bindings: Sequence[CommandBinding] = ()) -> "DebugSession":
        """Run all five workflow steps with defaults."""
        return (self.step1_provide_inputs()
                .step2_select_inputs()
                .step3_abstraction(table)
                .step4_command_setup(extra_bindings)
                .step5_connect())

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise DebuggerError(message)

    def _wrap_link(self, link: DebugLink, node: str, label: str) -> DebugLink:
        """Stack the session's chaos/retry wrappers onto a bare link.

        Order matters: faults inject *below* the retry layer, so the
        policy absorbs exactly the transients the chaos schedule emits.
        Each node derives its own chaos seed, so multi-node sessions get
        independent — but reproducible — fault schedules.
        """
        if self.chaos is not None:
            per_node = self.chaos.with_seed(
                derive_seed(self.chaos.seed, "chaos", node))
            link = ChaosLink(link, per_node)
        if self.retry is not None:
            link = RetryingLink(link, self.retry)
        link.label = label
        return link

    # -- runtime ------------------------------------------------------------

    def run(self, duration_us: int) -> "DebugSession":
        """Advance the simulated world to *duration_us*.

        With a :class:`TransportBudget` attached, the transport books
        are audited after the advance; going over the ceiling marks the
        experiment failed and raises
        :class:`~repro.errors.BudgetExceededError`. With a
        :class:`DegradationPolicy` attached as well, the session instead
        *degrades to fit*: before the advance it projects the passive
        poll spend over the horizon and lowers poll rate / splits the
        plan / sheds watches until the projection fits the ceiling,
        recording every step in :attr:`degradation_events` — the hard
        raise stays the explicit opt-in (no policy, or
        ``raise_on_exhausted``).
        """
        self._require(self.kernel is not None, "run step5_connect first")
        self._degrade_to_fit(duration_us)
        t_start = self.sim.now
        self.kernel.run(duration_us)
        if OBS.spans is not None:
            OBS.spans.emit("session.run", t_start,
                           self.sim.now - t_start,
                           track=("engine", "session"), cat="session",
                           args={"horizon_us": duration_us})
        self._check_budget()
        return self

    def run_for(self, delta_us: int) -> "DebugSession":
        """Advance by *delta_us* from the current instant."""
        return self.run(self.sim.now + delta_us)

    # -- transport accounting ----------------------------------------------

    def transport_stats(self) -> Dict[str, object]:
        """Session-wide :meth:`DebugLink.stats` aggregate over all nodes.

        Top-level keys are the cross-channel totals (what global budget
        ceilings are written against); ``"channels"`` breaks the same
        counters down per attribution label — ``passive`` (JTAG poll
        plane), ``active`` (RS-232 command stream), ``inspect``
        (source-debugger reads registered via :meth:`add_debug_link`).
        ``retries``/``timeouts`` aggregate the retry layer's absorption
        counts (zero on bare links); ``degradations`` counts the
        session's recorded degradation events.
        """
        counters = ("transactions", "words_read", "words_written",
                    "frames_carried", "cost_us_total", "retries",
                    "timeouts")
        totals: Dict[str, object] = {key: 0 for key in counters}
        channels: Dict[str, Dict[str, int]] = {}
        for link in self._all_links():
            stats = link.stats()
            row = channels.setdefault(
                stats["label"], {key: 0 for key in counters} | {"links": 0})
            row["links"] += 1
            for key in counters:
                totals[key] += stats[key]
                row[key] += stats[key]
        totals["links"] = sum(row["links"] for row in channels.values())
        totals["channels"] = channels
        totals["degradations"] = len(self.degradation_events)
        return totals

    def _all_links(self) -> List[DebugLink]:
        """Every budgeted link: per-node channels + registered extras."""
        return list(self.links.values()) + self._extra_links

    def add_debug_link(self, link: DebugLink, label: str = "") -> DebugLink:
        """Register an extra link (e.g. a source debugger's inspect link)
        under the session's transport accounting and budget.

        Idempotent: re-registering a link already tracked (including a
        per-node channel link, to relabel it) never double-books its
        transactions.
        """
        if label:
            link.label = label
        if not any(link is tracked for tracked in self._all_links()):
            self._extra_links.append(link)
        return link

    def budget_violations(self) -> List[str]:
        """Current ceilings exceeded (empty without a budget)."""
        if self.budget is None:
            return []
        return self.budget.violations(self.transport_stats())

    # -- graceful degradation ------------------------------------------------

    def _record_degradation(self, event: Dict[str, object]) -> None:
        event.setdefault("t_us", self.sim.now)
        self.degradation_events.append(event)
        if OBS.metrics is not None:
            # one series per ladder rung (slow_poll / split_plan /
            # shed_watch / over_budget / exhausted)
            OBS.metrics.counter("session.degradation",
                                action=str(event.get("action"))).inc()

    def projected_stats(self, horizon_us: int) -> Dict[str, object]:
        """Transport books projected to *horizon_us*: the current totals
        plus what every passive channel's remaining poll ticks will add
        (one transaction per tick, baseline-scaled words and scan cost).
        Active-channel traffic is workload-driven and not projected —
        degradation reacts to it post-run instead."""
        stats = self.transport_stats()
        remaining_us = max(0, horizon_us - self.sim.now)
        for channel in self._passive_channels:
            ticks = remaining_us // channel.poll_period_us
            if ticks <= 0:
                continue
            words, cost_us = channel.estimated_tick()
            add = {"transactions": ticks, "words_read": ticks * words,
                   "cost_us_total": ticks * cost_us}
            row = stats["channels"].get(getattr(channel.link, "label",
                                                "passive"))
            for key, delta in add.items():
                stats[key] += delta
                if row is not None:
                    row[key] += delta
        return stats

    def _degrade_to_fit(self, horizon_us: int) -> None:
        """Pre-run projection loop: degrade until the horizon fits."""
        if (self.budget is None or self.degradation is None
                or not self._passive_channels):
            return
        # bounded: each iteration moves one knob one notch; the knob
        # space (slowdown x stride x watches, per channel) is finite
        for _ in range(256):
            projected = self.projected_stats(horizon_us)
            violations = self.budget.violations(projected)
            if not violations:
                return
            event = None
            for channel in self._passive_channels:
                event = self.degradation.degrade_step(channel)
                if event is not None:
                    event["reason"] = violations[0]
                    self._record_degradation(event)
                    break
            if event is None:
                self._record_degradation({
                    "action": "exhausted",
                    "detail": "every degradation knob is at its floor",
                    "reason": violations[0],
                })
                if self.degradation.raise_on_exhausted:
                    self.budget_failed = True
                    raise BudgetExceededError(violations, projected)
                return

    def _check_budget(self) -> None:
        if self.budget is None:
            return
        stats = self.transport_stats()
        # A per-channel budget whose label no session link carries can
        # never fire — legitimate for a shared budget template (no
        # active channel on a passive session), but also exactly what a
        # typo looks like. Warn once per label, re-evaluating each check
        # so links registered later (add_debug_link) lift the condition
        # and labels added later still get reported.
        absent = (set(self.budget.per_channel) - set(stats["channels"])
                  - self._warned_absent_channels)
        if absent:
            self._warned_absent_channels |= absent
            warnings.warn(
                f"per-channel budget(s) for {sorted(absent)} currently "
                f"match no link label in this session (present: "
                f"{sorted(stats['channels']) or 'none'}); they cannot be "
                f"enforced unless such a link is registered — check for "
                f"typos", stacklevel=3)
        violations = self.budget.violations(stats)
        if not violations:
            return
        if self.degradation is not None:
            # record-and-degrade, never raise: cumulative books cannot
            # un-spend, so the response to a post-run violation is to
            # cut the *future* spend rate and log what happened
            self._record_degradation({
                "action": "over_budget",
                "detail": "; ".join(violations),
                "reason": violations[0],
            })
            for channel in self._passive_channels:
                event = self.degradation.degrade_step(channel)
                if event is not None:
                    event["reason"] = violations[0]
                    self._record_degradation(event)
                    break
            return
        self.budget_failed = True
        raise BudgetExceededError(violations, stats)

    # -- views --------------------------------------------------------------

    @property
    def trace(self):
        """The engine's execution trace."""
        self._require(self.engine is not None, "run step5_connect first")
        return self.engine.trace

    def inspector(self):
        """A model-level inspector over the running target."""
        self._require(self.kernel is not None, "run step5_connect first")
        from repro.engine.inspector import ModelInspector
        return ModelInspector(self.system, self.firmware, self.kernel)

    def snapshot_ascii(self) -> str:
        """ASCII rendering of the debug model's current display state."""
        return scene_to_ascii(gdm_to_scene(self.gdm))

    def snapshot_svg(self) -> str:
        """SVG rendering of the debug model's current display state."""
        return scene_to_svg(gdm_to_scene(self.gdm))

    def timing_diagram(self) -> TimingDiagram:
        """Timing diagram of everything traced so far."""
        return TimingDiagram(self.trace)

    def workflow_text(self) -> str:
        """The numbered Fig 6 workflow log."""
        return "\n".join(self.workflow_log)
