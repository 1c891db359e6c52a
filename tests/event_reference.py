"""Reference implementations of the event and command hot paths.

The simulator, the DTM release path, the active channel's transport and
the engine's command path each have a fast form in ``src/``. This module
keeps their straightforward forms, as they were before the fast ones, so
tests can prove the two bit-identical:

* :class:`HeapSimulator` — heap of :class:`ScheduledEvent` objects ordered
  by a Python ``__lt__``, periodic ticks re-armed through a closure and
  one :meth:`HeapSimulator.step` call per event;
* the release path — :func:`reference_start` (one periodic release entry
  per actor), :func:`reference_release_actor` (one symbol lookup,
  ``poke``/``peek`` and ``bus.read`` per port per job, ``run_task``, a
  scheduler job with a completion lambda per release),
  :func:`reference_on_job_complete` (a record per completion event and a
  publication entry per job), :func:`reference_publish` (one bus
  publication and one jitter record per signal, remote updates through a
  Python callback per signal and node) and
  :class:`ReferenceNodeScheduler` (every release and completion
  re-plans, idle or not);
* the UART FIFO and transport — :func:`reference_on_emit` rebuilds the
  in-flight list and sums it per frame, :func:`reference_transmit_frame`
  and :func:`reference_chaos_transmit_frame` run the line's noise model
  and mirror counters generically, :func:`reference_deliver_frame` looks
  every path up through the firmware;
* the engine — :func:`reference_on_command` publishes every
  ``engine_state``, ``reaction`` and ``command`` event whether or not
  anyone subscribed, and :func:`reference_suite_on_command` hands every
  command to every monitor;
* ``reference_*`` dispatch helpers — linear ``bindings_for`` scan, full
  group scan, link scan by source path and a pulse decay that sweeps every
  element and link.

:func:`make_reference_gdm` binds the dispatch helpers onto one model
instance; :func:`reference_event_paths` swaps every reference in for the
duration of a ``with`` block, for whole-system comparisons.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Any, Callable, Dict, List, Optional
from unittest import mock

import random

from repro.comm.channel import ActiveChannel, _KINDS
from repro.comm.chaos import ChaosLink
from repro.comm.frames import encode_frame
from repro.comm.link import SerialLink
from repro.comm.protocol import Command, CommandKind
from repro.engine.checks import MonitorSuite
from repro.engine.engine import DebuggerEngine, EngineState
from repro.errors import DebuggerError, SchedulerError
from repro.gdm.model import CommandBinding, GdmElement, GdmLink, GdmModel
from repro.gdm.reactions import apply_reaction
from repro.rtos.kernel import DtmKernel
from repro.rtos.task import ActiveJob, JobRecord
from repro.util.seeds import derive_seed


class HeapEvent:
    """Pending callback compared by ``(time, seq)`` in Python."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "HeapEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class HeapSimulator:
    """The object-heap simulator the tuple-keyed one replaced."""

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: List[HeapEvent] = []
        self._executed = 0

    @property
    def now(self) -> int:
        return self._now

    @property
    def executed_events(self) -> int:
        return self._executed

    @property
    def pending_events(self) -> int:
        return sum(1 for ev in self._queue if not ev.cancelled)

    def schedule_at(self, time: int, fn: Callable[..., Any],
                    *args: Any) -> HeapEvent:
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} before now={self._now}")
        self._seq += 1
        event = HeapEvent(time, self._seq, fn, args)
        heapq.heappush(self._queue, event)
        return event

    def schedule(self, delay: int, fn: Callable[..., Any],
                 *args: Any) -> HeapEvent:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def every(self, period: int, fn: Callable[..., Any], *args: Any,
              start: Optional[int] = None) -> HeapEvent:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        first = start if start is not None else self._now + period

        def tick(*tick_args: Any) -> None:
            fn(*tick_args)
            self.schedule(period, tick, *tick_args)

        return self.schedule_at(first, tick, *args)

    def clear(self) -> None:
        self._queue.clear()

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._executed += 1
            event.fn(*event.args)
            return True
        return False

    def run_until(self, time: int) -> int:
        if time < self._now:
            raise ValueError(
                f"cannot run backwards to t={time} from now={self._now}")
        executed = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > time:
                break
            self.step()
            executed += 1
        self._now = time
        return executed


def reference_start(self: DtmKernel) -> None:
    """``DtmKernel.start`` with one periodic release entry per actor."""
    if self._closed:
        raise SchedulerError("kernel is closed")
    if self._started:
        raise SchedulerError("kernel already started")
    self._started = True
    for actor in self.system.actors.values():
        self.sim.every(actor.task.period_us, reference_release_actor, self,
                       actor, start=actor.task.offset_us)
    for load in self._load_tasks:
        self.sim.every(load.period_us, self._release_load, load,
                       start=load.offset_us)


def reference_release_actor(self: DtmKernel, actor) -> None:
    """One actor's release, with a symbol lookup per port and a
    scheduler job per release."""
    now = self.sim.now
    runtime = self._nodes[actor.node]
    index = self._job_index[actor.name]
    self._job_index[actor.name] += 1
    deadline_abs = now + actor.task.deadline_us

    if runtime.board.stalled:
        self.jobs_skipped += 1
        self.records.append(JobRecord(
            actor.name, index, now, None, deadline_abs, 0, skipped=True))
        return

    for port, signal in actor.inputs.items():
        addr = self.firmware.symbols.addr_of(f"{actor.name}.in.{port}")
        runtime.board.memory.poke(addr, self.bus.read(actor.node, signal))

    for hook in runtime.job_hooks:
        hook(now)

    result = runtime.board.run_task(actor.name)
    demand_us = runtime.board.cycles_to_us(result.cycles)

    outputs: Dict[str, int] = {}
    for port, signal in actor.outputs.items():
        addr = self.firmware.symbols.addr_of(f"{actor.name}.out.{port}")
        outputs[signal] = runtime.board.memory.peek(addr)

    job = ActiveJob(
        actor.name, actor.task.priority, now, deadline_abs, demand_us,
        on_complete=lambda t_done, a=actor, i=index, o=outputs,
                           r=now, d=deadline_abs, c=demand_us:
            reference_on_job_complete(self, a, i, o, r, d, c, t_done),
    )
    runtime.scheduler.release(job)


def reference_on_job_complete(self: DtmKernel, actor, index: int,
                              outputs: Dict[str, int], release: int,
                              deadline_abs: int, demand_us: int,
                              t_done: int) -> None:
    """A completion event's record, then a publication entry per job at
    its deadline (at once on a miss or with ``latched=False``)."""
    record = JobRecord(actor.name, index, release, t_done, deadline_abs,
                       demand_us)
    self.records.append(record)
    if record.missed:
        self.deadline_misses += 1
    if self.latched and not record.missed:
        self.sim.schedule_at(deadline_abs, reference_publish, self, actor,
                             release, outputs)
    else:
        reference_publish(self, actor, release, outputs)


def reference_publish(self: DtmKernel, actor, release: int,
                      outputs: Dict[str, int]) -> None:
    """One job's publication: one bus call and one jitter record per
    signal."""
    now = self.sim.now
    for signal, value in outputs.items():
        reference_bus_publish(self.bus, actor.node, signal, value)
        self.jitter.record((signal,), release, now)


def _apply_view(view: Dict[str, int], signal: str, value: int) -> None:
    view[signal] = value


def reference_bus_publish(bus, producer_node: str, signal: str,
                          value: int) -> None:
    """``SignalBus.publish`` of one signal, with a Python callback per
    remote update."""
    views = bus._views
    bus.messages_sent += 1
    views[producer_node][signal] = value
    for node in views:
        if node == producer_node:
            continue
        bus.cross_node_messages += 1
        if bus.net_delay_us == 0:
            views[node][signal] = value
        else:
            bus.sim.schedule(bus.net_delay_us, _apply_view, views[node],
                             signal, value)


class ReferenceNodeScheduler:
    """``NodeScheduler`` re-planning on every release and completion."""

    def __init__(self, sim, node: str) -> None:
        self.sim = sim
        self.node = node
        self._jobs: List[ActiveJob] = []
        self._running: Optional[ActiveJob] = None
        self._last_update = 0
        self._completion_event = None
        self.preemptions = 0
        self.jobs_completed = 0

    def close(self) -> None:
        self._jobs = []
        self._running = None
        self._completion_event = None

    def release(self, job: ActiveJob) -> None:
        if job.release != self.sim.now:
            raise SchedulerError(
                f"job {job.name} released at t={self.sim.now} but stamped "
                f"{job.release}")
        self._update_progress()
        self._jobs.append(job)
        self._replan()

    def _update_progress(self) -> None:
        now = self.sim.now
        if self._running is not None:
            self._running.remaining_us -= now - self._last_update
            if self._running.remaining_us < 0:
                raise SchedulerError(
                    f"job {self._running.name} overran its demand accounting")
        self._last_update = now

    def _replan(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._jobs:
            self._running = None
            return
        best = min(self._jobs, key=ActiveJob.sort_key)
        if self._running is not None and best is not self._running:
            self.preemptions += 1
        self._running = best
        self._last_update = self.sim.now
        self._completion_event = self.sim.schedule(
            best.remaining_us, self._complete, best)

    def _complete(self, job: ActiveJob) -> None:
        self._update_progress()
        if job.remaining_us != 0:
            raise SchedulerError(
                f"job {job.name} completed with {job.remaining_us}us "
                f"remaining")
        self._jobs.remove(job)
        self._completion_event = None
        self._running = None
        job.completion = self.sim.now
        self.jobs_completed += 1
        if job.on_complete is not None:
            job.on_complete(self.sim.now)
        self._replan()


# -- UART FIFO and transport ---------------------------------------------------

def reference_on_emit(self: ActiveChannel, kind: int, path_id: int,
                      value: int) -> None:
    """``ActiveChannel._on_emit`` rescanning the in-flight list."""
    inflight = self.__dict__.setdefault("_ref_inflight", [])
    delta = self.board.cpu.cycles - self._job_base_cycles
    t_emit = self._job_base_time + self.board.cycles_to_us(delta)
    frame = encode_frame(kind, path_id, value)
    inflight = self._ref_inflight = [
        entry for entry in inflight if entry[0] > t_emit]
    pending = sum([entry[1] for entry in inflight])
    if pending + len(frame) > self.board.uart.fifo_depth:
        self.board.uart.overruns += 1
        self.frames_dropped += 1
        return
    wire_frame, t_done, t_arrive = self.debug_link.transmit_frame(
        t_emit, frame)
    inflight.append((t_done, len(frame)))
    self.board.uart.bytes_sent += len(frame)
    self.frames_sent += 1
    self.sim.schedule_at(max(t_arrive, self.sim.now), self._deliver_frame,
                         wire_frame, t_emit)


def reference_deliver_frame(self: ActiveChannel, frame: bytes,
                            t_emit: int) -> None:
    """``ActiveChannel._deliver_frame`` resolving paths per command."""
    for kind, path_id, value in self.decoder.feed(frame):
        self.deliver(Command(
            _KINDS.get(kind) or CommandKind(kind),
            self.firmware.path_of_id(path_id), value,
            t_target=t_emit, t_host=self.sim.now))


def reference_transmit_frame(self: SerialLink, t_ready: int, frame: bytes):
    """``SerialLink.transmit_frame`` through the noise model and
    ``_account``."""
    t_start, t_done = self.line.transmit(t_ready, len(frame))
    wire = self.line.corrupt(frame)
    t_arrive = t_done + self.host_latency_us
    self._account(t_done - t_start + self.host_latency_us, frames=1)
    return bytes(wire), t_done, t_arrive


_MIRRORED = ("transactions", "words_read", "words_written",
             "frames_carried", "cost_us_total")


def reference_chaos_transmit_frame(self: ChaosLink, t_ready: int,
                                   frame: bytes):
    """``ChaosLink.transmit_frame`` mirroring counters by name."""
    op_index = self._frame_ops
    self._frame_ops += 1
    before = tuple(getattr(self.inner, key) for key in _MIRRORED)
    wire, t_done, t_arrive = self.inner.transmit_frame(t_ready, frame)
    for key, prior in zip(_MIRRORED, before):
        setattr(self, key, getattr(self, key)
                + getattr(self.inner, key) - prior)
    cfg = self.config
    if not cfg.enabled:
        return wire, t_done, t_arrive
    rng = random.Random(derive_seed(cfg.seed, "frame", op_index))
    r_loss = rng.random()
    r_corrupt = rng.random()
    r_duplicate = rng.random()
    r_reorder = rng.random()
    if r_loss < cfg.frame_loss:
        self.frames_lost += 1
        self._record("loss")
        return b"", t_done, t_arrive
    if r_corrupt < cfg.frame_corrupt and wire:
        mutated = bytearray(wire)
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        wire = bytes(mutated)
        self.frames_corrupted += 1
        self._record("corrupt")
    if r_duplicate < cfg.frame_duplicate:
        wire = wire + wire
        self.frames_duplicated += 1
        self._record("duplicate")
    if r_reorder < cfg.frame_reorder:
        t_arrive += cfg.reorder_delay_us
        self.frames_reordered += 1
        self._record("reorder")
    return wire, t_done, t_arrive


# -- engine ------------------------------------------------------------------

def reference_set_state(self: DebuggerEngine, state: EngineState) -> None:
    """``DebuggerEngine._set_state`` publishing every transition."""
    if state is not self.state:
        previous, self.state = self.state, state
        self.bus.publish("engine_state", previous=previous, current=state)


def reference_on_command(self: DebuggerEngine, command: Command) -> None:
    """``DebuggerEngine.on_command`` publishing whether or not anyone
    listens."""
    if self.state is EngineState.DISCONNECTED:
        raise DebuggerError("engine received a command while disconnected")
    if self.state is EngineState.REPLAYING:
        raise DebuggerError("engine received a live command during replay")
    if self.state is EngineState.PAUSED:
        self.commands_while_paused += 1
        return
    self._set_state(EngineState.REACTING)
    self.gdm.decay_pulses()
    reactions = []
    for binding in self.gdm.bindings_for(command):
        record = apply_reaction(self.gdm, binding, command)
        if record is not None:
            reactions.append(record)
            self.bus.publish("reaction", record=record, command=command)
    event = self.trace.record(command, reactions, self.state.name)
    self.commands_processed += 1
    self.bus.publish("command", command=command, event=event)
    if self._live_checkpoints:
        spill = self.trace.spill
        if spill.wants_checkpoint(event.seq):
            spill.add_checkpoint(event.seq, command.t_host,
                                 self.gdm.dynamic_state())
    if self.frames is not None and reactions:
        self.frames.capture(command.t_host,
                            f"{command.kind.name} {command.path}",
                            self.gdm.styles_snapshot())
    hit = self.breakpoints.check(command)
    if hit is not None:
        self._pause_on_breakpoint(hit, command)
        return
    if self.step_budget is not None:
        self.step_budget -= 1
        if self.step_budget <= 0:
            self.step_budget = None
            self._halt_target()
            self._set_state(EngineState.PAUSED)
            self.bus.publish("step_complete", command=command)
            return
    self._set_state(EngineState.WAITING)


def reference_suite_on_command(self: MonitorSuite, command: Command,
                               **_: object) -> None:
    """``MonitorSuite._on_command`` showing every monitor every command."""
    for monitor in self.monitors:
        monitor.inspect(command)


# -- command dispatch -------------------------------------------------------

def reference_bindings_for(gdm: GdmModel,
                           command: Command) -> List[CommandBinding]:
    return [b for b in gdm.bindings if b.matches(command)]


def reference_elements_in_group(gdm: GdmModel,
                                group: str) -> List[GdmElement]:
    return [e for e in gdm.elements.values() if e.group == group]


def reference_link_by_path(gdm: GdmModel,
                           source_path: str) -> Optional[GdmLink]:
    for link in gdm.links.values():
        if link.source_path == source_path:
            return link
    return None


def reference_pulse(gdm: GdmModel, item) -> None:
    item.style["pulse"] = "true"
    # the engine decays only while the lit set is non-empty
    gdm.lit[item.id] = item


def reference_decay_pulses(gdm: GdmModel) -> List[str]:
    affected: List[str] = []
    for element in gdm.elements.values():
        if element.style.pop("pulse", None) is not None:
            affected.append(element.id)
    for link in gdm.links.values():
        if link.style.pop("pulse", None) is not None:
            affected.append(link.id)
    gdm.lit.clear()
    return affected


_DISPATCH = {
    "bindings_for": reference_bindings_for,
    "elements_in_group": reference_elements_in_group,
    "link_by_path": reference_link_by_path,
    "pulse": reference_pulse,
    "decay_pulses": reference_decay_pulses,
}


def make_reference_gdm(gdm: GdmModel) -> GdmModel:
    """Bind the reference dispatch helpers onto this one *gdm*."""
    for name, fn in _DISPATCH.items():
        setattr(gdm, name, fn.__get__(gdm, GdmModel))
    return gdm


#: (owner, attribute, reference) of every patched fast path
_PATCHES = (
    (DtmKernel, "start", reference_start),
    (ActiveChannel, "_on_emit", reference_on_emit),
    (ActiveChannel, "_deliver_frame", reference_deliver_frame),
    (SerialLink, "transmit_frame", reference_transmit_frame),
    (ChaosLink, "transmit_frame", reference_chaos_transmit_frame),
    (DebuggerEngine, "_set_state", reference_set_state),
    (DebuggerEngine, "on_command", reference_on_command),
    (MonitorSuite, "_on_command", reference_suite_on_command),
)


@contextlib.contextmanager
def reference_event_paths():
    """Run every simulator, release, transport and dispatch through the
    references.

    Patches the simulator class where the kernel builds its own, the
    node scheduler class, the kernel's start (so every actor
    gets its own periodic release, its own scheduler job and its own
    publication entry), the active channel's emit and delivery, the serial and chaos
    links' frame transmission, the engine's command path, the monitor
    suite's dispatch and the model's dispatch methods. Rigs must be
    built inside the block: emit handlers and subscriptions bind the
    methods current at construction.
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch("repro.rtos.kernel.Simulator", HeapSimulator))
        stack.enter_context(mock.patch("repro.rtos.kernel.NodeScheduler",
                                       ReferenceNodeScheduler))
        for owner, name, fn in _PATCHES:
            stack.enter_context(mock.patch.object(owner, name, fn))
        for name, fn in _DISPATCH.items():
            stack.enter_context(mock.patch.object(GdmModel, name, fn))
        yield
