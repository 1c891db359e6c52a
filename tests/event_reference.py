"""Reference implementations of the event and command hot paths.

The simulator, the DTM release path and the GDM command dispatch each
have a fast form in ``src/``. This module keeps their straightforward
forms, as they were before the fast ones, so tests can prove the two
bit-identical:

* :class:`HeapSimulator` — heap of :class:`ScheduledEvent` objects ordered
  by a Python ``__lt__``, periodic ticks re-armed through a closure and
  one :meth:`HeapSimulator.step` call per event;
* :func:`reference_release_actor` — one symbol lookup per port per job and
  a completion lambda with defaults;
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

from repro.comm.protocol import Command
from repro.gdm.model import CommandBinding, GdmElement, GdmLink, GdmModel
from repro.rtos.kernel import DtmKernel
from repro.rtos.task import ActiveJob, JobRecord


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

    def run(self, max_events: int = 1_000_000) -> int:
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        return executed


def reference_release_actor(self: DtmKernel, actor) -> None:
    """``DtmKernel._release_actor`` with a symbol lookup per port."""
    now = self.sim.now
    runtime = self._nodes[actor.node]
    index = self._job_index[actor.name]
    self._job_index[actor.name] += 1
    deadline_abs = now + actor.task.deadline_us

    if runtime.board.stalled:
        self.jobs_skipped += 1
        self._append_record(JobRecord(
            actor.name, index, now, None, deadline_abs, 0, skipped=True,
        ))
        return

    for port, signal in actor.inputs.items():
        addr = self.firmware.symbols.addr_of(f"{actor.name}.in.{port}")
        runtime.board.memory.poke(addr, self.bus.read(actor.node, signal))

    for hook in runtime.job_hooks:
        hook(actor.name, now)

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
            self._on_job_complete(a, i, o, r, d, c, t_done),
    )
    runtime.scheduler.release(job)


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


def reference_decay_pulses(gdm: GdmModel) -> List[str]:
    affected: List[str] = []
    for element in gdm.elements.values():
        if element.style.pop("pulse", None) is not None:
            affected.append(element.id)
    for link in gdm.links.values():
        if link.style.pop("pulse", None) is not None:
            affected.append(link.id)
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


@contextlib.contextmanager
def reference_event_paths():
    """Run every simulator, release and dispatch through the references.

    Patches the simulator class where the kernel and the campaign build
    one, the kernel's release path and the model's dispatch methods.
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch("repro.rtos.kernel.Simulator", HeapSimulator))
        stack.enter_context(
            mock.patch("repro.faults.campaign.Simulator", HeapSimulator))
        stack.enter_context(mock.patch.object(
            DtmKernel, "_release_actor", reference_release_actor))
        for name, fn in _DISPATCH.items():
            stack.enter_context(mock.patch.object(GdmModel, name, fn))
        yield
