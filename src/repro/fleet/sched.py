"""The elastic work-stealing scheduler core under every fleet runner.

One event loop, many policies. :class:`ElasticScheduler` owns a deque of
:class:`WorkUnit`\\ s — single campaign :class:`~repro.fleet.jobs.JobSpec`\\ s
(``SerialRunner``), contiguous chunks (``FleetRunner``) or shard-epoch
commands (:class:`~repro.rtos.sharding.ShardedDtmKernel`) — distributes
them into per-worker local queues, and runs a single loop that interleaves
dispatch, result harvesting, heartbeat draining (``live.drain``),
deadline enforcement and isolated-retry resubmission. The three
sequential phases of the old pool (dispatch pass, timeout pass, serial
stranded-retry pass with blocking sleeps) collapse into that one loop.

Scheduling policy:

* **placement** — units are placed greedily onto the least-loaded local
  queue; with ``cost_placement`` (and :attr:`JobSpec.cost_hint` stamped
  by ``enumerate_campaign_jobs``) placement is longest-processing-time
  first, so a known-heavy unit never lands behind another heavy one.
  Hints are optional: units without them weigh ``len(items)`` (uniform).
* **queue stealing** — an idle worker whose local queue is dry takes the
  newest unit from the tail of the *longest remaining* queue (by cost).
  Pinned units (shard epochs) never migrate.
* **preemptive stealing** — when every queue is empty and a worker is
  still grinding through a multi-item unit, the scheduler asks the
  busiest in-flight unit to yield; the worker finishes its current item,
  returns the untouched remainder (a *partial batch*), and the remainder
  is re-queued for the idle capacity.
* **per-item deadlines** — with ``job_timeout_s`` the in-flight item of
  every busy worker has its own deadline (reset on each harvested
  result), replacing the old coarse whole-pass ``timeout * len(specs)``
  bound. A breach kills *that worker only*; queued and in-flight mates
  are re-enqueued unharmed.
* **non-blocking retries** — a died/killed item burns one attempt and is
  resubmitted as a single-item unit gated on a ``not_before`` deadline
  (``backoff * 2**(attempt-1)`` after the death), so N stranded jobs
  recover concurrently in max-of-backoffs wall time, with heartbeats
  drained between polls, instead of the old serial sum-of-backoffs stall.

The determinism contract: results are keyed by each item's canonical
``index`` and merged by the caller in canonical order, and every item is
executed by the same pure ``run_job`` path no matter which worker, steal
or interleaving ran it — so *any* steal schedule produces byte-identical
campaign results, trace stores and live-alert transcripts to
``SerialRunner`` at the same master seed. ``tests/test_sched.py`` proves
it under hypothesis-forced interleavings via a stepped test backend
(``tests/sched_harness.py``) and an injectable scheduler clock.

Backends implement mechanism, not policy::

    InlineBackend         in-process, one slot   SerialRunner
    ProcessBackend        persistent pipe-driven worker processes, one
                          per slot, respawned on death  FleetRunner

A process worker streams one ``("result", uid, offset, JobResult)``
message per item, so a crash loses only the item being executed — the
chunk mates that already finished came home before the worker died, and
the ones still queued inside the unit are re-dispatched untouched.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import FleetError
from repro.fleet.jobs import default_mp_context

__all__ = [
    "WorkUnit", "unit_cost", "MonotonicClock", "VirtualClock",
    "ElasticScheduler", "InlineBackend", "ProcessBackend", "worker_init",
]


def unit_cost(items: Sequence[Any]) -> int:
    """A unit's placement weight: summed cost hints, else uniform.

    Falls back to ``len(items)`` the moment any item lacks a hint —
    mixing activation-count hints with unit weights would let one
    unhinted item vanish next to a 10k-activation neighbour.
    """
    hints = [getattr(item, "cost_hint", None) for item in items]
    if not hints or any(h is None for h in hints):
        return max(1, len(items))
    return max(1, sum(hints))


class WorkUnit:
    """An ordered slice of schedulable items (specs, chunks, epochs).

    ``items`` are opaque to the scheduler except for two attributes:
    ``index`` (the canonical result key) and an optional ``cost_hint``
    (placement weight). ``pinned`` binds the unit to one backend slot —
    shard epochs must run on the persistent process that owns their
    kernel state — and pinned units are never stolen.
    """

    __slots__ = ("items", "cost", "pinned", "uid", "not_before")

    def __init__(self, items: Sequence[Any], cost: Optional[int] = None,
                 pinned: Optional[int] = None) -> None:
        items = list(items)
        if not items:
            raise FleetError("a work unit needs at least one item")
        self.items = items
        self.cost = cost if cost is not None else unit_cost(items)
        self.pinned = pinned
        self.uid = -1        # assigned when the scheduler admits the unit
        self.not_before = 0.0  # retry units: earliest dispatch instant

    def __repr__(self) -> str:
        pin = f" pinned={self.pinned}" if self.pinned is not None else ""
        return (f"<WorkUnit uid={self.uid} items={len(self.items)} "
                f"cost={self.cost}{pin}>")


class MonotonicClock:
    """Real time for real runs (the default scheduler clock)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock:
    """A deterministic clock for tests: sleeping *is* advancing."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds

    def advance(self, seconds: float) -> None:
        self._now += seconds


def worker_init(extra_paths: List[str], hb_config=None,
                hb_queue=None) -> None:
    """Spawned workers must see the same import roots as the parent.

    With a heartbeat config + queue (the live-telemetry plane), the
    worker also enables an in-process metrics registry and installs a
    :class:`~repro.obs.live.HeartbeatEmitter` in ``OBS.live`` whose
    sink is the parent's queue — every job this process runs then
    streams windowed registry deltas upward.
    """
    for path in reversed(extra_paths):
        if path not in sys.path:
            sys.path.insert(0, path)
    if hb_config is not None and hb_queue is not None:
        from repro.obs.live import HeartbeatEmitter
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.runtime import OBS
        if OBS.metrics is None:
            OBS.metrics = MetricsRegistry()
        OBS.live = HeartbeatEmitter(hb_config, hb_queue.put)


def _pool_worker_main(conn, extra_paths: List[str], entry_ref: str,
                      hb_config, hb_queue) -> None:
    """Persistent pool-worker loop: units in, streamed results out.

    Protocol (host -> worker): ``("unit", uid, items)``,
    ``("steal", uid)``, ``("close",)``. Worker -> host: one
    ``("result", uid, offset, payload)`` per finished item, then either
    ``("done", uid)`` or ``("yield", uid, next_offset)`` when a steal
    request preempted the unit between items. A ``steal`` for a unit
    that already finished is stale and ignored.
    """
    from repro.fleet.jobs import resolve_ref
    from repro.fleet.worker import run_job, run_unit_stealable

    worker_init(extra_paths, hb_config, hb_queue)
    execute = resolve_ref(entry_ref) if entry_ref else run_job
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "unit":
                _, uid, items = message

                def emit(offset, payload, _uid=uid):
                    conn.send(("result", _uid, offset, payload))

                def should_yield(_uid=uid):
                    while conn.poll(0):
                        inner = conn.recv()
                        if inner[0] == "steal" and inner[1] == _uid:
                            return True
                        if inner[0] == "close":
                            raise SystemExit(0)
                    return False

                done = run_unit_stealable(items, emit, should_yield, execute)
                if done < len(items):
                    conn.send(("yield", uid, done))
                else:
                    conn.send(("done", uid))
            elif kind == "steal":
                continue  # stale steal: that unit already reported
            elif kind == "close":
                return
            else:
                raise FleetError(f"unknown pool command {kind!r}")
    except (EOFError, KeyboardInterrupt, SystemExit):
        return
    finally:
        try:
            conn.close()
        except OSError:
            pass


class InlineBackend:
    """One in-process slot; a dispatched unit executes immediately.

    The SerialRunner mechanism: zero processes, items run through
    *execute* in dispatch order, results are buffered as events for the
    next poll. Nothing can die and nothing can be preempted, so
    steal/kill are unsupported.
    """

    supports_steal = False
    supports_kill = False
    slot_count = 1

    def __init__(self, execute: Callable[[Any], Any]) -> None:
        self.execute = execute
        self._events: List[tuple] = []

    def dispatch(self, slot: int, uid: int, items: Sequence[Any]) -> None:
        for item in items:
            self._events.append(("result", slot, uid, self.execute(item)))
        self._events.append(("done", slot, uid))

    def poll(self, timeout_s) -> List[tuple]:
        events, self._events = self._events, []
        return events

    def close(self) -> None:
        pass


class _ProcSlot:
    __slots__ = ("proc", "conn")

    def __init__(self) -> None:
        self.proc = None
        self.conn = None


class ProcessBackend:
    """Persistent pipe-driven worker processes, one per slot.

    Workers are spawned lazily, live across units (warm firmware memos),
    and are respawned transparently after a death or a deadline kill —
    a wedged or crashed job costs *its* slot a restart, never the pool.
    ``entry_ref`` optionally swaps the per-item executor (a
    ``"module:qualname"`` of a ``spec -> result`` callable; empty means
    :func:`~repro.fleet.worker.run_job`), which is how benchmarks drive
    the identical scheduler with synthetic workloads.
    """

    supports_steal = True
    supports_kill = True

    def __init__(self, slot_count: int, mp_context: Optional[str] = None,
                 entry_ref: str = "", hb_config=None, hb_queue=None,
                 extra_paths: Optional[List[str]] = None) -> None:
        if slot_count < 1:
            raise FleetError(f"slot_count must be >= 1, got {slot_count}")
        self.slot_count = slot_count
        self._ctx = multiprocessing.get_context(
            mp_context if mp_context is not None else default_mp_context())
        self.entry_ref = entry_ref
        self.hb_config = hb_config
        self.hb_queue = hb_queue
        self.extra_paths = (list(sys.path) if extra_paths is None
                            else list(extra_paths))
        self._slots = [_ProcSlot() for _ in range(slot_count)]
        self._busy: Dict[int, int] = {}  # slot -> uid of in-flight unit
        #: worker processes (re)spawned over the backend's lifetime
        self.spawns = 0

    def _ensure(self, slot: int) -> _ProcSlot:
        state = self._slots[slot]
        if state.proc is not None and state.proc.is_alive():
            return state
        self._reap(slot)
        parent, child = self._ctx.Pipe()
        state.proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child, self.extra_paths, self.entry_ref,
                  self.hb_config, self.hb_queue),
            daemon=True,
        )
        state.proc.start()
        child.close()
        state.conn = parent
        self.spawns += 1
        return state

    def _reap(self, slot: int) -> None:
        state = self._slots[slot]
        self._busy.pop(slot, None)
        if state.proc is not None:
            if state.proc.is_alive():
                state.proc.terminate()
            state.proc.join(timeout=5)
            if state.proc.is_alive():  # pragma: no cover - refused SIGTERM
                state.proc.kill()
                state.proc.join(timeout=5)
            state.proc = None
        if state.conn is not None:
            state.conn.close()
            state.conn = None

    def dispatch(self, slot: int, uid: int, items: Sequence[Any]) -> None:
        state = self._ensure(slot)
        state.conn.send(("unit", uid, list(items)))
        self._busy[slot] = uid

    def steal(self, slot: int, uid: int) -> None:
        state = self._slots[slot]
        if state.conn is None:
            return
        try:
            state.conn.send(("steal", uid))
        except (BrokenPipeError, OSError):
            pass  # the death will surface as an event on the next poll

    def kill(self, slot: int) -> None:
        self._reap(slot)

    def poll(self, timeout_s) -> List[tuple]:
        conns = {self._slots[slot].conn: slot for slot in self._busy}
        if not conns:
            if timeout_s:
                time.sleep(timeout_s)
            return []
        ready = multiprocessing.connection.wait(list(conns), timeout_s)
        events: List[tuple] = []
        for conn in ready:
            slot = conns[conn]
            uid = self._busy.get(slot)
            try:
                while True:
                    message = conn.recv()
                    kind = message[0]
                    if kind == "result":
                        events.append(("result", slot, message[1],
                                       message[3]))
                    elif kind == "yield":
                        events.append(("yield", slot, message[1],
                                       message[2]))
                        self._busy.pop(slot, None)
                    elif kind == "done":
                        events.append(("done", slot, message[1]))
                        self._busy.pop(slot, None)
                    if not conn.poll(0):
                        break
            except (EOFError, OSError):
                # results buffered before the death were harvested above
                self._reap(slot)
                events.append(("died", slot, uid))
        return events

    def close(self) -> None:
        for slot, state in enumerate(self._slots):
            if state.proc is None:
                continue
            if slot in self._busy or not state.proc.is_alive():
                self._reap(slot)
                continue
            try:
                state.conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
            state.proc.join(timeout=5)
            if state.proc.is_alive():  # pragma: no cover - defensive
                state.proc.terminate()
                state.proc.join(timeout=5)
            state.conn.close()
            state.proc = None
            state.conn = None
        self._busy.clear()


class _Flight:
    """One dispatched unit on one slot."""

    __slots__ = ("unit", "completed", "deadline", "steal_sent")

    def __init__(self, unit: WorkUnit, deadline: Optional[float]) -> None:
        self.unit = unit
        self.completed = 0
        self.deadline = deadline
        self.steal_sent = False


class ElasticScheduler:
    """The one event loop under Serial/Fleet runners and shards.

    ``run(units)`` places units onto per-slot queues, then loops:
    drain heartbeats, promote due retry units, dispatch idle slots
    (stealing across queues when a local queue is dry), request a
    preemptive yield when all queues are empty, poll the backend,
    harvest results/yields/deaths, and enforce per-item deadlines —
    until every expected item index has a result. Returns
    ``{item.index: payload}``.

    Deaths charge only the in-flight item: it is resubmitted as a
    single-item unit after ``retry_backoff_s * 2**(attempt-1)`` (a
    deadline, not a sleep), and after ``max_retries`` burned attempts
    the ``terminal_result(item, kind, retries)`` policy produces its
    structured failure (no policy: the scheduler raises, which is the
    shard-epoch stance — persistent state cannot be retried). Items of
    the unit that were still queued behind the victim are re-enqueued
    uncharged.
    """

    def __init__(self, backend, *, max_retries: int = 0,
                 retry_backoff_s: float = 0.0,
                 job_timeout_s: Optional[float] = None,
                 steal: bool = True, cost_placement: bool = True,
                 live=None, live_queue=None, clock=None,
                 terminal_result: Optional[Callable[[Any, str, int], Any]]
                 = None) -> None:
        self.backend = backend
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.job_timeout_s = job_timeout_s
        self.steal = steal
        self.cost_placement = cost_placement
        self.live = live
        self.live_queue = live_queue
        self.clock = clock if clock is not None else MonotonicClock()
        self.terminal_result = terminal_result
        # forensics for runners, benchmarks and the fleet.* metric books
        self.stranded_items: set = set()
        self.steals = 0
        self.preemptions = 0
        self.dispatches = 0

    # -- policy pieces -----------------------------------------------------

    def _terminal(self, item, kind: str, retries: int):
        if self.terminal_result is None:
            raise FleetError(
                f"worker {kind} on item {getattr(item, 'index', item)!r} "
                f"with no retry budget left")
        return self.terminal_result(item, kind, retries)

    def _place(self, units: List[WorkUnit], queues: List[deque]) -> None:
        """Initial placement: pinned first, then LPT greedy by load."""
        slots = len(queues)
        floating = []
        for unit in units:
            if unit.pinned is not None:
                queues[unit.pinned % slots].append(unit)
            else:
                floating.append(unit)
        if self.cost_placement:
            floating = sorted(floating, key=lambda u: (-u.cost, u.uid))
        loads = [sum(u.cost for u in queue) for queue in queues]
        for unit in floating:
            slot = min(range(slots), key=lambda s: (loads[s], s))
            queues[slot].append(unit)
            loads[slot] += unit.cost

    @staticmethod
    def _steal_from_longest(queues: List[deque]) -> Optional[WorkUnit]:
        """Pop the newest unpinned unit off the costliest queue."""
        victim, best = None, 0
        for slot, queue in enumerate(queues):
            cost = sum(u.cost for u in queue if u.pinned is None)
            if cost > best:
                victim, best = slot, cost
        if victim is None:
            return None
        queue = queues[victim]
        for i in range(len(queue) - 1, -1, -1):
            if queue[i].pinned is None:
                unit = queue[i]
                del queue[i]
                return unit
        return None  # pragma: no cover - guarded by the cost scan

    def _poll_timeout(self, busy: Dict[int, _Flight],
                      waiting: List[WorkUnit], now: float):
        if not busy:
            return 0.0
        bounds = []
        if self.live is not None:
            bounds.append(0.05)
        for flight in busy.values():
            if flight.deadline is not None:
                bounds.append(max(flight.deadline - now, 0.0))
        for unit in waiting:
            bounds.append(max(unit.not_before - now, 0.0))
        return min(bounds) if bounds else None

    # -- the event loop ----------------------------------------------------

    def run(self, units: Sequence[WorkUnit]) -> Dict[int, Any]:
        units = list(units)
        slots = self.backend.slot_count
        queues: List[deque] = [deque() for _ in range(slots)]
        waiting: List[WorkUnit] = []
        busy: Dict[int, _Flight] = {}
        results: Dict[int, Any] = {}
        deaths: Dict[int, int] = {}
        next_uid = 0
        expected = 0
        for unit in units:
            unit.uid = next_uid
            next_uid += 1
            expected += len(unit.items)
        self._place(units, queues)

        def admit(items, slot_hint: Optional[int] = None,
                  not_before: float = 0.0) -> None:
            nonlocal next_uid
            unit = WorkUnit(items)
            unit.uid = next_uid
            next_uid += 1
            if not_before:
                unit.not_before = not_before
                waiting.append(unit)
                return
            if slot_hint is None:
                slot_hint = min(
                    range(slots),
                    key=lambda s: (s in busy,
                                   sum(u.cost for u in queues[s]), s))
            queues[slot_hint].append(unit)

        def handle_death(flight: _Flight, kind: str) -> None:
            items = flight.unit.items
            offset = flight.completed
            victim = items[offset] if offset < len(items) else None
            rest = items[offset + 1:]
            if victim is not None:
                attempts = deaths.get(victim.index, 0) + 1
                deaths[victim.index] = attempts
                self.stranded_items.add(victim.index)
                if attempts > self.max_retries:
                    results[victim.index] = self._terminal(
                        victim, kind, self.max_retries)
                else:
                    backoff = (self.retry_backoff_s * 2 ** (attempts - 1)
                               if self.retry_backoff_s else 0.0)
                    admit([victim],
                          not_before=(self.clock.now() + backoff
                                      if backoff else 0.0))
            if rest:
                # innocent queue-mates: uncharged, back in circulation
                admit(rest)

        while len(results) < expected:
            if self.live is not None and self.live_queue is not None:
                self.live.drain(self.live_queue)
            now = self.clock.now()

            # promote retry units whose backoff deadline passed
            due = [u for u in waiting if u.not_before <= now]
            if due:
                waiting = [u for u in waiting if u.not_before > now]
                for unit in due:
                    slot = min(
                        range(slots),
                        key=lambda s: (s in busy,
                                       sum(u.cost for u in queues[s]), s))
                    queues[slot].append(unit)

            # dispatch every idle slot; steal when the local queue is dry
            for slot in range(slots):
                if slot in busy:
                    continue
                unit = None
                if queues[slot]:
                    unit = queues[slot].popleft()
                elif self.steal:
                    unit = self._steal_from_longest(queues)
                    if unit is not None:
                        self.steals += 1
                if unit is None:
                    continue
                self.backend.dispatch(slot, unit.uid, unit.items)
                self.dispatches += 1
                deadline = (now + self.job_timeout_s
                            if (self.job_timeout_s is not None
                                and self.backend.supports_kill) else None)
                busy[slot] = _Flight(unit, deadline)

            # preemptive steal: idle capacity, nothing queued anywhere
            if (self.steal and self.backend.supports_steal
                    and len(busy) < slots and not waiting
                    and not any(queues)):
                candidates = [
                    (slot, flight) for slot, flight in busy.items()
                    if flight.unit.pinned is None
                    and not flight.steal_sent
                    and len(flight.unit.items) - flight.completed > 1
                ]
                if candidates:
                    slot, flight = max(
                        candidates,
                        key=lambda pair: (unit_cost(
                            pair[1].unit.items[pair[1].completed + 1:]),
                            -pair[0]))
                    self.backend.steal(slot, flight.unit.uid)
                    flight.steal_sent = True

            events = self.backend.poll(self._poll_timeout(busy, waiting,
                                                          now))
            if not events and not busy and waiting:
                next_due = min(u.not_before for u in waiting)
                pause = next_due - self.clock.now()
                # drain heartbeats at least every 50ms while backing off
                self.clock.sleep(min(max(pause, 0.0), 0.05)
                                 if self.live is not None
                                 else max(pause, 0.0))

            for event in events:
                kind = event[0]
                if kind == "result":
                    _, slot, uid, payload = event
                    flight = busy.get(slot)
                    if flight is None or flight.unit.uid != uid:
                        continue  # late message from a replaced flight
                    item = flight.unit.items[flight.completed]
                    retries = deaths.get(item.index, 0)
                    if retries and hasattr(payload, "retries"):
                        payload.retries = retries
                    results[item.index] = payload
                    flight.completed += 1
                    if flight.deadline is not None:
                        flight.deadline = (self.clock.now()
                                           + self.job_timeout_s)
                elif kind == "yield":
                    _, slot, uid, next_offset = event
                    flight = busy.get(slot)
                    if flight is None or flight.unit.uid != uid:
                        continue
                    del busy[slot]
                    self.preemptions += 1
                    rest = flight.unit.items[next_offset:]
                    if rest:
                        admit(rest)
                elif kind == "done":
                    _, slot, uid = event
                    flight = busy.get(slot)
                    if flight is not None and flight.unit.uid == uid:
                        del busy[slot]
                elif kind == "died":
                    _, slot, uid = event
                    flight = busy.pop(slot, None)
                    if flight is None or flight.unit.uid != uid:
                        continue
                    handle_death(flight, "crashed")

            # per-item deadline enforcement: kill that slot only
            if self.job_timeout_s is not None and self.backend.supports_kill:
                now = self.clock.now()
                for slot in list(busy):
                    flight = busy[slot]
                    if (flight.deadline is not None
                            and now >= flight.deadline):
                        self.backend.kill(slot)
                        del busy[slot]
                        handle_death(flight, "timeout")

            if (len(results) < expected and not busy and not waiting
                    and not any(queues) and not events):
                missing = expected - len(results)
                raise FleetError(
                    f"scheduler lost {missing} result(s): no unit in "
                    f"flight, queued or awaiting retry")

        return results

    def __repr__(self) -> str:
        return (f"<ElasticScheduler {type(self.backend).__name__} "
                f"slots={self.backend.slot_count} "
                f"steal={'on' if self.steal else 'off'} "
                f"retries={self.max_retries}>")
