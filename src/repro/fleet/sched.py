"""The FIFO job scheduler core under every fleet runner.

:class:`ElasticScheduler` owns one FIFO queue of schedulable items —
campaign :class:`~repro.fleet.jobs.JobSpec`\\ s in canonical order — and
runs a single loop that interleaves dispatch, result harvesting,
deadline enforcement and retry resubmission:

* **dispatch** — each idle slot takes the head of the queue; a slot
  never has more than one job in flight, so a crash or a deadline kill
  costs exactly that job by construction.
* **per-job deadlines** — with ``job_timeout_s`` every in-flight job has
  its own deadline; a breach kills *that slot only* and charges its job.
* **non-blocking retries** — a died/killed job burns one attempt and
  re-enters the queue after a ``not_before`` deadline
  (``backoff * 2**(attempt-1)`` after the death), so N stranded jobs
  recover concurrently in max-of-backoffs wall time instead of a serial
  sum-of-backoffs stall.

The determinism contract: results are keyed by each item's canonical
``index`` and merged by the caller in canonical order, and every item is
executed by the same pure ``run_job`` path no matter which worker or
completion order ran it — so *any* schedule produces byte-identical
campaign results and trace stores to ``SerialRunner`` at the same
master seed. ``tests/test_sched.py`` proves it under hypothesis-forced
completion orders via a stepped test backend (``tests/sched_harness.py``)
and an injectable scheduler clock.

Backends implement mechanism, not policy::

    InlineBackend         in-process, one slot   SerialRunner
    ProcessBackend        persistent pipe-driven worker processes, one
                          per slot, respawned on death  FleetRunner

A backend's ``dispatch(slot, uid, items)`` always receives a one-item
list; ``poll`` answers with ``("result", slot, uid, payload)`` or
``("died", slot, uid)`` events.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import FleetError
from repro.fleet.jobs import default_mp_context

__all__ = [
    "MonotonicClock", "VirtualClock",
    "ElasticScheduler", "InlineBackend", "ProcessBackend",
]


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


def _pool_worker_main(conn, entry_ref: str) -> None:
    """Persistent pool-worker loop: one job in, one result out.

    Protocol: host -> worker ``("job", item)`` or ``("close",)``;
    worker -> host the item's result payload.
    """
    from repro.fleet.jobs import resolve_ref
    from repro.fleet.worker import run_job

    execute = resolve_ref(entry_ref) if entry_ref else run_job
    try:
        while True:
            message = conn.recv()
            if message[0] == "job":
                conn.send(execute(message[1]))
            elif message[0] == "close":
                return
            else:
                raise FleetError(f"unknown pool command {message[0]!r}")
    except (EOFError, KeyboardInterrupt, SystemExit):
        return
    finally:
        try:
            conn.close()
        except OSError:
            pass


class InlineBackend:
    """One in-process slot; a dispatched job executes immediately.

    The SerialRunner mechanism: zero processes, jobs run through
    *execute* in dispatch order, results are buffered as events for the
    next poll. Nothing can die, so kill is unsupported.
    """

    supports_kill = False
    slot_count = 1

    def __init__(self, execute: Callable[[Any], Any]) -> None:
        self.execute = execute
        self._events: List[tuple] = []

    def dispatch(self, slot: int, uid: int, items: Sequence[Any]) -> None:
        (item,) = items
        self._events.append(("result", slot, uid, self.execute(item)))

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

    Workers are spawned lazily, live across jobs (warm firmware memos),
    and are respawned transparently after a death or a deadline kill —
    a wedged or crashed job costs *its* slot a restart, never the pool.
    ``entry_ref`` optionally swaps the per-item executor (a
    ``"module:qualname"`` of a ``spec -> result`` callable; empty means
    :func:`~repro.fleet.worker.run_job`), which is how benchmarks drive
    the identical scheduler with synthetic workloads.
    """

    supports_kill = True

    def __init__(self, slot_count: int, entry_ref: str = "") -> None:
        if slot_count < 1:
            raise FleetError(f"slot_count must be >= 1, got {slot_count}")
        self.slot_count = slot_count
        self._ctx = multiprocessing.get_context(default_mp_context())
        self.entry_ref = entry_ref
        self._slots = [_ProcSlot() for _ in range(slot_count)]
        self._busy: Dict[int, int] = {}  # slot -> uid of in-flight job
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
            args=(child, self.entry_ref),
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
        (item,) = items
        state = self._ensure(slot)
        state.conn.send(("job", item))
        self._busy[slot] = uid

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
            uid = self._busy.pop(slot)
            try:
                events.append(("result", slot, uid, conn.recv()))
            except (EOFError, OSError):
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
    """The one job in flight on one slot."""

    __slots__ = ("uid", "item", "deadline")

    def __init__(self, uid: int, item, deadline: Optional[float]) -> None:
        self.uid = uid
        self.item = item
        self.deadline = deadline


class ElasticScheduler:
    """The one event loop under the Serial and Fleet runners.

    ``run(items)`` queues the items in the given (canonical) order, then
    loops: re-queue due retries, hand the queue head to every idle
    slot, poll the backend, harvest results and deaths, and enforce
    per-job deadlines — until every item index has a result. Returns
    ``{item.index: payload}``.

    A death charges its job one attempt: the job re-enters the queue
    after ``retry_backoff_s * 2**(attempt-1)`` (a deadline, not a
    sleep), and after ``max_retries`` burned attempts the
    ``terminal_result(item, kind, retries)`` policy produces its
    structured failure (no policy: the scheduler raises).
    """

    # always 0: the fleet layer of perfbench's traced probe reads them
    steals = 0
    preemptions = 0

    def __init__(self, backend, *, max_retries: int = 0,
                 retry_backoff_s: float = 0.0,
                 job_timeout_s: Optional[float] = None, clock=None,
                 terminal_result: Optional[Callable[[Any, str, int], Any]]
                 = None) -> None:
        self.backend = backend
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.job_timeout_s = job_timeout_s
        self.clock = clock if clock is not None else MonotonicClock()
        self.terminal_result = terminal_result
        #: indexes of items whose worker died or was killed at least once
        self.stranded_items: set = set()

    def _terminal(self, item, kind: str, retries: int):
        if self.terminal_result is None:
            raise FleetError(
                f"worker {kind} on item {getattr(item, 'index', item)!r} "
                f"with no retry budget left")
        return self.terminal_result(item, kind, retries)

    def _poll_timeout(self, busy: Dict[int, _Flight], waiting: List[tuple],
                      now: float):
        if not busy:
            return 0.0
        bounds = []
        for flight in busy.values():
            if flight.deadline is not None:
                bounds.append(max(flight.deadline - now, 0.0))
        for not_before, _ in waiting:
            bounds.append(max(not_before - now, 0.0))
        return min(bounds) if bounds else None

    def run(self, items: Sequence[Any]) -> Dict[int, Any]:
        queue = deque(items)
        expected = len(queue)
        waiting: List[tuple] = []  # (not_before, item) retries
        busy: Dict[int, _Flight] = {}
        results: Dict[int, Any] = {}
        deaths: Dict[int, int] = {}
        next_uid = 0
        timed = self.job_timeout_s is not None and self.backend.supports_kill

        def handle_death(item, kind: str) -> None:
            attempts = deaths.get(item.index, 0) + 1
            deaths[item.index] = attempts
            self.stranded_items.add(item.index)
            if attempts > self.max_retries:
                results[item.index] = self._terminal(item, kind,
                                                     self.max_retries)
            elif self.retry_backoff_s:
                backoff = self.retry_backoff_s * 2 ** (attempts - 1)
                waiting.append((self.clock.now() + backoff, item))
            else:
                queue.append(item)

        while len(results) < expected:
            now = self.clock.now()

            # re-queue retries whose backoff deadline passed
            if waiting:
                queue.extend(item for not_before, item in waiting
                             if not_before <= now)
                waiting = [entry for entry in waiting if entry[0] > now]

            # every idle slot takes the queue head
            for slot in range(self.backend.slot_count):
                if not queue:
                    break
                if slot in busy:
                    continue
                item = queue.popleft()
                self.backend.dispatch(slot, next_uid, [item])
                busy[slot] = _Flight(
                    next_uid, item,
                    now + self.job_timeout_s if timed else None)
                next_uid += 1

            events = self.backend.poll(self._poll_timeout(busy, waiting,
                                                          now))
            if not events and not busy and waiting:
                pause = min(nb for nb, _ in waiting) - self.clock.now()
                self.clock.sleep(max(pause, 0.0))

            for event in events:
                kind, slot, uid = event[:3]
                flight = busy.get(slot)
                if flight is None or flight.uid != uid:
                    continue  # late message from a replaced flight
                del busy[slot]
                if kind == "died":
                    handle_death(flight.item, "crashed")
                    continue
                payload = event[3]
                retries = deaths.get(flight.item.index, 0)
                if retries and hasattr(payload, "retries"):
                    payload.retries = retries
                results[flight.item.index] = payload

            # per-job deadline enforcement: kill that slot only
            if timed:
                now = self.clock.now()
                for slot in list(busy):
                    flight = busy[slot]
                    if now >= flight.deadline:
                        self.backend.kill(slot)
                        del busy[slot]
                        handle_death(flight.item, "timeout")

            if (len(results) < expected and not busy and not waiting
                    and not queue and not events):
                missing = expected - len(results)
                raise FleetError(
                    f"scheduler lost {missing} result(s): no job in "
                    f"flight, queued or awaiting retry")

        return results

    def __repr__(self) -> str:
        return (f"<ElasticScheduler {type(self.backend).__name__} "
                f"slots={self.backend.slot_count} "
                f"retries={self.max_retries}>")
