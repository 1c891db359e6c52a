"""Persistent shard workers: one node-subset kernel per process.

Campaign jobs are stateless — ship a recipe, get a result. A shard is
the opposite: its boards, scheduler queues and simulator clock must
survive across epochs, so each shard runs in a *persistent* worker
process driven over a pipe by :class:`repro.rtos.sharding.ShardedDtmKernel`.

Per the fleet discipline, nothing live crosses the pipe. The worker
rebuilds its kernel from declarative inputs (``system_ref`` + an
instrumentation plan; codegen is deterministic, so every shard generates
the identical firmware image), and the messages are plain tuples:

* ``("run", t2, injections)`` — schedule the remote publications handed
  over at the barrier, advance the local kernel to ``t2``, reply with the
  publications this shard made during the epoch;
* ``("report",)`` — reply with a :class:`ShardReport` snapshot (job
  records, misses, jitter samples, bus views);
* ``("close",)`` — shut the worker down.

A worker that hits an exception replies ``("error", type, message,
traceback)`` and the host raises a :class:`FleetError` carrying the
worker-side traceback — a crashed shard is a diagnosis, not a hang.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FleetError
from repro.fleet.jobs import default_mp_context
from repro.rtos.kernel import DtmKernel
from repro.rtos.task import JobRecord
from repro.sim.kernel import Simulator

#: a captured publication: (t_publish, producer_node, signal, value)
Publication = Tuple[int, str, str, int]

#: a scheduled remote arrival: (t_arrive, signal, value)
Injection = Tuple[int, str, int]


class ShardReport:
    """Plain-data snapshot of one shard's observable state."""

    __slots__ = ("records", "deadline_misses", "jobs_skipped",
                 "records_dropped", "jitter_records", "views")

    def __init__(self, records: List[JobRecord], deadline_misses: int,
                 jobs_skipped: int, records_dropped: int,
                 jitter_records: Dict[str, List[Tuple[int, int]]],
                 views: Dict[str, Dict[str, int]]) -> None:
        self.records = records
        self.deadline_misses = deadline_misses
        self.jobs_skipped = jobs_skipped
        self.records_dropped = records_dropped
        self.jitter_records = jitter_records
        self.views = views


def build_shard_kernel(system, firmware, nodes: Sequence[str],
                       latched: bool, net_delay_us: int,
                       record_capacity: Optional[int],
                       outbox: List[Publication]) -> DtmKernel:
    """A node-subset kernel whose bus publications land in *outbox*."""
    kernel = DtmKernel(system, firmware, sim=Simulator(), latched=latched,
                       net_delay_us=net_delay_us, nodes=nodes,
                       record_capacity=record_capacity)
    kernel.bus.on_publish = (
        lambda t, node, signal, value: outbox.append((t, node, signal, value))
    )
    return kernel


def shard_report(kernel: DtmKernel) -> ShardReport:
    """Snapshot a shard kernel as plain pipe-safe data."""
    return ShardReport(
        records=kernel.records,
        deadline_misses=kernel.deadline_misses,
        jobs_skipped=kernel.jobs_skipped,
        records_dropped=kernel.records_dropped,
        jitter_records=kernel.jitter.export_records(),
        views={node: kernel.bus.snapshot(node) for node in kernel.local_nodes},
    )


def run_shard_epoch(kernel: DtmKernel, t2: int,
                    injections: Sequence[Injection],
                    outbox: List[Publication]) -> List[Publication]:
    """Schedule remote arrivals, advance to *t2*, drain the outbox."""
    for t_arrive, signal, value in injections:
        kernel.sim.schedule_at(t_arrive, kernel.bus.inject, signal, value)
    kernel.run(t2)
    published, outbox[:] = list(outbox), []
    return published


def _shard_worker_main(conn, system_ref: str, plan, nodes: List[str],
                       latched: bool, net_delay_us: int,
                       record_capacity: Optional[int]) -> None:
    try:
        from repro.codegen.pipeline import generate_firmware
        from repro.fleet.jobs import resolve_ref

        system = resolve_ref(system_ref)()
        firmware = generate_firmware(system, plan)
        outbox: List[Publication] = []
        kernel = build_shard_kernel(system, firmware, nodes, latched,
                                    net_delay_us, record_capacity, outbox)
        while True:
            message = conn.recv()
            if message[0] == "run":
                _, t2, injections = message
                conn.send(("ok", run_shard_epoch(kernel, t2, injections,
                                                 outbox)))
            elif message[0] == "report":
                conn.send(("ok", shard_report(kernel)))
            elif message[0] == "close":
                conn.send(("ok", None))
                return
            else:
                conn.send(("error", "FleetError",
                           f"unknown shard command {message[0]!r}", ""))
    except EOFError:
        return
    except Exception as exc:  # noqa: BLE001 - forwarded to the host
        import traceback
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class ShardHost:
    """Host-side handle of one persistent shard worker process."""

    def __init__(self, system_ref: str, plan, nodes: Sequence[str],
                 latched: bool, net_delay_us: int,
                 record_capacity: Optional[int],
                 mp_context: Optional[str] = None) -> None:
        ctx = multiprocessing.get_context(mp_context if mp_context is not None
                                          else default_mp_context())
        self.nodes = list(nodes)
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(child, system_ref, plan, self.nodes, latched,
                  net_delay_us, record_capacity),
            daemon=True,
        )
        self._process.start()
        child.close()

    def _send(self, message: tuple) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise FleetError(
                f"shard worker for nodes {self.nodes} died "
                f"(exitcode {self._process.exitcode})") from exc

    def collect(self):
        """Receive one pending reply (pairs with :meth:`dispatch_run`)."""
        try:
            reply = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise FleetError(
                f"shard worker for nodes {self.nodes} died "
                f"(exitcode {self._process.exitcode})") from exc
        if reply[0] == "error":
            _, kind, text, trace = reply
            raise FleetError(f"shard worker for nodes {self.nodes} failed: "
                             f"{kind}: {text}\n{trace}")
        return reply[1]

    def _request(self, message: tuple):
        self._send(message)
        return self.collect()

    def dispatch_run(self, t2: int,
                     injections: Sequence[Injection]) -> None:
        """Start the epoch without waiting for it.

        Pairs with :meth:`collect`: the sharded kernel dispatches every
        shard's epoch first and only then collects, so process-backend
        shards execute one epoch genuinely in parallel instead of
        serializing on one synchronous pipe round-trip per shard.
        """
        self._send(("run", t2, list(injections)))

    def report(self) -> ShardReport:
        """Fetch the shard's current observable state."""
        return self._request(("report",))

    def close(self) -> None:
        """Stop the worker (idempotent; tolerates an already-dead one)."""
        if self._process.is_alive():
            try:
                self._request(("close",))
            except FleetError:
                pass
        self._conn.close()
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
