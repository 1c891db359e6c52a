"""Multi-board sharding: DTM execution split across node-subset kernels.

The ROADMAP wall this removes: ``DtmKernel`` keeps one :class:`Board`
per node, but a monolithic kernel interleaves every node's jobs on one
simulator, so large distributed systems serialize on one interpreter.
:class:`ShardedDtmKernel` partitions the system's nodes into shards and
runs each shard as its *own* kernel — its own simulator clock, boards
and scheduler — synchronized only at epoch barriers.

Why that is exact, not approximate: DTM's signal bus delivers a
cross-node publication ``net_delay_us`` after it is made, so a node's
execution inside a window shorter than that delay can only depend on
publications from *before* the window — classic conservative parallel
discrete-event simulation with the network delay as lookahead. Shards
therefore advance in lockstep epochs of ``epoch_us <= net_delay_us``;
at each barrier every shard hands over the publications it made, and
they are scheduled into the other shards at their true arrival instants
(``t_publish + net_delay_us``). One extra assumption keeps event order
bit-identical to the monolithic kernel: task periods must exceed the
network delay (checked at construction), so a release event at an
arrival instant was always scheduled before the publication it races —
same winner in both executions.

Two backends behind one API:

* ``backend="inline"`` — shard kernels interleave in-process (the
  "interleave via the Simulator" option): zero IPC, the determinism
  reference, and the way to bound memory per kernel via
  ``record_capacity``;
* ``backend="process"`` — each shard lives in a persistent
  :class:`~repro.fleet.shards.ShardHost` worker process. Each epoch
  calls ``dispatch_run`` on every shard before any ``collect``, so node
  boards genuinely execute in parallel on multicore hosts instead of
  serializing on one synchronous pipe round-trip per shard. Requires
  declarative inputs (``system_ref`` + ``plan``): workers rebuild
  system and firmware locally, per the fleet rule that recipes cross
  processes and live boards never do.

Both backends produce identical records, jitter samples and bus views —
``tests/test_sharding.py`` pins sharded == monolithic equivalence.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.system import System
from repro.errors import FleetError, SchedulerError
from repro.fleet.shards import (
    Injection,
    Publication,
    ShardHost,
    ShardReport,
    build_shard_kernel,
    run_shard_epoch,
    shard_report,
)
from repro.rtos.jitter import JitterMeter
from repro.rtos.task import JobRecord
from repro.target.firmware import FirmwareImage


def partition_nodes(nodes: Sequence[str], shards: int) -> List[List[str]]:
    """Round-robin the sorted node names into *shards* non-empty groups."""
    if shards < 1:
        raise SchedulerError(f"shard count must be >= 1, got {shards}")
    ordered = sorted(nodes)
    shards = min(shards, len(ordered))
    groups: List[List[str]] = [[] for _ in range(shards)]
    for position, node in enumerate(ordered):
        groups[position % shards].append(node)
    return groups


class _InlineShard:
    """In-process shard: same protocol as :class:`ShardHost`, no pipe."""

    def __init__(self, system: System, firmware: FirmwareImage,
                 nodes: Sequence[str], latched: bool, net_delay_us: int,
                 record_capacity: Optional[int]) -> None:
        self.nodes = list(nodes)
        self._outbox: List[Publication] = []
        self._collected: Optional[List[Publication]] = None
        self.kernel = build_shard_kernel(system, firmware, nodes, latched,
                                         net_delay_us, record_capacity,
                                         self._outbox)

    def dispatch_run(self, t2: int,
                     injections: Sequence[Injection]) -> None:
        # in-process "dispatch" executes eagerly; collect() hands it over
        self._collected = run_shard_epoch(self.kernel, t2, injections,
                                          self._outbox)

    def collect(self) -> List[Publication]:
        collected, self._collected = self._collected, None
        if collected is None:
            raise FleetError("collect() without a dispatched epoch")
        return collected

    def report(self) -> ShardReport:
        return shard_report(self.kernel)

    def close(self) -> None:
        pass


class ShardedDtmKernel:
    """DTM execution over node shards advancing in lookahead epochs."""

    BACKENDS = ("inline", "process")

    def __init__(
        self,
        system: System,
        firmware: Optional[FirmwareImage] = None,
        shards: int = 2,
        latched: bool = True,
        net_delay_us: int = 100,
        epoch_us: Optional[int] = None,
        record_capacity: Optional[int] = None,
        backend: str = "inline",
        system_ref: Optional[str] = None,
        plan: Optional[InstrumentationPlan] = None,
    ) -> None:
        if backend not in self.BACKENDS:
            raise FleetError(f"backend must be one of {self.BACKENDS}, "
                             f"got {backend!r}")
        self.system = system
        self.net_delay_us = net_delay_us
        self.partition = partition_nodes(system.nodes(), shards)
        multi_shard = len(self.partition) > 1
        if multi_shard and net_delay_us <= 0:
            raise SchedulerError(
                "multi-shard execution needs a positive network delay: "
                "the delay is the conservative-sync lookahead")
        self.epoch_us = epoch_us if epoch_us is not None else net_delay_us
        if multi_shard and not 0 < self.epoch_us <= net_delay_us:
            raise SchedulerError(
                f"epoch must be in (0, net_delay_us]; got epoch "
                f"{self.epoch_us} vs delay {net_delay_us}")
        if multi_shard:
            slow = [a.name for a in system.actors.values()
                    if a.task.period_us <= net_delay_us]
            if slow:
                raise SchedulerError(
                    f"sharded order parity needs every task period above the "
                    f"network delay ({net_delay_us}us); violating: {slow}")

        if backend == "process":
            if system_ref is None:
                raise FleetError(
                    "backend='process' rebuilds each shard in a worker: "
                    "pass system_ref='module:qualname' (and optionally a "
                    "plan) instead of live objects")
            plan = plan if plan is not None else InstrumentationPlan.none()
            self._shards: List[object] = [
                ShardHost(system_ref, plan, nodes, latched, net_delay_us,
                          record_capacity)
                for nodes in self.partition
            ]
        else:
            if firmware is None:
                firmware = generate_firmware(
                    system, plan if plan is not None
                    else InstrumentationPlan.none())
            self._shards = [
                _InlineShard(system, firmware, nodes, latched, net_delay_us,
                             record_capacity)
                for nodes in self.partition
            ]
        self.backend = backend
        self._now = 0
        #: publications from the last epoch, not yet handed to the shards
        self._pending: List[List[Publication]] = [[] for _ in self._shards]
        self._closed = False

    # -- execution ---------------------------------------------------------

    def run(self, duration_us: int) -> None:
        """Advance all shards to *duration_us* in lockstep epochs."""
        if self._closed:
            raise FleetError("sharded kernel already closed")
        if duration_us < self._now:
            raise SchedulerError(
                f"cannot run backwards to {duration_us} from {self._now}")
        epoch = self.epoch_us if len(self._shards) > 1 else max(
            duration_us - self._now, 1)
        while self._now < duration_us:
            t2 = min(self._now + epoch, duration_us)
            # every send before any receive: process shards run the
            # epoch concurrently
            for shard, pending in zip(self._shards, self._pending):
                shard.dispatch_run(t2, [
                    (t + self.net_delay_us, signal, value)
                    for t, _node, signal, value in pending])
            harvested = [shard.collect() for shard in self._shards]
            # Barrier: everything shard i published this epoch arrives at
            # every other shard next epoch, at t_publish + delay.
            self._pending = [
                [pub for j, pubs in enumerate(harvested) if j != i
                 for pub in pubs]
                for i in range(len(self._shards))
            ]
            self._now = t2

    # -- merged views ------------------------------------------------------

    def _reports(self) -> List[ShardReport]:
        return [shard.report() for shard in self._shards]

    @property
    def records(self) -> List[JobRecord]:
        """All shards' job records in canonical (release, actor, index)
        order — equal to the monolithic kernel's per-actor sequences."""
        merged = [record for report in self._reports()
                  for record in report.records]
        merged.sort(key=lambda r: (r.release, r.actor, r.index))
        return merged

    def records_for(self, actor_name: str) -> List[JobRecord]:
        """Completed/skipped job records of one actor."""
        return [r for r in self.records if r.actor == actor_name]

    @property
    def deadline_misses(self) -> int:
        return sum(report.deadline_misses for report in self._reports())

    @property
    def jobs_skipped(self) -> int:
        return sum(report.jobs_skipped for report in self._reports())

    @property
    def records_dropped(self) -> int:
        return sum(report.records_dropped for report in self._reports())

    @property
    def jitter(self) -> JitterMeter:
        """A merged jitter meter over all shards."""
        meter = JitterMeter()
        for report in self._reports():
            meter.load_records(report.jitter_records)
        return meter

    def signal_value(self, node: str, signal: str) -> int:
        """Current bus view of *signal* on *node* (its owning shard's).

        Only the owning shard is queried — on the process backend that
        is one pipe round trip, not a report from every worker.
        """
        for shard in self._shards:
            if node in shard.nodes:
                try:
                    return shard.report().views[node][signal]
                except KeyError:
                    raise SchedulerError(
                        f"no view of signal {signal!r} on node {node!r}"
                    ) from None
        raise SchedulerError(f"unknown node {node!r}")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop worker processes (no-op for the inline backend)."""
        if not self._closed:
            self._closed = True
            for shard in self._shards:
                shard.close()

    def __enter__(self) -> "ShardedDtmKernel":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<ShardedDtmKernel {len(self._shards)} shard(s) "
                f"{self.backend} t={self._now}us>")
