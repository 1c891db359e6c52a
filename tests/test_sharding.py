"""Tests for multi-board sharding and the kernel's record ring.

The sharded kernel's contract is *equivalence*: splitting a system's
nodes across shard kernels — in-process or in worker processes — changes
wall-clock ownership, never results. Checked against the monolithic
``DtmKernel`` on the two-node cruise control (a real cross-node feedback
loop: throttle and speed cross the network every period).
"""

import pytest

from repro.codegen import InstrumentationPlan, generate_firmware
from repro.comdes.examples import cruise_control_system, traffic_light_system
from repro.errors import FleetError, SchedulerError
from repro.rtos.kernel import DtmKernel
from repro.rtos.sharding import ShardedDtmKernel, partition_nodes
from repro.sim.kernel import Simulator
from repro.util.timeunits import ms

DURATION = ms(400)

CRUISE_REF = "repro.comdes.examples:cruise_control_system"


def record_key(record):
    return (record.actor, record.index, record.release, record.completion,
            record.deadline_abs, record.demand_us, record.skipped,
            record.missed)


def build_monolithic():
    system = cruise_control_system()
    firmware = generate_firmware(system, InstrumentationPlan.none())
    kernel = DtmKernel(system, firmware, sim=Simulator(), latched=True)
    kernel.run(DURATION)
    return system, kernel


def assert_equivalent(system, monolithic, sharded):
    for actor in system.actors:
        assert ([record_key(r) for r in monolithic.records_for(actor)]
                == [record_key(r) for r in sharded.records_for(actor)]), actor
    assert monolithic.deadline_misses == sharded.deadline_misses
    assert monolithic.jobs_skipped == sharded.jobs_skipped
    for node in system.nodes():
        for signal in system.signals:
            assert (monolithic.signal_value(node, signal)
                    == sharded.signal_value(node, signal)), (node, signal)
    for signal in monolithic.jitter.signals():
        assert (monolithic.jitter.phases(signal)
                == sharded.jitter.phases(signal)), signal


class TestPartition:
    def test_round_robin_sorted(self):
        assert partition_nodes(["b", "a", "c"], 2) == [["a", "c"], ["b"]]

    def test_more_shards_than_nodes_collapses(self):
        assert partition_nodes(["a"], 4) == [["a"]]

    def test_invalid_count_rejected(self):
        with pytest.raises(SchedulerError):
            partition_nodes(["a"], 0)


class TestShardedEquivalence:
    def test_inline_backend_matches_monolithic(self):
        system, monolithic = build_monolithic()
        sharded = ShardedDtmKernel(cruise_control_system(), shards=2)
        sharded.run(DURATION)
        assert_equivalent(system, monolithic, sharded)

    def test_process_backend_matches_monolithic(self):
        system, monolithic = build_monolithic()
        with ShardedDtmKernel(cruise_control_system(), shards=2,
                              backend="process",
                              system_ref=CRUISE_REF) as sharded:
            sharded.run(DURATION)
            assert_equivalent(system, monolithic, sharded)

    def test_epoch_size_is_result_invariant(self):
        system, monolithic = build_monolithic()
        for epoch_us in (100, 37, 1):
            sharded = ShardedDtmKernel(cruise_control_system(), shards=2,
                                       epoch_us=epoch_us)
            sharded.run(DURATION)
            assert_equivalent(system, monolithic, sharded)

    def test_incremental_runs_match_one_shot(self):
        system, monolithic = build_monolithic()
        sharded = ShardedDtmKernel(cruise_control_system(), shards=2)
        for t in range(ms(100), DURATION + 1, ms(100)):
            sharded.run(t)
        assert_equivalent(system, monolithic, sharded)

    def test_single_shard_is_just_a_kernel(self):
        system = traffic_light_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        monolithic = DtmKernel(system, firmware, sim=Simulator())
        monolithic.run(DURATION)
        sharded = ShardedDtmKernel(traffic_light_system(), shards=1)
        sharded.run(DURATION)
        assert_equivalent(system, monolithic, sharded)


class _RecordingShard:
    """A fake shard that logs every epoch call into a shared list."""

    def __init__(self, nodes, log):
        self.nodes = nodes
        self.log = log

    def dispatch_run(self, t2, injections):
        self.log.append(("dispatch_run", self.nodes[0], t2))

    def collect(self):
        self.log.append(("collect", self.nodes[0]))
        return []

    def close(self):
        pass


class TestEpochProtocol:
    def test_every_dispatch_precedes_any_collect_within_an_epoch(self):
        # all sends before any receive is what lets process shards run
        # one epoch concurrently
        sharded = ShardedDtmKernel(cruise_control_system(), shards=2)
        log = []
        sharded._shards = [_RecordingShard(nodes, log)
                           for nodes in sharded.partition]
        sharded.run(300)
        first, second = (nodes[0] for nodes in sharded.partition)
        epoch = lambda t2: [("dispatch_run", first, t2),
                            ("dispatch_run", second, t2),
                            ("collect", first), ("collect", second)]
        assert log == epoch(100) + epoch(200) + epoch(300)


class TestShardedGuards:
    def test_period_at_or_below_delay_rejected(self):
        # Conservative sync needs lookahead below every task period.
        with pytest.raises(SchedulerError, match="period"):
            ShardedDtmKernel(cruise_control_system(), shards=2,
                             net_delay_us=ms(20))

    def test_epoch_above_lookahead_rejected(self):
        with pytest.raises(SchedulerError, match="epoch"):
            ShardedDtmKernel(cruise_control_system(), shards=2, epoch_us=101)

    def test_zero_delay_multi_shard_rejected(self):
        with pytest.raises(SchedulerError, match="lookahead"):
            ShardedDtmKernel(cruise_control_system(), shards=2,
                             net_delay_us=0)

    def test_process_backend_requires_declarative_system(self):
        with pytest.raises(FleetError, match="system_ref"):
            ShardedDtmKernel(cruise_control_system(), shards=2,
                             backend="process")

    def test_unknown_backend_rejected(self):
        with pytest.raises(FleetError, match="backend"):
            ShardedDtmKernel(cruise_control_system(), backend="quantum")

    def test_shard_nodes_validated_by_kernel(self):
        system = cruise_control_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        with pytest.raises(SchedulerError, match="nodes"):
            DtmKernel(system, firmware, nodes=["node0", "mars"])


class TestRecordRing:
    def _run(self, capacity):
        system = traffic_light_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        kernel = DtmKernel(system, firmware, sim=Simulator(),
                           record_capacity=capacity)
        kernel.run(DURATION)
        return kernel

    def test_unbounded_by_default(self):
        kernel = self._run(None)
        assert kernel.records_dropped == 0
        assert len(kernel.records) > 4

    def test_ring_keeps_newest_and_counts_dropped(self):
        full = self._run(None)
        ringed = self._run(4)
        assert len(ringed.records) == 4
        assert ringed.records_dropped == len(full.records) - 4
        assert ([record_key(r) for r in ringed.records]
                == [record_key(r) for r in full.records[-4:]])

    def test_capacity_above_load_never_drops(self):
        full = self._run(None)
        roomy = self._run(len(full.records) + 10)
        assert roomy.records_dropped == 0
        assert len(roomy.records) == len(full.records)

    def test_invalid_capacity_rejected(self):
        system = traffic_light_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        with pytest.raises(SchedulerError, match="capacity"):
            DtmKernel(system, firmware, record_capacity=0)

    def test_sharded_kernel_forwards_capacity(self):
        sharded = ShardedDtmKernel(cruise_control_system(), shards=2,
                                   record_capacity=3)
        sharded.run(DURATION)
        assert sharded.records_dropped > 0
        assert len(sharded.records) <= 3 * 2  # <= capacity per shard
