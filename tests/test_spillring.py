"""The spill-ring helper is shared, not mirrored.

ROADMAP named the bug: the persist-first/overwrite-at-head policy was
duplicated *by convention* in ``ExecutionTrace.record`` and
``DtmKernel._append_record`` — two hand-maintained copies that could
silently drift. These tests lock in the fix: one
:class:`repro.tracedb.spillring.SpillRing` class, held by both
recorders, with behavioral parity on eviction order, seq continuation
and the ``dropped == 0``-while-spilling invariant.
"""

import pytest

from repro.codegen import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import traffic_light_system
from repro.comm.protocol import Command, CommandKind
from repro.engine.trace import ExecutionTrace
from repro.rtos.kernel import DtmKernel
from repro.tracedb import SpillRing, TraceStore
from repro.util.timeunits import ms


def cmd(i: int) -> Command:
    return Command(CommandKind.SIG_UPDATE, f"signal:s{i % 3}", i,
                   t_target=i * 10, t_host=i * 10 + 1)


def fill(trace: ExecutionTrace, n: int) -> None:
    for i in range(n):
        trace.record(cmd(i), [], "animating")


class TestSharedHelper:
    """Both recorders hold the one SpillRing — the structural mirror."""

    def test_execution_trace_uses_spillring(self):
        assert type(ExecutionTrace(capacity=4)._ring) is SpillRing

    def test_dtm_kernel_uses_spillring(self):
        system = traffic_light_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        kernel = DtmKernel(system, firmware, record_capacity=4)
        assert type(kernel._ring) is SpillRing
        # the literal same class object, not a same-named copy
        assert type(kernel._ring) is type(ExecutionTrace(capacity=4)._ring)

    @pytest.mark.parametrize("capacity", [4, 6])
    def test_kernel_ring_parity_with_unbounded_run(self, capacity):
        """Same eviction behavior through the kernel call site: the ring
        keeps exactly the newest N of what an unbounded kernel records,
        in the same order, and counts the rest as dropped."""
        system = traffic_light_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        full = DtmKernel(system, firmware)
        full.run(ms(3000))
        ringed = DtmKernel(system, firmware, record_capacity=capacity)
        ringed.run(ms(3000))
        key = lambda r: (r.actor, r.index, r.release, r.completion,
                         r.deadline_abs, r.demand_us, r.skipped, r.missed)
        assert len(ringed.records) == capacity
        assert [key(r) for r in ringed.records] \
            == [key(r) for r in full.records[-capacity:]]
        assert ringed.records_dropped == len(full.records) - capacity

    def test_spilling_kernel_drops_nothing(self, tmp_path):
        system = traffic_light_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        store = TraceStore(str(tmp_path / "jobs"), segment_events=16)
        kernel = DtmKernel(system, firmware, record_capacity=6,
                           record_spill=store)
        kernel.run(ms(3000))
        assert kernel.records_dropped == 0
        assert len(list(kernel.spilled_records())) > len(kernel.records)


class TestRingBehavior:
    """The policy itself, unit-level (what both recorders inherit)."""

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpillRing(0)
        with pytest.raises(ValueError):
            SpillRing(-3)

    def test_unbounded_keeps_everything(self):
        ring = SpillRing()
        for i in range(10):
            ring.append(i)
        assert ring.snapshot() == list(range(10))
        assert ring.dropped == 0

    def test_eviction_order_is_oldest_first(self):
        ring = SpillRing(capacity=4)
        for i in range(11):
            ring.append(i)
        assert ring.snapshot() == [7, 8, 9, 10]
        assert [ring.at(i) for i in range(4)] == [7, 8, 9, 10]
        assert ring.at(-1) == 10
        assert ring.dropped == 7

    def test_at_rejects_out_of_range(self):
        ring = SpillRing(capacity=2)
        for i in range(5):
            ring.append(i)
        with pytest.raises(IndexError):
            ring.at(2)

    def test_spill_receives_every_item_and_dropped_stays_zero(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=4)
        ring = SpillRing(capacity=3, spill=store)
        encoded = []

        def encode(item):
            encoded.append(item)
            return {"v": item, "seq": item}

        for i in range(9):
            ring.append(i, encode=encode)
        assert ring.dropped == 0
        assert ring.snapshot() == [6, 7, 8]
        assert encoded == list(range(9))          # persist-first, every item
        assert [r["v"] for r in store.events()] == list(range(9))

    def test_encode_not_called_without_spill(self):
        ring = SpillRing(capacity=2)
        ring.append(1, encode=lambda item: pytest.fail(
            "encode must not run for in-memory rings"))
        assert ring.snapshot() == [1]

    def test_seq_line_continues_a_resumed_store(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"))
        for i in range(7):
            store.append({"v": i})
        store.close()
        resumed = TraceStore.open(str(tmp_path / "s"))
        ring = SpillRing(capacity=4, spill=resumed)
        assert ring.next_seq == 7
        ring.append("x", encode=lambda item: {"v": item})
        assert ring.next_seq == 8

    def test_trace_and_raw_ring_agree_on_window(self, tmp_path):
        """Behavioral parity: the trace's window is exactly the ring's."""
        trace = ExecutionTrace(capacity=5)
        ring = SpillRing(capacity=5)
        for i in range(13):
            ring.append(i)
        fill(trace, 13)
        assert [e.seq for e in trace] == ring.snapshot()
        assert trace.dropped == ring.dropped == 8
