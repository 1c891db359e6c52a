"""Tests for the DTM kernel, scheduler, bus and jitter instrumentation."""

import gc
import weakref

import pytest

from repro.codegen import InstrumentationPlan, generate_firmware
from repro.comdes.examples import (
    blinker_system,
    cruise_control_system,
    traffic_light_system,
)
from repro.errors import ModelError, SchedulerError
from repro.rtos.jitter import JitterMeter
from repro.rtos.kernel import DtmKernel
from repro.rtos.network import SignalBus
from repro.rtos.scheduler import NodeScheduler
from repro.rtos.task import ActiveJob, JobRecord, LoadTask
from repro.sim.kernel import Simulator
from repro.util.timeunits import ms


def cruise_kernel(latched=True, net_delay_us=100, loads=()):
    system = cruise_control_system()
    firmware = generate_firmware(system, InstrumentationPlan.none())
    kernel = DtmKernel(system, firmware, latched=latched,
                       net_delay_us=net_delay_us)
    for load in loads:
        kernel.add_load_task(load)
    return system, kernel


class TestScheduler:
    def test_priority_preemption(self):
        sim = Simulator()
        scheduler = NodeScheduler(sim, "n")
        done = []
        def release(name, priority, demand):
            job = ActiveJob(name, priority, sim.now, sim.now + 10_000, demand,
                            on_complete=lambda t, n=name: done.append((n, t)))
            scheduler.release(job)
        sim.schedule_at(0, release, "low", 5, 100)
        sim.schedule_at(10, release, "high", 1, 20)
        sim.run()
        # High preempts at t=10, finishes at 30; low resumes, finishes at 120.
        assert done == [("high", 30), ("low", 120)]
        assert scheduler.preemptions >= 1

    def test_fifo_among_equal_priorities(self):
        sim = Simulator()
        scheduler = NodeScheduler(sim, "n")
        done = []
        def release(name):
            job = ActiveJob(name, 1, sim.now, sim.now + 1000, 10,
                            on_complete=lambda t, n=name: done.append(n))
            scheduler.release(job)
        sim.schedule_at(0, release, "first")
        sim.schedule_at(0, release, "second")
        sim.run()
        assert done == ["first", "second"]

    def test_zero_demand_job_completes_immediately(self):
        sim = Simulator()
        scheduler = NodeScheduler(sim, "n")
        done = []
        sim.schedule_at(5, lambda: scheduler.release(
            ActiveJob("instant", 1, 5, 100, 0,
                      on_complete=lambda t: done.append(t))))
        sim.run()
        assert done == [5]

    def test_release_time_mismatch_rejected(self):
        sim = Simulator()
        scheduler = NodeScheduler(sim, "n")
        with pytest.raises(SchedulerError):
            scheduler.release(ActiveJob("bad", 1, 999, 1999, 10))

    def test_negative_demand_rejected(self):
        with pytest.raises(SchedulerError):
            ActiveJob("bad", 1, 0, 100, -5)


class TestSignalBus:
    def test_same_node_sees_value_immediately(self):
        sim = Simulator()
        bus = SignalBus(sim, ["n0", "n1"], {"s": 0}, net_delay_us=100)
        bus.publish("n0", {"s": 7})
        assert bus.read("n0", "s") == 7
        assert bus.read("n1", "s") == 0   # still in flight

    def test_remote_node_sees_value_after_delay(self):
        sim = Simulator()
        bus = SignalBus(sim, ["n0", "n1"], {"s": 0}, net_delay_us=100)
        bus.publish("n0", {"s": 7})
        sim.run_until(99)
        assert bus.read("n1", "s") == 0
        sim.run_until(100)
        assert bus.read("n1", "s") == 7

    def test_zero_delay_is_synchronous(self):
        bus = SignalBus(Simulator(), ["n0", "n1"], {"s": 0}, net_delay_us=0)
        bus.publish("n0", {"s": 3})
        assert bus.read("n1", "s") == 3

    def test_unknown_node_or_signal_rejected(self):
        bus = SignalBus(Simulator(), ["n0"], {"s": 0})
        with pytest.raises(Exception):
            bus.read("nX", "s")
        with pytest.raises(Exception):
            bus.publish("nX", {"s": 1})
        with pytest.raises(ModelError):
            bus.snapshot("nX")

    def test_cross_node_message_counter(self):
        sim = Simulator()
        bus = SignalBus(sim, ["n0", "n1", "n2"], {"s": 0})
        bus.publish("n0", {"s": 1})
        assert bus.messages_sent == 1
        assert bus.cross_node_messages == 2


class TestDtmKernel:
    def test_jobs_execute_at_period(self):
        system = blinker_system(period_us=ms(10))
        firmware = generate_firmware(system, InstrumentationPlan.none())
        kernel = DtmKernel(system, firmware)
        kernel.run(ms(10) * 10)
        records = [r for r in kernel.records if r.actor == "blinky"]
        assert len(records) == 10
        assert [r.release for r in records] == [ms(10) * i for i in range(10)]

    def test_dtm_output_matches_lockstep_reference(self):
        # With deadline == period and latched outputs, the DTM execution is
        # the timed version of the synchronous reference semantics.
        system, kernel = cruise_kernel(latched=True)
        rounds = 50
        kernel.run(ms(20) * rounds + 1)
        reference = cruise_control_system().lockstep_run(rounds)
        assert kernel.signal_value("node0", "mode") == reference[-1]["mode"]

    def test_latched_outputs_publish_exactly_at_deadline(self):
        system, kernel = cruise_kernel(latched=True)
        kernel.run(ms(20) * 30)
        for phase in kernel.jitter.phases("speed", skip=1):
            assert phase == system.actor("plant").task.deadline_us

    def test_latched_jitter_is_zero_under_load(self):
        load = LoadTask("noise", "node1", period_us=3000, demand_us=700,
                        priority=0)
        _, kernel = cruise_kernel(latched=True, loads=[load])
        kernel.run(ms(20) * 50)
        assert kernel.jitter.jitter_us("speed", skip=2) == 0

    def test_unlatched_jitter_appears_under_load(self):
        load = LoadTask("noise", "node1", period_us=3000, demand_us=700,
                        priority=0)
        _, kernel = cruise_kernel(latched=False, loads=[load])
        kernel.run(ms(20) * 50)
        assert kernel.jitter.jitter_us("speed", skip=2) > 0

    def test_stalled_board_skips_jobs(self):
        system = blinker_system(period_us=ms(10))
        firmware = generate_firmware(system, InstrumentationPlan.none())
        kernel = DtmKernel(system, firmware)
        kernel.board_of("node0").stalled = True
        kernel.run(ms(10) * 5)
        # Releases at 0, 10, ..., 50ms inclusive: six skipped jobs.
        assert kernel.jobs_skipped == 6
        assert len(kernel.records) == 6
        assert all(r.actor == "blinky" and r.skipped for r in kernel.records)

    def test_deadline_misses_counted(self):
        # A hog with higher priority starves the blinker past its deadline.
        system = blinker_system(period_us=ms(10))
        firmware = generate_firmware(system, InstrumentationPlan.none())
        kernel = DtmKernel(system, firmware)
        # The hog leaves less than the blinker's demand before each deadline.
        kernel.add_load_task(LoadTask("hog", "node0", period_us=ms(10),
                                      demand_us=ms(10) - 1, priority=0))
        kernel.run(ms(10) * 10)
        assert kernel.deadline_misses > 0

    def test_double_start_rejected(self):
        _, kernel = cruise_kernel()
        kernel.start()
        pending = kernel.sim.pending_events
        with pytest.raises(SchedulerError, match="already started"):
            kernel.start()
        assert kernel.sim.pending_events == pending  # no second release set

    def test_close_drops_back_references_and_keeps_results(self):
        _, kernel = cruise_kernel()
        board = kernel.board_of("node0")
        hooked = []
        kernel.add_job_hook("node0", lambda t, k=kernel: hooked.append(k))
        board.cpu.emit_handler = lambda kind, path_id, value, k=kernel: None
        board.memory.set_write_hook(lambda addr, value, k=kernel: None, [0])
        kernel.run(ms(95))
        records, now = kernel.records, kernel.sim.now
        assert kernel.sim.pending_events and hooked
        hooked.clear()
        kernel.close()
        assert kernel.sim.pending_events == 0
        assert board.cpu.emit_handler is None
        assert board.memory.write_hook is None
        assert kernel.records == records and kernel.sim.now == now
        # nothing left points back at the kernel: reference counting
        # frees it without the cyclic collector
        freed = weakref.ref(kernel)
        gc.disable()
        try:
            del kernel
            assert freed() is None
        finally:
            gc.enable()

    def test_closed_kernel_cannot_run_again(self):
        _, kernel = cruise_kernel()
        kernel.run(ms(50))
        kernel.close()
        with pytest.raises(SchedulerError, match="closed"):
            kernel.run(ms(100))
        with pytest.raises(SchedulerError, match="closed"):
            kernel.start()
        assert kernel.sim.now == ms(50)

    def test_unstarted_kernel_closed_cannot_start(self):
        _, kernel = cruise_kernel()
        kernel.close()
        with pytest.raises(SchedulerError, match="closed"):
            kernel.run(ms(10))
        assert kernel.sim.executed_events == 0

    def test_unknown_node_queries_rejected(self):
        _, kernel = cruise_kernel()
        with pytest.raises(SchedulerError):
            kernel.board_of("mars")
        with pytest.raises(SchedulerError):
            kernel.add_job_hook("mars", lambda t_release: None)

    def test_unbounded_by_default(self):
        # the kernel keeps one record per finished job for the whole run
        system = traffic_light_system()
        firmware = generate_firmware(system, InstrumentationPlan.none())
        kernel = DtmKernel(system, firmware, sim=Simulator())
        kernel.run(ms(400))
        assert len(kernel.records) > 4
        for actor in system.actors:
            indexes = [r.index for r in kernel.records if r.actor == actor]
            assert indexes == list(range(len(indexes)))


class TestJitterMeter:
    def test_phases_and_jitter(self):
        meter = JitterMeter()
        meter.record(["s"], 0, 100)
        meter.record(["s"], 1000, 1100)
        meter.record(["s"], 2000, 2150)
        assert meter.phases("s") == [100, 100, 150]
        assert meter.jitter_us("s") == 50
        assert meter.mean_phase_us("s") == pytest.approx(116.7, abs=0.1)

    def test_skip_discards_warmup(self):
        meter = JitterMeter()
        meter.record(["s"], 0, 999)     # warm-up outlier
        meter.record(["s"], 1000, 1100)
        meter.record(["s"], 2000, 2100)
        assert meter.jitter_us("s", skip=1) == 0

    def test_insufficient_samples_return_none(self):
        meter = JitterMeter()
        assert meter.jitter_us("s") is None
        meter.record(["s"], 0, 10)
        assert meter.jitter_us("s") is None

    def test_inter_publication_jitter(self):
        meter = JitterMeter()
        for k, pub in enumerate((100, 1100, 2100, 3200)):
            meter.record(["s"], k * 1000, pub)
        assert meter.inter_publication_jitter_us("s") == 100


class TestJobRecord:
    def test_miss_detection(self):
        record = JobRecord("a", 0, release=0, completion=150,
                           deadline_abs=100, demand_us=150)
        assert record.missed
        assert record.response_us == 150

    def test_skipped_record(self):
        record = JobRecord("a", 0, release=0, completion=None,
                           deadline_abs=100, demand_us=0, skipped=True)
        assert record.skipped and not record.missed
        assert record.response_us is None

    def test_load_task_validation(self):
        with pytest.raises(SchedulerError):
            LoadTask("x", "n", period_us=100, demand_us=200, priority=1)
