"""The elastic scheduler core: steal-schedule permutation invariance,
deadline/retry bookkeeping on a virtual clock, and crash/timeout
containment against the process backend.

The load-bearing property: ANY forced interleaving/steal order over any
worker count and chunking yields byte-identical canonical merge,
campaign fingerprint, trace store and live-alert transcript vs
``SerialRunner`` at the same master seed. Hypothesis drives the
interleavings through ``sched_harness.SteppedInlineBackend``, which
executes the real ``run_job`` path one item per poll on a caller-chosen
virtual worker.
"""

import filecmp
import os
import pickle
import shutil
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import InstrumentationPlan
from repro.comdes.examples import traffic_light_system
from repro.errors import FleetError
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.fleet import (
    ElasticScheduler,
    FleetRunner,
    InlineBackend,
    JobSpec,
    SerialRunner,
    WorkUnit,
    callable_ref,
    enumerate_campaign_jobs,
    merge_results,
    serial_live_scope,
    unit_cost,
)
from repro.fleet.sched import VirtualClock
from repro.fleet.worker import run_job, run_unit_stealable
from repro.obs.live import LiveAggregator
from repro.tracedb import campaign_store_root
from repro.util.timeunits import sec
from sched_harness import SteppedInlineBackend


def exiting_system():
    """A system factory that kills its worker process outright."""
    os._exit(3)


def hanging_system():
    """A system factory that wedges its worker forever."""
    time.sleep(600)


def spec(index, system_ref, kind="wrong_target"):
    return JobSpec(index, "design", kind, 1, sec(1), system_ref,
                   callable_ref(traffic_light_monitor_suite),
                   callable_ref(traffic_light_code_watches),
                   InstrumentationPlan.full())


def chunked(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


# ---------------------------------------------------------------------------
# units, cost hints, pickling


class TestWorkUnits:
    def test_empty_unit_is_an_error(self):
        with pytest.raises(FleetError):
            WorkUnit([])

    def test_unit_cost_sums_hints(self):
        a = spec(0, "m:f")
        b = spec(1, "m:f")
        a.cost_hint, b.cost_hint = 10, 3
        assert unit_cost([a, b]) == 13

    def test_unit_cost_falls_back_to_uniform_when_any_hint_missing(self):
        a = spec(0, "m:f")
        b = spec(1, "m:f")
        a.cost_hint = 10_000
        assert b.cost_hint is None
        assert unit_cost([a, b]) == 2
        assert unit_cost([]) == 1

    def test_cost_hint_validation(self):
        with pytest.raises(FleetError):
            JobSpec(0, "design", "k", 1, sec(1), "m:f", "m:g", "m:h",
                    InstrumentationPlan.full(), cost_hint=0)

    def test_cost_hint_round_trips_through_pickle(self):
        s = spec(3, callable_ref(traffic_light_system))
        s.cost_hint = 42
        clone = pickle.loads(pickle.dumps(s))
        assert clone.cost_hint == 42
        assert clone.job_id == s.job_id

    def test_pre_cost_hint_pickles_deserialize_with_none(self):
        # a payload serialized before the field existed has no
        # cost_hint key in its state; restoring must not AttributeError
        s = spec(3, callable_ref(traffic_light_system))
        state = s.__getstate__()
        del state["cost_hint"]
        clone = JobSpec.__new__(JobSpec)
        clone.__setstate__(state)
        assert clone.cost_hint is None
        assert clone.job_id == s.job_id

    def test_enumerate_stamps_activation_cost_hints(self):
        specs = enumerate_campaign_jobs(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, plan=InstrumentationPlan.full(),
            design_kinds=("wrong_target",), impl_kinds=("init_corrupt",),
            comm_kinds=("frame_loss",), seeds=(1,), duration_us=sec(1))
        by_category = {s.category: s.cost_hint for s in specs}
        assert all(h is not None and h >= 1 for h in by_category.values())
        # design/implementation execute an extra phase vs control/comm
        assert by_category["design"] > by_category["control"]
        assert by_category["implementation"] > by_category["comm"]
        assert by_category["control"] == by_category["comm"]


# ---------------------------------------------------------------------------
# permutation invariance, fast half: pure bookkeeping under any schedule


class _Item:
    __slots__ = ("index", "cost_hint")

    def __init__(self, index, cost_hint=None):
        self.index = index
        self.cost_hint = cost_hint


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    sizes = []
    left = n
    while left:
        size = draw(st.integers(min_value=1, max_value=left))
        sizes.append(size)
        left -= size
    workers = draw(st.integers(min_value=1, max_value=4))
    order = draw(st.lists(st.integers(min_value=0, max_value=7),
                          min_size=1, max_size=64))
    hints = draw(st.one_of(
        st.none(),
        st.lists(st.integers(min_value=1, max_value=50),
                 min_size=n, max_size=n)))
    return n, sizes, workers, order, hints


class TestAnyScheduleIsLossless:
    @given(schedules())
    @settings(max_examples=80, deadline=None)
    def test_every_item_executes_exactly_once_and_lands_on_its_index(
            self, schedule):
        n, sizes, workers, order, hints = schedule
        items = [_Item(i, hints[i] if hints else None) for i in range(n)]
        executions = [0] * n

        def execute(item):
            executions[item.index] += 1
            return ("payload", item.index)

        def choose(busy, step):
            return busy[order[step % len(order)] % len(busy)]

        units = []
        offset = 0
        for size in sizes:
            units.append(WorkUnit(items[offset:offset + size]))
            offset += size
        scheduler = ElasticScheduler(
            SteppedInlineBackend(workers, choose, execute))
        results = scheduler.run(units)
        assert executions == [1] * n
        assert results == {i: ("payload", i) for i in range(n)}


# ---------------------------------------------------------------------------
# permutation invariance, real half: campaign + store + transcript bytes

KW = dict(design_kinds=("wrong_target", "remove_transition"),
          impl_kinds=(), comm_kinds=(), seeds=(1,), duration_us=sec(1),
          master_seed=77)


def _campaign_under(schedule_run, trace_dir):
    specs = enumerate_campaign_jobs(
        traffic_light_system, traffic_light_monitor_suite,
        traffic_light_code_watches, plan=InstrumentationPlan.full(),
        trace_dir=trace_dir, **KW)
    aggregator = LiveAggregator()
    results = schedule_run(specs, aggregator)
    merged = merge_results(specs, results, trace_dir=trace_dir)
    return merged, aggregator.close()


def _fingerprint(result):
    return ([(o.fault.fault_id if o.fault else "",
              o.model_detected, o.model_latency_us,
              o.model_how, o.code_detected, o.code_latency_us,
              o.classified_as) for o in result.outcomes],
            result.summary_rows())


def _store_bytes(trace_dir):
    root = campaign_store_root(trace_dir)
    out = {}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                out[name] = handle.read()
    return out


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    trace_dir = str(tmp_path_factory.mktemp("sched_serial") / "traces")

    def serial(specs, aggregator):
        return SerialRunner(live=aggregator).run(specs)

    merged, transcript = _campaign_under(serial, trace_dir)
    return _fingerprint(merged), _store_bytes(trace_dir), transcript


class TestStealScheduleByteIdentity:
    @given(workers=st.integers(min_value=1, max_value=4),
           chunk=st.integers(min_value=1, max_value=4),
           order=st.lists(st.integers(min_value=0, max_value=7),
                          min_size=1, max_size=24))
    @settings(max_examples=6, deadline=None)
    def test_forced_interleavings_match_serial_byte_for_byte(
            self, serial_reference, workers, chunk, order):
        ref_fingerprint, ref_store, ref_transcript = serial_reference
        trace_dir = tempfile.mkdtemp(prefix="sched_hyp_")
        shutil.rmtree(trace_dir)  # enumerate wants to create it fresh

        def choose(busy, step):
            return busy[order[step % len(order)] % len(busy)]

        def stepped(specs, aggregator):
            with serial_live_scope(aggregator):
                scheduler = ElasticScheduler(
                    SteppedInlineBackend(workers, choose, run_job))
                by_index = scheduler.run(
                    [WorkUnit(c) for c in chunked(specs, chunk)])
            return [by_index[s.index] for s in specs]

        try:
            merged, transcript = _campaign_under(stepped, trace_dir)
            assert _fingerprint(merged) == ref_fingerprint
            assert _store_bytes(trace_dir) == ref_store
            assert transcript == ref_transcript
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# deadline/retry bookkeeping on a virtual clock (no processes, no sleeps)


class _CrashOnceBackend:
    """Single inline slot whose execution of a marked item dies once."""

    supports_steal = False
    supports_kill = False
    slot_count = 1

    def __init__(self, crash_indexes):
        self.to_crash = set(crash_indexes)
        self._events = []

    def dispatch(self, slot, uid, items):
        for offset, item in enumerate(items):
            if item.index in self.to_crash:
                self.to_crash.discard(item.index)
                self._events.append(("died", slot, uid))
                return
            self._events.append(("result", slot, uid, ("ok", item.index)))
        self._events.append(("done", slot, uid))

    def poll(self, timeout_s):
        events, self._events = self._events, []
        return events

    def close(self):
        pass


class _HangingBackend:
    """One slot that never answers; polling only advances the clock."""

    supports_steal = False
    supports_kill = True
    slot_count = 1

    def __init__(self, clock):
        self.clock = clock
        self.kills = 0

    def dispatch(self, slot, uid, items):
        pass

    def kill(self, slot):
        self.kills += 1

    def poll(self, timeout_s):
        self.clock.sleep(timeout_s if timeout_s else 0.1)
        return []

    def close(self):
        pass


class TestVirtualClockRetryBookkeeping:
    def test_backoff_is_a_deadline_not_a_sleep_loop_stall(self):
        clock = VirtualClock()
        backend = _CrashOnceBackend({1})
        scheduler = ElasticScheduler(
            backend, max_retries=2, retry_backoff_s=1.0, clock=clock,
            cost_placement=False)
        items = [_Item(0), _Item(1), _Item(2)]
        results = scheduler.run([WorkUnit(items)])
        assert results == {0: ("ok", 0), 1: ("ok", 1), 2: ("ok", 2)}
        # the retry waited exactly one backoff deadline on the clock
        assert clock.now() == pytest.approx(1.0)
        assert scheduler.stranded_items == {1}

    def test_exhausted_budget_goes_through_the_terminal_policy(self):
        clock = VirtualClock()
        terminal = []

        def terminal_result(item, kind, retries):
            terminal.append((item.index, kind, retries))
            return ("terminal", item.index)

        backend = _CrashOnceBackend({1})
        backend.to_crash = {1, "always"}

        def dispatch(slot, uid, items, _orig=backend.dispatch):
            # crash every attempt at item 1
            backend.to_crash.add(1)
            _orig(slot, uid, items)

        backend.dispatch = dispatch
        scheduler = ElasticScheduler(
            backend, max_retries=2, retry_backoff_s=0.5, clock=clock,
            cost_placement=False, terminal_result=terminal_result)
        results = scheduler.run([WorkUnit([_Item(0), _Item(1)])])
        assert results[0] == ("ok", 0)
        assert results[1] == ("terminal", 1)
        assert terminal == [(1, "crashed", 2)]
        # attempts waited 0.5 then 1.0 on the clock — exponential,
        # deadline-based, and concurrent with the rest of the loop
        assert clock.now() == pytest.approx(1.5)

    def test_no_terminal_policy_raises_instead_of_fabricating(self):
        backend = _CrashOnceBackend(set())

        def dispatch(slot, uid, items):
            backend._events.append(("died", slot, uid))

        backend.dispatch = dispatch
        scheduler = ElasticScheduler(backend, max_retries=0,
                                     clock=VirtualClock())
        with pytest.raises(FleetError, match="no retry budget"):
            scheduler.run([WorkUnit([_Item(0)])])

    def test_per_item_deadline_kills_the_slot_and_charges_the_item(self):
        clock = VirtualClock()
        backend = _HangingBackend(clock)
        terminal = []

        def terminal_result(item, kind, retries):
            terminal.append((item.index, kind, retries))
            return ("terminal", item.index)

        scheduler = ElasticScheduler(
            backend, max_retries=1, job_timeout_s=3.0, clock=clock,
            terminal_result=terminal_result)
        results = scheduler.run([WorkUnit([_Item(0)])])
        assert results == {0: ("terminal", 0)}
        assert terminal == [(0, "timeout", 1)]
        assert backend.kills == 2  # first attempt + one retry
        assert clock.now() >= 6.0  # two full per-item deadlines


# ---------------------------------------------------------------------------
# containment against the real process backend


class TestProcessContainment:
    def test_worker_death_leaves_queue_mates_unharmed_across_steals(self):
        # enough chunks that idle workers steal while the crasher kills
        # its slot mid-corpus; every innocent must come home clean
        specs = [spec(i, callable_ref(traffic_light_system),
                      kind=("wrong_target" if i % 2 else "remove_transition"))
                 for i in range(5)]
        specs[2] = spec(2, "test_sched:exiting_system")
        runner = FleetRunner(workers=2, chunk_size=2, max_retries=1)
        results = runner.run(specs)
        for i in (0, 1, 3, 4):
            assert not results[i].failed, results[i]
            assert results[i].retries == 0
        assert results[2].failed
        assert results[2].error["type"] == "WorkerCrashed"
        assert results[2].retries == 1

    def test_stranded_jobs_recover_concurrently_not_in_sum_of_backoffs(self):
        # two crashers, 1.0s backoff, one retry each: the old serial
        # stranded pass slept >= 2.0s; the event loop overlaps the
        # backoff deadlines and finishes in roughly one
        specs = [spec(0, "test_sched:exiting_system"),
                 spec(1, "test_sched:exiting_system", kind="remove_transition")]
        runner = FleetRunner(workers=2, chunk_size=1, max_retries=1,
                             retry_backoff_s=1.0)
        start = time.monotonic()
        results = runner.run(specs)
        elapsed = time.monotonic() - start
        assert all(r.failed and r.error["type"] == "WorkerCrashed"
                   and r.retries == 1 for r in results)
        assert elapsed < 1.9, f"stranded recovery serialized: {elapsed:.2f}s"

    def test_per_unit_deadline_kills_only_the_wedged_job(self):
        specs = [spec(0, callable_ref(traffic_light_system)),
                 spec(1, "test_sched:hanging_system"),
                 spec(2, callable_ref(traffic_light_system),
                      kind="remove_transition")]
        runner = FleetRunner(workers=2, chunk_size=1, max_retries=0,
                             job_timeout_s=1.5)
        results = runner.run(specs)
        assert not results[0].failed and results[0].retries == 0
        assert not results[2].failed and results[2].retries == 0
        assert results[1].failed
        assert results[1].error["type"] == "JobTimeout"
        assert "1.5s" in results[1].error["message"]
        assert results[1].retries == 0


# ---------------------------------------------------------------------------
# the steal-aware worker entry


class TestRunUnitStealable:
    def _specs(self, n):
        return [spec(i, callable_ref(traffic_light_system)) for i in range(n)]

    def test_completes_and_streams_in_order(self):
        seen = []
        done = run_unit_stealable(
            [_Item(0), _Item(1)], lambda off, r: seen.append((off, r)),
            execute=lambda item: item.index * 10)
        assert done == 2
        assert seen == [(0, 0), (1, 10)]

    def test_yields_between_items_never_before_the_first(self):
        calls = []
        done = run_unit_stealable(
            [_Item(0), _Item(1), _Item(2)],
            lambda off, r: calls.append(off),
            should_yield=lambda: True,
            execute=lambda item: item.index)
        assert done == 1  # first item always executes, then the yield
        assert calls == [0]
