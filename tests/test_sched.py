"""The FIFO scheduler core: completion-order invariance, deadline/retry
bookkeeping on a virtual clock, and crash/timeout containment against
the process backend.

The load-bearing property: ANY forced completion order over any worker
count yields byte-identical canonical merge, campaign fingerprint and
trace store vs ``SerialRunner`` at the same master seed. Hypothesis drives the completion orders through
``sched_harness.SteppedInlineBackend``, which executes the real
``run_job`` path for one caller-chosen virtual worker per poll.
"""

import math
import os
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
    JobSpec,
    SerialRunner,
    callable_ref,
    enumerate_campaign_jobs,
    merge_results,
)
from repro.fleet.sched import VirtualClock
from repro.fleet.worker import run_job
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


# ---------------------------------------------------------------------------
# permutation invariance, fast half: pure bookkeeping under any schedule


class _Item:
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index


class TestAnyScheduleIsLossless:
    @given(n=st.integers(min_value=1, max_value=24),
           workers=st.integers(min_value=1, max_value=4),
           order=st.lists(st.integers(min_value=0, max_value=7),
                          min_size=1, max_size=64))
    @settings(max_examples=80, deadline=None)
    def test_every_item_executes_exactly_once_and_lands_on_its_index(
            self, n, workers, order):
        items = [_Item(i) for i in range(n)]
        executions = [0] * n

        def execute(item):
            executions[item.index] += 1
            return ("payload", item.index)

        def choose(busy, step):
            return busy[order[step % len(order)] % len(busy)]

        scheduler = ElasticScheduler(
            SteppedInlineBackend(workers, choose, execute))
        results = scheduler.run(items)
        assert executions == [1] * n
        assert results == {i: ("payload", i) for i in range(n)}


# ---------------------------------------------------------------------------
# permutation invariance, real half: campaign + store bytes

KW = dict(design_kinds=("wrong_target", "remove_transition"),
          impl_kinds=(), comm_kinds=(), seeds=(1,), duration_us=sec(1),
          master_seed=77)


def _campaign_under(schedule_run, trace_dir):
    specs = enumerate_campaign_jobs(
        traffic_light_system, traffic_light_monitor_suite,
        traffic_light_code_watches, plan=InstrumentationPlan.full(),
        trace_dir=trace_dir, **KW)
    results = schedule_run(specs)
    return merge_results(specs, results, trace_dir=trace_dir)


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

    merged = _campaign_under(SerialRunner().run, trace_dir)
    return _fingerprint(merged), _store_bytes(trace_dir)


class TestStealScheduleByteIdentity:
    @given(workers=st.integers(min_value=1, max_value=4),
           order=st.lists(st.integers(min_value=0, max_value=7),
                          min_size=1, max_size=24))
    @settings(max_examples=6, deadline=None)
    def test_forced_interleavings_match_serial_byte_for_byte(
            self, serial_reference, workers, order):
        ref_fingerprint, ref_store = serial_reference
        trace_dir = tempfile.mkdtemp(prefix="sched_hyp_")
        shutil.rmtree(trace_dir)  # enumerate wants to create it fresh

        def choose(busy, step):
            return busy[order[step % len(order)] % len(busy)]

        def stepped(specs):
            scheduler = ElasticScheduler(
                SteppedInlineBackend(workers, choose, run_job))
            by_index = scheduler.run(specs)
            return [by_index[s.index] for s in specs]

        try:
            merged = _campaign_under(stepped, trace_dir)
            assert _fingerprint(merged) == ref_fingerprint
            assert _store_bytes(trace_dir) == ref_store
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# deadline/retry bookkeeping on a virtual clock (no processes, no sleeps)


class _CrashingBackend:
    """Inline slots on which each marked item dies a set number of times."""

    supports_kill = False

    def __init__(self, crashes, slot_count=1):
        self.crashes = dict(crashes)  # item index -> deaths still to come
        self.slot_count = slot_count
        self._events = []

    def dispatch(self, slot, uid, items):
        (item,) = items
        if self.crashes.get(item.index, 0):
            self.crashes[item.index] -= 1
            self._events.append(("died", slot, uid))
        else:
            self._events.append(("result", slot, uid, ("ok", item.index)))

    def poll(self, timeout_s):
        events, self._events = self._events, []
        return events

    def close(self):
        pass


class _HangingBackend:
    """One slot that never answers; polling only advances the clock."""

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
        scheduler = ElasticScheduler(
            _CrashingBackend({1: 1}), max_retries=2, retry_backoff_s=1.0,
            clock=clock)
        results = scheduler.run([_Item(0), _Item(1), _Item(2)])
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

        scheduler = ElasticScheduler(
            _CrashingBackend({1: math.inf}), max_retries=2,
            retry_backoff_s=0.5, clock=clock,
            terminal_result=terminal_result)
        results = scheduler.run([_Item(0), _Item(1)])
        assert results[0] == ("ok", 0)
        assert results[1] == ("terminal", 1)
        assert terminal == [(1, "crashed", 2)]
        # attempts waited 0.5 then 1.0 on the clock — exponential,
        # deadline-based, and concurrent with the rest of the loop
        assert clock.now() == pytest.approx(1.5)

    def test_stranded_jobs_back_off_concurrently(self):
        # two crashers on two slots, 1.0s backoff, one retry each: both
        # backoff deadlines run at once, so the campaign ends at 1.0s
        # on the clock, not at the 2.0s sum of backoffs
        clock = VirtualClock()
        scheduler = ElasticScheduler(
            _CrashingBackend({0: math.inf, 1: math.inf}, slot_count=2),
            max_retries=1, retry_backoff_s=1.0, clock=clock,
            terminal_result=lambda item, kind, retries: (kind, retries))
        results = scheduler.run([_Item(0), _Item(1)])
        assert results == {0: ("crashed", 1), 1: ("crashed", 1)}
        assert clock.now() == pytest.approx(1.0)

    def test_no_terminal_policy_raises_instead_of_fabricating(self):
        scheduler = ElasticScheduler(_CrashingBackend({0: 1}),
                                     max_retries=0, clock=VirtualClock())
        with pytest.raises(FleetError, match="no retry budget"):
            scheduler.run([_Item(0)])

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
        results = scheduler.run([_Item(0)])
        assert results == {0: ("terminal", 0)}
        assert terminal == [(0, "timeout", 1)]
        assert backend.kills == 2  # first attempt + one retry
        assert clock.now() == pytest.approx(6.0)  # two full deadlines


# ---------------------------------------------------------------------------
# containment against the real process backend


class TestProcessContainment:
    def test_worker_death_leaves_queue_mates_unharmed_across_steals(self):
        # the crasher kills its slot mid-corpus while the other worker
        # keeps taking jobs; every innocent must come home clean
        specs = [spec(i, callable_ref(traffic_light_system),
                      kind=("wrong_target" if i % 2 else "remove_transition"))
                 for i in range(5)]
        specs[2] = spec(2, "test_sched:exiting_system")
        runner = FleetRunner(workers=2, max_retries=1)
        results = runner.run(specs)
        for i in (0, 1, 3, 4):
            assert not results[i].failed, results[i]
            assert results[i].retries == 0
        assert results[2].failed
        assert results[2].error["type"] == "WorkerCrashed"
        assert results[2].retries == 1

    def test_stranded_jobs_recover_concurrently_not_in_sum_of_backoffs(self):
        # containment only: test_stranded_jobs_back_off_concurrently
        # pins the max-of-backoffs timing on a virtual clock
        specs = [spec(0, "test_sched:exiting_system"),
                 spec(1, "test_sched:exiting_system", kind="remove_transition")]
        runner = FleetRunner(workers=2, max_retries=1, retry_backoff_s=0.1)
        results = runner.run(specs)
        assert all(r.failed and r.error["type"] == "WorkerCrashed"
                   and r.retries == 1 for r in results)

    def test_per_unit_deadline_kills_only_the_wedged_job(self):
        specs = [spec(0, callable_ref(traffic_light_system)),
                 spec(1, "test_sched:hanging_system"),
                 spec(2, callable_ref(traffic_light_system),
                      kind="remove_transition")]
        runner = FleetRunner(workers=2, max_retries=0, job_timeout_s=1.5)
        results = runner.run(specs)
        assert not results[0].failed and results[0].retries == 0
        assert not results[2].failed and results[2].retries == 0
        assert results[1].failed
        assert results[1].error["type"] == "JobTimeout"
        assert "1.5s" in results[1].error["message"]
        assert results[1].retries == 0

