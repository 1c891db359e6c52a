"""Tests for the fleet subsystem: jobs, pool, merge, campaign parity.

The headline invariant: a campaign run through worker processes is
*equal* to the serial one — same outcomes, same order, same summary
bytes — for any worker count and completion order. Plus the
failure contract: worker exceptions and worker deaths come back as
structured failures, never hangs or holes.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.comdes.examples import traffic_light_system
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import JtagLink, write_patches
from repro.errors import FleetError
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import run_campaign
from repro.fleet.jobs import (
    JobSpec,
    callable_ref,
    enumerate_campaign_jobs,
    resolve_ref,
)
from repro.fleet.merge import merge_results
from repro.fleet.pool import FleetRunner, SerialRunner
from repro.fleet.worker import run_job
from repro.util.seeds import derive_seed, seed_stream
from repro.codegen.instrument import InstrumentationPlan
from repro.target.board import Board, DebugPort
from repro.target.memory import RAM_BASE
from repro.util.timeunits import sec


def raising_system():
    """A system factory that blows up inside the worker (importable)."""
    raise RuntimeError("synthetic worker-side explosion")


def exiting_system():
    """A system factory that kills its worker process outright."""
    os._exit(3)


CAMPAIGN_KW = dict(
    design_kinds=("wrong_target", "remove_transition"),
    impl_kinds=("inverted_branch", "init_corrupt"),
    seeds=(1, 2),
    duration_us=sec(2),
)


def small_specs(**overrides):
    kw = dict(CAMPAIGN_KW)
    kw.update(overrides)
    return enumerate_campaign_jobs(
        traffic_light_system, traffic_light_monitor_suite,
        traffic_light_code_watches, plan=InstrumentationPlan.full(), **kw)


def summary_bytes(result):
    return json.dumps(result.summary_rows(), sort_keys=True).encode()


class TestCallableRefs:
    def test_roundtrip(self):
        ref = callable_ref(traffic_light_system)
        assert ref == "repro.comdes.examples:traffic_light_system"
        assert resolve_ref(ref) is traffic_light_system

    def test_lambda_rejected_with_actionable_error(self):
        with pytest.raises(FleetError, match="module-level"):
            callable_ref(lambda: None)

    def test_closure_rejected(self):
        def outer():
            def inner():
                return None
            return inner
        with pytest.raises(FleetError, match="module-level"):
            callable_ref(outer())

    def test_malformed_ref_rejected(self):
        with pytest.raises(FleetError, match="malformed"):
            resolve_ref("no-colon-here")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(FleetError):
            resolve_ref("repro.comdes.examples:not_a_thing")


class TestSeedDerivation:
    @given(st.integers(0, 2**32), st.text(max_size=20), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_63_bit(self, master, label, i):
        a = derive_seed(master, label, i)
        assert a == derive_seed(master, label, i)
        assert 0 <= a < 2**63

    def test_parts_matter(self):
        assert derive_seed(1, "op_swap", 0) != derive_seed(1, "op_swap", 1)
        assert derive_seed(1, "op_swap", 0) != derive_seed(2, "op_swap", 0)

    def test_stream_is_prefix_stable(self):
        assert seed_stream(7, "gain_sign", 3) == seed_stream(7, "gain_sign", 5)[:3]


class TestEnumeration:
    def test_canonical_order_control_first(self):
        specs = small_specs()
        assert specs[0].category == "control" and specs[0].index == 0
        ids = [s.job_id for s in specs[1:]]
        assert ids[0] == "design/wrong_target/1"
        assert ids[-1] == "implementation/init_corrupt/2"
        assert [s.index for s in specs] == list(range(len(specs)))

    def test_prebuilt_watch_list_rejected(self):
        with pytest.raises(FleetError, match="factory"):
            enumerate_campaign_jobs(
                traffic_light_system, traffic_light_monitor_suite,
                traffic_light_code_watches(),  # called: a list, not a factory
                design_kinds=(), impl_kinds=(), seeds=(1,),
                duration_us=sec(1), plan=InstrumentationPlan.full())

    def test_bad_category_rejected(self):
        with pytest.raises(FleetError, match="category"):
            JobSpec(1, "martian", "k", 1, sec(1), "a:b", "a:b", "a:b",
                    InstrumentationPlan.full())


class TestOnePath:
    """Every campaign runs its jobs through ``run_job``, runner or not."""

    @pytest.mark.parametrize("collect_traces", [False, True])
    def test_default_runner_runs_every_spec_through_run_job_once(
            self, monkeypatch, tmp_path, collect_traces):
        ran = []

        def spy(spec):
            ran.append(spec.job_id)
            return run_job(spec)

        # SerialRunner dispatches through the pool module's binding
        monkeypatch.setattr("repro.fleet.pool.run_job", spy)
        trace_dir = str(tmp_path / "traces") if collect_traces else None
        result = run_campaign(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, trace_dir=trace_dir, **CAMPAIGN_KW)
        assert ran == [spec.job_id for spec in small_specs()]
        assert ran[0] == "control"
        assert len(result.outcomes) == len(ran) - 1
        assert (result.trace_store is not None) == collect_traces


class TestCampaignParity:
    @pytest.fixture(scope="class")
    def inline_result(self):
        """The corpus run one job after another, with no scheduler."""
        specs = small_specs()
        return merge_results(specs, [run_job(spec) for spec in specs])

    def test_serial_runner_equals_inline(self, inline_result):
        serial = run_campaign(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, runner=SerialRunner(), **CAMPAIGN_KW)
        assert summary_bytes(serial) == summary_bytes(inline_result)
        assert serial.false_positives == inline_result.false_positives
        assert ([o.fault.fault_id for o in serial.outcomes]
                == [o.fault.fault_id for o in inline_result.outcomes])

    # Armed per-job deadlines (tens of times a job's run time) must not
    # perturb the result any more than the worker count does.
    @pytest.mark.parametrize("workers,job_timeout_s",
                             [(4, None), (4, 1), (2, 3)])
    def test_fleet_runner_equals_inline(self, inline_result, workers,
                                        job_timeout_s):
        fleet = run_campaign(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches,
            runner=FleetRunner(workers=workers, job_timeout_s=job_timeout_s),
            **CAMPAIGN_KW)
        assert summary_bytes(fleet) == summary_bytes(inline_result)
        assert fleet.false_positives == inline_result.false_positives
        for ours, theirs in zip(fleet.outcomes, inline_result.outcomes):
            assert ours.fault.fault_id == theirs.fault.fault_id
            assert ours.model_detected == theirs.model_detected
            assert ours.model_latency_us == theirs.model_latency_us
            assert ours.code_detected == theirs.code_detected
            assert ours.code_latency_us == theirs.code_latency_us
            assert ours.classified_as == theirs.classified_as

    def test_parity_across_master_seeds(self):
        # Same derived seed tuple => same campaign, serial or parallel.
        seeds = seed_stream(99, "campaign", 2)
        seeds = tuple(s % 1000 for s in seeds)  # keep injector RNG happy
        kw = dict(CAMPAIGN_KW)
        kw["seeds"] = seeds
        serial = run_campaign(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, runner=SerialRunner(), **kw)
        fleet = run_campaign(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches,
            runner=FleetRunner(workers=4), **kw)
        assert summary_bytes(serial) == summary_bytes(fleet)


class TestMergeInvariance:
    """Merge output is independent of completion order."""

    @pytest.fixture(scope="class")
    def executed(self):
        specs = small_specs(impl_kinds=("inverted_branch",), seeds=(1,))
        return specs, [run_job(spec) for spec in specs]

    @given(shuffle=st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_any_result_order_same_campaign(self, executed, shuffle):
        specs, results = executed
        reference = merge_results(specs, results)
        shuffled = list(results)
        shuffle.shuffle(shuffled)
        merged = merge_results(specs, shuffled)
        assert summary_bytes(merged) == summary_bytes(reference)
        assert ([o.fault.fault_id for o in merged.outcomes]
                == [o.fault.fault_id for o in reference.outcomes])

    def test_duplicate_result_rejected(self, executed):
        specs, results = executed
        with pytest.raises(FleetError, match="duplicate"):
            merge_results(specs, results[:-1] + [results[0]])

    def test_count_mismatch_rejected(self, executed):
        specs, results = executed
        with pytest.raises(FleetError, match="count"):
            merge_results(specs, results[:-1])


class TestStructuredFailures:
    def _spec(self, index, system_ref, kind="wrong_target"):
        return JobSpec(index, "design", kind, 1, sec(1), system_ref,
                       callable_ref(traffic_light_monitor_suite),
                       callable_ref(traffic_light_code_watches),
                       InstrumentationPlan.full())

    def test_worker_exception_becomes_structured_failure(self):
        result = run_job(self._spec(1, "test_fleet:raising_system"))
        assert result.failed
        assert result.error["type"] == "RuntimeError"
        assert "synthetic worker-side explosion" in result.error["message"]
        assert "raising_system" in result.error["traceback"]

    def test_worker_death_becomes_structured_failure(self):
        specs = [
            self._spec(0, callable_ref(traffic_light_system)),
            self._spec(1, "test_fleet:exiting_system"),
            self._spec(2, callable_ref(traffic_light_system),
                       kind="remove_transition"),
        ]
        # The crasher takes its worker down; the other worker and the
        # respawned one must still complete the innocent jobs.
        runner = FleetRunner(workers=2)
        results = runner.run(specs)
        assert [r.index for r in results] == [0, 1, 2]
        assert not results[0].failed and not results[2].failed
        assert results[1].failed
        assert results[1].error["type"] == "WorkerCrashed"

    def test_strict_merge_raises_with_job_identity(self):
        specs = small_specs(design_kinds=(), impl_kinds=(), seeds=())
        specs.append(self._spec(1, "test_fleet:raising_system"))
        results = SerialRunner().run(specs)
        with pytest.raises(FleetError, match="design/wrong_target/1"):
            merge_results(specs, results)

    def test_failed_control_is_fatal_even_when_lenient(self):
        control = JobSpec(0, "control", "", 0, sec(1),
                          "test_fleet:raising_system",
                          callable_ref(traffic_light_monitor_suite),
                          callable_ref(traffic_light_code_watches),
                          InstrumentationPlan.full())
        results = SerialRunner().run([control])
        with pytest.raises(FleetError, match="control job failed"):
            merge_results([control], results, strict=False)

    def test_inline_result_has_empty_failures(self):
        result = run_campaign(
            traffic_light_system, traffic_light_monitor_suite,
            traffic_light_code_watches, design_kinds=("wrong_target",),
            impl_kinds=(), seeds=(1,), duration_us=sec(1))
        assert result.failures == []

    def test_lenient_merge_reports_failures(self):
        specs = small_specs(design_kinds=(), impl_kinds=(), seeds=())
        specs.append(self._spec(1, "test_fleet:raising_system"))
        results = SerialRunner().run(specs)
        merged = merge_results(specs, results, strict=False)
        assert merged.false_positives == 0
        assert len(merged.failures) == 1
        assert merged.failures[0].error["type"] == "RuntimeError"


def jtag_link(board):
    return JtagLink(JtagProbe(TapController(DebugPort(board))))


class TestWritePatches:
    def test_contiguous_runs_become_single_transactions(self):
        board = Board()
        link = jtag_link(board)
        patches = [(RAM_BASE + a, a * 10) for a in (0, 1, 2, 7, 8, 40)]
        write_patches(link, patches)
        assert link.transactions == 3  # [0..2], [7..8], [40]
        assert link.words_written == 6
        for addr, value in patches:
            assert board.memory.peek(addr) == value

    def test_later_duplicate_wins(self):
        board = Board()
        write_patches(jtag_link(board), [(RAM_BASE, 1), (RAM_BASE, 2)])
        assert board.memory.peek(RAM_BASE) == 2

    def test_empty_is_free(self):
        link = jtag_link(Board())
        assert write_patches(link, []) == 0
        assert link.transactions == 0
