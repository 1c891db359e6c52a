"""Unit tests for the repro.obs core: the counter registry and snapshots.

The contracts under test (see ``repro/obs/__init__.py``):

* labeled counter series get-or-create identity;
* snapshots are canonical (sorted at every level), picklable plain
  data;
* ``bind_stats`` makes an existing ``stats()`` dict a thin registry
  view: values read once per snapshot, ``label_keys`` entries become
  labels read at snapshot time (so wrapper kinds assigned *after*
  ``DebugLink.__init__`` are not frozen stale);
* the module-global ``OBS`` holder is None when disabled and
  ``observed()`` restores prior state on exit.
"""

import gc
import json
import pickle
import weakref

import pytest

from repro.comdes.examples import traffic_light_system
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import JtagLink
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.campaign import run_campaign
from repro.fleet.pool import SerialRunner
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import OBS, disable, enable, observed
from repro.target.board import Board, DebugPort
from repro.target.memory import RAM_BASE
from repro.util.timeunits import sec


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with telemetry disabled."""
    disable()
    yield
    disable()


def counter(snap, name, **labels):
    """One counter series of *snap* (0 if the series never fired)."""
    key = tuple(sorted((k, str(v)) for k, v in labels.items()))
    return snap.counters.get(name, {}).get(key, 0)


class TestInstruments:
    def test_counter_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("x", plane="mem")
        b = reg.counter("x", plane="mem")
        c = reg.counter("x", plane="frame")
        assert a is b and a is not c
        a.inc()
        a.inc(4)
        assert a.value == 5 and c.value == 0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", a=1, b=2)
        b = reg.counter("x", b=2, a=1)
        assert a is b

class TestSnapshot:
    def test_snapshot_is_picklable_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("a", k="v").inc(2)
        snap = reg.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.to_dict() == snap.to_dict()

    def test_to_dict_sorted_and_roundtrips(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a", b="2").inc()
        reg.counter("a", a="1").inc()
        d = reg.snapshot().to_dict()
        assert list(d["counters"]) == sorted(d["counters"])
        assert [row["labels"] for row in d["counters"]["a"]] == [
            {"a": "1"}, {"b": "2"}]
        assert json.loads(json.dumps(d)) == d

class TestBindStats:
    def test_bound_stats_fold_as_counters(self):
        reg = MetricsRegistry()
        state = {"hits": 0, "misses": 0}
        reg.bind_stats("cache", lambda: state)
        state["hits"] = 11
        state["misses"] = 2
        snap = reg.snapshot()
        assert counter(snap, "cache.hits") == 11
        assert counter(snap, "cache.misses") == 2

    def test_label_keys_read_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"kind": "bare", "ops": 0}
        reg.bind_stats("link", lambda: state, label_keys=("kind",))
        state["kind"] = "chaos[bare]"  # wrapper renamed after binding
        state["ops"] = 3
        snap = reg.snapshot()
        assert counter(snap, "link.ops", kind="chaos[bare]") == 3
        assert counter(snap, "link.ops", kind="bare") == 0

    def test_owner_dedupe_is_idempotent(self):
        reg = MetricsRegistry()
        state = {"n": 1}
        owner = object()
        reg.bind_stats("x", lambda: state, owner=owner)
        reg.bind_stats("x", lambda: state, owner=owner)
        assert counter(reg.snapshot(), "x.n") == 1

    def test_same_series_bindings_sum(self):
        reg = MetricsRegistry()
        reg.bind_stats("x", lambda: {"n": 2}, owner=object())
        reg.bind_stats("x", lambda: {"n": 5}, owner=object())
        assert counter(reg.snapshot(), "x.n") == 7

    def test_non_numeric_and_bool_values_skipped(self):
        reg = MetricsRegistry()
        reg.bind_stats("x", lambda: {"n": 2, "name": "hi", "up": True,
                                     "nested": {"a": 1}})
        snap = reg.snapshot()
        assert counter(snap, "x.n") == 2
        assert "x.name" not in snap.counters
        assert "x.up" not in snap.counters

    def test_link_stats_parity(self):
        """The link.* series are exactly DebugLink.stats(), unchanged."""
        reg = enable()
        link = JtagLink(JtagProbe(TapController(DebugPort(Board()))))
        link.read_word(RAM_BASE)
        link.read_word(RAM_BASE + 1)
        stats = link.stats()
        snap = reg.snapshot()
        for key, value in stats.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            assert counter(snap, f"link.{key}", kind=stats["kind"],
                           label=stats["label"]) == value
        assert reg is OBS.metrics


class TestReleaseBindings:
    def test_release_keeps_totals_and_unpins_owner(self):
        reg = MetricsRegistry()
        reg.bind_stats("keep", lambda: {"n": 1}, owner=object())

        class Owner:
            pass

        owner = Owner()
        state = {"n": 0, "kind": "k"}
        mark = reg.binding_mark()
        reg.bind_stats("job", lambda: state, owner=owner,
                       label_keys=("kind",))
        state["n"] = 4
        before = reg.snapshot()
        assert reg.release_bindings(mark) == 1
        ref = weakref.ref(owner)
        del owner
        gc.collect()
        assert ref() is None
        assert reg.snapshot().to_dict() == before.to_dict()
        assert counter(reg.snapshot(), "job.n", kind="k") == 4

    def test_rebinding_a_released_live_owner_is_a_noop(self):
        reg = MetricsRegistry()

        class Owner:
            pass

        owner = Owner()
        reg.bind_stats("x", lambda: {"n": 2}, owner=owner)
        reg.release_bindings()
        reg.bind_stats("x", lambda: {"n": 2}, owner=owner)
        assert counter(reg.snapshot(), "x.n") == 2
        # an owner that cannot be weakly referenced is still deduped
        plain = object()
        reg.bind_stats("y", lambda: {"n": 3}, owner=plain)
        reg.release_bindings()
        reg.bind_stats("y", lambda: {"n": 3}, owner=plain)
        assert counter(reg.snapshot(), "y.n") == 3

    def test_every_snapshot_reads_the_current_stats(self):
        reg = MetricsRegistry()
        state = {"n": 1}
        reg.bind_stats("x", lambda: state)
        assert counter(reg.snapshot(), "x.n") == 1
        assert counter(reg.snapshot(), "x.n") == 1
        state["n"] = 9
        state["m"] = 2
        snap = reg.snapshot()
        assert (counter(snap, "x.n"), counter(snap, "x.m")) == (9, 2)

    def test_campaign_releases_job_bindings_with_equal_totals(self,
                                                              monkeypatch):
        def campaign_snapshot():
            reg = enable()
            try:
                run_campaign(traffic_light_system,
                             traffic_light_monitor_suite,
                             traffic_light_code_watches,
                             design_kinds=("wrong_target",),
                             impl_kinds=("inverted_branch",), seeds=(1,),
                             duration_us=sec(1), runner=SerialRunner())
                return reg, reg.snapshot().to_dict()
            finally:
                disable()

        reg, released = campaign_snapshot()
        assert reg.binding_mark() == 0  # every job binding was released
        monkeypatch.setattr(MetricsRegistry, "release_bindings",
                            lambda self, mark=0: 0)
        pinned_reg, pinned = campaign_snapshot()
        assert pinned_reg.binding_mark() > 0
        assert released == pinned
        assert released["counters"]["kernel.deadline_misses"]


class TestRuntimeHolder:
    def test_disabled_by_default(self):
        assert OBS.metrics is None

    def test_enable_disable(self):
        reg = enable()
        assert isinstance(reg, MetricsRegistry)
        assert OBS.metrics is reg
        disable()
        assert OBS.metrics is None

    def test_observed_restores_prior_state(self):
        with observed() as reg:
            assert OBS.metrics is reg
        assert OBS.metrics is None
        outer = enable()
        with observed():
            assert OBS.metrics is not outer
        assert OBS.metrics is outer
