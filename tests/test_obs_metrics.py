"""Unit tests for the repro.obs core: registry, snapshots, spans.

The contracts under test (see ``repro/obs/__init__.py``):

* labeled series get-or-create identity, counter/gauge/histogram math;
* snapshots are canonical (sorted at every level), picklable plain
  data, and merge associatively — counters/histograms sum, gauges take
  the right-hand value (CampaignResult-style canonical fold);
* ``bind_stats`` makes an existing ``stats()`` dict a thin registry
  view: values read once per snapshot, ``label_keys`` entries become
  labels read at snapshot time (so wrapper kinds assigned *after*
  ``DebugLink.__init__`` are not frozen stale);
* spans are modeled-time tuples with a deterministic canonical sort;
* the module-global ``OBS`` holder is None/None when disabled and
  ``observed()`` restores prior state on exit.
"""

import gc
import pickle
import weakref

import pytest

from repro.comdes.examples import traffic_light_system
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.link import JtagLink
from repro.experiments import (traffic_light_code_watches,
                               traffic_light_monitor_suite)
from repro.faults import run_campaign
from repro.fleet import SerialRunner
from repro.obs import (
    OBS,
    MetricsRegistry,
    MetricsSnapshot,
    Span,
    SpanTracer,
    disable,
    enable,
    enabled,
    merge_snapshots,
    merge_spans,
    observed,
    span_order,
)
from repro.target.board import Board, DebugPort
from repro.target.memory import RAM_BASE
from repro.util.timeunits import sec


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with telemetry disabled."""
    disable()
    yield
    disable()


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

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3)
        g.set(7)
        h = reg.histogram("lat", bounds=(10, 100))
        for v in (1, 9, 10, 55, 1000):
            h.observe(v)
        assert g.value == 7
        assert h.count == 5 and h.sum == 1075
        assert h.counts == [3, 1, 1]  # <=10, <=100, overflow


class TestSnapshot:
    def test_snapshot_is_picklable_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("a", k="v").inc(2)
        reg.gauge("g").set(1)
        reg.histogram("h").observe(5)
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
        back = MetricsSnapshot.from_dict(d)
        assert back.to_dict() == d

    def test_merge_sums_counters_keeps_right_gauge(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("c", k="v").inc(3)
        r2.counter("c", k="v").inc(4)
        r1.gauge("g").set(1)
        r2.gauge("g").set(9)
        r1.histogram("h").observe(5)
        r2.histogram("h").observe(500)
        s1, s2 = r1.snapshot(), r2.snapshot()
        merged = s1.merge(s2)
        assert merged.counter("c", k="v") == 7
        assert merged.gauge("g") == 9
        # merge is non-mutating
        assert s1.counter("c", k="v") == 3
        assert merge_snapshots([s1, s2]).to_dict() == merged.to_dict()

    def test_absorb_equals_merge_and_leaves_operand_alone(self):
        a, b = MetricsSnapshot(), MetricsSnapshot()
        a.counters["c"] = {(): 1}
        b.counters["c"] = {(): 2, (("k", "v"),): 3}
        b.gauges["g"] = {(): 7}
        b.histograms["h"] = {(): {"bounds": (1, 4), "counts": [1, 0, 2],
                                  "sum": 9, "count": 3}}
        merged = a.merge(b)
        b_before = b.to_dict()
        a.absorb(b)
        assert a.to_dict() == merged.to_dict()
        a.absorb(b)
        assert b.to_dict() == b_before
        assert a.histograms["h"][()]["counts"] == [2, 0, 4]

    def test_merge_rejects_histogram_bound_mismatch(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.histogram("h", bounds=(1, 2)).observe(1)
        r2.histogram("h", bounds=(1, 3)).observe(1)
        with pytest.raises(ValueError):
            r1.snapshot().merge(r2.snapshot())

    def test_counter_total_and_series(self):
        reg = MetricsRegistry()
        reg.counter("c", k="a").inc(2)
        reg.counter("c", k="b").inc(5)
        snap = reg.snapshot()
        assert snap.counter_total("c") == 7
        assert snap.counter_total("missing") == 0
        assert len(snap.series("c")) == 2


class TestBindStats:
    def test_bound_stats_fold_as_counters(self):
        reg = MetricsRegistry()
        state = {"hits": 0, "misses": 0}
        reg.bind_stats("cache", lambda: state)
        state["hits"] = 11
        state["misses"] = 2
        snap = reg.snapshot()
        assert snap.counter("cache.hits") == 11
        assert snap.counter("cache.misses") == 2

    def test_label_keys_read_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"kind": "bare", "ops": 0}
        reg.bind_stats("link", lambda: state, label_keys=("kind",))
        state["kind"] = "chaos[bare]"  # wrapper renamed after binding
        state["ops"] = 3
        snap = reg.snapshot()
        assert snap.counter("link.ops", kind="chaos[bare]") == 3
        assert snap.counter("link.ops", kind="bare") == 0

    def test_owner_dedupe_is_idempotent(self):
        reg = MetricsRegistry()
        state = {"n": 1}
        owner = object()
        reg.bind_stats("x", lambda: state, owner=owner)
        reg.bind_stats("x", lambda: state, owner=owner)
        assert reg.snapshot().counter("x.n") == 1

    def test_same_series_bindings_sum(self):
        reg = MetricsRegistry()
        reg.bind_stats("x", lambda: {"n": 2}, owner=object())
        reg.bind_stats("x", lambda: {"n": 5}, owner=object())
        assert reg.snapshot().counter("x.n") == 7

    def test_non_numeric_and_bool_values_skipped(self):
        reg = MetricsRegistry()
        reg.bind_stats("x", lambda: {"n": 2, "name": "hi", "up": True,
                                     "nested": {"a": 1}})
        snap = reg.snapshot()
        assert snap.counter("x.n") == 2
        assert snap.counter_total("x.name") == 0
        assert snap.counter_total("x.up") == 0

    def test_link_stats_parity(self):
        """The link.* series are exactly DebugLink.stats(), unchanged."""
        reg, _ = enable(spans=False)
        link = JtagLink(JtagProbe(TapController(DebugPort(Board()))))
        link.read_word(RAM_BASE)
        link.read_word(RAM_BASE + 1)
        stats = link.stats()
        snap = reg.snapshot()
        for key, value in stats.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            assert snap.counter(f"link.{key}", kind=stats["kind"],
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
        assert reg.snapshot().counter("job.n", kind="k") == 4

    def test_rebinding_a_released_live_owner_is_a_noop(self):
        reg = MetricsRegistry()

        class Owner:
            pass

        owner = Owner()
        reg.bind_stats("x", lambda: {"n": 2}, owner=owner)
        reg.release_bindings()
        reg.bind_stats("x", lambda: {"n": 2}, owner=owner)
        assert reg.snapshot().counter("x.n") == 2
        # an owner that cannot be weakly referenced is still deduped
        plain = object()
        reg.bind_stats("y", lambda: {"n": 3}, owner=plain)
        reg.release_bindings()
        reg.bind_stats("y", lambda: {"n": 3}, owner=plain)
        assert reg.snapshot().counter("y.n") == 3

    def test_every_snapshot_reads_the_current_stats(self):
        reg = MetricsRegistry()
        state = {"n": 1}
        reg.bind_stats("x", lambda: state)
        assert reg.snapshot().counter("x.n") == 1
        assert reg.snapshot().counter("x.n") == 1
        state["n"] = 9
        state["m"] = 2
        snap = reg.snapshot()
        assert (snap.counter("x.n"), snap.counter("x.m")) == (9, 2)

    def test_campaign_releases_job_bindings_with_equal_totals(self,
                                                              monkeypatch):
        def campaign_snapshot():
            reg, _ = enable(spans=False)
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


class TestSpans:
    def test_emit_and_canonical_snapshot(self):
        tr = SpanTracer()
        tr.emit("b", ts_us=10, dur_us=5, track=("node", "n1"))
        tr.emit("a", ts_us=20, track=("node", "n0"), args={"z": 1, "a": 2})
        spans = tr.snapshot()
        assert spans == sorted(spans, key=span_order)
        # the total order reads in modeled-time order, lanes interleaved
        assert spans[0].ts_us == 10 and spans[0].track == ("node", "n1")
        # args dicts are canonicalized to sorted tuples
        assert spans[1].args == (("a", 2), ("z", 1))

    def test_merge_spans_deterministic(self):
        t1, t2 = SpanTracer(), SpanTracer()
        t1.emit("x", ts_us=5)
        t2.emit("x", ts_us=1)
        merged = merge_spans([t1.snapshot(), t2.snapshot()])
        assert merged == merge_spans([t2.snapshot(), t1.snapshot()])
        assert all(isinstance(s, Span) for s in merged)

    def test_merge_spans_total_order_on_mixed_arg_types(self):
        # ties through (ts, dur, track, name, cat) used to fall into
        # comparing args values, which TypeErrors on mixed types; the
        # span_order key must survive any args payload and stay
        # byte-stable regardless of arrival order
        a = Span(("n", "t"), "x", "", 5, 1, (("k", None),))
        b = Span(("n", "t"), "x", "", 5, 1, (("k", 3),))
        c = Span(("n", "t"), "x", "", 5, 1, (("k", "3"),))
        one = merge_spans([[a, b], [c]])
        two = merge_spans([[c], [b, a]])
        assert one == two
        assert [s.ts_us for s in one] == [5, 5, 5]

    def test_spans_picklable(self):
        tr = SpanTracer()
        tr.emit("x", ts_us=1, args={"k": "v"})
        assert pickle.loads(pickle.dumps(tr.snapshot())) == tr.snapshot()


class TestRuntimeHolder:
    def test_disabled_by_default(self):
        assert OBS.metrics is None and OBS.spans is None
        assert not enabled()

    def test_enable_disable(self):
        reg, tracer = enable()
        assert OBS.metrics is reg and OBS.spans is tracer
        assert enabled()
        disable()
        assert OBS.metrics is None and OBS.spans is None

    def test_observed_restores_prior_state(self):
        with observed() as (reg, tracer):
            assert OBS.metrics is reg and OBS.spans is tracer
        assert OBS.metrics is None and OBS.spans is None
        outer, _ = enable(spans=False)
        with observed():
            assert OBS.metrics is not outer
        assert OBS.metrics is outer
        assert OBS.spans is None

    def test_partial_enable(self):
        reg, tracer = enable(spans=False)
        assert reg is not None and tracer is None
        assert OBS.spans is None
