"""Chrome trace-event export: structure, lanes, determinism, CLI.

The exporter's contract (``repro/obs/export.py``):

* output is a Chrome/Perfetto trace-event document — every slice has
  ``ph``/``pid``/``tid``/``ts``/``dur``/``name``, lanes are declared
  with ``process_name``/``thread_name`` metadata, timestamps are
  **modeled microseconds** from the stores (never wall clock);
* within one ``(pid, tid)`` lane, slices appear in non-decreasing
  ``ts`` order;
* the rendering is canonical: two same-seed campaigns collected into
  different directories export byte-identical documents;
* ``python -m repro.obs.export --campaign <store>`` is the CLI face.
"""

import json

import pytest

from repro.comdes.examples import traffic_light_system
from repro.experiments import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults import run_campaign
from repro.fleet import SerialRunner
from repro.obs.export import (
    chrome_trace,
    export_campaign,
    main as export_main,
    render_bytes,
)
from repro.tracedb import campaign_store_root
from repro.util.timeunits import sec

KW = dict(design_kinds=("wrong_target",), impl_kinds=("inverted_branch",),
          seeds=(1,), duration_us=sec(1))


def collect(tmp_path, name):
    trace_dir = str(tmp_path / name)
    run_campaign(traffic_light_system, traffic_light_monitor_suite,
                 traffic_light_code_watches, runner=SerialRunner(),
                 trace_dir=trace_dir, **KW)
    return campaign_store_root(trace_dir)


@pytest.fixture(scope="module")
def campaign_root(tmp_path_factory):
    return collect(tmp_path_factory.mktemp("obs_export"), "a")


class TestStructure:
    @pytest.fixture(scope="class")
    def doc(self, campaign_root):
        return json.loads(export_campaign(campaign_root))

    def test_document_shape(self, doc):
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["timeUnit"] == "modeled microseconds"
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"]

    def test_slices_have_required_fields(self, doc):
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices
        for e in slices:
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            assert isinstance(e["ts"], int) and e["ts"] >= 0
            assert isinstance(e["dur"], int) and e["dur"] >= 0
            assert e["name"]
            assert e["cat"]

    def test_lanes_are_declared_with_metadata(self, doc):
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        named_pids = {e["pid"] for e in meta if e["name"] == "process_name"}
        named_lanes = {(e["pid"], e["tid"]) for e in meta
                       if e["name"] == "thread_name"}
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in slices} <= named_pids
        assert {(e["pid"], e["tid"]) for e in slices} <= named_lanes
        # lanes are per job: control + one design + one implementation
        assert len(named_pids) == 3

    def test_timestamps_monotone_per_lane(self, doc):
        last: dict = {}
        for e in doc["traceEvents"]:
            if e["ph"] != "X":
                continue
            lane = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(lane, 0)
            last[lane] = e["ts"]

    def test_command_lane_from_engine_events(self, doc):
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert cats == {"command"}  # campaign stores hold engine events


class TestDeterminism:
    def test_same_seed_exports_byte_identical(self, tmp_path_factory,
                                              campaign_root):
        again = collect(tmp_path_factory.mktemp("obs_export2"), "b")
        assert export_campaign(campaign_root) == export_campaign(again)

    def test_render_is_canonical(self, campaign_root):
        doc = json.loads(export_campaign(campaign_root))
        assert render_bytes(doc) == export_campaign(campaign_root)


class TestMetricsExport:
    def test_metrics_embedded_in_other_data(self, campaign_root):
        from repro.obs import MetricsRegistry
        from repro.tracedb import TraceStore
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        doc = chrome_trace(TraceStore.open(campaign_root),
                           metrics=reg.snapshot())
        assert doc["otherData"]["metrics"]["counters"]["c"][0]["value"] == 3


class TestCli:
    def test_cli_writes_file(self, campaign_root, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = export_main(["--campaign", campaign_root, "-o", str(out)])
        assert rc == 0
        assert out.read_bytes() == export_campaign(campaign_root)

    def test_cli_stdout(self, campaign_root, capsys):
        rc = export_main(["--campaign", campaign_root])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]

    def test_export_writes_out_path(self, campaign_root, tmp_path):
        out = tmp_path / "t.json"
        data = export_campaign(campaign_root, out_path=str(out))
        assert out.read_bytes() == data

    def test_export_requires_a_source(self):
        with pytest.raises(SystemExit) as exc:
            export_main([])
        assert exc.value.code == 2
