"""The benchmark floor gate reports bad scoreboards; it never crashes.

Regression for the ``check_floors.py`` bug where a metric resolving to
``None`` (or any non-numeric JSON value — a perf script that recorded
``null`` on an exception path, a string, a nested object) blew up the
gate with an uncaught ``TypeError`` at ``value < spec["floor"]``
instead of listing a clean violation like every other failure mode.
"""

import importlib.util
import json
import os
import pathlib

import pytest

_CHECK_FLOORS = (pathlib.Path(__file__).resolve().parent.parent
                 / "benchmarks" / "check_floors.py")
_spec = importlib.util.spec_from_file_location("check_floors", _CHECK_FLOORS)
check_floors = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_floors)


def gate_dir(tmp_path, floors, scoreboards):
    """Lay out a FLOORS.json + BENCH_*.json directory for the gate."""
    (tmp_path / "FLOORS.json").write_text(json.dumps(floors))
    for stem, data in scoreboards.items():
        (tmp_path / f"{stem}.json").write_text(json.dumps(data))
    return str(tmp_path)


class TestNonNumericMetrics:
    @pytest.mark.parametrize("bad", [None, "3.3M", {"nested": 1}, [1, 2]])
    def test_non_numeric_metric_is_a_clean_violation(self, tmp_path, bad):
        here = gate_dir(
            tmp_path,
            {"BENCH_x": {"metric": "rate", "kind": "wall", "floor": 100}},
            {"BENCH_x": {"rate": bad}},
        )
        ok_lines, failures = check_floors.check(here, quick=False)
        assert failures == [f"BENCH_x: metric rate is non-numeric ({bad!r})"]
        assert ok_lines == []

    def test_non_numeric_does_not_stop_other_entries(self, tmp_path):
        """One poisoned scoreboard must not hide a real regression."""
        here = gate_dir(
            tmp_path,
            {"BENCH_bad": {"metric": "rate", "kind": "wall", "floor": 100},
             "BENCH_slow": {"metric": "rate", "kind": "wall", "floor": 100}},
            {"BENCH_bad": {"rate": None}, "BENCH_slow": {"rate": 7}},
        )
        _, failures = check_floors.check(here, quick=False)
        assert len(failures) == 2
        assert any("non-numeric" in f for f in failures)
        assert any("below floor" in f for f in failures)

    def test_ceiling_spec_with_non_numeric_metric(self, tmp_path):
        here = gate_dir(
            tmp_path,
            {"BENCH_x": {"metric": "cost", "kind": "wall", "ceiling": 10}},
            {"BENCH_x": {"cost": "cheap"}},
        )
        _, failures = check_floors.check(here, quick=False)
        assert failures == ["BENCH_x: metric cost is non-numeric ('cheap')"]


class TestGateStillGates:
    def test_numeric_pass_and_fail(self, tmp_path):
        here = gate_dir(
            tmp_path,
            {"BENCH_ok": {"metric": "rate", "kind": "wall", "floor": 100},
             "BENCH_low": {"metric": "rate", "kind": "wall", "floor": 100}},
            {"BENCH_ok": {"rate": 150}, "BENCH_low": {"rate": 50}},
        )
        ok_lines, failures = check_floors.check(here, quick=False)
        assert ok_lines == ["ok: BENCH_ok [wall] rate = 150 (floor 100)"]
        assert failures == ["BENCH_low [wall]: rate = 50 below floor 100"]

    def test_dotted_path_and_missing_metric(self, tmp_path):
        here = gate_dir(
            tmp_path,
            {"BENCH_x": {"metric": "watches.64.rate", "kind": "wall",
                         "floor": 1},
             "BENCH_y": {"metric": "absent.path", "kind": "wall",
                         "floor": 1}},
            {"BENCH_x": {"watches": {"64": {"rate": 5}}},
             "BENCH_y": {"rate": 5}},
        )
        ok_lines, failures = check_floors.check(here, quick=False)
        assert ok_lines == ["ok: BENCH_x [wall] watches.64.rate = 5 (floor 1)"]
        assert failures == [
            "BENCH_y: metric 'absent.path' not found in BENCH_y.json"]

    def test_missing_scoreboard_still_reported(self, tmp_path):
        here = gate_dir(tmp_path,
                        {"BENCH_x": {"metric": "rate", "kind": "wall",
                                     "floor": 1}}, {})
        _, failures = check_floors.check(here, quick=False)
        assert failures == ["BENCH_x: scoreboard BENCH_x.json missing"]

    def test_boolean_parity_flags_stay_numeric(self, tmp_path):
        """parity_identical-style flags recorded as JSON true compare
        fine (bool is an int); the non-numeric guard must not reject
        them."""
        here = gate_dir(
            tmp_path,
            {"BENCH_parity": {"metric": "identical",
                              "kind": "deterministic", "floor": 1}},
            {"BENCH_parity": {"identical": True}},
        )
        ok_lines, failures = check_floors.check(here, quick=False)
        assert failures == []
        assert len(ok_lines) == 1

    def test_repo_floors_file_is_well_formed(self):
        """The committed FLOORS.json itself: every spec names a metric
        and at least one bound."""
        with open(os.path.join(os.path.dirname(_CHECK_FLOORS), "FLOORS.json"),
                  encoding="utf-8") as handle:
            floors = json.load(handle)
        for name, spec in floors.items():
            assert "metric" in spec, name
            assert "floor" in spec or "ceiling" in spec, name
            assert spec["kind"] in check_floors.KINDS, name


class TestKinds:
    @pytest.mark.parametrize("spec", [{}, {"kind": "cpu"}, {"kind": None}])
    def test_entry_without_a_known_kind_fails(self, tmp_path, spec):
        here = gate_dir(
            tmp_path,
            {"BENCH_x": {"metric": "rate", "floor": 1, **spec}},
            {"BENCH_x": {"rate": 5}},
        )
        ok_lines, failures = check_floors.check(here, quick=False)
        assert ok_lines == []
        assert failures == [f"BENCH_x: kind {spec.get('kind')!r} is not one "
                            f"of deterministic, wall"]

    def test_kind_is_printed_with_each_verdict(self, tmp_path):
        here = gate_dir(
            tmp_path,
            {"BENCH_calls": {"metric": "calls", "kind": "deterministic",
                             "ceiling": 10},
             "BENCH_rate": {"metric": "rate", "kind": "wall", "floor": 10}},
            {"BENCH_calls": {"calls": 11}, "BENCH_rate": {"rate": 12}},
        )
        ok_lines, failures = check_floors.check(here, quick=False)
        assert ok_lines == ["ok: BENCH_rate [wall] rate = 12 (floor 10)"]
        assert failures == [
            "BENCH_calls [deterministic]: calls = 11 above ceiling 10"]
