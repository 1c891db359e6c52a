"""Every example script must run cleanly (they are living documentation)."""

import io
import os
import runpy
from contextlib import redirect_stdout

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

EXAMPLES = [
    "quickstart.py",
    "cruise_control.py",
    "jtag_passive_monitor.py",
    "replay_timing_diagram.py",
    "fault_hunt.py",
    "production_cell.py",
]

#: a phrase each example's output must contain (proof it did its job)
EXPECTED_PHRASES = {
    "quickstart.py": "Timing diagram",
    "cruise_control.py": "Breakpoint: engine is PAUSED",
    "jtag_passive_monitor.py": "Extra target cost                   : 0 cycles",
    "replay_timing_diagram.py": "After seek(5)",
    "fault_hunt.py": "BUG FOUND",
    "production_cell.py": "classifier: IMPLEMENTATION",
}


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_and_produces_expected_output(script, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)  # examples may write artifact files
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, script))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(path, run_name="__main__")
    output = buffer.getvalue()
    assert len(output) > 200, f"{script} produced almost no output"
    assert EXPECTED_PHRASES[script] in output


def test_examples_list_is_complete():
    on_disk = sorted(f for f in os.listdir(EXAMPLES_DIR)
                     if f.endswith(".py"))
    assert on_disk == sorted(EXAMPLES)
