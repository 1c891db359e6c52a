"""A campaign process loads only what a campaign job runs.

Each campaign runs in a fresh process that imports the fleet worker and
the workload factories, so everything those imports pull in is paid on
every start-up. The SVG backend once escaped text with
``xml.sax.saxutils.escape``, which loads ``urllib.request``,
``http.client`` and ``ssl`` (about 40 ms) into every campaign process.
Package ``__init__``s once re-exported their subpackages' names, which
loaded the model debugger's views and tooling (session, replay, timing
diagrams, rendering, the abstraction guide) into it as well.
"""

import os
import subprocess
import sys

from repro.render.svg import escape

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NETWORK_MODULES = ("ssl", "http.client", "urllib.request")

#: user-facing views and tooling that no campaign job runs
UI_MODULES = tuple(f"repro.{name}" for name in (
    "comdes.builder", "meta.validate", "meta.registry",
    "engine.replay", "engine.session", "engine.stepping",
    "engine.timing_diagram", "experiments.harness", "experiments.workloads",
    "gdm.command_setup", "gdm.guide", "gdm.scenegen",
    "render.ascii_art", "render.scene", "render.svg", "util.textgrid"))

PROBE = """
import sys
import repro.fleet.worker
import repro.faults.campaign
from repro.comdes.examples import (cruise_control_system,
                                   production_cell_system,
                                   traffic_light_system)
from repro.experiments.requirements import (
    cruise_code_watches, cruise_monitor_suite,
    production_cell_code_watches, production_cell_monitor_suite,
    traffic_light_code_watches, traffic_light_monitor_suite)
print(" ".join(name for name in sys.argv[1:] if name in sys.modules))
"""


def _loaded(names):
    """Which of *names* a fresh campaign process has imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, "-c", PROBE, *names], env=env,
        capture_output=True, text=True, check=True).stdout.split()


def test_worker_and_workload_factories_load_no_network_stack():
    assert _loaded(NETWORK_MODULES) == []


def test_worker_and_workload_factories_load_no_views_or_tooling():
    assert _loaded(UI_MODULES) == []


def test_escape_matches_saxutils():
    from xml.sax.saxutils import escape as sax_escape
    for text in ("", "plain", "a < b && c > \"d\" 'e' &amp;", "<<&>>",
                 "x&lt;y"):
        assert escape(text) == sax_escape(text)
