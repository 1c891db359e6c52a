"""A campaign process loads no network stack.

Each campaign runs in a fresh process that imports the fleet worker and
the workload factories, so everything those imports pull in is paid on
every start-up. The SVG backend once escaped text with
``xml.sax.saxutils.escape``, which loads ``urllib.request``,
``http.client`` and ``ssl`` (about 40 ms) into every campaign process.
"""

import os
import subprocess
import sys

from repro.render.svg import escape

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NETWORK_MODULES = ("ssl", "http.client", "urllib.request")

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


def test_worker_and_workload_factories_load_no_network_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE, *NETWORK_MODULES], env=env,
        capture_output=True, text=True, check=True).stdout.split()
    assert loaded == []


def test_escape_matches_saxutils():
    from xml.sax.saxutils import escape as sax_escape
    for text in ("", "plain", "a < b && c > \"d\" 'e' &amp;", "<<&>>",
                 "x&lt;y"):
        assert escape(text) == sax_escape(text)
