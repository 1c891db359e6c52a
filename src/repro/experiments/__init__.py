"""Experiment support: workload generators, requirement suites, harness.

Shared by the benchmark files under ``benchmarks/`` (one per paper figure /
claim, E1..E10) and by the examples. The experiment index is the set of
``benchmarks/test_e*.py`` docstrings, each naming the paper figure or
claim it reproduces; each run writes its measured table to ``artifacts/``
(:func:`save_artifact`).
"""

from repro.experiments.requirements import (
    cruise_monitor_suite,
    cruise_code_watches,
    traffic_light_monitor_suite,
    traffic_light_code_watches,
)
from repro.experiments.workloads import (
    chain_machine,
    chain_system,
    scaled_model,
)
from repro.experiments.harness import ResultTable, artifacts_dir, save_artifact

__all__ = [
    "traffic_light_monitor_suite", "traffic_light_code_watches",
    "cruise_monitor_suite", "cruise_code_watches",
    "chain_machine", "chain_system", "scaled_model",
    "ResultTable", "artifacts_dir", "save_artifact",
]
