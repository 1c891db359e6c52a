"""Experiment support: workload generators, requirement suites, harness.

Shared by the benchmark files under ``benchmarks/`` (one per paper figure /
claim, E1..E10) and by the examples. The experiment index is the set of
``benchmarks/test_e*.py`` docstrings, each naming the paper figure or
claim it reproduces; each run writes its measured table to ``artifacts/``
(:func:`save_artifact`).
"""
