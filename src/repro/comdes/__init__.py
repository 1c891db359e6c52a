"""COMDES: the domain-specific modeling language used as GMDF's input.

COMDES (COMponent-based design of Distributed Embedded Systems, Angelov et
al.) models an application as a network of **actors** exchanging labeled
**signals** with non-blocking state-message semantics. Each actor contains a
**component network** of prefabricated function blocks — basic (signal
processing), composite, modal and state-machine blocks — executed under a
clocked synchronous regime (Distributed Timed Multitasking). The basic
blocks are the ones the example systems build (gain, subtraction, delay,
sequence, integrator, PI) plus the threshold comparator that the
``threshold_limit`` design fault targets.

This package implements the modeling constructs plus a reference interpreter
(the ground truth that generated target code is differentially tested
against), the COMDES metamodel in :mod:`repro.meta` terms, and canned example
systems used throughout tests, examples and benchmarks.
"""
