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

from repro.comdes.expr import (
    Expr,
    band,
    bor,
    const,
    eq,
    ge,
    gt,
    le,
    lnot,
    lt,
    maximum,
    minimum,
    ne,
    var,
)
from repro.comdes.signals import Signal
from repro.comdes.fsm import Assign, StateMachine, Transition
from repro.comdes.blocks import (
    DelayFB,
    FunctionBlock,
    GainFB,
    IntegratorFB,
    PiFB,
    SequenceFB,
    StateMachineFB,
    SubFB,
    ThresholdFB,
)
from repro.comdes.dataflow import ComponentNetwork, Connection, PortRef
from repro.comdes.composite import CompositeFB
from repro.comdes.modal import ModalFB, Mode
from repro.comdes.actor import Actor, TaskSpec
from repro.comdes.system import System
from repro.comdes.metamodel import comdes_metamodel
from repro.comdes.reflect import system_to_model
from repro.comdes.validate import validate_system

__all__ = [
    "Expr", "const", "var", "minimum", "maximum",
    "eq", "ne", "lt", "le", "gt", "ge", "band", "bor", "lnot",
    "Signal",
    "Assign", "Transition", "StateMachine",
    "FunctionBlock", "GainFB", "SubFB", "ThresholdFB", "DelayFB",
    "IntegratorFB", "PiFB", "SequenceFB", "StateMachineFB",
    "PortRef", "Connection", "ComponentNetwork",
    "CompositeFB", "Mode", "ModalFB",
    "TaskSpec", "Actor",
    "System",
    "comdes_metamodel", "system_to_model", "validate_system",
]
