"""GMDF: Graphical Model Debugger Framework for embedded systems.

A full reproduction of Zeng, Guo & Angelov (DATE 2010): model-driven
debugging of embedded software at the *model* level. Each subpackage's
docstring maps its part of the paper to code (``repro.comdes`` the
modeling language, ``repro.gdm`` the debug model, ``repro.engine`` the
runtime engine, ``repro.comm`` the command channels, ``repro.debugger``
the code-level baseline); PAPER.md holds the paper's abstract.

Quickstart::

    from repro import DebugSession, traffic_light_system, ms

    session = DebugSession(traffic_light_system(), channel_kind="active")
    session.setup().run(ms(100) * 20)
    print(session.snapshot_ascii())      # active state highlighted
    print(session.timing_diagram().render_ascii())
"""

__version__ = "1.0.0"

# Modeling (COMDES DSL)
from repro.comdes.actor import Actor, TaskSpec
from repro.comdes.blocks import StateMachineFB
from repro.comdes.builder import SystemBuilder
from repro.comdes.dataflow import ComponentNetwork, Connection, PortRef
from repro.comdes.examples import (
    blinker_system,
    cruise_control_system,
    production_cell_system,
    traffic_light_system,
)
from repro.comdes.fsm import Assign, StateMachine, Transition
from repro.comdes.reflect import system_to_model
from repro.comdes.signals import Signal
from repro.comdes.system import System
from repro.comdes.validate import validate_system

# Code generation + target
from repro.codegen import InstrumentationPlan, generate_firmware
from repro.target.board import Board

# Communication
from repro.comm.channel import ActiveChannel, PassiveChannel, WatchSpec
from repro.comm.jtag import JtagProbe, TapController
from repro.comm.protocol import Command, CommandKind

# RTOS
from repro.rtos.kernel import DtmKernel
from repro.rtos.task import LoadTask

# GDM + engine (the paper's contribution)
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.guide import AbstractionGuide
from repro.gdm.mapping import MappingRule, MappingTable, default_comdes_table
from repro.gdm.model import CommandBinding, GdmModel
from repro.gdm.patterns import PatternKind, PatternSpec
from repro.engine.breakpoints import StateEntryBreakpoint
from repro.engine.classify import BugClass, classify_bug
from repro.engine.engine import DebuggerEngine, EngineState
from repro.engine.replay import ReplayPlayer
from repro.engine.session import DebugSession
from repro.engine.timing_diagram import TimingDiagram
from repro.gdm.command_setup import CommandSetupDialog

# Baseline + faults + fleet
from repro.debugger.gdb import SourceDebugger
from repro.faults import run_campaign
from repro.fleet import FleetRunner, SerialRunner

# Utilities
from repro.sim.kernel import Simulator
from repro.util.timeunits import ms, sec, us

__all__ = [
    "__version__",
    # modeling
    "Signal", "StateMachine", "Transition", "Assign", "StateMachineFB",
    "ComponentNetwork", "Connection", "PortRef", "Actor", "TaskSpec",
    "System", "SystemBuilder", "validate_system", "system_to_model",
    "blinker_system", "traffic_light_system", "cruise_control_system",
    "production_cell_system",
    # codegen + target
    "InstrumentationPlan", "generate_firmware", "Board",
    # comm
    "Command", "CommandKind", "ActiveChannel", "PassiveChannel", "WatchSpec",
    "TapController", "JtagProbe",
    # rtos
    "DtmKernel", "LoadTask",
    # gdm + engine
    "PatternKind", "PatternSpec", "MappingRule", "MappingTable",
    "default_comdes_table", "AbstractionGuide", "AbstractionEngine",
    "GdmModel", "CommandBinding", "DebuggerEngine", "EngineState",
    "StateEntryBreakpoint",
    "ReplayPlayer", "TimingDiagram", "DebugSession",
    "CommandSetupDialog",
    "BugClass", "classify_bug",
    # baseline + faults + fleet
    "SourceDebugger", "run_campaign", "FleetRunner", "SerialRunner",
    # utilities
    "Simulator", "us", "ms", "sec",
]
