"""The runtime debugger engine.

"A runtime engine first takes a debug model as input and displays it
graphically. Next, the engine implemented as an event-driven state machine
waits for commands sent by the target embedded code. Once an event arrives,
it performs corresponding actions (e.g. an animation) and other graphical
model debugger functionalities." (paper §II)

This package adds the surrounding functionality the paper lists: model-level
breakpoints and step-wise execution, execution-trace recording, replay with
a timing diagram, and requirement monitors that turn "actions not consistent
with system requirements" into bug reports.
"""

from repro.engine.engine import DebuggerEngine, EngineState
from repro.engine.breakpoints import (
    BreakpointManager,
    CommandKindBreakpoint,
    SignalConditionBreakpoint,
    StateEntryBreakpoint,
    TransitionBreakpoint,
)
from repro.engine.stepping import StepController
from repro.engine.trace import ExecutionTrace, TraceEvent
from repro.engine.replay import ReplayPlayer
from repro.engine.timing_diagram import TimingDiagram
from repro.engine.checks import (
    BugReport,
    CrossInvariantMonitor,
    DwellMonitor,
    HeartbeatMonitor,
    InitialStateMonitor,
    MonitorSuite,
    RangeMonitor,
    ResponseMonitor,
    SequenceMonitor,
    StateValueMonitor,
)
from repro.engine.classify import BugClass, BugClassifier, classify_bug
from repro.engine.inspector import ModelInspector
from repro.engine.session import DebugSession

__all__ = [
    "DebuggerEngine", "EngineState",
    "BreakpointManager", "StateEntryBreakpoint", "SignalConditionBreakpoint",
    "CommandKindBreakpoint", "TransitionBreakpoint",
    "StepController",
    "ExecutionTrace", "TraceEvent",
    "ReplayPlayer",
    "TimingDiagram",
    "BugReport", "MonitorSuite", "RangeMonitor", "ResponseMonitor",
    "SequenceMonitor", "DwellMonitor", "StateValueMonitor",
    "HeartbeatMonitor", "InitialStateMonitor", "CrossInvariantMonitor",
    "BugClass", "BugClassifier", "classify_bug",
    "ModelInspector",
    "DebugSession",
]
