"""The event-driven debugger engine (the FSM of paper Fig 3).

States: DISCONNECTED -> WAITING <-> REACTING, with PAUSED entered on a
breakpoint hit and left by resume/step. Observers (monitors, animation
capture, UI) subscribe to the engine's event bus topics: ``command``,
``reaction``, ``breakpoint``, ``engine_state``. The engine builds and
publishes a topic's payload only while the topic has a subscriber, so an
observer that subscribes late sees every event from then on, and an
unobserved topic costs nothing.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.comm.channel import DebugChannel
from repro.comm.protocol import Command
from repro.engine.breakpoints import BreakpointManager
from repro.engine.trace import ExecutionTrace
from repro.errors import DebuggerError
from repro.gdm.model import GdmModel
from repro.gdm.reactions import ReactionRecord, apply_reaction
from repro.render.animation import FrameSequence
from repro.util.events import EventBus


class EngineState(enum.Enum):
    """Engine FSM states."""

    DISCONNECTED = "DISCONNECTED"
    WAITING = "WAITING"
    REACTING = "REACTING"
    PAUSED = "PAUSED"


_WAITING = EngineState.WAITING
_REACTING = EngineState.REACTING


class DebuggerEngine:
    """Animates a debug model from channel commands.

    Lifetime: the channel's subscription to :meth:`on_command` and the
    bus handlers tie the engine, its channels and its observers into
    reference cycles. The owner of a finished run calls :meth:`close`
    (:func:`repro.engine.rig.run_to_verdict` does); the trace, the
    model and the counters stay readable, but a closed engine is
    disconnected and reacts to no further command.
    """

    def __init__(self, gdm: GdmModel,
                 channel: Optional[DebugChannel] = None,
                 capture_frames: bool = True,
                 max_frames: Optional[int] = 10_000,
                 trace: Optional[ExecutionTrace] = None) -> None:
        """``trace`` substitutes a spilling trace,
        ``ExecutionTrace(spill=TraceStore(...))``, for the default
        in-memory one. When the spill store asks for checkpoints
        (``checkpoint_every``), the engine captures the model's dynamic
        state at those seqs while recording, so seeks over the stored
        history are cheap from the moment the run ends.
        """
        self.gdm = gdm
        self.channel: Optional[DebugChannel] = None
        self.state = EngineState.DISCONNECTED
        self.bus = EventBus()
        self._topics = self.bus.topics
        self.trace = trace if trace is not None else ExecutionTrace()
        self.breakpoints = BreakpointManager()
        self.frames = FrameSequence(max_frames=max_frames) if capture_frames else None
        # Live checkpoints assert "this model state == replay of events
        # [0, seq]". That only holds if every stored event passed through
        # THIS engine's model — i.e. the store was empty when this engine
        # took over. An engine handed a trace another engine already
        # wrote into never saw the earlier events; its snapshots would
        # lie to seek, so that history checkpoints offline instead.
        spill = self.trace.spill
        self._live_checkpoints = spill is not None and spill.next_seq == 0
        self.commands_processed = 0
        self.commands_while_paused = 0
        #: used by StepController: halt again after N commands (None = free run)
        self.step_budget: Optional[int] = None
        if channel is not None:
            self.connect(channel)

    # -- lifecycle -----------------------------------------------------------

    def connect(self, channel: DebugChannel) -> None:
        """Attach a command channel and enter WAITING."""
        if self.channel is not None:
            raise DebuggerError("engine already connected to a channel")
        self.channel = channel
        channel.subscribe(self.on_command)
        self._set_state(EngineState.WAITING)

    def close(self) -> None:
        """Disconnect for good: drop the channel subscription (and the
        fan-out below it) and every bus handler, so the engine, its
        channels and its observers are freed by reference counting.
        The trace, the model and the counters stay readable."""
        self.bus.clear()
        if self.channel is not None:
            self.channel.close()
            self.channel = None
        self.state = EngineState.DISCONNECTED

    def _set_state(self, state: EngineState) -> None:
        if state is not self.state:
            previous, self.state = self.state, state
            if self._topics.get("engine_state"):
                self.bus.publish("engine_state", previous=previous,
                                 current=state)

    # -- the reaction cycle (Fig 3) --------------------------------------------

    def on_command(self, command: Command) -> None:
        """Handle one command: react, trace, check breakpoints."""
        state = self.state
        if state is not _WAITING and state is not _REACTING:
            if state is EngineState.DISCONNECTED:
                raise DebuggerError(
                    "engine received a command while disconnected")
            # PAUSED: stragglers already in flight when the target halted.
            self.commands_while_paused += 1
            return

        topics = self._topics
        if state is _WAITING:
            # _set_state(REACTING), inline
            self.state = _REACTING
            if topics.get("engine_state"):
                self.bus.publish("engine_state", previous=state,
                                 current=_REACTING)
        # Pulses are transient: they light up for exactly one animation
        # step (an empty lit set has nothing to decay).
        gdm = self.gdm
        if gdm.lit:
            gdm.decay_pulses()
        reactions: List[ReactionRecord] = []
        for binding in gdm.bindings_for(command):
            record = apply_reaction(gdm, binding, command)
            if record is not None:
                reactions.append(record)
                if topics.get("reaction"):
                    self.bus.publish("reaction", record=record,
                                     command=command)

        # _name_: the member's name without the enum property's call
        event = self.trace.record(command, reactions, self.state._name_)
        self.commands_processed += 1
        if topics.get("command"):
            self.bus.publish("command", command=command, event=event)

        # Live checkpointing: while spilling to a store that wants them,
        # persist the model state so post-run seeks start near their
        # target instead of replaying from zero.
        if self._live_checkpoints:
            spill = self.trace.spill
            if spill.wants_checkpoint(event.seq):
                spill.add_checkpoint(event.seq, command.t_host,
                                     self.gdm.dynamic_state())

        if self.frames is not None and reactions:
            self.frames.capture(command.t_host,
                                f"{command.kind.name} {command.path}",
                                self.gdm.styles_snapshot())

        if self.breakpoints.registered:
            hit = self.breakpoints.check(command)
            if hit is not None:
                self._pause_on_breakpoint(hit, command)
                return

        if self.step_budget is not None:
            self.step_budget -= 1
            if self.step_budget <= 0:
                self.step_budget = None
                self._halt_target()
                self._set_state(EngineState.PAUSED)
                self.bus.publish("step_complete", command=command)
                return

        state = self.state
        if state is not _WAITING:
            # _set_state(WAITING), inline
            self.state = _WAITING
            if topics.get("engine_state"):
                self.bus.publish("engine_state", previous=state,
                                 current=_WAITING)

    def _pause_on_breakpoint(self, breakpoint, command: Command) -> None:
        self._halt_target()
        self._set_state(EngineState.PAUSED)
        self.bus.publish("breakpoint", breakpoint=breakpoint, command=command)

    def _halt_target(self) -> None:
        if self.channel is not None:
            self.channel.halt_target()

    # -- pause / resume -----------------------------------------------------------

    def pause(self) -> None:
        """Manually pause (halts the target)."""
        if self.state is EngineState.DISCONNECTED:
            raise DebuggerError("cannot pause a disconnected engine")
        self._halt_target()
        self._set_state(EngineState.PAUSED)

    def resume(self) -> None:
        """Leave PAUSED: resume the target and wait for commands."""
        if self.state is not EngineState.PAUSED:
            raise DebuggerError(f"resume from {self.state.name}, expected PAUSED")
        if self.channel is not None:
            self.channel.resume_target()
        self._set_state(EngineState.WAITING)

    def __repr__(self) -> str:
        return (f"<DebuggerEngine {self.state.name} "
                f"{self.commands_processed} commands, "
                f"{len(self.trace)} trace events>")
