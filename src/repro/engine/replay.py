"""Trace replay.

"The user can then monitor the application's behavior via a replay function
associated with a timing diagram." Replay re-animates the debug model from
a recorded trace — no target needed — with seek and speed control. It is a
pure function of the trace: replaying twice yields identical frames.

The player accepts anything trace-shaped: an in-memory
:class:`~repro.engine.trace.ExecutionTrace` or a
:class:`~repro.tracedb.store.StoredTrace` view over a spill store, which
replays an arbitrarily long on-disk history at flat memory. Either is a
whole record, so replay always starts from the run's first event.

Seek is checkpoint-accelerated when the trace offers checkpoints
(``nearest_checkpoint``): the model restores the nearest stored snapshot
and steps only the tail, which is O(checkpoint interval) instead of
O(position) and bit-identical to linear replay at every event boundary.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.trace import ExecutionTrace, TraceEvent
from repro.errors import DebuggerError
from repro.gdm.model import GdmModel
from repro.gdm.reactions import ReactionKind, decay_pulses
from repro.render.animation import FrameSequence


class ReplayPlayer:
    """Replays a recorded trace onto a debug model."""

    def __init__(self, trace: ExecutionTrace, gdm: GdmModel,
                 capture_frames: bool = True) -> None:
        """``capture_frames=False`` replays state without recording
        animation frames — O(1) memory for state-only passes over long
        histories (offline checkpoint builds, end-state assertions)."""
        self.trace = trace
        self.gdm = gdm
        self.position = 0
        self.frames = FrameSequence()
        self._active = False
        self.capture_frames = capture_frames
        self._capture_frames = capture_frames  # also cleared during seek tails

    def start(self) -> None:
        """Reset the model's dynamic state and rewind."""
        self.gdm.reset_styles()
        self.position = 0
        self.frames = FrameSequence()
        self._active = True

    def _apply_event(self, event: TraceEvent) -> None:
        for record in event.reactions:
            element = self.gdm.elements.get(record.element_id)
            if element is None:
                link = self.gdm.links.get(record.element_id)
                if link is not None:
                    self.gdm.pulse(link)
                continue
            if record.kind is ReactionKind.HIGHLIGHT:
                if element.group:
                    for sibling in self.gdm.elements_in_group(element.group):
                        sibling.style.pop("highlighted", None)
                element.style["highlighted"] = "true"
            elif record.kind is ReactionKind.UNHIGHLIGHT:
                element.style.pop("highlighted", None)
            elif record.kind is ReactionKind.ANNOTATE:
                element.style["value"] = record.detail.replace("value=", "")
            elif record.kind is ReactionKind.PULSE:
                self.gdm.pulse(element)
            elif record.kind is ReactionKind.MARK_ERROR:
                element.style["error"] = "true"

    def step(self) -> Optional[TraceEvent]:
        """Replay one event; returns it (None at end of trace)."""
        if not self._active:
            raise DebuggerError("call start() before stepping a replay")
        if self.position >= len(self.trace):
            return None
        event = self.trace[self.position]
        self.position += 1
        decay_pulses(self.gdm)  # same one-step pulse semantics as the engine
        self._apply_event(event)
        if self._capture_frames:
            self.frames.capture(event.command.t_host,
                                f"replay {event.command.kind.name} {event.command.path}",
                                self.gdm.styles_snapshot())
        return event

    def run_to_end(self) -> int:
        """Replay everything remaining; returns events replayed."""
        replayed = 0
        while self.step() is not None:
            replayed += 1
        return replayed

    def seek(self, position: int, use_checkpoints: bool = True) -> int:
        """Rebuild model state as of trace index *position* (exclusive).

        When the trace carries checkpoints, the nearest one at or before
        ``position - 1`` is restored and only the tail is stepped —
        identical end state to linear replay, without the O(position)
        walk. Returns the number of events actually applied (the tail
        length; equals *position* for a linear seek).

        After a seek, :attr:`frames` is empty on every path (frames are
        a record of *stepped* events, and a checkpointed seek steps only
        the tail) — step or :meth:`run_to_end` from here to capture the
        animation onward.
        """
        if not (0 <= position <= len(self.trace)):
            raise DebuggerError(
                f"seek position {position} outside 0..{len(self.trace)}"
            )
        self.start()
        if use_checkpoints and position > 0:
            finder = getattr(self.trace, "nearest_checkpoint", None)
            if finder is not None:
                checkpoint = finder(position - 1)
                # Stores are contiguous and 0-based, so seq == index; the
                # guard keeps an exotic trace from silently mis-seeking.
                if (checkpoint is not None
                        and self.trace[checkpoint.seq].seq == checkpoint.seq):
                    self.gdm.restore_dynamic_state(checkpoint.payload)
                    self.position = checkpoint.seq + 1
        # Both seek paths land in the same observable state: the frame
        # record restarts at the seek point (a checkpointed seek never
        # saw the prefix, so keeping the linear path's prefix frames
        # would make output depend on checkpoint availability). Capture
        # is suppressed while stepping the tail — the snapshots would be
        # discarded anyway, and copying them dominates seek cost.
        applied = 0
        self._capture_frames = False
        try:
            while self.position < position:
                self.step()
                applied += 1
        finally:
            self._capture_frames = self.capture_frames
        self.frames = FrameSequence()
        return applied

    def seek_time(self, t_us: int, use_checkpoints: bool = True) -> int:
        """Rebuild model state as of host time *t_us* (inclusive).

        Seeks past every event with ``t_host <= t_us`` — binary search
        over the host timestamps, then a checkpointed seek. Returns the
        number of events applied.

        Requires non-decreasing ``t_host``, which holds for every trace
        recorded by one engine (events are traced in arrival order). A
        *merged campaign store* interleaves per-job clocks that each
        restart near zero and does not satisfy it — address those per
        job instead (``store.events(seq_range=...)`` within one
        ``job_index``).
        """
        lo, hi = 0, len(self.trace)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.trace[mid].command.t_host <= t_us:
                lo = mid + 1
            else:
                hi = mid
        return self.seek(lo, use_checkpoints=use_checkpoints)

    def highlighted_paths(self) -> List[str]:
        """Source paths of currently highlighted elements (assert helper)."""
        return sorted(
            e.source_path for e in self.gdm.elements.values() if e.highlighted
        )
