"""Trace recording, replay, and the timing diagram.

"In real-time embedded applications, model-level animation might occur in
milliseconds. Therefore, GDM animation will trace model-level behavior and
always make a record of the execution trace. The user can then monitor the
application's behavior via a replay function associated with a timing
diagram."

This example records a live session, serializes the trace (as the prototype
would save a trace file), restores it, replays at "human speed" with seek,
and renders the timing diagram.

Run:  python examples/replay_timing_diagram.py
"""

import json

from repro.comdes.examples import traffic_light_system
from repro.engine.replay import ReplayPlayer
from repro.engine.session import DebugSession
from repro.engine.timing_diagram import TimingDiagram
from repro.engine.trace import ExecutionTrace
from repro.util.timeunits import ms


def main() -> None:
    # Record a live debug session.
    session = DebugSession(traffic_light_system(), channel_kind="active")
    session.setup().run(ms(100) * 30)
    print(f"Recorded {len(session.trace)} events over "
          f"{session.trace.duration_us() / 1000:.0f}ms simulated time")

    # Serialize the trace like a saved trace file, then restore it.
    blob = json.dumps(session.trace.to_dicts())
    restored = ExecutionTrace.from_dicts(json.loads(blob))
    print(f"Trace file: {len(blob)} bytes JSON, restored "
          f"{len(restored)} events")

    # Replay onto the same debug model, pausing at interesting moments.
    player = ReplayPlayer(restored, session.gdm)
    player.start()
    print("\nReplaying (one line per state change):")
    while True:
        event = player.step()
        if event is None:
            break
        if event.command.kind.name == "STATE_ENTER":
            frame = player.frames[len(player.frames) - 1]
            print(f"  t={event.command.t_host / 1000:7.1f}ms  "
                  f"highlight -> {', '.join(frame.highlighted())}")

    # Seek: rebuild the display as of the 5th event.
    player.seek(5)
    print(f"\nAfter seek(5) the model shows: {player.highlighted_paths()}")

    # The timing diagram associated with the replay.
    diagram = TimingDiagram(restored)
    print("\nTiming diagram:\n")
    print(diagram.render_ascii(64))

    with open("trace_replay.svg", "w") as handle:
        handle.write(diagram.render_svg())
    print("\nSVG timing diagram written to trace_replay.svg")


if __name__ == "__main__":
    main()
