"""Quickstart: debug a traffic-light model at the model level.

Runs the paper's whole loop in ~30 lines: model -> generated code on a
virtual board -> GDM via abstraction -> live animation over the active
command interface -> timing diagram.

Run:  python examples/quickstart.py
"""

from repro.comdes.examples import traffic_light_system
from repro.engine.session import DebugSession
from repro.util.timeunits import ms


def main() -> None:
    # One call per Fig 6 step (setup() chains steps 1-5 with defaults).
    session = DebugSession(traffic_light_system(), channel_kind="active")
    session.setup()
    print("Workflow (paper Fig 6):")
    print(session.workflow_text())

    # Let the embedded application run for 2 simulated seconds.
    session.run(ms(100) * 20)

    print(f"\nTraced {len(session.trace)} model-level commands; "
          f"engine is {session.engine.state.name}.")
    print("\nDebug model with the active state highlighted (*...*):\n")
    print(session.snapshot_ascii())

    print("\nTiming diagram of the recorded trace:\n")
    print(session.timing_diagram().render_ascii(64))


if __name__ == "__main__":
    main()
