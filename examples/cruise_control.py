"""Cruise control: the paper's heterogeneous workload, debugged live.

The system mixes every COMDES construct the paper names: a state-machine
function block (mode logic), a modal block whose CRUISE mode contains a PI
dataflow network, and a plant actor on a second node — "a state instance
invokes a particular instance of a dataflow model".

This example sets a model-level breakpoint on the CRUISE state, steps
through model events, then lets the system run and checks the requirement
monitors stayed quiet.

Run:  python examples/cruise_control.py
"""

from repro.comdes.examples import cruise_control_system
from repro.engine.breakpoints import StateEntryBreakpoint
from repro.engine.session import DebugSession
from repro.experiments.requirements import cruise_monitor_suite
from repro.util.timeunits import ms


def main() -> None:
    system = cruise_control_system()
    print(f"System: {system!r}")
    for actor in system.actors.values():
        print(f"  {actor!r}")

    session = DebugSession(system, channel_kind="active")
    session.setup()

    # Requirements attached as model-level monitors.
    suite = cruise_monitor_suite()
    suite.attach(session.engine)

    # Pause the world the instant the controller engages.
    session.engine.breakpoints.add(
        StateEntryBreakpoint("state:controller.mode_logic.CRUISE"))

    session.run(ms(20) * 200)
    print(f"\nBreakpoint: engine is {session.engine.state.name} at "
          f"t={session.sim.now / 1000:.0f}ms "
          f"(target stalled: {session.kernel.board_of('node0').stalled})")
    print("Debug model at the pause:")
    print(session.snapshot_ascii())

    # Step three model events, watching the animation move.
    session.engine.breakpoints.all()[0].enabled = False
    for step in range(3):
        session.stepper.step(1)
        session.run_for(ms(20) * 30)
        last = session.trace[len(session.trace) - 1]
        print(f"step {step + 1}: {last.command.kind.name} "
              f"{last.command.path} = {last.command.value}")

    # Free-run to the end of the scenario.
    session.stepper.resume()
    session.run_for(ms(20) * 120)

    print(f"\nTrace: {len(session.trace)} commands over "
          f"{session.trace.duration_us() / 1000:.0f}ms")
    print("Signal values seen by node0:",
          {s: session.kernel.signal_value('node0', s)
           for s in ("mode", "speed", "throttle")})
    print("Requirement monitors:",
          "all quiet" if not suite.any_violation
          else [str(r) for r in suite.reports()])
    print("\nTiming diagram:\n")
    print(session.timing_diagram().render_ascii(68))


if __name__ == "__main__":
    main()
