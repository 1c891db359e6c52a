"""Fault hunt: find an injected design error with the model debugger.

Injects a wrong-target transition into the traffic light (the kind of slip
a modeler actually makes), attaches the requirement monitors, and shows how
the violation surfaces at the model level — then contrasts with what the
code-level baseline debugger sees for the same fault.

Run:  python examples/fault_hunt.py
"""

from repro import DebugSession, SourceDebugger, sec, traffic_light_system
from repro.experiments.requirements import (
    traffic_light_code_watches,
    traffic_light_monitor_suite,
)
from repro.faults.design import inject_design_fault


def main() -> None:
    mutant, fault = inject_design_fault(traffic_light_system(),
                                        "wrong_target", seed=1)
    print(f"Injected fault: {fault.description}")
    print("(the developer does not know this — they just see odd behaviour)\n")

    # --- Model-level debugging session ------------------------------------
    session = DebugSession(mutant, channel_kind="active")
    session.setup()
    suite = traffic_light_monitor_suite()
    suite.attach(session.engine)
    session.run(sec(4))

    print("Model debugger verdict:")
    if suite.any_violation:
        first = suite.reports()[0]
        print(f"  BUG FOUND at t={first.t_us / 1000:.0f}ms by monitor "
              f"[{first.monitor}]:")
        print(f"    {first.message}")
        print(f"    triggering command: {first.command.kind.name} "
              f"{first.command.path}")
        # Mark the offending element on the debug model.
        element = session.gdm.element_by_path(first.command.path)
        if element is not None:
            element.style["error"] = "true"
    else:
        print("  no violation observed (try a longer run)")

    print("\nDebug model (the faulty element marked !...!):\n")
    print(session.snapshot_ascii())

    # --- Code-level baseline on the same fault -----------------------------
    from repro.codegen import InstrumentationPlan, generate_firmware
    from repro.target.board import Board
    firmware = generate_firmware(mutant, InstrumentationPlan.none())
    board = Board()
    board.load_firmware(firmware)
    debugger = SourceDebugger(board, firmware)
    for symbol, predicate, description in traffic_light_code_watches()[:4]:
        debugger.watch(symbol, predicate, description)
    # Simulate the same 4 seconds of jobs at the code level.
    for _ in range(40):
        debugger.run_task("pedestrian")
        debugger.run_task("lights")
    print("\nCode debugger verdict (4 hardware watchpoints, value ranges):")
    if debugger.hits:
        print(f"  {len(debugger.hits)} watchpoint hits")
    else:
        print("  nothing — every variable stayed in its legal range.")
        print("  The fault is a *sequencing* error, invisible to range "
              "watches:\n  exactly the gap GMDF closes.")


if __name__ == "__main__":
    main()
