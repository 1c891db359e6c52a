"""Production cell: a cross-actor safety interlock, and bug classification.

A feeder, a conveyor and a press cooperate through handshake signals. The
system's safety requirement — *the press must never close while the belt is
running* — spans two actors, which makes it invisible to variable-level
watchpoints but natural for a model-level monitor.

The example then injects a fault, lets the monitors find it, and uses the
differential bug classifier (the paper's "future work" on differentiating
bug types) to tell the user whether to fix the model or the toolchain.

Run:  python examples/production_cell.py
"""

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import production_cell_system
from repro.engine.classify import classify_bug
from repro.engine.session import DebugSession
from repro.experiments.requirements import production_cell_monitor_suite
from repro.faults.design import inject_design_fault
from repro.faults.implementation import inject_implementation_fault
from repro.util.timeunits import sec


def debug_run(system, label=""):
    """Run a monitored debug session; returns (session, suite)."""
    session = DebugSession(system, channel_kind="active")
    session.setup()
    suite = production_cell_monitor_suite()
    suite.attach(session.engine)
    session.run(sec(6))
    verdict = "QUIET" if not suite.any_violation else "VIOLATION"
    print(f"  [{label}] monitors: {verdict}; "
          f"{len(session.trace)} commands traced")
    return session, suite


def main() -> None:
    print("Nominal run — all six requirements (incl. S1 interlock):")
    session, suite = debug_run(production_cell_system(), label="nominal")
    print("\nTiming diagram of one handshake period:\n")
    print(session.timing_diagram().render_ascii(64))

    # --- A design error ----------------------------------------------------
    mutant, fault = inject_design_fault(production_cell_system(),
                                        "wrong_target", seed=2)
    print(f"\nInjected (unknown to the user): {fault.description}")
    _, suite = debug_run(mutant, label="faulty model")
    if suite.any_violation:
        report = suite.reports()[0]
        print(f"  first violation: [{report.monitor}] {report.message}")
        firmware = generate_firmware(mutant, InstrumentationPlan.none())
        verdict = classify_bug(mutant, firmware)
        print(f"  classifier: {verdict.verdict.value.upper()} — {verdict.detail}")

    # --- An implementation error -------------------------------------------
    base = production_cell_system()
    clean_firmware = generate_firmware(base, InstrumentationPlan.none())
    bad_firmware, fault = inject_implementation_fault(clean_firmware,
                                                      "inverted_branch", 1)
    print(f"\nInjected (unknown to the user): {fault.description}")
    verdict = classify_bug(base, bad_firmware)
    print(f"  classifier: {verdict.verdict.value.upper()} — {verdict.detail}")
    if verdict.divergence:
        d = verdict.divergence
        print(f"  first divergence: round {d.round_index}, signal "
              f"'{d.signal}': model says {d.model_value}, target produced "
              f"{d.target_value}")
    print("\nModel is innocent — regenerate/fix the code, don't redesign.")


if __name__ == "__main__":
    main()
