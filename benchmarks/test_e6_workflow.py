"""E6 (paper Fig 6): the prototype's five-step execution flow.

Runs the complete workflow — inputs, selection, abstraction, command setup,
GDM creation + connection — then the runtime interaction, and saves the
numbered log as the Fig 6 artifact and step 4's command-setting dialog
(``e6_command_setup.txt``). Also exercises the user-control features
the paper lists: model-level breakpoint, stepping, resume.
"""

from repro.comdes.examples import cruise_control_system
from repro.engine.breakpoints import StateEntryBreakpoint
from repro.engine.engine import EngineState
from repro.engine.session import DebugSession
from repro.experiments.figures import fig6_execution_flow
from repro.experiments.harness import ResultTable, save_artifact
from repro.util.timeunits import ms


def test_e6_full_workflow(benchmark):
    """The five steps + breakpoint/step/resume on the heterogeneous model."""
    session = DebugSession(cruise_control_system(), channel_kind="active")
    session.setup()
    assert [line[:3] for line in session.workflow_log] == [
        "[1]", "[2]", "[3]", "[4]", "[5]",
    ]
    # step 4 ran through the command-setting dialog and closed it
    assert session.command_dialog.finished

    # Break when the cruise controller engages.
    session.engine.breakpoints.add(
        StateEntryBreakpoint("state:controller.mode_logic.CRUISE"))
    session.run(ms(20) * 100)
    assert session.engine.state is EngineState.PAUSED
    paused_at = session.sim.now

    # Step one model event, then resume free-running.
    session.stepper.step(1)
    session.run_for(ms(20) * 50)
    assert session.engine.state is EngineState.PAUSED
    session.engine.breakpoints.all()[0].enabled = False
    session.stepper.resume()
    session.run_for(ms(20) * 100)
    assert session.engine.state is EngineState.WAITING

    table = ResultTable("E6 — prototype execution flow (cruise control)",
                        ["step", "record"])
    for line in session.workflow_log:
        number, _, message = line.partition("] ")
        table.add_row(number.strip("["), message[:70])
    table.add_row("run", f"breakpoint hit at t={paused_at}us; "
                         f"{len(session.trace)} commands traced")
    table.print()
    save_artifact("e6_workflow.txt", table.render())
    save_artifact("e6_command_setup.txt",
                  session.command_dialog.render_dialog())
    save_artifact("fig6_execution_flow.txt", fig6_execution_flow())

    def full_workflow():
        s = DebugSession(cruise_control_system(), channel_kind="active")
        s.setup().run(ms(20) * 20)
        return s

    result = benchmark(full_workflow)
    assert len(result.trace) > 0
