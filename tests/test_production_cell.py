"""Tests for the production-cell workload and its safety interlock."""

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware, run_firmware_lockstep
from repro.comdes.examples import (
    conveyor_machine, press_machine, production_cell_system,
)
from repro.comdes.validate import validate_system
from repro.comm.protocol import Command, CommandKind
from repro.engine.checks import CrossInvariantMonitor
from repro.engine.session import DebugSession
from repro.experiments.requirements import (
    production_cell_code_watches, production_cell_monitor_suite,
)
from repro.faults.design import inject_design_fault
from repro.util.timeunits import sec


class TestModelDynamics:
    def test_system_validates(self):
        validate_system(production_cell_system())

    def test_handshake_cycle(self):
        history = production_cell_system().lockstep_run(40)
        belts = [r["belt"] for r in history]
        dones = [r["press_done"] for r in history]
        assert 1 in belts and 0 in belts      # belt starts and stops
        assert 1 in dones                     # press completes

    def test_interlock_holds_in_reference_semantics(self):
        # Belt and press ram are never active simultaneously.
        system = production_cell_system()
        history = system.lockstep_run(60)
        press_block = system.actor("press").network.block("ram_ctl")
        # Track press state through the interpreter directly.
        machine = press_block.machine
        state = machine.initial
        env = machine.initial_env()
        for row in history:
            state, env = machine.step(state, env,
                                      {"at_press": row["at_press"]})
            if state == "PRESSING":
                assert row["belt"] == 0

    def test_conveyor_machine_travel_time(self):
        machine = conveyor_machine(travel_steps=2)
        trace = machine.run([
            {"item_present": 1, "press_done": 0},
            {"item_present": 0, "press_done": 0},
            {"item_present": 0, "press_done": 0},
            {"item_present": 0, "press_done": 0},
        ])
        states = [s for s, _ in trace]
        assert states == ["MOVING", "MOVING", "MOVING", "DELIVER"]

    def test_press_machine_handshake_reset(self):
        machine = press_machine(press_steps=1)
        inputs = ([{"at_press": 1}] * 4) + [{"at_press": 0}] * 2
        trace = machine.run(inputs)
        dones = [env["press_done"] for _, env in trace]
        # PRESSING x2, OPENING, then done=1 in OPEN; reset once item leaves.
        assert dones == [0, 0, 0, 1, 0, 0]
        assert [s for s, _ in trace][-3:] == ["OPEN", "OPEN", "OPEN"]

    def test_firmware_matches_interpreter(self):
        system = production_cell_system()
        firmware = generate_firmware(system, InstrumentationPlan.full())
        assert (run_firmware_lockstep(system, firmware, 60)
                == system.lockstep_run(60))


class TestInterlockMonitoring:
    def test_nominal_run_is_quiet(self):
        session = DebugSession(production_cell_system(),
                               channel_kind="active")
        session.setup()
        suite = production_cell_monitor_suite()
        suite.attach(session.engine)
        session.run(sec(6))
        assert not suite.any_violation, [str(r) for r in suite.reports()]
        # The press actually cycled (monitors had something to watch).
        presses = session.trace.events(path_prefix="state:press.ram_ctl")
        assert len(presses) >= 6

    def test_interlock_fires_on_forced_belt_during_press(self):
        monitor = CrossInvariantMonitor(
            "S1", "state:press.ram_ctl.PRESSING", "state:press.ram_ctl.",
            "signal:belt", lambda belt: belt == 0,
        )
        # Simulate a command stream where the belt is on during PRESSING.
        monitor.inspect(Command(CommandKind.SIG_UPDATE, "signal:belt", 1,
                                t_target=10, t_host=10))
        report = monitor.inspect(Command(
            CommandKind.STATE_ENTER, "state:press.ram_ctl.PRESSING", 1,
            t_target=20, t_host=20))
        assert report is not None and "invariant broken" in report.message

    def test_interlock_fires_on_belt_restart_mid_press(self):
        monitor = CrossInvariantMonitor(
            "S1", "state:press.ram_ctl.PRESSING", "state:press.ram_ctl.",
            "signal:belt", lambda belt: belt == 0,
        )
        monitor.inspect(Command(CommandKind.STATE_ENTER,
                                "state:press.ram_ctl.PRESSING", 1,
                                t_target=10, t_host=10))
        report = monitor.inspect(Command(CommandKind.SIG_UPDATE,
                                         "signal:belt", 1,
                                         t_target=20, t_host=20))
        assert report is not None

    def test_interlock_quiet_when_state_left(self):
        monitor = CrossInvariantMonitor(
            "S1", "state:press.ram_ctl.PRESSING", "state:press.ram_ctl.",
            "signal:belt", lambda belt: belt == 0,
        )
        monitor.inspect(Command(CommandKind.STATE_ENTER,
                                "state:press.ram_ctl.PRESSING", 1,
                                t_target=10, t_host=10))
        monitor.inspect(Command(CommandKind.STATE_ENTER,
                                "state:press.ram_ctl.OPENING", 2,
                                t_target=20, t_host=20))
        report = monitor.inspect(Command(CommandKind.SIG_UPDATE,
                                         "signal:belt", 1,
                                         t_target=30, t_host=30))
        assert report is None


class TestFaultedCell:
    def test_design_fault_detected_by_suite(self):
        # Retargeting a conveyor transition breaks the legal order or the
        # handshake; the suite must notice within the scenario.
        detected = 0
        for seed in (1, 2, 3):
            mutant, fault = inject_design_fault(production_cell_system(),
                                                "wrong_target", seed)
            if mutant is None:
                continue
            session = DebugSession(mutant, channel_kind="active")
            session.setup()
            suite = production_cell_monitor_suite()
            suite.attach(session.engine)
            session.run(sec(6))
            if suite.any_violation:
                detected += 1
        assert detected >= 2

    def test_code_watches_blind_to_sequencing(self):
        # The same faults keep every watched value in range.
        from repro.faults.campaign import _run_code_debugger
        mutant, _ = inject_design_fault(production_cell_system(),
                                        "wrong_target", 1)
        firmware = generate_firmware(mutant, InstrumentationPlan.none())
        detected, _, _ = _run_code_debugger(
            mutant, firmware, production_cell_code_watches(), sec(6))
        assert not detected
