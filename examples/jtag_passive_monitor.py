"""Passive debugging: watch clean production code through JTAG.

The paper's key argument for the passive interface: "when using JTAG, a
command interface is established without any code modifications". This
example debugs a firmware image with *zero* EMIT instructions by scanning
the state variable and output words through a faithful IEEE 1149.1 TAP
controller, and proves the target spent exactly as many cycles as an
undebugged run.

Run:  python examples/jtag_passive_monitor.py
"""

from repro.codegen.instrument import InstrumentationPlan
from repro.codegen.pipeline import generate_firmware
from repro.comdes.examples import traffic_light_system
from repro.comm.protocol import CommandKind
from repro.engine.session import DebugSession
from repro.rtos.kernel import DtmKernel
from repro.util.timeunits import ms


def main() -> None:
    session = DebugSession(traffic_light_system(), channel_kind="passive",
                           poll_period_us=500)
    session.setup()

    emits = sum(1 for i in session.firmware.code if i.op == "EMIT")
    print(f"Firmware: {session.firmware.instruction_count()} instructions, "
          f"{emits} EMIT instructions (production-clean)")
    print("Monitored variables (the paper's 'critical variables'):")
    for node, probe in session.probes.items():
        print(f"  node {node}: probe at TCK={probe.tck_hz / 1e6:.0f}MHz "
              f"over USB")

    session.run(ms(100) * 30)

    states = session.trace.events(kind=CommandKind.STATE_ENTER)
    print(f"\nObserved {len(states)} state changes purely by memory scan:")
    for event in states[:6]:
        print(f"  t={event.command.t_host / 1000:7.1f}ms  "
              f"{event.command.path}")
    print("  ...")

    # The zero-overhead proof: an identical run without any debugger.
    reference = traffic_light_system()
    firmware = generate_firmware(reference, InstrumentationPlan.none())
    kernel = DtmKernel(reference, firmware)
    kernel.run(ms(100) * 30)
    debugged_cycles = session.kernel.board_of("node0").cpu.cycles
    clean_cycles = kernel.board_of("node0").cpu.cycles
    probe = session.probes["node0"]
    print(f"\nTarget cycles with passive debugger : {debugged_cycles}")
    print(f"Target cycles without any debugger  : {clean_cycles}")
    print(f"Extra target cost                   : "
          f"{debugged_cycles - clean_cycles} cycles")
    print(f"Host-side cost                      : {probe.operations} TAP "
          f"operations, {probe.tap.tck_count} TCK cycles")

    print("\nModel view after the run:\n")
    print(session.snapshot_ascii())


if __name__ == "__main__":
    main()
