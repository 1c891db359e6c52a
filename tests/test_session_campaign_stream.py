"""A debug session and a campaign job see one command stream.

:class:`~repro.engine.session.DebugSession` (the interactive Fig 6
workflow) and the campaign's model-debugger rig
(:func:`~repro.faults.campaign.model_debugger_rig`) attach the same
debugger to the same simulated target. Over the same firmware, with no
fault and no monitor that can stop the run, both must deliver the same
commands at the same target and host instants.
"""

import pytest

from repro.codegen.instrument import InstrumentationPlan
from repro.comdes.examples import (
    cruise_control_system,
    production_cell_system,
    traffic_light_system,
)
from repro.engine.checks import MonitorSuite
from repro.engine.session import DebugSession
from repro.faults.campaign import model_debugger_rig
from repro.util.timeunits import sec

#: system factory and the number of commands 1 s of it delivers
SYSTEMS = {
    "traffic": (traffic_light_system, 58),
    "cruise": (cruise_control_system, 385),
    "cell": (production_cell_system, 146),
}


def _recorder(rows):
    def record(command):
        rows.append((command.kind, command.path, command.value,
                     command.t_target, command.t_host))
    return record


def no_monitors():
    return MonitorSuite([])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_session_and_campaign_rig_deliver_one_stream(name):
    factory, expected = SYSTEMS[name]
    session = DebugSession(factory(), plan=InstrumentationPlan.full()).setup()
    from_session = []
    session.channel.subscribe(_recorder(from_session))
    session.run(sec(1))

    kernel, engine, _ = model_debugger_rig(factory(), session.firmware,
                                           no_monitors)
    from_campaign = []
    engine.channel.subscribe(_recorder(from_campaign))
    try:
        kernel.run(sec(1))
    finally:
        kernel.close()
        engine.close()

    assert len(from_session) == expected
    assert from_campaign == from_session
