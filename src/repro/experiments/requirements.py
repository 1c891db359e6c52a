"""Requirement suites for the canned example systems.

These encode *requirements* (what the system must do), independent of any
particular model — exactly what a developer would check a design model
against with GMDF. The code-watch lists are the closest equivalents
expressible at the code level (value ranges on variables).
"""

from __future__ import annotations

from typing import List

from repro.comm.protocol import CommandKind
from repro.engine.checks import (
    CrossInvariantMonitor,
    DwellMonitor,
    HeartbeatMonitor,
    InitialStateMonitor,
    MonitorSuite,
    RangeMonitor,
    ResponseMonitor,
    SequenceMonitor,
    StateValueMonitor,
)
from repro.engine.rig import CodeWatchSpec
from repro.util.timeunits import ms


def traffic_light_monitor_suite() -> MonitorSuite:
    """Requirements of the traffic light (period 100ms, R/G/Y = 4/4/2 steps).

    R1: the lamp cycles strictly RED -> GREEN -> YELLOW -> RED.
    R2: the lamp code stays within {0, 1, 2}.
    R3: every state is left within 1s (no lamp freezes).
    R4: the RED phase lasts 350..450ms (safety-critical clearance time).
    R5: each state drives the corresponding lamp code (RED=0, GREEN=1,
        YELLOW=2) — the state/output correspondence only a model-level
        debugger can express.
    """
    prefix = "state:lights.lamp."
    sequence = SequenceMonitor(
        "R1-order", prefix,
        allowed={
            f"{prefix}RED": {f"{prefix}GREEN"},
            f"{prefix}GREEN": {f"{prefix}YELLOW"},
            f"{prefix}YELLOW": {f"{prefix}RED"},
        },
    )
    lamp_range = RangeMonitor("R2-range", "signal:light", 0, 2)
    liveness = ResponseMonitor(
        "R3-liveness",
        trigger=lambda c: c.kind is CommandKind.STATE_ENTER
        and c.path.startswith(prefix),
        response=lambda c: c.kind is CommandKind.STATE_ENTER
        and c.path.startswith(prefix),
        within_us=ms(1000),
    )
    dwells = [
        # Phase durations: RED 4 steps, GREEN 1..4 (button shortens),
        # YELLOW 2 steps, at 100ms/step. Bounds leave one step of slack.
        DwellMonitor("R4-red-dwell", f"{prefix}RED", prefix,
                     lo_us=ms(350), hi_us=ms(450)),
        DwellMonitor("R4-green-dwell", f"{prefix}GREEN", prefix,
                     lo_us=ms(50), hi_us=ms(450)),
        DwellMonitor("R4-yellow-dwell", f"{prefix}YELLOW", prefix,
                     lo_us=ms(150), hi_us=ms(250)),
    ]
    correspondence = [
        StateValueMonitor(f"R5-{state}", f"{prefix}{state}", "signal:light",
                          expected, within_us=ms(250))
        for state, expected in (("RED", 0), ("GREEN", 1), ("YELLOW", 2))
    ]
    extra = [
        # R6: the lamp never freezes (covers dead machines that emit nothing).
        HeartbeatMonitor(
            "R6-lamp-heartbeat",
            lambda c: c.kind is CommandKind.STATE_ENTER
            and c.path.startswith(prefix),
            every_us=ms(1500),
        ),
        # R7: the pedestrian request keeps arriving (stimulus path alive).
        HeartbeatMonitor(
            "R7-btn-heartbeat",
            lambda c: c.kind is CommandKind.SIG_UPDATE
            and c.path == "signal:btn",
            every_us=ms(1600),
        ),
        # R0: from power-on the first phase change enters GREEN (boot in RED).
        InitialStateMonitor("R0-boot", prefix, f"{prefix}GREEN"),
    ]
    return MonitorSuite([sequence, lamp_range, liveness] + dwells
                        + correspondence + extra)


def traffic_light_code_watches() -> List[CodeWatchSpec]:
    """What a code debugger can watch: raw variable ranges."""
    return [
        ("lights.out.light", lambda v: not (0 <= v <= 2),
         "lamp code outside 0..2"),
        ("lights.lamp.$_state", lambda v: not (0 <= v <= 2),
         "state index outside 0..2"),
        ("lights.lamp.$t", lambda v: v > 50, "phase timer ran away"),
    ]


def cruise_monitor_suite() -> MonitorSuite:
    """Requirements of the cruise control.

    R1: mode logic only toggles between OFF and CRUISE.
    R2: throttle stays within its actuator range [0, 1000].
    R3: speed stays within the physically plausible envelope [0, 4000].
    """
    prefix = "state:controller.mode_logic."
    sequence = SequenceMonitor(
        "R1-mode-order", prefix,
        allowed={
            f"{prefix}OFF": {f"{prefix}CRUISE"},
            f"{prefix}CRUISE": {f"{prefix}OFF"},
        },
    )
    throttle = RangeMonitor("R2-throttle", "signal:throttle", 0, 1000)
    speed = RangeMonitor("R3-speed", "signal:speed", 0, 4000)
    return MonitorSuite([sequence, throttle, speed])


def cruise_code_watches() -> List[CodeWatchSpec]:
    """Code-level equivalents for the cruise control."""
    return [
        ("controller.out.throttle", lambda v: not (0 <= v <= 1000),
         "throttle outside actuator range"),
        ("plant.out.speed", lambda v: not (0 <= v <= 4000),
         "speed outside plausible envelope"),
        ("controller.mode_logic.$_state", lambda v: not (0 <= v <= 1),
         "mode index outside 0..1"),
    ]


def production_cell_monitor_suite() -> MonitorSuite:
    """Requirements of the production cell (feeder -> conveyor -> press).

    S1: SAFETY — the press never closes while the belt is running (the
        cross-actor invariant only a model-level debugger can express).
    S2/S3: conveyor and press cycle through their legal state orders.
    S4: actuator signals are boolean.
    S5: the press keeps cycling (no starved handshake).
    S6: a delivered item is pressed within 400ms.
    """
    conveyor = "state:conveyor.belt_ctl."
    press = "state:press.ram_ctl."
    interlock = CrossInvariantMonitor(
        "S1-interlock", f"{press}PRESSING", press,
        "signal:belt", lambda belt: belt == 0,
    )
    conveyor_order = SequenceMonitor(
        "S2-conveyor-order", conveyor,
        allowed={
            f"{conveyor}IDLE": {f"{conveyor}MOVING"},
            f"{conveyor}MOVING": {f"{conveyor}DELIVER"},
            f"{conveyor}DELIVER": {f"{conveyor}IDLE"},
        },
    )
    press_order = SequenceMonitor(
        "S3-press-order", press,
        allowed={
            f"{press}OPEN": {f"{press}PRESSING"},
            f"{press}PRESSING": {f"{press}OPENING"},
            f"{press}OPENING": {f"{press}OPEN"},
        },
    )
    ranges = [
        RangeMonitor("S4-belt", "signal:belt", 0, 1),
        RangeMonitor("S4-done", "signal:press_done", 0, 1),
    ]
    liveness = HeartbeatMonitor(
        "S5-press-heartbeat",
        lambda c: c.kind is CommandKind.STATE_ENTER
        and c.path.startswith(press),
        every_us=ms(2000),
    )
    response = ResponseMonitor(
        "S6-press-response",
        trigger=lambda c: c.kind is CommandKind.SIG_UPDATE
        and c.path == "signal:at_press" and c.value == 1,
        response=lambda c: c.kind is CommandKind.STATE_ENTER
        and c.path == f"{press}PRESSING",
        within_us=ms(400),
    )
    return MonitorSuite([interlock, conveyor_order, press_order,
                         liveness, response] + ranges)


def production_cell_code_watches() -> List[CodeWatchSpec]:
    """Code-level equivalents: value ranges only (no interlock expressible)."""
    return [
        ("conveyor.out.belt", lambda v: not (0 <= v <= 1),
         "belt command outside 0/1"),
        ("press.out.press_done", lambda v: not (0 <= v <= 1),
         "handshake outside 0/1"),
        ("conveyor.belt_ctl.$_state", lambda v: not (0 <= v <= 2),
         "conveyor state index invalid"),
        ("press.ram_ctl.$_state", lambda v: not (0 <= v <= 2),
         "press state index invalid"),
    ]
