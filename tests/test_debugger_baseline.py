"""Tests for the code-level baseline debugger."""

import pytest

from repro.codegen import InstrumentationPlan, generate_firmware
from repro.comdes.examples import traffic_light_system
from repro.debugger.gdb import HW_WATCHPOINT_SLOTS, SourceDebugger
from repro.errors import DebuggerError
from repro.target.board import Board


def make_debugger():
    system = traffic_light_system()
    firmware = generate_firmware(system, InstrumentationPlan.none())
    board = Board()
    board.load_firmware(firmware)
    return SourceDebugger(board, firmware), board, firmware


class TestWatchpoints:
    def test_change_watch_fires_on_write(self):
        debugger, board, _ = make_debugger()
        debugger.watch("lights.lamp.$t")
        # Run a few lamp jobs; the phase timer increments on dwell steps.
        for _ in range(3):
            debugger.run_task("lights")
        assert debugger.hits
        assert debugger.hits[0].watchpoint.symbol == "lights.lamp.$t"

    def test_conditional_watch(self):
        debugger, _, _ = make_debugger()
        watch = debugger.watch("lights.lamp.$t", predicate=lambda v: v >= 2)
        for _ in range(5):
            debugger.run_task("lights")
        assert watch.hits >= 1
        assert all(h.value >= 2 for h in debugger.hits)

    def test_hardware_slots_limited(self):
        debugger, _, firmware = make_debugger()
        symbols = [s.name for s in firmware.symbols.symbols()][:HW_WATCHPOINT_SLOTS + 1]
        for name in symbols[:HW_WATCHPOINT_SLOTS]:
            debugger.watch(name)
        with pytest.raises(DebuggerError):
            debugger.watch(symbols[HW_WATCHPOINT_SLOTS])

    def test_on_hit_callback(self):
        debugger, _, _ = make_debugger()
        seen = []
        debugger.watch("lights.lamp.$t")
        debugger.on_hit = seen.append
        debugger.run_task("lights")
        debugger.run_task("lights")
        assert seen
