"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, fired.append, "late")
        sim.schedule(10, fired.append, "early")
        sim.schedule(20, fired.append, "middle")
        sim.run_until(100)
        assert fired == ["early", "middle", "late"]

    def test_simultaneous_events_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, "first")
        sim.schedule(5, fired.append, "second")
        sim.run_until(100)
        assert fired == ["first", "second"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run_until(100)
        assert seen == [42]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run_until(100)
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, fired.append, "x")
        handle.cancel()
        sim.run_until(100)
        assert fired == []

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 30:
                sim.schedule(10, chain)

        sim.schedule(10, chain)
        sim.run_until(100)
        assert fired == [10, 20, 30]

    def test_clear_drops_pending_events_and_keeps_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "in")
        sim.every(5, fired.append, "tick")
        sim.run_until(12)
        sim.clear()
        assert sim.pending_events == 0
        assert (sim.now, sim.executed_events) == (12, 3)
        sim.run_until(100)
        assert fired == ["tick", "in", "tick"]


class TestRunUntil:
    def test_run_until_respects_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "in")
        sim.schedule(100, fired.append, "out")
        executed = sim.run_until(50)
        assert executed == 1
        assert fired == ["in"]
        assert sim.now == 50

    def test_run_until_cannot_go_backwards(self):
        sim = Simulator()
        sim.run_until(100)
        with pytest.raises(ValueError):
            sim.run_until(50)

    def test_boundary_event_included(self):
        sim = Simulator()
        fired = []
        sim.schedule(50, fired.append, "edge")
        sim.run_until(50)
        assert fired == ["edge"]


class TestPeriodic:
    def test_every_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        sim.every(10, lambda: ticks.append(sim.now))
        sim.run_until(45)
        assert ticks == [10, 20, 30, 40]

    def test_every_with_custom_start(self):
        sim = Simulator()
        ticks = []
        sim.every(10, lambda: ticks.append(sim.now), start=5)
        sim.run_until(30)
        assert ticks == [5, 15, 25]

    def test_every_rejects_nonpositive_period(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.every(0, lambda: None)
