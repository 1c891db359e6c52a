"""Bit-identity of the fast event and command paths against references.

``tests/event_reference.py`` keeps the object-heap simulator, the
per-port release path and the scanning command dispatch. Each property
here runs the same work through both and compares everything observable:

* scheduler programs — the firing sequence ``(now, callback, args)``,
  ``executed_events`` and ``pending_events`` after every call;
* command streams on the traffic, cruise and cell debug models, with
  binding edits and checkpoint restores mid-stream and replay afterwards
  — the reaction records and ``dynamic_state()`` after every command;
* whole systems — job records, bus views, the engine trace and the
  traced campaign store bytes.
"""

from __future__ import annotations

import copy
import filecmp
import os

import pytest
from hypothesis import given, settings, strategies as st

from event_reference import (HeapSimulator, make_reference_gdm,
                             reference_decay_pulses, reference_event_paths)
from repro.codegen import InstrumentationPlan, generate_firmware
from repro.comdes.examples import (blinker_system, cruise_control_system,
                                   production_cell_system,
                                   traffic_light_system)
from repro.comdes.reflect import system_to_model
from repro.comm.channel import DebugChannel
from repro.comm.protocol import Command, CommandKind
from repro.engine.checks import MonitorSuite
from repro.engine.engine import DebuggerEngine
from repro.engine.replay import ReplayPlayer
from repro.errors import DebuggerError
from repro.experiments.requirements import (cruise_code_watches,
                                            cruise_monitor_suite,
                                            production_cell_code_watches,
                                            production_cell_monitor_suite,
                                            traffic_light_code_watches,
                                            traffic_light_monitor_suite)
from repro.faults.campaign import (_run_code_debugger, model_debugger_rig,
                                   run_campaign)
from repro.fleet import SerialRunner
from repro.gdm.abstraction import AbstractionEngine
from repro.gdm.command_setup import CommandSetupDialog
from repro.gdm.mapping import default_comdes_table
from repro.gdm.model import CommandBinding
from repro.gdm.reactions import ReactionKind, decay_pulses
from repro.sim.kernel import Simulator
from repro.tracedb import campaign_store_root
from repro.util.timeunits import sec

# -- scheduler programs --------------------------------------------------------

LABELS = 5

_nested = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 4),
              st.integers(0, LABELS - 1)),
    st.tuples(st.just("schedule_at"), st.integers(0, 4),
              st.integers(0, LABELS - 1)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)
_top = st.one_of(
    _nested,
    st.tuples(st.just("every"), st.integers(1, 4),
              st.one_of(st.none(), st.integers(0, 6)),
              st.integers(0, LABELS - 1)),
    st.tuples(st.just("run_until"), st.integers(0, 25)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.integers(1, 40)),
)
_reactions = st.lists(st.lists(_nested, max_size=3),
                      min_size=LABELS, max_size=LABELS)


def run_program(sim_cls, reactions, program):
    """Execute *program* on a fresh *sim_cls*; return the full log."""
    sim = sim_cls()
    log = []
    handles = []
    budget = [120]  # nested scheduling stops here, so every run ends

    def apply(op):
        kind = op[0]
        if kind == "schedule":
            handles.append(sim.schedule(op[1], fire, op[2], len(handles)))
        elif kind == "schedule_at":
            handles.append(sim.schedule_at(sim.now + op[1], fire, op[2],
                                           len(handles)))
        elif kind == "every":
            start = None if op[2] is None else sim.now + op[2]
            handles.append(sim.every(op[1], fire, op[3], len(handles),
                                     start=start))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()

    def fire(label, origin):
        log.append(("fire", sim.now, label, origin, sim.executed_events))
        for op in reactions[label]:
            if budget[0] <= 0:
                break
            budget[0] -= 1
            apply(op)

    for op in program:
        kind = op[0]
        if kind == "run_until":
            log.append(("run_until", sim.run_until(sim.now + op[1])))
        elif kind == "step":
            log.append(("step", sim.step()))
        elif kind == "run":
            try:
                log.append(("run", sim.run(max_events=op[1])))
            except RuntimeError as exc:
                log.append(("run", str(exc)))
        else:
            apply(op)
        log.append(("state", sim.now, sim.executed_events,
                    sim.pending_events))
    return log


class TestSchedulerPrograms:
    @settings(max_examples=300, deadline=None)
    @given(_reactions, st.lists(_top, max_size=30))
    def test_same_firing_sequence_as_object_heap(self, reactions, program):
        assert (run_program(Simulator, reactions, program)
                == run_program(HeapSimulator, reactions, program))

    def test_periodic_ties_keep_rearm_order(self):
        # each tick schedules a one-shot for the instant of its own next
        # tick: the re-armed tick takes its seq after the callback's own
        # schedules, so the one-shot fires first
        reactions = [[("schedule", 2, 1)], [], [("schedule_at", 0, 1)],
                     [], []]
        program = [("every", 2, None, 0), ("every", 2, 0, 2),
                   ("schedule_at", 2, 3), ("run_until", 20),
                   ("cancel", 0), ("run_until", 10)]
        log = run_program(Simulator, reactions, program)
        assert log == run_program(HeapSimulator, reactions, program)
        assert sum(1 for entry in log if entry[0] == "fire") > 20

    def test_cancelled_periodic_handle_stops_only_before_first_firing(self):
        for cancel_after in (0, 3):
            runs = []
            for sim_cls in (Simulator, HeapSimulator):
                sim = sim_cls()
                fired = []
                handle = sim.every(2, fired.append, "tick")
                sim.run_until(cancel_after)
                handle.cancel()
                sim.run_until(11)
                runs.append((fired, sim.executed_events, sim.pending_events))
            assert runs[0] == runs[1]


# -- command streams -------------------------------------------------------------

class _NullChannel(DebugChannel):
    def halt_target(self):
        pass

    def resume_target(self):
        pass


SYSTEMS = {
    "traffic": traffic_light_system,
    "cruise": cruise_control_system,
    "cell": production_cell_system,
}
_GDMS = {}


def built_gdm(name):
    """A fresh copy of *name*'s abstracted debug model."""
    if name not in _GDMS:
        model = system_to_model(SYSTEMS[name]())
        _GDMS[name] = AbstractionEngine(
            default_comdes_table(model.metamodel)).build(model)
    return copy.deepcopy(_GDMS[name])


def model_paths(gdm):
    paths = sorted({e.source_path for e in gdm.elements.values()}
                   | {l.source_path for l in gdm.links.values()})
    return paths + ["state:ghost.m.S", "signal:nowhere"]


KINDS = list(CommandKind)
REACTIONS = [kind.name for kind in ReactionKind]

_stream_op = st.one_of(
    st.tuples(st.just("cmd"), st.integers(0, len(KINDS) - 1),
              st.integers(0, 10_000), st.integers(-5, 5)),
    st.tuples(st.just("cmd"), st.integers(0, len(KINDS) - 1),
              st.integers(0, 10_000), st.integers(-5, 5)),
    st.tuples(st.just("add"), st.integers(0, len(KINDS) - 1),
              st.integers(0, 10_000), st.integers(0, 12),
              st.sampled_from(REACTIONS)),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restore"), st.integers(0, 10_000)),
    st.tuples(st.just("decay")),
)


def binding_rows(gdm):
    return [(b.command_kind, b.path_selector, b.reaction)
            for b in gdm.bindings]


def engine_for(gdm):
    return DebuggerEngine(gdm, channel=_NullChannel(), capture_frames=False)


class TestCommandStreams:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(SYSTEMS)),
           st.lists(_stream_op, min_size=1, max_size=80))
    def test_same_reactions_and_state_as_scanning_dispatch(self, name, ops):
        fast_gdm = built_gdm(name)
        ref_gdm = make_reference_gdm(built_gdm(name))
        fast, ref = engine_for(fast_gdm), engine_for(ref_gdm)
        dialogs = (CommandSetupDialog(fast_gdm), CommandSetupDialog(ref_gdm))
        paths = model_paths(fast_gdm)
        saved = []
        for t, op in enumerate(ops):
            kind = op[0]
            if kind == "cmd":
                command = Command(KINDS[op[1]], paths[op[2] % len(paths)],
                                  op[3], t_target=t, t_host=t)
                fast.on_command(command)
                ref.on_command(command)
                assert ([r.to_dict() for r in fast.trace[-1].reactions]
                        == [r.to_dict() for r in ref.trace[-1].reactions])
            elif kind == "add":
                path = paths[op[2] % len(paths)]
                # 0 keeps the exact path; otherwise a wildcard prefix
                selector = path if op[3] == 0 else path[:op[3] - 1] + "*"
                for dialog in dialogs:
                    dialog.add(KINDS[op[1]], selector, op[4])
            elif kind == "delete":
                if fast_gdm.bindings:
                    index = op[1] % len(fast_gdm.bindings)
                    for dialog in dialogs:
                        dialog.delete(index)
            elif kind == "checkpoint":
                saved.append((fast_gdm.dynamic_state(),
                              ref_gdm.dynamic_state()))
            elif kind == "restore":
                if saved:
                    state_fast, state_ref = saved[op[1] % len(saved)]
                    fast_gdm.restore_dynamic_state(state_fast)
                    ref_gdm.restore_dynamic_state(state_ref)
            elif kind == "decay":
                assert decay_pulses(fast_gdm) == decay_pulses(ref_gdm)
            assert fast_gdm.dynamic_state() == ref_gdm.dynamic_state()
            assert binding_rows(fast_gdm) == binding_rows(ref_gdm)

        # replay the recorded stream onto fresh models, stepping and seeking
        players = [ReplayPlayer(fast.trace, built_gdm(name),
                                capture_frames=False),
                   ReplayPlayer(fast.trace, make_reference_gdm(
                       built_gdm(name)), capture_frames=False)]
        for player in players:
            player.start()
        for _ in range(len(fast.trace)):
            for player in players:
                player.step()
            assert (players[0].gdm.dynamic_state()
                    == players[1].gdm.dynamic_state())
        for position in sorted({0, len(fast.trace) // 2, len(fast.trace)}):
            for player in players:
                player.seek(position)
            assert (players[0].gdm.dynamic_state()
                    == players[1].gdm.dynamic_state())

    def test_decay_order_matches_sweep_with_many_pulses(self):
        fast_gdm = built_gdm("cell")
        ref_gdm = make_reference_gdm(built_gdm("cell"))
        items = list(fast_gdm.elements) + list(fast_gdm.links)
        # pulse in reverse creation order: the sweep returns creation order
        for item_id in reversed(items[::3]):
            for gdm in (fast_gdm, ref_gdm):
                gdm.pulse(gdm.elements.get(item_id) or gdm.links[item_id])
        affected = decay_pulses(fast_gdm)
        assert affected == reference_decay_pulses(ref_gdm)
        assert len(affected) == len(items[::3])
        assert decay_pulses(fast_gdm) == []

    def test_restored_pulse_decays_on_next_command(self):
        gdm = built_gdm("traffic")
        link = next(l for l in gdm.links.values() if l.source_path)
        gdm.restore_dynamic_state({"links": {link.id: {"pulse": "true"}}})
        assert decay_pulses(gdm) == [link.id]
        assert "pulse" not in link.style

    def test_bindings_are_read_only_and_index_follows_edits(self):
        gdm = built_gdm("traffic")
        command = Command(CommandKind.STATE_ENTER, "state:lights.lamp.RED", 0)
        before = gdm.bindings_for(command)
        assert before
        with pytest.raises(AttributeError):
            gdm.bindings.append(before[0])
        extra = gdm.add_binding(CommandBinding(
            CommandKind.STATE_ENTER, "state:lights.*", "MARK_ERROR"))
        assert gdm.bindings_for(command) == before + (extra,)
        dialog = CommandSetupDialog(gdm)
        assert dialog.delete(len(gdm.bindings) - 1) is extra
        assert gdm.bindings_for(command) == before

    def test_unknown_reaction_raises_at_apply_time(self):
        gdm = built_gdm("traffic")
        gdm.add_binding(CommandBinding(CommandKind.USER, "signal:*", "BOGUS"))
        engine = engine_for(gdm)
        with pytest.raises(DebuggerError, match="unknown reaction 'BOGUS'"):
            engine.on_command(Command(CommandKind.USER, "signal:light", 1))


# -- whole systems -------------------------------------------------------------

_RIGS = {
    "blinker": (blinker_system, lambda: MonitorSuite([]), list),
    "traffic": (traffic_light_system, traffic_light_monitor_suite,
                traffic_light_code_watches),
    "cruise": (cruise_control_system, cruise_monitor_suite,
               cruise_code_watches),
    "cell": (production_cell_system, production_cell_monitor_suite,
             production_cell_code_watches),
}


def system_run(name):
    """Everything one model-debugger and one code-debugger run show."""
    system_factory, monitors, watches = _RIGS[name]
    system = system_factory()
    firmware = generate_firmware(system, InstrumentationPlan.full())
    kernel, engine, suite = model_debugger_rig(system, firmware, monitors)
    kernel.run(sec(3))
    return {
        "records": [r.to_dict() for r in kernel.records],
        "views": {node: kernel.bus.snapshot(node)
                  for node in kernel.bus.nodes()},
        "jitter": kernel.jitter.export_records(),
        "trace": engine.trace.to_dicts(),
        "events": (kernel.sim.executed_events, kernel.sim.pending_events,
                   kernel.sim.now),
        "violations": [(r.t_us, r.message) for r in suite.reports()],
        "state": engine.gdm.dynamic_state(),
        "code": _run_code_debugger(system, firmware, watches(), sec(3)),
    }


def store_files(root):
    """Every file under a store root, as sorted relative paths."""
    return sorted(os.path.relpath(os.path.join(path, name), root)
                  for path, _, names in os.walk(root) for name in names)


def outcome_rows(result):
    return ([[o.fault.fault_id, o.model_detected, o.model_latency_us,
              o.model_how, o.code_detected, o.code_latency_us, o.code_how,
              o.classified_as] for o in result.outcomes],
            result.false_positives)


class TestSystems:
    @pytest.mark.parametrize("name", sorted(_RIGS))
    def test_system_run_identical_to_reference_paths(self, name):
        fast = system_run(name)
        with reference_event_paths():
            ref = system_run(name)
        assert fast == ref
        assert fast["records"] and fast["trace"]

    @pytest.mark.parametrize("name", ["traffic", "cruise", "cell"])
    def test_traced_campaign_store_bytes_identical(self, name, tmp_path):
        system_factory, monitors, watches = _RIGS[name]
        kw = dict(design_kinds=("wrong_target",),
                  impl_kinds=("inverted_branch",), seeds=(1,),
                  duration_us=sec(1), runner=SerialRunner())
        fast_dir = str(tmp_path / "fast")
        fast = run_campaign(system_factory, monitors, watches,
                            trace_dir=fast_dir, **kw)
        ref_dir = str(tmp_path / "ref")
        with reference_event_paths():
            ref = run_campaign(system_factory, monitors, watches,
                               trace_dir=ref_dir, **kw)
        assert outcome_rows(fast) == outcome_rows(ref)
        roots = campaign_store_root(fast_dir), campaign_store_root(ref_dir)
        files = [store_files(root) for root in roots]
        assert files[0] == files[1]
        assert fast.trace_store.event_count > 0
        for file_name in files[0]:
            assert filecmp.cmp(os.path.join(roots[0], file_name),
                               os.path.join(roots[1], file_name),
                               shallow=False), file_name
