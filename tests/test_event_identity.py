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
  traced campaign store bytes;
* the active channels and the engine — UART overruns and bytes sent,
  dropped frames, link books and the delivered command stream at small
  FIFO depths and behind a ``ChaosLink``, two actors released on one
  node at one instant, and a late ``engine_state`` subscriber;
* monitor suites — dispatch by command kind against every monitor seeing
  every command.
"""

from __future__ import annotations

import copy
import filecmp
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from event_reference import (HeapSimulator, make_reference_gdm,
                             reference_decay_pulses, reference_event_paths,
                             reference_on_emit, reference_suite_on_command)
from repro.codegen import InstrumentationPlan, generate_firmware
from repro.comdes.examples import (blinker_system, cruise_control_system,
                                   production_cell_system,
                                   traffic_light_system)
from repro.comdes.reflect import system_to_model
from repro.comm.channel import ActiveChannel, DebugChannel
from repro.comm.chaos import ChaosConfig
from repro.comm.protocol import Command, CommandKind
from repro.comm.rs232 import Rs232Link
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
from repro.rtos.task import JobRecord
from repro.sim.kernel import Simulator
from repro.target.board import Board
from repro.target.firmware import FirmwareImage, SymbolTable
from repro.target.isa import Instr
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


def job_fields(record):
    """Every field of one kernel job record, for comparison."""
    return tuple(getattr(record, name) for name in JobRecord.__slots__)


def system_run(name):
    """Everything one model-debugger and one code-debugger run show."""
    system_factory, monitors, watches = _RIGS[name]
    system = system_factory()
    firmware = generate_firmware(system, InstrumentationPlan.full())
    kernel, engine, suite = model_debugger_rig(system, firmware, monitors)
    kernel.run(sec(3))
    return {
        "records": [job_fields(r) for r in kernel.records],
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


# -- active channels and engine publication ----------------------------------

CHAOS_RATES = dict(frame_loss=0.05, frame_corrupt=0.05, frame_duplicate=0.05,
                   frame_reorder=0.05)


def channel_run(name, fifo_depth, chaos_seed, duration_us, late_after):
    """What the UARTs, the active channels and the engine show for one
    model-debugger run: UART and channel counters, link books, the
    delivered command stream, the trace and the ``engine_state``
    transitions a subscriber added after *late_after* commands sees."""
    system_factory, monitors, _ = _RIGS[name]
    system = system_factory()
    firmware = generate_firmware(system, InstrumentationPlan.full())
    chaos = (None if chaos_seed is None
             else ChaosConfig(seed=chaos_seed, **CHAOS_RATES))
    kernel, engine, suite = model_debugger_rig(system, firmware, monitors,
                                               chaos=chaos)
    boards = [kernel.board_of(node) for node in system.nodes()]
    for board in boards:
        board.uart.fifo_depth = fifo_depth
    delivered = []
    engine.channel.subscribe(lambda c: delivered.append(
        (c.kind, c.path, c.value, c.t_target, c.t_host)))
    per_node = [[] for _ in engine.channel.children]
    for seen, child in zip(per_node, engine.channel.children):
        child.subscribe(lambda c, seen=seen: seen.append(c.t_target))
    transitions = []
    commands = [0]

    def late_subscriber(**_):
        commands[0] += 1
        if commands[0] == late_after:
            engine.bus.subscribe("engine_state", lambda previous, current:
                                 transitions.append((previous, current)))

    engine.bus.subscribe("command", late_subscriber)
    kernel.run(duration_us)
    return {
        "uart": [(b.uart.overruns, b.uart.bytes_sent) for b in boards],
        "channels": [(ch.frames_sent, ch.frames_dropped,
                      ch.decoder.frames_decoded, ch.decoder.checksum_errors,
                      ch.decoder.framing_errors, ch.debug_link.stats())
                     for ch in engine.channel.children],
        "delivered": delivered,
        "per_node": per_node,
        "trace": engine.trace.to_dicts(),
        "transitions": transitions,
        "violations": [(r.t_us, r.message) for r in suite.reports()],
        "records": [job_fields(r) for r in kernel.records],
        "events": (kernel.sim.executed_events, kernel.sim.now),
    }


def both_channel_runs(*args):
    fast = channel_run(*args)
    with reference_event_paths():
        ref = channel_run(*args)
    return fast, ref


class TestChannelsAndEngine:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["traffic", "cruise", "cell"]),
           st.integers(10, 60),
           st.one_of(st.none(), st.integers(0, 1000)),
           st.integers(100_000, 800_000),
           st.integers(1, 200))
    @example("cruise", 10, None, 600_000, 5)
    @example("cruise", 20, 7, 600_000, 50)
    def test_uart_fifo_transport_and_stream_match_references(
            self, name, fifo_depth, chaos_seed, duration_us, late_after):
        fast, ref = both_channel_runs(name, fifo_depth, chaos_seed,
                                      duration_us, late_after)
        assert fast == ref
        assert fast["delivered"]

    def test_small_fifo_overruns_identically(self):
        fast, ref = both_channel_runs("cruise", 10, None, 1_000_000, 1)
        assert fast == ref
        assert sum(overruns for overruns, _ in fast["uart"]) > 0
        assert sum(ch[1] for ch in fast["channels"]) > 0  # frames dropped

    def test_same_instant_releases_emit_backwards_in_time(self):
        """cruise's hmi and controller share node0 and are released at
        the same instant: the second job's first emission is stamped
        before the first job's last one, and a frame the line retired
        stays retired. At this FIFO depth node0 also overruns."""
        fast, ref = both_channel_runs("cruise", 40, None, 1_000_000, 1)
        assert fast == ref
        node0 = fast["per_node"][0]
        assert any(b < a for a, b in zip(node0, node0[1:]))
        assert fast["uart"][0][0] > 0

    def test_chaos_link_books_match_references(self):
        fast, ref = both_channel_runs("cell", 128, 11, 1_000_000, 1)
        assert fast == ref
        stats = [ch[-1] for ch in fast["channels"]]
        assert any(s["frames_lost"] + s["frames_corrupted"]
                   + s["frames_duplicated"] + s["frames_reordered"]
                   for s in stats)

    def test_late_engine_state_subscriber_sees_every_transition(self):
        fast, ref = both_channel_runs("traffic", 128, None, 1_000_000, 30)
        assert fast == ref
        # from its first command on, the subscriber sees both transitions
        # of every command the engine handled
        handled = len(fast["trace"]) - 30
        assert len(fast["transitions"]) == 2 * handled + 1


_SUITES = {
    "traffic": traffic_light_monitor_suite,
    "cruise": cruise_monitor_suite,
    "cell": production_cell_monitor_suite,
}

_cmd = st.tuples(st.integers(0, len(KINDS) - 1), st.integers(0, 10_000),
                 st.integers(-5, 2000), st.integers(0, 400_000))


class TestMonitorDispatch:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_SUITES)), st.lists(_cmd, max_size=120))
    def test_dispatch_by_kind_reports_like_every_monitor(self, name, cmds):
        fast, ref = _SUITES[name](), _SUITES[name]()
        paths = model_paths(built_gdm(name))
        t = 0
        for kind, path, value, gap in cmds:
            t += gap
            command = Command(KINDS[kind], paths[path % len(paths)], value,
                              t_target=t, t_host=t)
            fast._on_command(command)
            reference_suite_on_command(ref, command)
        assert ([(r.monitor, r.message, r.t_us) for r in fast.reports()]
                == [(r.monitor, r.message, r.t_us) for r in ref.reports()])


#: line time of one 10-byte frame at the default 115200 baud, in us
FRAME_US = 868

_emission = st.tuples(
    st.booleans(),  # a new job (re-anchors the emission clock)
    st.integers(0, 3),  # release step in frame times (0: same instant)
    st.one_of(st.integers(0, 6).map(lambda k: k * FRAME_US),
              st.integers(0, 6000)),  # emission offset within the job
)


def fifo_run(emissions, fifo_depth, emit):
    """Drive one active channel's emit handler through synthetic
    emissions; returns the UART/channel counters after each one."""
    sim = Simulator()
    board = Board(uart_fifo=fifo_depth)
    firmware = FirmwareImage("fifo", [Instr("HALT")], {}, SymbolTable(), {},
                             {1: "signal:x"})
    channel = ActiveChannel(sim, board, firmware, link=Rs232Link())
    clock_per_us = board.clock_hz // 1_000_000
    release = 0
    log = []
    for new_job, step, offset in emissions:
        if new_job:
            release += step * FRAME_US
            board.cpu.cycles = 0
            channel.begin_job(release)
        board.cpu.cycles = offset * clock_per_us
        emit(channel, 2, 1, offset)
        log.append((board.uart.overruns, board.uart.bytes_sent,
                    channel.frames_sent, channel.frames_dropped))
    return log, channel.debug_link.stats()


class TestFifoAccounting:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_emission, min_size=1, max_size=60),
           st.integers(10, 60))
    def test_heap_accounting_equals_rescan(self, emissions, fifo_depth):
        """Emissions that go back in time, land exactly on a frame's
        finishing instant or overrun the FIFO: the heap and the running
        byte count drop exactly what the full rescan drops."""
        fast = fifo_run(emissions, fifo_depth,
                        lambda ch, *args: ch._on_emit(*args))
        ref = fifo_run(emissions, fifo_depth, reference_on_emit)
        assert fast == ref

    def test_frame_finishing_at_the_emission_instant_is_retired(self):
        # the first frame occupies the line until FRAME_US; at a 10-byte
        # FIFO a second frame fits exactly then, and not one us earlier
        on_time = [(True, 0, 0), (False, 0, FRAME_US)]
        early = [(True, 0, 0), (False, 0, FRAME_US - 1)]
        for emissions, dropped in ((on_time, 0), (early, 1)):
            for emit in (lambda ch, *a: ch._on_emit(*a), reference_on_emit):
                log, _ = fifo_run(emissions, 10, emit)
                assert log[-1][3] == dropped
