"""E10 (paper §III claim): execution trace, replay, timing diagram.

"GDM animation will trace model-level behavior and always make a record of
the execution trace. The user can then monitor the application's behavior
via a replay function associated with a timing diagram."

Measures trace recording overhead, replay throughput and fidelity (replay
must reproduce the recorded reaction sequence exactly), trace serialization
round-trip, and timing-diagram generation.
"""

import time

from repro.engine.replay import ReplayPlayer
from repro.engine.session import DebugSession
from repro.engine.timing_diagram import TimingDiagram
from repro.engine.trace import ExecutionTrace
from repro.experiments.harness import ResultTable, save_artifact
from repro.experiments.workloads import chain_system
from repro.util.timeunits import ms


def record_session(n_states=12, jobs=400):
    session = DebugSession(chain_system(n_states, period_us=ms(2)),
                           channel_kind="active")
    session.setup().run(ms(2) * jobs)
    return session


def test_e10_trace_replay_timing_diagram(benchmark):
    """Trace/replay metrics + exact-fidelity assertions."""
    session = record_session()
    trace = session.trace
    gdm = session.gdm

    live_highlights = sorted(e.source_path for e in gdm.elements.values()
                             if e.highlighted)

    player = ReplayPlayer(trace, gdm)
    player.start()
    t0 = time.perf_counter()
    replayed = player.run_to_end()
    replay_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    data = trace.to_dicts()
    restored = ExecutionTrace.from_dicts(data)
    serialize_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    diagram = TimingDiagram(trace)
    ascii_diagram = diagram.render_ascii(64)
    diagram_seconds = time.perf_counter() - t0

    table = ResultTable(
        "E10 — trace, replay, timing diagram (12-state chain, 400 jobs)",
        ["metric", "value"],
    )
    table.add_row("trace events", len(trace))
    table.add_row("trace span (simulated)", f"{trace.duration_us() / 1000:.0f}ms")
    table.add_row("mean command latency", f"{trace.mean_latency_us():.0f}us")
    table.add_row("replayed events", replayed)
    table.add_row("timing diagram lanes", len(diagram.lanes))
    table.print()
    # wall-clock rates differ on every run: printed, not saved
    timing = ResultTable("E10 — trace, replay, timing diagram wall time",
                         ["metric", "value"])
    timing.add_row("replay throughput",
                   f"{replayed / max(replay_seconds, 1e-9):.0f} events/s")
    timing.add_row("serialize+restore", f"{serialize_seconds * 1000:.1f}ms")
    timing.add_row("timing diagram render", f"{diagram_seconds * 1000:.1f}ms")
    timing.print()
    save_artifact("e10_replay.txt", table.render())
    save_artifact("e10_timing_diagram.txt", ascii_diagram)
    save_artifact("e10_timing_diagram.svg", diagram.render_svg())

    # Fidelity: replay reproduces the live end state exactly...
    assert player.highlighted_paths() == live_highlights
    # ...and a second replay of the restored trace is byte-identical.
    player2 = ReplayPlayer(restored, gdm)
    player2.start()
    player2.run_to_end()
    assert player2.highlighted_paths() == live_highlights
    assert restored.to_dicts() == data
    assert replayed == len(trace)
    assert "state:walker.fsm" in diagram.lanes

    def replay_all():
        p = ReplayPlayer(trace, gdm)
        p.start()
        return p.run_to_end()

    benchmark(replay_all)
