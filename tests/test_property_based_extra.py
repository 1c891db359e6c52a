"""More property-based tests: layouts, trace persistence and replay."""

from hypothesis import given, settings, strategies as st

from repro.engine.replay import ReplayPlayer
from repro.engine.trace import ExecutionTrace
from repro.experiments.workloads import chain_system
from repro.render.layout import assert_no_overlap, circular_layout, grid_layout


class TestLayoutProperties:
    @given(n=st.integers(0, 60), cell_w=st.integers(2, 24),
           cell_h=st.integers(2, 10), gap=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_grid_never_overlaps(self, n, cell_w, cell_h, gap):
        placement = grid_layout([f"n{i}" for i in range(n)],
                                cell_w=cell_w, cell_h=cell_h, gap=gap)
        assert_no_overlap(placement)
        assert len(placement) == n

    @given(n=st.integers(0, 40), cell_w=st.integers(4, 20))
    @settings(max_examples=60, deadline=None)
    def test_circle_never_overlaps(self, n, cell_w):
        placement = circular_layout([f"s{i}" for i in range(n)],
                                    cell_w=cell_w)
        assert_no_overlap(placement)


class TestPersistenceProperties:
    @given(n_states=st.integers(2, 10), rounds=st.integers(1, 30))
    @settings(max_examples=15, deadline=None)
    def test_replay_of_serialized_trace_matches_live(self, n_states, rounds):
        from repro.engine.session import DebugSession
        from repro.util.timeunits import ms
        session = DebugSession(chain_system(n_states, period_us=ms(2)),
                               channel_kind="active")
        session.setup().run(ms(2) * rounds)
        live = sorted(e.source_path for e in session.gdm.elements.values()
                      if e.highlighted)
        restored = ExecutionTrace.from_dicts(session.trace.to_dicts())
        player = ReplayPlayer(restored, session.gdm)
        player.start()
        player.run_to_end()
        assert player.highlighted_paths() == live
