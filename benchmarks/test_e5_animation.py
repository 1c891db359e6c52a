"""E5 (paper Fig 5): model visualization and runtime animation.

Measures frame capture rate during live debugging and render cost (ASCII +
SVG) as the model grows; saves the Fig 5 artifact (model with the active
state highlighted).

Expected shape: frame capture is O(model) per event; rendering stays well
under interactive budgets for paper-scale models.
"""

import time

from repro.engine.session import DebugSession
from repro.experiments.figures import fig5_animated_model
from repro.experiments.harness import ResultTable, save_artifact
from repro.experiments.workloads import chain_system
from repro.gdm.scenegen import gdm_to_scene
from repro.render.ascii_art import scene_to_ascii
from repro.render.svg import scene_to_svg
from repro.util.timeunits import ms

SIZES = (5, 25, 100)


def test_e5_animation_and_rendering(benchmark):
    """Animation frames + render cost vs model size; Fig 5 artifact."""
    table = ResultTable(
        "E5 — animation and rendering vs model size",
        ["states", "events", "frames"],
    )
    # wall-clock costs differ on every run: printed, not saved
    timing = ResultTable(
        "E5 — animation and rendering wall time",
        ["states", "capture (us/frame)", "ascii render (ms)",
         "svg render (ms)"],
    )
    for size in SIZES:
        session = DebugSession(chain_system(size, period_us=ms(5)),
                               channel_kind="active")
        session.setup()
        t0 = time.perf_counter()
        session.run(ms(5) * 120)
        run_seconds = time.perf_counter() - t0
        frames = session.engine.frames
        capture_us = (run_seconds * 1e6 / max(1, len(frames)))

        scene = gdm_to_scene(session.gdm)
        t0 = time.perf_counter()
        # Large rings need a large canvas; never clip the highlighted state.
        ascii_art = scene_to_ascii(scene, max_width=1600, max_height=1200)
        ascii_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        svg = scene_to_svg(scene)
        svg_ms = (time.perf_counter() - t0) * 1000

        table.add_row(size, len(session.trace), len(frames))
        timing.add_row(size, f"{capture_us:.0f}", f"{ascii_ms:.2f}",
                       f"{svg_ms:.2f}")
        assert len(frames) > 0
        assert "*" in ascii_art       # active state visible
        assert svg.startswith("<svg")
    table.print()
    timing.print()
    save_artifact("e5_animation.txt", table.render())

    ascii_art, svg, _ = fig5_animated_model()
    save_artifact("fig5_animation.txt", ascii_art)
    save_artifact("fig5_animation.svg", svg)

    session = DebugSession(chain_system(50, period_us=ms(5)),
                           channel_kind="active")
    session.setup().run(ms(5) * 40)
    scene = gdm_to_scene(session.gdm)
    benchmark(scene_to_svg, scene)
