"""Headless rendering: scene graph, layouts, SVG and ASCII backends.

Stands in for the Eclipse GEF canvas of the prototype. Every figure-like
artifact in the reproduction (model diagrams, animation frames, timing
diagrams, the abstraction-guide "screenshot") is produced through this
package, so experiments can both save SVGs and assert on ASCII output.
"""

from repro.render.geometry import Point, Rect, Size
from repro.render.scene import Scene, SceneNode
from repro.render.layout import circular_layout, grid_layout
from repro.render.svg import scene_to_svg
from repro.render.ascii_art import scene_to_ascii
from repro.render.animation import AnimationFrame, FrameSequence

__all__ = [
    "Point", "Size", "Rect",
    "Scene", "SceneNode",
    "grid_layout", "circular_layout",
    "scene_to_svg",
    "scene_to_ascii",
    "AnimationFrame", "FrameSequence",
]
