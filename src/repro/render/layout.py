"""Layout algorithms assigning geometry to abstract elements.

Two layouts cover GMDF's needs: a grid for heterogeneous element sets and
a circle for state machines (states around a ring keeps transition arrows
readable). :meth:`repro.gdm.abstraction.AbstractionEngine.assign_layout`
puts state groups on circles and everything else on the grid.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence

from repro.errors import RenderError
from repro.render.geometry import Rect


def grid_layout(ids: Sequence[str], cell_w: int = 16, cell_h: int = 6,
                gap: int = 4, columns: int = 0) -> Dict[str, Rect]:
    """Place elements left-to-right, top-to-bottom in a grid.

    ``columns=0`` picks a near-square column count.
    """
    if cell_w <= 0 or cell_h <= 0:
        raise RenderError("grid cells must have positive size")
    n = len(ids)
    if n == 0:
        return {}
    cols = columns if columns > 0 else max(1, math.ceil(math.sqrt(n)))
    placement: Dict[str, Rect] = {}
    for index, element_id in enumerate(ids):
        row, col = divmod(index, cols)
        placement[element_id] = Rect(
            col * (cell_w + gap), row * (cell_h + gap), cell_w, cell_h,
        )
    return placement


def circular_layout(ids: Sequence[str], cell_w: int = 14, cell_h: int = 5,
                    radius: int = 0) -> Dict[str, Rect]:
    """Place elements evenly on a circle (good for state machines)."""
    n = len(ids)
    if n == 0:
        return {}
    if n == 1:
        return {ids[0]: Rect(0, 0, cell_w, cell_h)}
    # A radius that keeps neighbours from overlapping horizontally.
    r = radius if radius > 0 else max(cell_w, round((cell_w + 4) * n / (2 * math.pi)) + cell_h)
    placement: Dict[str, Rect] = {}
    for index, element_id in enumerate(ids):
        angle = 2 * math.pi * index / n - math.pi / 2
        cx = round(r + r * math.cos(angle))
        cy = round(r + r * math.sin(angle))
        placement[element_id] = Rect(cx, cy, cell_w, cell_h)
    return placement


def assert_no_overlap(placement: Mapping[str, Rect]) -> None:
    """Raise RenderError if any two placed rectangles overlap (test helper)."""
    items = list(placement.items())
    for i, (id_a, rect_a) in enumerate(items):
        for id_b, rect_b in items[i + 1:]:
            if rect_a.intersects(rect_b):
                raise RenderError(f"layout overlap: {id_a} and {id_b}")
