"""SVG backend: serialize a scene to a standalone SVG document."""

from __future__ import annotations

from typing import List

from repro.render.scene import Scene, SceneNode


def escape(text: str) -> str:
    """*text* with ``&``, ``<`` and ``>`` as entities; quotes stay as
    they are. (``xml.sax.saxutils.escape`` does the same, but importing
    it loads ``urllib.request``, ``http.client`` and ``ssl``.)"""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


#: style keys understood by this backend
_FILL_DEFAULT = "#f8f8f8"
_STROKE_DEFAULT = "#222222"
_HIGHLIGHT_FILL = "#ffd54d"
_ERROR_FILL = "#ff6b6b"

SCALE = 8  # abstract units -> pixels


def _fill_of(node: SceneNode) -> str:
    if node.style.get("error") == "true":
        return _ERROR_FILL
    if node.style.get("highlighted") == "true":
        return _HIGHLIGHT_FILL
    return node.style.get("fill", _FILL_DEFAULT)


def _node_svg(node: SceneNode) -> List[str]:
    x, y = node.rect.x * SCALE, node.rect.y * SCALE
    w, h = node.rect.w * SCALE, node.rect.h * SCALE
    stroke = node.style.get("stroke", _STROKE_DEFAULT)
    fill = _fill_of(node)
    stroke_width = 3 if node.style.get("highlighted") == "true" else 1
    parts: List[str] = []

    if node.shape == "rect":
        parts.append(
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" rx="4" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{stroke_width}"/>'
        )
    elif node.shape == "circle":
        cx, cy = x + w // 2, y + h // 2
        r = min(w, h) // 2
        parts.append(
            f'<ellipse cx="{cx}" cy="{cy}" rx="{w // 2}" ry="{h // 2}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{stroke_width}"/>'
        )
        del cy, r
    elif node.shape == "triangle":
        points = f"{x + w // 2},{y} {x},{y + h} {x + w},{y + h}"
        parts.append(
            f'<polygon points="{points}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{stroke_width}"/>'
        )
    elif node.shape in ("arrow", "line"):
        (p1, p2) = node.endpoints
        x1, y1 = p1.x * SCALE, p1.y * SCALE
        x2, y2 = p2.x * SCALE, p2.y * SCALE
        marker = ' marker-end="url(#arrowhead)"' if node.shape == "arrow" else ""
        dash = ' stroke-dasharray="6 3"' if node.style.get("pulse") else ""
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{stroke_width}"{marker}{dash}/>'
        )
    # "label" shape draws text only.

    if node.label:
        center = node.rect.center
        tx, ty = center.x * SCALE, center.y * SCALE + 4
        annotation = node.style.get("value", "")
        text = node.label if not annotation else f"{node.label}={annotation}"
        parts.append(
            f'<text x="{tx}" y="{ty}" font-size="12" font-family="monospace" '
            f'text-anchor="middle">{escape(text)}</text>'
        )
    return parts


def scene_to_svg(scene: Scene) -> str:
    """Render *scene* to an SVG document string."""
    bounds = scene.bounds().inflate(4)
    width = (bounds.w + 2) * SCALE
    height = (bounds.h + 2) * SCALE
    offset_x = -bounds.x * SCALE + SCALE
    offset_y = -bounds.y * SCALE + SCALE
    body: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<defs>"
        '<marker id="arrowhead" markerWidth="10" markerHeight="8" '
        'refX="9" refY="4" orient="auto">'
        '<polygon points="0 0, 10 4, 0 8" fill="#222222"/>'
        "</marker></defs>",
        f'<g transform="translate({offset_x},{offset_y})">',
    ]
    if scene.title:
        body.append(
            f'<text x="4" y="-2" font-size="14" font-family="monospace" '
            f'font-weight="bold">{escape(scene.title)}</text>'
        )
    for node in scene.nodes():
        body.extend(_node_svg(node))
    body.append("</g></svg>")
    return "\n".join(body)
