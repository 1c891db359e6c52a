"""Tests for geometry, scene graph, layouts and render backends."""

import pytest

from repro.errors import RenderError
from repro.render.animation import FrameSequence
from repro.render.ascii_art import scene_to_ascii
from repro.render.geometry import Point, Rect
from repro.render.layout import assert_no_overlap, circular_layout, grid_layout
from repro.render.scene import Scene, SceneNode
from repro.render.svg import scene_to_svg


class TestGeometry:
    def test_center_right_bottom(self):
        rect = Rect(2, 3, 10, 4)
        assert rect.center == Point(7, 5)
        assert rect.right == 12 and rect.bottom == 7

    def test_contains(self):
        rect = Rect(0, 0, 4, 4)
        assert rect.contains(Point(0, 0)) and rect.contains(Point(4, 4))
        assert not rect.contains(Point(5, 0))

    def test_intersects(self):
        assert Rect(0, 0, 4, 4).intersects(Rect(2, 2, 4, 4))
        assert not Rect(0, 0, 4, 4).intersects(Rect(4, 0, 4, 4))  # touching

    def test_union_and_inflate(self):
        union = Rect(0, 0, 2, 2).union(Rect(5, 5, 2, 2))
        assert union == Rect(0, 0, 7, 7)
        assert Rect(2, 2, 2, 2).inflate(1) == Rect(1, 1, 4, 4)


class TestScene:
    def test_duplicate_id_rejected(self):
        scene = Scene()
        scene.add(SceneNode("a", "rect", Rect(0, 0, 2, 2)))
        with pytest.raises(RenderError):
            scene.add(SceneNode("a", "rect", Rect(0, 0, 2, 2)))

    def test_unknown_shape_rejected(self):
        with pytest.raises(RenderError):
            SceneNode("x", "blob", Rect(0, 0, 1, 1))

    def test_edge_needs_endpoints(self):
        with pytest.raises(RenderError):
            SceneNode("x", "arrow", Rect(0, 0, 1, 1))

    def test_z_order(self):
        scene = Scene()
        scene.add(SceneNode("top", "rect", Rect(0, 0, 2, 2), z=5))
        scene.add(SceneNode("bottom", "rect", Rect(0, 0, 2, 2), z=1))
        assert [n.id for n in scene.nodes()] == ["bottom", "top"]

    def test_bounds(self):
        scene = Scene()
        scene.add(SceneNode("a", "rect", Rect(0, 0, 2, 2)))
        scene.add(SceneNode("b", "rect", Rect(10, 10, 4, 4)))
        assert scene.bounds() == Rect(0, 0, 14, 14)

    def test_empty_scene_bounds(self):
        assert Scene().bounds() == Rect(0, 0, 1, 1)


class TestLayouts:
    def test_grid_no_overlap(self):
        placement = grid_layout([f"n{i}" for i in range(17)])
        assert_no_overlap(placement)

    def test_grid_respects_columns(self):
        placement = grid_layout(["a", "b", "c"], columns=2,
                                cell_w=10, cell_h=4, gap=2)
        assert placement["a"].y == placement["b"].y
        assert placement["c"].y > placement["a"].y

    def test_circular_no_overlap(self):
        placement = circular_layout([f"s{i}" for i in range(12)])
        assert_no_overlap(placement)

    def test_circular_single_element(self):
        placement = circular_layout(["only"])
        assert placement["only"].x == 0

    def test_empty_layouts(self):
        assert grid_layout([]) == {}
        assert circular_layout([]) == {}


class TestBackends:
    def demo_scene(self):
        scene = Scene(title="demo")
        scene.add(SceneNode("box", "rect", Rect(0, 0, 12, 4), label="BOX"))
        scene.add(SceneNode("dot", "circle", Rect(16, 0, 8, 4), label="DOT",
                            style={"highlighted": "true"}))
        scene.add(SceneNode("edge", "arrow", Rect(0, 0, 16, 2),
                            endpoints=(Point(12, 2), Point(16, 2))))
        return scene

    def test_ascii_contains_labels_and_highlight(self):
        art = scene_to_ascii(self.demo_scene())
        assert "BOX" in art
        assert "*DOT*" in art    # highlight marker
        assert "[demo]" in art

    def test_svg_structure(self):
        svg = scene_to_svg(self.demo_scene())
        assert svg.startswith("<svg")
        assert "<rect" in svg and "<ellipse" in svg and "<line" in svg
        assert "marker-end" in svg     # arrowhead
        assert "BOX" in svg

    def test_svg_highlight_changes_fill(self):
        plain = self.demo_scene()
        svg = scene_to_svg(plain)
        assert "#ffd54d" in svg  # highlight fill present for DOT

    def test_error_style_renders(self):
        scene = Scene()
        scene.add(SceneNode("bad", "rect", Rect(0, 0, 8, 3), label="X",
                            style={"error": "true"}))
        assert "!X!" in scene_to_ascii(scene)
        assert "#ff6b6b" in scene_to_svg(scene)


class TestFrameSequence:
    def test_capture_and_query(self):
        frames = FrameSequence()
        frames.capture(100, "cmd1", {"el#1": {"highlighted": "true"}})
        frames.capture(200, "cmd2", {"el#1": {}})
        assert len(frames) == 2
        assert frames[0].highlighted() == ["el#1"]
        assert frames[1].highlighted() == []

    def test_styles_are_snapshots(self):
        style = {"el#1": {"highlighted": "true"}}
        frames = FrameSequence()
        frames.capture(1, "x", style)
        style["el#1"]["highlighted"] = "false"
        assert frames[0].highlighted() == ["el#1"]

    def test_max_frames_drops(self):
        frames = FrameSequence(max_frames=2)
        for t in range(5):
            frames.capture(t, "x", {})
        assert len(frames) == 2 and frames.dropped == 3

    def test_frame_at_time(self):
        frames = FrameSequence()
        frames.capture(100, "a", {})
        frames.capture(200, "b", {})
        assert frames.frame_at_time(50) is None
        assert frames.frame_at_time(150).trigger == "a"
        assert frames.frame_at_time(999).trigger == "b"
