"""Synthetic scene generation, teacher feature synthesis, ground-truth
rendering, and the SCN scene file format."""

import functools
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodistill import (
    BevGrid,
    Box3D,
    CameraModel,
    ContractError,
    FormatError,
    GenerationError,
    SceneConfig,
    RigidTransform,
    SyntheticScene,
    build_gt_depth_map,
    generate_scene,
    generate_teacher_bev,
    points_in_box,
    project_points,
    read_scene,
    read_tsr,
    render_gt_views,
    rot_z,
    write_scene,
    write_tsr,
)
from geodistill.geometry import render_view
from geodistill.rng import CounterRng
from geodistill.scenegen import FACE_INSET, FACES, _sample_box_surface


def small_config(**overrides):
    """Reduced scene for fast tests; same structure as the default."""
    kw = dict(
        seed=5,
        num_boxes=3,
        num_cameras=3,
        points_per_box=60,
        ground_points=200,
        channels=4,
        grid=BevGrid(-24.0, 24.0, -24.0, 24.0, 32, 32),
        image_width=48,
        image_height=32,
        focal=40.0,
    )
    kw.update(overrides)
    return SceneConfig(**kw)


def scene_string(scene):
    buf = io.StringIO()
    write_scene(buf, scene)
    return buf.getvalue()


class TestGenerateScene:
    def test_same_seed_bitwise_identical(self):
        """Two builds from one config agree bit for bit, teacher included."""
        cfg = small_config()
        a = generate_scene(cfg)
        b = generate_scene(cfg)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.teacher_bev.data, b.teacher_bev.data)
        for ba, bb in zip(a.boxes, b.boxes):
            assert np.array_equal(ba.center, bb.center)
            assert np.array_equal(ba.size, bb.size)
            assert ba.yaw == bb.yaw
        assert scene_string(a) == scene_string(b)

    def test_seed_changes_scene(self):
        a = generate_scene(small_config(seed=5))
        b = generate_scene(small_config(seed=6))
        assert not np.array_equal(a.points, b.points)

    def test_point_counts_and_labels(self):
        cfg = small_config()
        scene = generate_scene(cfg)
        total = cfg.num_boxes * cfg.points_per_box + cfg.ground_points
        assert scene.points.shape == (total, 3)
        assert scene.labels.shape == (total,)
        for j in range(cfg.num_boxes):
            assert int(np.sum(scene.labels == j)) == cfg.points_per_box
        assert int(np.sum(scene.labels == -1)) == cfg.ground_points

    def test_surface_points_inside_their_box(self):
        """Every labelled surface point passes the containment test for
        its own box and for no other box."""
        scene = generate_scene(small_config())
        for j, box in enumerate(scene.boxes):
            own = scene.points[scene.labels == j]
            assert np.all(points_in_box(box, own))
            for k, other in enumerate(scene.boxes):
                if k != j:
                    assert not np.any(points_in_box(other, own))

    def test_ground_points_on_plane_and_clear_of_boxes(self):
        scene = generate_scene(small_config())
        ground = scene.points[scene.labels == -1]
        assert np.all(ground[:, 2] == 0.0)
        for box in scene.boxes:
            assert not np.any(points_in_box(box, ground))

    def test_footprints_respect_clearance(self):
        cfg = small_config(num_boxes=4, seed=11)
        scene = generate_scene(cfg)
        for i, a in enumerate(scene.boxes):
            ra = math.hypot(a.size[0], a.size[1]) / 2.0
            for b in scene.boxes[i + 1 :]:
                rb = math.hypot(b.size[0], b.size[1]) / 2.0
                dist = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
                assert dist >= ra + rb + cfg.place_clearance - 1e-12

    def test_empty_scene_is_ground_only(self):
        cfg = small_config(num_boxes=0)
        scene = generate_scene(cfg)
        assert scene.boxes == []
        assert np.all(scene.labels == -1)
        assert scene.points.shape == (cfg.ground_points, 3)
        views = render_gt_views(scene)
        assert all(v.targets == [] for v in views)

    def test_impossible_placement_raises(self):
        cfg = small_config(
            num_boxes=10,
            place_radius_min=5.0,
            place_radius_max=5.05,
            place_clearance=5.0,
            max_place_attempts=50,
        )
        with pytest.raises(GenerationError):
            generate_scene(cfg)

    def test_box_sizes_within_ranges(self):
        cfg = small_config(num_boxes=4, seed=13)
        scene = generate_scene(cfg)
        for box in scene.boxes:
            assert cfg.length_range[0] <= box.size[0] <= cfg.length_range[1]
            assert cfg.width_range[0] <= box.size[1] <= cfg.width_range[1]
            assert cfg.height_range[0] <= box.size[2] <= cfg.height_range[1]
            r = math.hypot(box.center[0], box.center[1])
            assert cfg.place_radius_min <= r <= cfg.place_radius_max
            assert box.center[2] == box.size[2] / 2.0


def explicit_box_surface(box, n, sub):
    """The surface sampler with each face's formula written out."""
    length, width, height = box.size
    areas = np.array([length * width, width * height, width * height, length * height, length * height])
    cum = np.cumsum(areas) / np.sum(areas)
    draw = sub.uniform((n, 3))
    face = np.searchsorted(cum, draw[:, 0], side="right")
    a = draw[:, 1] - 0.5
    b = draw[:, 2] - 0.5
    local = np.empty((n, 3))
    m = face == 0  # top
    local[m] = np.stack([a[m] * length, b[m] * width, np.full(m.sum(), height / 2.0)], axis=1)
    m = face == 1  # +length
    local[m] = np.stack([np.full(m.sum(), length / 2.0), a[m] * width, b[m] * height], axis=1)
    m = face == 2  # -length
    local[m] = np.stack([np.full(m.sum(), -length / 2.0), a[m] * width, b[m] * height], axis=1)
    m = face == 3  # +width
    local[m] = np.stack([a[m] * length, np.full(m.sum(), width / 2.0), b[m] * height], axis=1)
    m = face == 4  # -width
    local[m] = np.stack([a[m] * length, np.full(m.sum(), -width / 2.0), b[m] * height], axis=1)
    local *= 1.0 - FACE_INSET
    return local @ rot_z(box.yaw).T + box.center


class TestBoxSurface:
    @pytest.mark.parametrize("size", [(4.5, 1.9, 1.6), (1.0, 3.0, 0.25), (2.0, 2.0, 2.0)])
    def test_each_sample_lies_on_exactly_one_face(self, size):
        """At yaw 0 and the origin the samples are the local coordinates:
        on exactly one face, one coordinate sits at +- half the extent
        shrunk by FACE_INSET and the others within it; none is on the
        bottom, and every face is sampled."""
        box = Box3D(center=[0.0, 0.0, 0.0], size=list(size), yaw=0.0)
        local = _sample_box_surface(box, 4000, CounterRng(3))
        half = box.size / 2.0 * (1.0 - FACE_INSET)
        on = np.array([local[:, axis] == side * half[axis] for axis, side in FACES])
        assert np.all(on.sum(axis=0) == 1)
        assert np.all(on.any(axis=1))
        assert np.all(np.abs(local) <= half)
        assert not np.any(local[:, 2] == -half[2])

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.tuples(*[st.floats(0.1, 20.0)] * 3),
        center=st.tuples(*[st.floats(-30.0, 30.0)] * 3),
        yaw=st.floats(-math.pi, math.pi),
        n=st.integers(0, 200),
        seed=st.integers(0, 2**32),
    )
    def test_face_table_equals_the_explicit_formulas(self, size, center, yaw, n, seed):
        """The table of faces gives the bits of one formula per face."""
        box = Box3D(center=list(center), size=list(size), yaw=yaw)
        got = _sample_box_surface(box, n, CounterRng(seed))
        assert got.tobytes() == explicit_box_surface(box, n, CounterRng(seed)).tobytes()


class TestTeacherBev:
    def test_shape_and_finite(self):
        cfg = small_config()
        scene = generate_scene(cfg)
        t = scene.teacher_bev
        assert t.data.shape == (cfg.channels, cfg.grid.h_bev, cfg.grid.w_bev)
        assert np.all(np.isfinite(t.data))

    def test_noise_free_support_is_the_enlarged_footprints(self):
        """With zero background noise the teacher vanishes exactly outside
        every enlarged footprint and is non-trivial inside."""
        cfg = small_config(teacher_noise=0.0)
        scene = generate_scene(cfg)
        data = scene.teacher_bev.data
        assert float(np.max(np.abs(data))) > 0.1
        from geodistill import bev_to_world, enlarge_box_bev

        rows, cols = np.meshgrid(
            np.arange(cfg.grid.h_bev), np.arange(cfg.grid.w_bev), indexing="ij"
        )
        cell_xy = bev_to_world(
            cfg.grid, np.stack([rows.ravel(), cols.ravel()], axis=1).astype(float)
        )
        inside_any = np.zeros(len(cell_xy), dtype=bool)
        for box in scene.boxes:
            big = enlarge_box_bev(box, cfg.enlarge)
            pts3 = np.column_stack([cell_xy, np.full(len(cell_xy), big.center[2])])
            inside_any |= points_in_box(big, pts3)
        outside = ~inside_any.reshape(cfg.grid.h_bev, cfg.grid.w_bev)
        assert np.all(data[:, outside] == 0.0)

    def test_regenerating_teacher_matches_scene_copy(self):
        cfg = small_config()
        scene = generate_scene(cfg)
        again = generate_teacher_bev(scene, cfg)
        assert np.array_equal(scene.teacher_bev.data, again.data)


class TestRenderGtViews:
    def setup_method(self):
        self.cfg = small_config()
        self.scene = generate_scene(self.cfg)
        self.views = render_gt_views(self.scene)

    def test_one_view_per_camera(self):
        assert [v.cam_index for v in self.views] == list(range(self.cfg.num_cameras))
        for v in self.views:
            assert v.depth.shape == (self.cfg.image_height, self.cfg.image_width)
            assert v.valid.shape == v.depth.shape
            assert len(v.targets) == len(self.scene.boxes)

    def test_foreground_pixels_are_valid(self):
        """Every foreground pixel carries a valid depth sample, and the
        dense map's value there never exceeds the per-target depth (the
        dense map is the minimum over all scene points)."""
        saw_any = False
        for v in self.views:
            for fds in v.targets:
                if fds.skipped:
                    continue
                saw_any = True
                px = fds.pixels[:, 0]
                py = fds.pixels[:, 1]
                assert np.all(v.valid[py, px])
                assert np.all(v.depth[py, px] <= fds.gt_depth + 1e-12)
        assert saw_any

    def test_target_depths_match_projection_oracle(self):
        """Per-target gt depth equals the minimum camera depth over that
        box's own points landing on the pixel, recomputed from scratch."""
        v = self.views[0]
        cam = self.scene.cameras[0]
        for j, fds in enumerate(v.targets):
            inside = points_in_box(self.scene.boxes[j], self.scene.points)
            proj = project_points(cam, self.scene.points[inside])
            best = {}
            for u, vv, d in zip(proj.u, proj.v, proj.depth):
                key = (int(u), int(vv))
                if key not in best or d < best[key]:
                    best[key] = d
            if fds.skipped:
                assert len(best) <= 1
                continue
            assert len(fds.pixels) == len(best)
            for (px, py), d in zip(fds.pixels, fds.gt_depth):
                assert best[(int(px), int(py))] == d

    def test_depth_positive_where_valid(self):
        for v in self.views:
            assert np.all(v.depth[v.valid] > 0.0)
            assert np.all(v.depth[~v.valid] == 0.0)


def _camera(yaw):
    """Small camera at the origin looking along world +x rotated by ``yaw``."""
    cam_to_world = rot_z(yaw) @ np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    return CameraModel(
        fx=12.0, fy=12.0, cx=12.0, cy=8.0, width=24, height=16,
        world_to_cam=RigidTransform(cam_to_world.T, np.array([0.0, 0.0, -1.0])),
    )


@st.composite
def hand_built_scenes(draw):
    """0-3 boxes (box 1 may overlap box 0), points on their faces plus
    points all around the cameras (behind them and outside the frustum),
    and 1 or 2 cameras."""
    boxes = []
    for j in range(draw(st.integers(0, 3))):
        if j == 1 and draw(st.booleans()):
            center = boxes[0].center + draw(st.sampled_from([0.0, 0.3]))
        else:
            center = [draw(st.floats(2.0, 9.0)), draw(st.floats(-4.0, 4.0)), draw(st.floats(0.0, 2.0))]
        size = [draw(st.floats(0.5, 3.0)) for _ in range(3)]
        boxes.append(Box3D(center=np.array(center, dtype=float), size=np.array(size), yaw=draw(st.floats(-4.0, 4.0))))
    rng = CounterRng(draw(st.integers(0, 2**64 - 1)))
    blocks = [rng.uniform((draw(st.integers(0, 200)), 3), -10.0, 10.0)]
    for box in boxes:
        # local coordinates pushed onto a face: one axis at +-size/2
        local = rng.uniform((40, 3), -0.5, 0.5)
        local[np.arange(40), np.arange(40) % 3] = np.where(np.arange(40) % 2, 0.5, -0.5)
        blocks.append((local * box.size) @ rot_z(box.yaw).T + box.center)
    points = np.concatenate(blocks)
    cameras = [_camera(yaw) for yaw in [0.0, draw(st.floats(-3.2, 3.2))][: draw(st.integers(1, 2))]]
    grid = BevGrid(-24.0, 24.0, -24.0, 24.0, 8, 8)
    return SyntheticScene(grid, boxes, points, np.full(len(points), -1), cameras)


class TestRenderMatchesSingleCameraEntryPoints:
    @settings(max_examples=25, deadline=None)
    @given(scene=hand_built_scenes())
    def test_bitwise(self, scene):
        """render_gt_views equals build_gt_depth_map per camera and
        render_view's set per camera and box, each box rendered on its
        own, bit for bit."""
        views = render_gt_views(scene)
        assert len(views) == len(scene.cameras)
        for i, (cam, view) in enumerate(zip(scene.cameras, views)):
            depth, valid = build_gt_depth_map(cam, scene.points)
            assert view.cam_index == i
            assert view.depth.tobytes() == depth.tobytes()
            assert view.valid.tobytes() == valid.tobytes()
            assert len(view.targets) == len(scene.boxes)
            for j, (box, got) in enumerate(zip(scene.boxes, view.targets)):
                (want,) = render_view(cam, [box], scene.points)[2]
                assert got.target_index == j
                assert got.pixels.tobytes() == want.pixels.tobytes()
                assert got.gt_depth.tobytes() == want.gt_depth.tobytes()
                assert got.skipped == want.skipped
                assert got.center_uv == want.center_uv


class TestScnFormat:
    def test_round_trip_bitwise(self):
        scene = generate_scene(small_config())
        text = scene_string(scene)
        back = read_scene(io.StringIO(text))
        assert scene_string(back) == text
        assert np.array_equal(back.points, scene.points)
        assert np.array_equal(back.labels, scene.labels)
        assert back.grid == scene.grid
        assert len(back.cameras) == len(scene.cameras)
        for ca, cb in zip(scene.cameras, back.cameras):
            assert (ca.fx, ca.fy, ca.cx, ca.cy) == (cb.fx, cb.fy, cb.cx, cb.cy)
            assert (ca.width, ca.height, ca.z_near) == (cb.width, cb.height, cb.z_near)
            assert np.array_equal(ca.world_to_cam.rotation, cb.world_to_cam.rotation)
            assert np.array_equal(ca.world_to_cam.translation, cb.world_to_cam.translation)
        for ba, bb in zip(scene.boxes, back.boxes):
            assert np.array_equal(ba.center, bb.center)
            assert np.array_equal(ba.size, bb.size)
            assert ba.yaw == bb.yaw

    def test_round_trip_path(self, tmp_path):
        scene = generate_scene(small_config(num_boxes=1))
        path = tmp_path / "scene.scn"
        write_scene(path, scene)
        back = read_scene(path)
        assert np.array_equal(back.points, scene.points)

    def test_empty_scene_round_trip(self):
        cfg = small_config(num_boxes=0, ground_points=0)
        scene = generate_scene(cfg)
        back = read_scene(io.StringIO(scene_string(scene)))
        assert back.points.shape == (0, 3)
        assert back.boxes == []

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError):
            read_scene(io.StringIO("SCN 2\n"))
        with pytest.raises(FormatError):
            read_scene(io.StringIO("hello\n"))

    def test_truncated_file_rejected(self):
        scene = generate_scene(small_config(num_boxes=1))
        text = scene_string(scene)
        lines = text.splitlines(keepends=True)
        truncated = "".join(lines[: len(lines) // 2])
        with pytest.raises(FormatError):
            read_scene(io.StringIO(truncated))

    def test_wrong_keyword_rejected(self):
        scene = generate_scene(small_config(num_boxes=0, ground_points=0))
        text = scene_string(scene).replace("boxes 0", "boxen 0")
        with pytest.raises(FormatError):
            read_scene(io.StringIO(text))

    @pytest.mark.parametrize(
        "old, new",
        [("grid -24.0", "grid a"), ("cameras 3", "cameras x"), ("\n-1 ", "\nz "),
         ("grid -24.0 24.0 -24.0 24.0 32 32", "grid 0 1 0 1"), ("cameras 3", "cameras"),
         ("cameras 3", "cameras 3 4"), ("cameras 3", "cameras -1"), ("boxes 1", "boxes 1.5")],
        ids=["grid-word", "cameras-word", "label-word", "grid-short", "cameras-bare",
             "cameras-long", "cameras-negative", "boxes-float"],
    )
    def test_malformed_line_is_format_error(self, old, new):
        """A missing, extra or unparsable token raises FormatError, not a
        ValueError or IndexError from the parse."""
        text = scene_string(generate_scene(small_config(num_boxes=1)))
        assert old in text
        with pytest.raises(FormatError):
            read_scene(io.StringIO(text.replace(old, new, 1)))

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("position", [0, 4, 6], ids=["center", "size", "yaw"])
    def test_non_finite_box_token_is_contract_error(self, token, position):
        """A box line that parses but holds an infinite or NaN center,
        size or yaw raises the box's ContractError."""
        text = scene_string(generate_scene(small_config(num_boxes=1)))
        line = next(row for row in text.splitlines() if row.startswith("box "))
        toks = line.split()
        toks[1 + position] = token
        with pytest.raises(ContractError, match="finite"):
            read_scene(io.StringIO(text.replace(line, " ".join(toks), 1)))

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key, position", [("camera", 2), ("rot", 0), ("t", 1)], ids=["camera", "rot", "t"])
    def test_non_finite_camera_token_is_contract_error(self, token, key, position):
        """A camera, rot or t line that parses but holds an infinite or NaN
        value raises the camera's ContractError, rather than giving a
        camera that culls every point."""
        text = scene_string(generate_scene(small_config(num_boxes=1)))
        line = next(row for row in text.splitlines() if row.startswith(key + " "))
        toks = line.split()
        toks[1 + position] = token
        with pytest.raises(ContractError, match="finite"):
            read_scene(io.StringIO(text.replace(line, " ".join(toks), 1)))

    def test_well_formed_bad_geometry_is_contract_error(self):
        """A stream that parses but describes a bad grid raises a
        ContractError that names the SCN grid line, not a config field."""
        text = scene_string(generate_scene(small_config(num_boxes=1)))
        for old, new, message in [
            ("grid -24.0 24.0", "grid 24.0 -24.0", "x_max must be > x_min (24.0), got -24.0"),
            (" 32 32\n", " 0 32\n", "h_bev must be an integer >= 1, got 0"),
        ]:
            assert text.count(old) == 1
            with pytest.raises(ContractError) as err:
                read_scene(io.StringIO(text.replace(old, new, 1)))
            assert str(err.value) == f"SCN 'grid' line: {message}"


@st.composite
def mutated(draw, text):
    """``text`` after one to three edits, each a truncation, a dropped or
    duplicated whitespace-separated token, or a digit changed to another."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("truncate", "drop", "duplicate", "flip")))
        if op == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif op == "flip":
            digits = [i for i, ch in enumerate(text) if ch.isdigit()]
            if digits:
                i = digits[draw(st.integers(0, len(digits) - 1))]
                text = text[:i] + draw(st.sampled_from("0123456789".replace(text[i], ""))) + text[i + 1:]
        else:
            spans = [m.span() for m in re.finditer(r"\S+", text)]
            if spans:
                a, b = spans[draw(st.integers(0, len(spans) - 1))]
                text = text[:a] + text[b:] if op == "drop" else text[:b] + " " + text[a:b] + text[b:]
    return text


@functools.lru_cache(maxsize=None)
def scn_texts():
    """SCN streams of scenes with 0, 1 and 2 boxes and few points."""
    return tuple(
        scene_string(generate_scene(small_config(num_boxes=n, num_cameras=2, points_per_box=3, ground_points=5)))
        for n in (0, 1, 2)
    )


def tsr_text(arr):
    buf = io.StringIO()
    write_tsr(buf, arr)
    return buf.getvalue()


class TestMutatedStreams:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_scn_reads_back_or_is_format_or_contract_error(self, data):
        """A truncated SCN stream, or one with a dropped, duplicated or
        changed token, either reads back as a scene or raises FormatError
        or ContractError, never another exception."""
        text = data.draw(mutated(data.draw(st.sampled_from(scn_texts()))))
        try:
            scene = read_scene(io.StringIO(text))
        except (FormatError, ContractError):
            return
        assert isinstance(scene, SyntheticScene)
        assert scene.points.shape == (len(scene.labels), 3)
        assert np.all((scene.labels >= -1) & (scene.labels < len(scene.boxes)))

    @pytest.mark.parametrize("label", ["7", "1", "-2", "99999999999999999999999"])
    def test_label_outside_the_boxes_is_format_error(self, label):
        """A label that names no box of the stream, or is below -1, raises
        FormatError, also one too large for int64."""
        text = scn_texts()[1]
        head, tail = text.split("labels\n")
        first, rest = tail.split(" ", 1)
        assert first in ("-1", "0")
        with pytest.raises(FormatError, match="labels must lie in"):
            read_scene(io.StringIO(f"{head}labels\n{label} {rest}"))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=st.sampled_from([(3,), (2, 3), (2, 1, 2)]), seed=st.integers(0, 2**32))
    def test_tsr_reads_back_or_is_format_error(self, data, shape, seed):
        """The same edits of a TSR stream either read back as a finite
        tensor or raise FormatError."""
        text = data.draw(mutated(tsr_text(CounterRng(seed).normal(shape) * 1e3)))
        try:
            arr = read_tsr(io.StringIO(text))
        except FormatError:
            return
        assert arr.dtype == np.float64 and np.all(np.isfinite(arr))
