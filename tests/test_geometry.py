"""Rigid transforms, pinhole projection, box containment, rasterization,
foreground extraction, and BEV grid mapping."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodistill import (
    BevGrid,
    Box3D,
    CameraModel,
    ContractError,
    ForegroundDepthSet,
    RigidTransform,
    bev_to_world,
    build_gt_depth_map,
    enlarge_box_bev,
    normalize_yaw,
    points_in_box,
    project_points,
    rot_z,
    unproject_pixel,
    world_to_bev,
)
from geodistill.geometry import render_view
from geodistill.oracles import point_in_box_corners, project_point_scalar
from geodistill.rng import CounterRng


def make_camera(yaw=0.0, position=(0.0, 0.0, 0.0), fx=100.0, fy=100.0, width=100, height=100):
    """Camera at `position` looking along world +x rotated by `yaw`.

    Camera frame: +z forward, +x right, +y down.
    """
    c, s = math.cos(yaw), math.sin(yaw)
    forward = np.array([c, s, 0.0])
    right = np.array([s, -c, 0.0])
    down = np.array([0.0, 0.0, -1.0])
    # columns: right, down, forward
    cam_to_world = np.stack([right, down, forward], axis=1)
    pos = np.asarray(position, dtype=float)
    world_to_cam = RigidTransform(rotation=cam_to_world.T, translation=-cam_to_world.T @ pos)
    return CameraModel(
        fx=fx, fy=fy, cx=width / 2.0, cy=height / 2.0,
        width=width, height=height, world_to_cam=world_to_cam,
    )


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ContractError):
            RigidTransform(rotation=np.eye(3) * 2.0, translation=np.zeros(3))

    def test_rejects_reflection(self):
        """det = -1 matrices are not rotations."""
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ContractError):
            RigidTransform(rotation=r, translation=np.zeros(3))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["rotation", "translation"])
    def test_non_finite_motion_rejected(self, field, value):
        """An infinite or NaN rotation or translation entry is a
        ContractError, where a NaN would pass the orthonormality check."""
        kw = {"rotation": np.eye(3), "translation": np.zeros(3)}
        kw[field].flat[1] = value
        with pytest.raises(ContractError, match="finite"):
            RigidTransform(**kw)

    def test_inverse_round_trip(self):
        """apply then inverse-apply recovers points within 1e-12."""
        rng = CounterRng(21)
        for i in range(10):
            sub = rng.substream(f"rt-{i}")
            angle = float(sub.uniform(1, 0.0, 2.0 * math.pi)[0])
            t = RigidTransform(rotation=rot_z(angle), translation=sub.normal(3))
            pts = sub.normal((12, 3), sigma=4.0)
            back = t.inverse().apply(t.apply(pts))
            assert np.allclose(back, pts, rtol=0, atol=1e-12)


class TestCameraModel:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy", "width", "height", "z_near"])
    def test_non_finite_intrinsics_rejected(self, field, value):
        """An infinite or NaN intrinsic, extent or z_near is a
        ContractError, where a NaN would pass the sign checks."""
        with pytest.raises(ContractError, match="finite"):
            dataclasses.replace(make_camera(), **{field: value})


class TestNormalizeYaw:
    def test_half_open_range(self):
        """Results land in (-pi, pi]; pi maps to pi, -pi maps to pi."""
        assert normalize_yaw(math.pi) == pytest.approx(math.pi)
        assert normalize_yaw(-math.pi) == pytest.approx(math.pi)
        assert normalize_yaw(0.0) == 0.0
        assert normalize_yaw(3.0 * math.pi) == pytest.approx(math.pi)
        for k in range(-5, 6):
            y = normalize_yaw(0.7 + 2.0 * math.pi * k)
            assert y == pytest.approx(0.7, abs=1e-12)


class TestProjection:
    def test_on_axis_point(self):
        """A point on the optical axis lands at the principal point."""
        cam = make_camera()
        proj = project_points(cam, np.array([[10.0, 0.0, 0.0]]))
        assert len(proj.u) == 1
        assert proj.u[0] == pytest.approx(50.0)
        assert proj.v[0] == pytest.approx(50.0)
        assert proj.depth[0] == pytest.approx(10.0)

    def test_point_behind_camera_is_culled(self):
        cam = make_camera()
        proj = project_points(cam, np.array([[-1.0, 0.0, 0.0]]))
        assert len(proj.u) == 0

    def test_near_plane_culling(self):
        """Points at or inside z_near are dropped, just past it survive."""
        cam = make_camera()
        proj = project_points(cam, np.array([[0.1, 0.0, 0.0], [0.11, 0.0, 0.0]]))
        assert list(proj.index) == [1]

    def test_out_of_bounds_culled(self):
        """u on the closed left edge is kept; the open right edge culls.

        World +y is camera-left here, so [10, 5, 0] maps to u = 0 and
        [10, -5, 0] maps to u = 100 = width, which the half-open bound
        excludes.
        """
        cam = make_camera()
        proj = project_points(cam, np.array([[10.0, 5.0, 0.0], [10.0, -5.0, 0.0]]))
        assert list(proj.index) == [0]
        assert proj.u[0] == pytest.approx(0.0)

    def test_matches_scalar_oracle(self):
        """Vectorized projection equals the scalar oracle on random scenes."""
        rng = CounterRng(31)
        for i in range(10):
            sub = rng.substream(f"proj-{i}")
            cam = make_camera(yaw=float(sub.uniform(1, 0, 2 * math.pi)[0]), position=sub.normal(3))
            pts = sub.normal((50, 3), sigma=6.0)
            proj = project_points(cam, pts)
            scalar = {j: project_point_scalar(cam, p) for j, p in enumerate(pts)}
            scalar = {j: v for j, v in scalar.items() if v is not None}
            assert sorted(scalar) == list(proj.index)
            for k, j in enumerate(proj.index):
                u, v, z = scalar[int(j)]
                assert abs(u - proj.u[k]) <= 1e-9
                assert abs(v - proj.v[k]) <= 1e-9
                assert abs(z - proj.depth[k]) <= 1e-9

    def test_unproject_round_trip(self):
        """Pixel + depth unprojects to a world point that reprojects back."""
        cam = make_camera(yaw=0.4, position=(1.0, -2.0, 0.5))
        rng = CounterRng(7)
        us = rng.uniform(100, 0.0, 100.0)
        vs = rng.uniform(100, 0.0, 100.0)
        zs = rng.uniform(100, 0.5, 40.0)
        for u, v, z in zip(us, vs, zs):
            world = unproject_pixel(cam, u, v, z)
            proj = project_points(cam, world[None, :])
            assert len(proj.u) == 1
            assert abs(proj.u[0] - u) <= 1e-9
            assert abs(proj.v[0] - v) <= 1e-9
            assert abs(proj.depth[0] - z) <= 1e-9


class TestPointsInBox:
    def test_center_inside(self):
        box = Box3D(center=np.array([1.0, 2.0, 3.0]), size=np.array([4.0, 2.0, 1.5]), yaw=0.7)
        assert points_in_box(box, box.center[None, :])[0]

    def test_just_outside_face(self):
        """Epsilon past the +length face is outside for yaw 0."""
        box = Box3D(center=np.zeros(3), size=np.array([4.0, 2.0, 1.5]), yaw=0.0)
        assert not points_in_box(box, np.array([[2.0 + 1e-9, 0.0, 0.0]]))[0]
        assert points_in_box(box, np.array([[2.0, 0.0, 0.0]]))[0]  # boundary inclusive

    def test_rotated_box(self):
        """A box at yaw pi/4 contains points along its rotated axis."""
        box = Box3D(center=np.zeros(3), size=np.array([4.0, 0.5, 2.0]), yaw=math.pi / 4)
        d = 1.9 / math.sqrt(2.0)
        assert points_in_box(box, np.array([[d, d, 0.0]]))[0]
        assert not points_in_box(box, np.array([[1.9, 0.0, 0.0]]))[0]

    def test_matches_halfspace_oracle(self):
        """Masks agree with the corner/axis oracle on seeded points."""
        rng = CounterRng(13)
        for i in range(20):
            sub = rng.substream(f"box-{i}")
            draw = sub.uniform(7)
            box = Box3D(
                center=np.array([2 * draw[0] - 1, 2 * draw[1] - 1, draw[2]]),
                size=np.array([1 + 2 * draw[3], 1 + draw[4], 1 + draw[5]]),
                yaw=2 * math.pi * draw[6] - math.pi,
            )
            pts = sub.normal((50, 3), sigma=1.5)
            mask = points_in_box(box, pts)
            for j, p in enumerate(pts):
                assert bool(mask[j]) == point_in_box_corners(box, p)


class TestDepthMap:
    def test_min_depth_collision(self):
        """Two points in one pixel keep the smaller depth."""
        cam = make_camera()
        pts = np.array([[5.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        depth, valid = build_gt_depth_map(cam, pts)
        assert valid[50, 50]
        assert depth[50, 50] == 3.0
        assert valid.sum() == 1

    def test_empty_cloud(self):
        cam = make_camera()
        depth, valid = build_gt_depth_map(cam, np.zeros((0, 3)))
        assert not valid.any()

    def test_single_point(self):
        """One visible point marks exactly one pixel with its camera depth."""
        cam = make_camera()
        depth, valid = build_gt_depth_map(cam, np.array([[7.0, 0.1, -0.2]]))
        assert valid.sum() == 1
        r, c = np.argwhere(valid)[0]
        assert depth[r, c] == pytest.approx(7.0)

    def test_invalid_pixels_hold_zero(self):
        cam = make_camera()
        depth, valid = build_gt_depth_map(cam, np.array([[7.0, 0.0, 0.0]]))
        assert np.all(depth[~valid] == 0.0)


class TestForegroundSets:
    def test_empty_box_is_skipped(self):
        """A box containing no points produces a skipped set."""
        cam = make_camera()
        box = Box3D(center=np.array([50.0, 40.0, 0.0]), size=np.ones(3), yaw=0.0)
        pts = np.array([[10.0, 0.0, 0.0]])
        sets = render_view(cam, [box], pts)[2]
        assert len(sets) == 1 and sets[0].skipped

    def test_single_pixel_box_is_skipped(self):
        """Fewer than 2 distinct pixels cannot anchor relative depth."""
        cam = make_camera()
        box = Box3D(center=np.array([10.0, 0.0, 0.0]), size=np.array([2.0, 2.0, 2.0]), yaw=0.0)
        sets = render_view(cam, [box], np.array([[10.0, 0.0, 0.0]]))[2]
        assert sets[0].skipped

    def test_entries_match_projection(self):
        """Each retained entry reproduces its source point's projection."""
        cam = make_camera()
        box = Box3D(center=np.array([10.0, 0.0, 0.0]), size=np.array([4.0, 4.0, 2.0]), yaw=0.0)
        pts = np.array(
            [[9.0, -0.8, 0.3], [10.5, 0.9, -0.4], [11.0, 0.0, 0.6], [10.0, 1.5, 0.0]]
        )
        sets = render_view(cam, [box], pts)[2]
        fds = sets[0]
        assert not fds.skipped
        assert len(fds) == 4
        proj = project_points(cam, pts)
        by_pixel = {}
        for k in range(len(proj.u)):
            px = (int(math.floor(proj.u[k])), int(math.floor(proj.v[k])))
            by_pixel[px] = min(by_pixel.get(px, np.inf), proj.depth[k])
        for (x, y), d in zip(fds.pixels, fds.gt_depth):
            assert by_pixel[(int(x), int(y))] == pytest.approx(d, rel=1e-12)

    def test_row_major_order_and_dedup(self):
        """Pixels are sorted by row then column and unique."""
        cam = make_camera()
        box = Box3D(center=np.array([10.0, 0.0, 0.0]), size=np.array([6.0, 6.0, 4.0]), yaw=0.0)
        pts = CounterRng(9).normal((40, 3), sigma=1.0) + np.array([10.0, 0.0, 0.0])
        fds = render_view(cam, [box], pts)[2][0]
        keys = fds.pixels[:, 1] * cam.width + fds.pixels[:, 0]
        assert np.all(np.diff(keys) > 0)

    def test_shared_point_appears_in_both_boxes(self):
        """Overlapping boxes independently claim a shared point."""
        cam = make_camera()
        b1 = Box3D(center=np.array([10.0, 0.0, 0.0]), size=np.array([4.0, 4.0, 4.0]), yaw=0.0)
        b2 = Box3D(center=np.array([11.0, 0.0, 0.0]), size=np.array([4.0, 4.0, 4.0]), yaw=0.0)
        pts = np.array([[10.5, 0.5, 0.0], [10.5, -0.5, 0.3], [10.4, 0.1, -0.5]])
        sets = render_view(cam, [b1, b2], pts)[2]
        assert not sets[0].skipped and not sets[1].skipped
        assert len(sets[0]) == len(sets[1]) == 3

    def test_validation(self):
        with pytest.raises(ContractError):
            ForegroundDepthSet(
                target_index=0,
                pixels=np.array([[1, 1], [1, 1]]),
                gt_depth=np.array([2.0, 3.0]),
                skipped=False,
            )
        with pytest.raises(ContractError):
            ForegroundDepthSet(
                target_index=0,
                pixels=np.array([[1, 1], [2, 1]]),
                gt_depth=np.array([2.0, -3.0]),
                skipped=False,
            )
        # a gt depth must be finite as well as positive
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ContractError, match="finite and positive"):
                ForegroundDepthSet(
                    target_index=0, pixels=np.array([[1, 1], [2, 1]]), gt_depth=np.array([bad, 3.0]), skipped=False
                )
        # duplicates that are not adjacent are still found
        with pytest.raises(ContractError):
            ForegroundDepthSet(
                target_index=0,
                pixels=np.array([[1, 1], [2, 1], [1, 1]]),
                gt_depth=np.array([2.0, 3.0, 4.0]),
                skipped=False,
            )
        # unique pixels need not be sorted
        fds = ForegroundDepthSet(
            target_index=0,
            pixels=np.array([[3, 2], [1, 1], [2, 1], [0, 2]]),
            gt_depth=np.array([2.0, 3.0, 4.0, 5.0]),
            skipped=False,
        )
        assert len(fds) == 4


class TestBox3D:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["center", "size", "yaw"])
    def test_non_finite_geometry_rejected(self, field, value):
        """An infinite or NaN center, size or yaw is a ContractError."""
        kw = {"center": np.zeros(3), "size": np.ones(3), "yaw": 0.0}
        if field == "yaw":
            kw[field] = value
        else:
            kw[field][1] = value
        with pytest.raises(ContractError, match="finite"):
            Box3D(**kw)


class TestBevGridMapping:
    def test_grid_center_maps_to_center_cell_corner(self):
        """The world center lands at (H/2 - 0.5, W/2 - 0.5)."""
        grid = BevGrid(-24.0, 24.0, -24.0, 24.0, 64, 64)
        rc = world_to_bev(grid, np.array([0.0, 0.0]))
        assert rc[0] == pytest.approx(31.5)
        assert rc[1] == pytest.approx(31.5)

    def test_min_corner_maps_to_minus_half(self):
        grid = BevGrid(-24.0, 24.0, -24.0, 24.0, 64, 64)
        rc = world_to_bev(grid, np.array([-24.0, -24.0]))
        assert rc[0] == pytest.approx(-0.5)
        assert rc[1] == pytest.approx(-0.5)

    def test_round_trip(self):
        """world -> bev -> world is the identity within 1e-12."""
        grid = BevGrid(-10.0, 30.0, -20.0, 4.0, 48, 96)
        pts = CounterRng(17).uniform((64, 2), -9.0, 3.0)
        back = bev_to_world(grid, world_to_bev(grid, pts))
        assert np.allclose(back, pts, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(), (1,), (7,), (1, 1), (3, 4), (2, 5)]), seed=st.integers(0, 2**64 - 1))
    def test_points_map_one_at_a_time_in_any_shape(self, shape, seed):
        """A (2,), (P, 2) or (A, B, 2) input keeps its shape, each output
        point equals the one-point call bit for bit, and the round trip
        holds to 1e-12."""
        grid = BevGrid(-10.0, 30.0, -20.0, 4.0, 48, 96)
        pts = CounterRng(seed).uniform(shape + (2,), -25.0, 35.0)
        rc = world_to_bev(grid, pts)
        back = bev_to_world(grid, rc)
        assert rc.shape == back.shape == pts.shape
        for idx in np.ndindex(shape):
            assert np.array_equal(rc[idx], world_to_bev(grid, pts[idx]))
            assert np.array_equal(back[idx], bev_to_world(grid, rc[idx]))
        assert np.allclose(back, pts, rtol=0, atol=1e-12)

    def test_enlarge_box(self):
        """Factor 1.25 scales footprint only; height is untouched."""
        box = Box3D(center=np.zeros(3), size=np.array([4.0, 2.0, 1.5]), yaw=0.3)
        big = enlarge_box_bev(box, 1.25)
        assert np.allclose(big.size, [5.0, 2.5, 1.5])
        assert enlarge_box_bev(box, 1.0).size == pytest.approx(box.size)
        with pytest.raises(ValueError):
            enlarge_box_bev(box, 0.9)

    def test_enlarged_contains_original_corners(self):
        """All four original footprint corners sit inside the enlarged box."""
        rng = CounterRng(23)
        for i in range(20):
            sub = rng.substream(f"enl-{i}")
            draw = sub.uniform(6)
            box = Box3D(
                center=np.array([20 * draw[0] - 10, 20 * draw[1] - 10, 0.8]),
                size=np.array([3 + 2 * draw[2], 1.5 + draw[3], 1.5]),
                yaw=2 * math.pi * draw[4] - math.pi,
            )
            big = enlarge_box_bev(box, 1.0 + draw[5])
            half = box.size[:2] / 2.0
            local = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]) * half
            footprint = local @ rot_z(box.yaw)[:2, :2].T + box.center[:2]
            corners = np.column_stack([footprint, np.full(4, box.center[2])])
            assert points_in_box(big, corners).all()
