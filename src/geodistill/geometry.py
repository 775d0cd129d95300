"""Projection geometry: rigid transforms, pinhole cameras, oriented 3D
boxes, the bird's-eye-view grid, and ground-truth depth rasterization.

Conventions used throughout the package:

* World frame: z up.  Box yaw rotates the box's length axis counter-
  clockwise about +z; yaw is normalized to (-pi, pi].
* Image rasterization: a sub-pixel projection (u, v) lands in integer
  pixel (floor(u), floor(v)); pixel collisions keep the minimum depth.
* BEV grid: col = (x - x_min) / (x_max - x_min) * W - 0.5, row likewise
  in y, so the center of integer cell (r, c) has continuous coordinate
  exactly (r, c).  Bilinear sampling at integer coordinates therefore
  returns the stored cell value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import _check_fields, _ranged, as_tensor, check_finite

DEFAULT_Z_NEAR = 0.1


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - yaw) % (2.0 * math.pi)


def rot_z(yaw: float) -> np.ndarray:
    """3x3 rotation about +z by ``yaw`` (counter-clockwise)."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class RigidTransform:
    """Proper rigid motion p -> R p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = as_tensor(self.rotation)
        self.translation = as_tensor(self.translation)
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise ContractError("rigid transform needs a 3x3 rotation and 3-vector translation")
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise ContractError("rigid transform rotation and translation must be finite")
        err = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(3)))
        if err > 1e-9:
            raise ContractError(f"rotation is not orthonormal (max deviation {err:.3e})")
        if abs(np.linalg.det(self.rotation) - 1.0) > 1e-9:
            raise ContractError("rotation determinant is not +1")

    def apply(self, points) -> np.ndarray:
        """Transform one point (3,) or a stack (P, 3)."""
        pts = as_tensor(points)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rot = self.rotation.T
        return RigidTransform(rot, -(rot @ self.translation))


@dataclass
class CameraModel:
    """Pinhole camera: intrinsics in pixels plus a world-to-camera transform.

    Camera frame: +z forward (viewing direction), +x right, +y down, so
    u = fx*x/z + cx, v = fy*y/z + cy.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    world_to_cam: RigidTransform
    z_near: float = DEFAULT_Z_NEAR

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy, self.z_near)):
            raise ContractError("camera intrinsics and z_near must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ContractError("focal lengths must be positive")
        if not (1 <= self.width < math.inf and 1 <= self.height < math.inf):
            raise ContractError("image extents must be finite and >= 1")
        if self.z_near <= 0:
            raise ContractError("z_near must be positive")


@dataclass
class Box3D:
    """Oriented 3D box: center, (length, width, height), yaw about +z."""

    center: np.ndarray
    size: np.ndarray
    yaw: float

    def __post_init__(self):
        self.center = as_tensor(self.center)
        self.size = as_tensor(self.size)
        if self.center.shape != (3,) or self.size.shape != (3,):
            raise ContractError("box center and size must be 3-vectors")
        if not (np.isfinite(self.center).all() and np.isfinite(self.size).all() and math.isfinite(self.yaw)):
            raise ContractError("box center, size and yaw must be finite")
        if np.any(self.size <= 0):
            raise ContractError("box size components must be positive")
        self.yaw = normalize_yaw(float(self.yaw))


@dataclass(frozen=True)
class BevGrid:
    """World extents and cell counts of the bird's-eye-view feature plane."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    h_bev: int = _ranged(dataclasses.MISSING, ">= 1", lambda v: v >= 1)
    w_bev: int = _ranged(dataclasses.MISSING, ">= 1", lambda v: v >= 1)

    def __post_init__(self):
        _check_fields("scene.grid.", BevGrid, vars(self))
        for axis in "xy":
            lo, hi = float(getattr(self, f"{axis}_min")), float(getattr(self, f"{axis}_max"))
            if not hi > lo:
                raise ConfigError(f"scene.grid.{axis}_max must be > {axis}_min ({lo!r}), got {hi!r}")
            vars(self).update({f"{axis}_min": lo, f"{axis}_max": hi})


@dataclass
class ProjectedPoints:
    """In-frustum projections: parallel arrays of pixel coords, depth, and
    the index of the source point in the input array."""

    u: np.ndarray
    v: np.ndarray
    depth: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return self.u.size


def project_points(cam: CameraModel, points) -> ProjectedPoints:
    """Project world points through ``cam``, keeping only in-frustum hits.

    A point survives when its camera-frame depth exceeds ``cam.z_near``
    and its sub-pixel coordinate lies in [0, width) x [0, height).
    """
    pts = as_tensor(points).reshape(-1, 3)
    check_finite(pts, "points")
    cam_pts = cam.world_to_cam.apply(pts)
    z = cam_pts[:, 2]
    front = z > cam.z_near
    u = np.full(len(pts), -1.0)
    v = np.full(len(pts), -1.0)
    u[front] = cam.fx * cam_pts[front, 0] / z[front] + cam.cx
    v[front] = cam.fy * cam_pts[front, 1] / z[front] + cam.cy
    keep = front & (u >= 0.0) & (u < cam.width) & (v >= 0.0) & (v < cam.height)
    idx = np.nonzero(keep)[0]
    return ProjectedPoints(u=u[idx], v=v[idx], depth=z[idx], index=idx)


def unproject_pixel(cam: CameraModel, u: float, v: float, depth: float) -> np.ndarray:
    """Invert the pinhole projection: pixel plus camera-frame depth to world."""
    x = (u - cam.cx) / cam.fx * depth
    y = (v - cam.cy) / cam.fy * depth
    return cam.world_to_cam.inverse().apply(np.array([x, y, depth]))


def box_frame(box: Box3D, points: np.ndarray) -> np.ndarray:
    """World points, (P, 3) or (P, 2) in the ground plane, in the box's
    local frame: centered on the box and rotated by -yaw."""
    k = points.shape[-1]
    return (points - box.center[:k]) @ rot_z(-box.yaw)[:k, :k].T


def points_in_box(box: Box3D, points) -> np.ndarray:
    """Boundary-inclusive containment test in the box's local frame."""
    return np.all(np.abs(box_frame(box, as_tensor(points).reshape(-1, 3))) <= box.size / 2.0, axis=1)


def build_gt_depth_map(cam: CameraModel, points) -> Tuple[np.ndarray, np.ndarray]:
    """Rasterize points into a per-pixel depth map with a min-depth z-buffer.

    Returns (depth, valid); depth is 0 at pixels no point reached.
    """
    depth, valid, _ = render_view(cam, [], points)
    return depth, valid


@dataclass
class ForegroundDepthSet:
    """Ground-truth depth samples of one target in one camera view.

    ``pixels`` holds integer (x, y) = (col, row) coordinates sorted in
    row-major order (y first, then x), with per-pixel min-depth dedup
    already applied.  ``center_uv`` is the sub-pixel projection of the
    box's 3D center, or None when the center does not project into the
    image.  ``skipped`` flags exactly the sets of fewer than 2 pixels: relative
    depth needs a reference and one more.  Its camera is its view's.
    """

    target_index: int
    pixels: np.ndarray
    gt_depth: np.ndarray
    skipped: bool
    center_uv: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.int64).reshape(-1, 2)
        self.gt_depth = as_tensor(self.gt_depth).reshape(-1)
        if self.pixels.shape[0] != self.gt_depth.shape[0]:
            raise ContractError("pixels and gt_depth lengths disagree")
        if self.skipped != (len(self.pixels) < 2):
            raise ContractError(f"skipped={self.skipped} contradicts a set of {len(self.pixels)} pixels")
        if not self.skipped:
            if not np.all(np.isfinite(self.gt_depth) & (self.gt_depth > 0)):
                raise ContractError("foreground gt depths must be finite and positive")
            # duplicates are adjacent once sorted: the verdict of np.unique
            ordered = self.pixels[np.lexsort(self.pixels.T)]
            if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
                raise ContractError("foreground pixels must be unique within a set")

    def __len__(self) -> int:
        return self.pixels.shape[0]


def _dedup_min_depth(cols: np.ndarray, rows: np.ndarray, depth: np.ndarray):
    """Row-major sort plus per-pixel min-depth dedup."""
    order = np.lexsort((depth, cols, rows))
    cols, rows, depth = cols[order], rows[order], depth[order]
    first = np.ones(len(cols), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return cols[first], rows[first], depth[first]


def render_view(
    cam: CameraModel,
    boxes: List[Box3D],
    points,
    inside: Optional[List[np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, List[ForegroundDepthSet]]:
    """``build_gt_depth_map`` of one camera and its per-box foreground
    sets, in box order, from one projection of the points and the box
    centers.  Membership is evaluated per box independently, so a point
    inside two overlapping boxes contributes to both sets.  ``inside[j]``
    is ``points_in_box(boxes[j], points)``; pass it to share it between
    cameras.  The sets carry no camera: the caller's view does."""
    pts = as_tensor(points).reshape(-1, 3)
    if inside is None:
        inside = [points_in_box(box, pts) for box in boxes]
    n = len(pts)
    proj = project_points(cam, np.concatenate([pts, np.reshape([b.center for b in boxes], (-1, 3))]))
    k = np.searchsorted(proj.index, n)  # hits of the points, then of the centers
    index, z = proj.index[:k], proj.depth[:k]
    cols = np.floor(proj.u[:k]).astype(np.int64)
    rows = np.floor(proj.v[:k]).astype(np.int64)
    depth = np.full((cam.height, cam.width), np.inf)
    np.minimum.at(depth, (rows, cols), z)
    valid = np.isfinite(depth)
    depth[~valid] = 0.0
    center_uv = {int(i) - n: (float(u), float(v)) for i, u, v in zip(proj.index[k:], proj.u[k:], proj.v[k:])}
    sets = []
    for j, mask in enumerate(inside):
        sel = mask[index]
        c, r, d = _dedup_min_depth(cols[sel], rows[sel], z[sel])
        sets.append(ForegroundDepthSet(
            target_index=j, pixels=np.stack([c, r], axis=1), gt_depth=d,
            skipped=len(c) < 2, center_uv=center_uv.get(j),
        ))
    return depth, valid, sets


def enlarge_box_bev(box: Box3D, factor: float) -> Box3D:
    """Scale the box footprint (length and width) by ``factor`` >= 1."""
    if factor < 1.0:
        raise ValueError(f"enlargement factor must be >= 1, got {factor}")
    size = box.size.copy()
    size[0] *= factor
    size[1] *= factor
    return Box3D(center=box.center.copy(), size=size, yaw=box.yaw)


def world_to_bev(grid: BevGrid, xy) -> np.ndarray:
    """Map world (x, y) to continuous BEV (row, col) over the last axis."""
    pts = as_tensor(xy)
    col = (pts[..., 0] - grid.x_min) / (grid.x_max - grid.x_min) * grid.w_bev - 0.5
    row = (pts[..., 1] - grid.y_min) / (grid.y_max - grid.y_min) * grid.h_bev - 0.5
    return np.stack([row, col], axis=-1)


def bev_to_world(grid: BevGrid, rowcol) -> np.ndarray:
    """Inverse of world_to_bev: continuous (row, col) to world (x, y)."""
    rc = as_tensor(rowcol)
    x = (rc[..., 1] + 0.5) / grid.w_bev * (grid.x_max - grid.x_min) + grid.x_min
    y = (rc[..., 0] + 0.5) / grid.h_bev * (grid.y_max - grid.y_min) + grid.y_min
    return np.stack([x, y], axis=-1)
