"""Deterministic synthetic scenes: oriented boxes on a ground plane,
surface point samples standing in for a laser scan, a ring of outward-
facing cameras, and a teacher BEV feature map with planted per-target
inner structure.

Everything is a pure function of the config; the counter-based
generator in ``rng`` makes output bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, TextIO, Tuple

import numpy as np

from .bev_distillation import BevFeatureMap
from .errors import ConfigError, ContractError, FormatError, GenerationError
from .geometry import (
    BevGrid,
    Box3D,
    CameraModel,
    ForegroundDepthSet,
    RigidTransform,
    bev_to_world,
    build_gt_depth_map,
    foreground_pixel_sets,
    rot_z,
)
from .numerics import as_tensor, open_text, read_tsr, write_tsr
from .rng import CounterRng

# Local face coordinates are shrunk by this relative factor so that the
# rotate-into-world / rotate-back round trip cannot push a surface point
# outside its own box by floating-point noise.
FACE_INSET = 1e-12


@dataclass
class SceneConfig:
    """Knobs of the synthetic scene generator.

    Boxes are placed on a ring around the origin between
    ``place_radius_min`` and ``place_radius_max`` with non-overlapping
    footprints; cameras sit near the origin facing outward and jointly
    cover 360 degrees.
    """

    seed: int = 42
    num_boxes: int = 4
    num_cameras: int = 6
    points_per_box: int = 300
    ground_points: int = 2048
    channels: int = 16
    grid: BevGrid = field(default_factory=lambda: BevGrid(-24.0, 24.0, -24.0, 24.0, 64, 64))
    length_range: Tuple[float, float] = (3.8, 5.5)
    width_range: Tuple[float, float] = (1.6, 2.2)
    height_range: Tuple[float, float] = (1.4, 1.9)
    place_radius_min: float = 8.0
    place_radius_max: float = 18.0
    place_clearance: float = 0.5
    max_place_attempts: int = 1000
    ground_radius: float = 22.0
    image_width: int = 96
    image_height: int = 64
    focal: float = 70.0
    cam_height: float = 1.6
    cam_ring_radius: float = 0.5
    z_near: float = 0.1
    teacher_amplitude: float = 1.0
    teacher_noise: float = 0.05
    enlarge: float = 1.25

    def __post_init__(self):
        # CounterRng keeps 64 bits of the seed; a wider one would alias another
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"scene.seed must be in [0, 2**64), got {self.seed!r}")
        if min(self.num_boxes, self.num_cameras, self.points_per_box, self.ground_points) < 0:
            raise ContractError("scene counts must be non-negative")
        if self.num_cameras < 1:
            raise ContractError("need at least one camera")
        if self.channels < 2:
            # the teacher's front and rear signatures are orthogonal
            raise ContractError("need at least two feature channels")
        if self.image_width < 1 or self.image_height < 1:
            raise ContractError("image extents must be >= 1")
        if self.focal <= 0:
            raise ContractError("focal must be positive")
        if self.z_near <= 0:
            raise ContractError("z_near must be positive")
        for lo, hi in (self.length_range, self.width_range, self.height_range):
            if not (0 < lo <= hi):
                raise ContractError("size ranges must satisfy 0 < lo <= hi")
        if not (0 < self.place_radius_min <= self.place_radius_max):
            raise ContractError("placement radii must satisfy 0 < min <= max")


@dataclass
class SyntheticScene:
    """Fully materialized scene: geometry, labelled points, cameras, and
    (optionally) the teacher feature map.  ``labels[i]`` is the index of
    the box whose surface produced point i, or -1 for ground."""

    grid: BevGrid
    boxes: List[Box3D]
    points: np.ndarray
    labels: np.ndarray
    cameras: List[CameraModel]
    teacher_bev: Optional[BevFeatureMap] = None


@dataclass
class ViewGroundTruth:
    """Per-camera rendering products: dense depth, its validity mask, and
    one foreground depth set per box (skipped sets included)."""

    cam_index: int
    depth: np.ndarray
    valid: np.ndarray
    targets: List[ForegroundDepthSet]


def _bev_footprint_mask(xy: np.ndarray, box: Box3D, margin: float = 0.0) -> np.ndarray:
    """2D footprint containment of world (x, y) points, with margin."""
    rot = rot_z(-box.yaw)[:2, :2]
    local = (xy - box.center[:2]) @ rot.T
    return (np.abs(local[:, 0]) <= box.size[0] / 2.0 + margin) & (
        np.abs(local[:, 1]) <= box.size[1] / 2.0 + margin
    )


def _place_boxes(cfg: SceneConfig, sub: CounterRng) -> List[Box3D]:
    boxes: List[Box3D] = []
    radii: List[float] = []
    for j in range(cfg.num_boxes):
        placed = False
        for _ in range(cfg.max_place_attempts):
            draw = sub.uniform(6)
            r = cfg.place_radius_min + draw[0] * (cfg.place_radius_max - cfg.place_radius_min)
            phi = 2.0 * math.pi * draw[1]
            yaw = 2.0 * math.pi * draw[2] - math.pi
            length = cfg.length_range[0] + draw[3] * (cfg.length_range[1] - cfg.length_range[0])
            width = cfg.width_range[0] + draw[4] * (cfg.width_range[1] - cfg.width_range[0])
            height = cfg.height_range[0] + draw[5] * (cfg.height_range[1] - cfg.height_range[0])
            center = np.array([r * math.cos(phi), r * math.sin(phi), height / 2.0])
            circum = math.hypot(length, width) / 2.0
            ok = True
            for other, other_r in zip(boxes, radii):
                dist = math.hypot(center[0] - other.center[0], center[1] - other.center[1])
                if dist < circum + other_r + cfg.place_clearance:
                    ok = False
                    break
            if ok:
                boxes.append(Box3D(center=center, size=np.array([length, width, height]), yaw=yaw))
                radii.append(circum)
                placed = True
                break
        if not placed:
            raise GenerationError(
                f"could not place box {j} after {cfg.max_place_attempts} attempts"
            )
    return boxes


def _sample_box_surface(box: Box3D, n: int, sub: CounterRng) -> np.ndarray:
    """Area-weighted samples on the top and 4 side faces (no bottom)."""
    length, width, height = box.size
    areas = np.array(
        [length * width, width * height, width * height, length * height, length * height]
    )
    cum = np.cumsum(areas) / np.sum(areas)
    draw = sub.uniform((n, 3))
    face = np.searchsorted(cum, draw[:, 0], side="right")
    a = draw[:, 1] - 0.5
    b = draw[:, 2] - 0.5
    local = np.empty((n, 3))
    m = face == 0  # top
    local[m] = np.stack([a[m] * length, b[m] * width, np.full(m.sum(), height / 2.0)], axis=1)
    m = face == 1  # +length face
    local[m] = np.stack([np.full(m.sum(), length / 2.0), a[m] * width, b[m] * height], axis=1)
    m = face == 2  # -length face
    local[m] = np.stack([np.full(m.sum(), -length / 2.0), a[m] * width, b[m] * height], axis=1)
    m = face == 3  # +width face
    local[m] = np.stack([a[m] * length, np.full(m.sum(), width / 2.0), b[m] * height], axis=1)
    m = face == 4  # -width face
    local[m] = np.stack([a[m] * length, np.full(m.sum(), -width / 2.0), b[m] * height], axis=1)
    local *= 1.0 - FACE_INSET
    return local @ rot_z(box.yaw).T + box.center


def _sample_ground(cfg: SceneConfig, boxes: List[Box3D], sub: CounterRng) -> np.ndarray:
    """Uniform disk samples at z = 0, excluding box footprints."""
    need = cfg.ground_points
    chunks: List[np.ndarray] = []
    for _ in range(100):
        if need <= 0:
            break
        draw = sub.uniform((max(2 * need, 256), 2))
        r = cfg.ground_radius * np.sqrt(draw[:, 0])
        theta = 2.0 * math.pi * draw[:, 1]
        xy = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        keep = np.ones(len(xy), dtype=bool)
        for box in boxes:
            keep &= ~_bev_footprint_mask(xy, box, margin=0.05)
        xy = xy[keep][:need]
        chunks.append(xy)
        need -= len(xy)
    if need > 0:
        raise GenerationError("ground sampling could not avoid box footprints")
    if not chunks:
        return np.zeros((0, 3))
    xy = np.concatenate(chunks, axis=0)
    return np.concatenate([xy, np.zeros((len(xy), 1))], axis=1)


def _ring_cameras(cfg: SceneConfig) -> List[CameraModel]:
    """Outward-facing cameras, evenly spaced in azimuth.

    Camera frame is +z forward / +x right / +y down; world is z-up.
    """
    cams = []
    for i in range(cfg.num_cameras):
        theta = 2.0 * math.pi * i / cfg.num_cameras
        forward = np.array([math.cos(theta), math.sin(theta), 0.0])
        right = np.array([math.sin(theta), -math.cos(theta), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        cam_to_world = np.stack([right, down, forward], axis=1)
        pos = np.array(
            [cfg.cam_ring_radius * forward[0], cfg.cam_ring_radius * forward[1], cfg.cam_height]
        )
        world_to_cam = RigidTransform(cam_to_world.T, -(cam_to_world.T @ pos))
        cams.append(
            CameraModel(
                fx=cfg.focal,
                fy=cfg.focal,
                cx=cfg.image_width / 2.0,
                cy=cfg.image_height / 2.0,
                width=cfg.image_width,
                height=cfg.image_height,
                world_to_cam=world_to_cam,
                z_near=cfg.z_near,
            )
        )
    return cams


def generate_scene(cfg: SceneConfig) -> SyntheticScene:
    """Build the whole scene, teacher map included, from the seed."""
    root = CounterRng(cfg.seed)
    boxes = _place_boxes(cfg, root.substream("boxes"))
    point_blocks: List[np.ndarray] = []
    label_blocks: List[np.ndarray] = []
    for j, box in enumerate(boxes):
        pts = _sample_box_surface(box, cfg.points_per_box, root.substream(f"surface-{j}"))
        point_blocks.append(pts)
        label_blocks.append(np.full(len(pts), j, dtype=np.int64))
    ground = _sample_ground(cfg, boxes, root.substream("ground"))
    point_blocks.append(ground)
    label_blocks.append(np.full(len(ground), -1, dtype=np.int64))
    points = np.concatenate(point_blocks, axis=0) if point_blocks else np.zeros((0, 3))
    labels = np.concatenate(label_blocks, axis=0) if label_blocks else np.zeros(0, dtype=np.int64)
    scene = SyntheticScene(
        grid=cfg.grid,
        boxes=boxes,
        points=points,
        labels=labels,
        cameras=_ring_cameras(cfg),
    )
    scene.teacher_bev = generate_teacher_bev(scene, cfg)
    return scene


def generate_teacher_bev(scene: SyntheticScene, cfg: SceneConfig) -> BevFeatureMap:
    """Teacher features: low-amplitude background noise plus, per target,
    a smooth pattern over the enlarged footprint whose front and rear
    halves carry orthogonal channel signatures (so keypoint Grams have
    real part structure to distill)."""
    root = CounterRng(cfg.seed)
    c = cfg.channels
    grid = scene.grid
    data = cfg.teacher_noise * root.substream("teacher-noise").normal((c, grid.h_bev, grid.w_bev))
    rows, cols = np.meshgrid(np.arange(grid.h_bev), np.arange(grid.w_bev), indexing="ij")
    cell_xy = bev_to_world(grid, np.stack([rows.ravel(), cols.ravel()], axis=1).astype(float))
    for j, box in enumerate(scene.boxes):
        sub = root.substream(f"teacher-pattern-{j}")
        u = sub.normal(c)
        v = sub.normal(c)
        v = v - (np.dot(v, u) / np.dot(u, u)) * u
        w = sub.normal(c)
        for vec in (u, v, w):
            vec *= cfg.teacher_amplitude / np.linalg.norm(vec)
        rot = rot_z(-box.yaw)[:2, :2]
        local = (cell_xy - box.center[:2]) @ rot.T
        half_l = box.size[0] * cfg.enlarge / 2.0
        half_w = box.size[1] * cfg.enlarge / 2.0
        a = local[:, 0] / half_l
        b = local[:, 1] / half_w
        mask = (np.abs(a) < 1.0) & (np.abs(b) < 1.0)
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        am, bm = a[idx], b[idx]
        envelope = (1.0 - am * am) * (1.0 - bm * bm)
        front = (1.0 + am) / 2.0
        contrib = (
            u[:, None] * (envelope * front)
            + v[:, None] * (envelope * (1.0 - front))
            + w[:, None] * (envelope * bm)
        )
        flat = data.reshape(c, -1)
        flat[:, idx] += contrib
    return BevFeatureMap(data=data, grid=grid)


def render_gt_views(scene: SyntheticScene) -> List[ViewGroundTruth]:
    """Dense depth maps and per-target foreground sets for every camera."""
    views = []
    for i, cam in enumerate(scene.cameras):
        depth, valid = build_gt_depth_map(cam, scene.points)
        targets = foreground_pixel_sets(cam, scene.boxes, scene.points, cam_index=i)
        views.append(ViewGroundTruth(cam_index=i, depth=depth, valid=valid, targets=targets))
    return views


# ---------------------------------------------------------------------------
# SCN v1 scene file
#
#   SCN 1
#   grid <x_min> <x_max> <y_min> <y_max> <h_bev> <w_bev>
#   cameras <n>
#     camera <fx> <fy> <cx> <cy> <width> <height> <z_near>
#     rot <9 row-major values>
#     t <3 values>
#   boxes <m>
#     box <cx> <cy> <cz> <length> <width> <height> <yaw>
#   points <P>
#     <embedded TSR block, P x 3>    (omitted when P = 0)
#   labels
#     <P integers, whitespace-separated>
#   end
#
# Floats use shortest round-trip formatting; the file is bit-identical
# for identical scenes.  The teacher map travels as a sidecar TSR file.
# ---------------------------------------------------------------------------


def _fmt(*values) -> str:
    return " ".join(
        str(v) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in values
    )


def write_scene(dest, scene: SyntheticScene) -> None:
    with open_text(dest, "w") as fobj:
        g = scene.grid
        fobj.write("SCN 1\n")
        fobj.write("grid " + _fmt(g.x_min, g.x_max, g.y_min, g.y_max, g.h_bev, g.w_bev) + "\n")
        fobj.write(f"cameras {len(scene.cameras)}\n")
        for cam in scene.cameras:
            fobj.write(
                "camera "
                + _fmt(cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height, cam.z_near)
                + "\n"
            )
            fobj.write("rot " + _fmt(*cam.world_to_cam.rotation.ravel()) + "\n")
            fobj.write("t " + _fmt(*cam.world_to_cam.translation) + "\n")
        fobj.write(f"boxes {len(scene.boxes)}\n")
        for box in scene.boxes:
            fobj.write("box " + _fmt(*box.center, *box.size, box.yaw) + "\n")
        fobj.write(f"points {len(scene.points)}\n")
        if len(scene.points):
            write_tsr(fobj, scene.points)
        fobj.write("labels\n")
        for start in range(0, len(scene.labels), 16):
            fobj.write(" ".join(str(int(x)) for x in scene.labels[start : start + 16]) + "\n")
        fobj.write("end\n")


def _expect(fobj: TextIO, key: str, count: int) -> List[str]:
    """The ``count`` tokens after ``key`` on the next line."""
    line = fobj.readline()
    if not line:
        raise FormatError(f"unexpected end of file, wanted {key!r}")
    toks = line.split()
    if not toks or toks[0] != key:
        raise FormatError(f"expected {key!r} line, got {line.strip()!r}")
    if len(toks) != count + 1:
        raise FormatError(f"{key!r} line needs {count} values, got {len(toks) - 1}")
    return toks[1:]


def _numbers(kind, toks: List[str]) -> list:
    try:
        return [kind(t) for t in toks]
    except ValueError as exc:
        raise FormatError(f"bad number: {exc}") from exc


def _count(fobj: TextIO, key: str) -> int:
    n = _numbers(int, _expect(fobj, key, 1))[0]
    if n < 0:
        raise FormatError(f"{key!r} count must be >= 0, got {n}")
    return n


def read_scene(src) -> SyntheticScene:
    with open_text(src) as fobj:
        header = fobj.readline().strip()
        if header != "SCN 1":
            raise FormatError(f"expected 'SCN 1' header, got {header!r}")
        gtoks = _expect(fobj, "grid", 6)
        grid = BevGrid(*_numbers(float, gtoks[:4]), *_numbers(int, gtoks[4:]))
        cameras = []
        for _ in range(_count(fobj, "cameras")):
            ctoks = _expect(fobj, "camera", 7)
            fx, fy, cx, cy, z_near = _numbers(float, ctoks[:4] + ctoks[6:])
            width, height = _numbers(int, ctoks[4:6])
            rot = _numbers(float, _expect(fobj, "rot", 9))
            trans = _numbers(float, _expect(fobj, "t", 3))
            cameras.append(
                CameraModel(
                    fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height,
                    world_to_cam=RigidTransform(np.array(rot).reshape(3, 3), np.array(trans)),
                    z_near=z_near,
                )
            )
        boxes = []
        for _ in range(_count(fobj, "boxes")):
            btoks = _numbers(float, _expect(fobj, "box", 7))
            boxes.append(Box3D(center=np.array(btoks[0:3]), size=np.array(btoks[3:6]), yaw=btoks[6]))
        n_points = _count(fobj, "points")
        points = read_tsr(fobj) if n_points else np.zeros((0, 3))
        if points.shape != (n_points, 3) and n_points:
            raise FormatError(f"points block has shape {points.shape}, expected ({n_points}, 3)")
        _expect(fobj, "labels", 0)
        labels: List[int] = []
        while len(labels) < n_points:
            line = fobj.readline()
            if not line:
                raise FormatError("unexpected end of file inside labels")
            labels.extend(_numbers(int, line.split()))
        if len(labels) != n_points:
            raise FormatError(f"expected {n_points} labels, got {len(labels)}")
        _expect(fobj, "end", 0)
    return SyntheticScene(
        grid=grid,
        boxes=boxes,
        points=as_tensor(points),
        labels=np.asarray(labels, dtype=np.int64),
        cameras=cameras,
    )
