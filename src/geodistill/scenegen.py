"""Deterministic synthetic scenes: oriented boxes on a ground plane,
surface point samples standing in for a laser scan, a ring of outward-
facing cameras, and a teacher BEV feature map with planted per-target
inner structure.

Everything is a pure function of the config; the counter-based
generator in ``rng`` makes output bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, TextIO

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
    box_frame,
    points_in_box,
    render_view,
    rot_z,
)
from .numerics import as_tensor, open_text, read_tsr, write_tsr
from .rng import CounterRng

if TYPE_CHECKING:
    from .harness import SceneConfig

# Local face coordinates are shrunk by this relative factor so that the
# rotate-into-world / rotate-back round trip cannot push a surface point
# outside its own box by floating-point noise.
FACE_INSET = 1e-12

# The sampled faces, top, +length, -length, +width and -width, each as its
# fixed local axis and side; the other two axes take the draws a and b in
# axis order.  There is no bottom face.
FACES = ((2, 1.0), (0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0))


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


def _place_boxes(cfg: SceneConfig, sub: CounterRng) -> List[Box3D]:
    boxes: List[Box3D] = []
    radii: List[float] = []
    for j in range(cfg.num_boxes):
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
            if not any(
                math.hypot(center[0] - other.center[0], center[1] - other.center[1])
                < circum + other_r + cfg.place_clearance
                for other, other_r in zip(boxes, radii)
            ):
                boxes.append(Box3D(center=center, size=np.array([length, width, height]), yaw=yaw))
                radii.append(circum)
                break
        else:
            raise GenerationError(f"could not place box {j} after {cfg.max_place_attempts} attempts")
    return boxes


def _sample_box_surface(box: Box3D, n: int, sub: CounterRng) -> np.ndarray:
    """Area-weighted samples on the ``FACES`` of a box."""
    size = box.size
    # each face's fixed axis, then the axes that a and b span
    axes = np.array([[axis] + [k for k in range(3) if k != axis] for axis, _ in FACES])
    areas = size[axes[:, 1]] * size[axes[:, 2]]
    cum = np.cumsum(areas) / np.sum(areas)
    draw = sub.uniform((n, 3))
    face = np.searchsorted(cum, draw[:, 0], side="right")
    on = axes[face]
    sides = np.array([side for _, side in FACES])[face]
    local = np.empty((n, 3))
    local[np.arange(n)[:, None], on] = np.concatenate(
        [(sides * size[on[:, 0]] / 2.0)[:, None], (draw[:, 1:] - 0.5) * size[on[:, 1:]]], axis=1
    )
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
        for box in boxes:  # off each footprint and a 5 cm margin
            local = np.abs(box_frame(box, xy))
            keep &= ~((local[:, 0] <= box.size[0] / 2.0 + 0.05) & (local[:, 1] <= box.size[1] / 2.0 + 0.05))
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
    points = np.concatenate(point_blocks, axis=0)
    labels = np.concatenate(label_blocks, axis=0)
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
        local = box_frame(box, cell_xy)
        a = local[:, 0] / (box.size[0] * cfg.enlarge / 2.0)
        b = local[:, 1] / (box.size[1] * cfg.enlarge / 2.0)
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
    """Dense depth maps and per-target foreground sets for every camera;
    box membership is tested once per scene, not once per camera."""
    inside = [points_in_box(box, scene.points) for box in scene.boxes]
    views = []
    for i, cam in enumerate(scene.cameras):
        depth, valid, targets = render_view(cam, scene.boxes, scene.points, inside, i)
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
        try:
            grid = BevGrid(*_numbers(float, gtoks[:4]), *_numbers(int, gtoks[4:]))
        except ConfigError as exc:  # a bad grid in a data file is not a config error
            raise ContractError(f"SCN 'grid' line: {str(exc).removeprefix('scene.grid.')}") from exc
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
        if labels and not -1 <= min(labels) <= max(labels) < len(boxes):
            raise FormatError(f"labels must lie in [-1, {len(boxes)})")
        _expect(fobj, "end", 0)
    return SyntheticScene(
        grid=grid,
        boxes=boxes,
        points=as_tensor(points),
        labels=np.asarray(labels, dtype=np.int64),
        cameras=cameras,
    )
