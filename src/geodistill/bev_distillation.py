"""Feature distillation on the bird's-eye-view plane.

Per target, keypoint features are sampled from the student and teacher
BEV maps at identical locations and compared through two Gram matrices:
channel-channel inner products (how channels co-vary over the target)
and keypoint-keypoint inner products (how the target's parts relate).
Matching Grams instead of raw features leaves the student free to keep
its own feature basis; an orthogonal channel mixing changes the raw
features but not the keypoint Gram.

Gradients flow to the student BEV map through the adjoint of bilinear
sampling; the teacher is a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ContractError
from .geometry import BevGrid, Box3D, enlarge_box_bev, rot_z, world_to_bev
from .numerics import LossResult, as_tensor, check_finite
from .numerics import matmul  # noqa: F401  perfbench/test_perfbench.py checks its tracer rebinds this name

GRAM_NORMALIZATIONS = ("none", "count", "l2")


@dataclass
class BevFeatureMap:
    """Dense feature plane (C, H, W) tied to the world extents of a grid."""

    data: np.ndarray
    grid: BevGrid

    def __post_init__(self):
        self.data = as_tensor(self.data)
        if self.data.ndim != 3:
            raise ContractError(f"BEV features must be (C, H, W), got {self.data.shape}")
        if self.data.shape[1] != self.grid.h_bev or self.data.shape[2] != self.grid.w_bev:
            raise ContractError("feature extents disagree with the grid")
        check_finite(self.data, "BEV features")

    @property
    def channels(self) -> int:
        return self.data.shape[0]


@dataclass
class KeypointSet:
    """g x g lattice of continuous BEV coordinates (row, col) covering one
    target's footprint, row-major in the box's local frame.  ``clipped``
    records that some point fell outside the grid's world extent (more
    than half a cell beyond the outermost cell centers); sampling then
    border-clamps."""

    target_index: int
    points: np.ndarray
    g: int
    clipped: bool = False

    def __post_init__(self):
        self.points = as_tensor(self.points).reshape(-1, 2)
        if self.g < 2 or self.points.shape[0] != self.g * self.g:
            raise ContractError("keypoints must form a g x g lattice with g >= 2")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class TargetKeypointFeatures:
    """Student and teacher feature rows at one target's keypoints."""

    student: np.ndarray
    teacher: np.ndarray

    def __post_init__(self):
        self.student = as_tensor(self.student)
        self.teacher = as_tensor(self.teacher)
        if self.student.ndim != 2 or self.student.shape != self.teacher.shape:
            raise ContractError("student/teacher keypoint features must be matching (N, C)")


def sample_keypoints(box: Box3D, grid: BevGrid, g: int = 6, enlarge: float = 1.25) -> KeypointSet:
    """Place a g x g cell-center lattice in the enlarged box footprint.

    Offsets along each local axis sit at (i + 0.5)/g of the enlarged
    extent, so points are strictly interior to the footprint; they are
    then rotated by yaw and mapped to continuous BEV coordinates.
    """
    if g < 2:
        raise ValueError(f"lattice extent g must be >= 2, got {g}")
    big = enlarge_box_bev(box, enlarge)
    frac = (np.arange(g) + 0.5) / g - 0.5
    along = frac * big.size[0]
    across = frac * big.size[1]
    local = np.stack(
        [np.repeat(along, g), np.tile(across, g)], axis=1
    )
    rot = rot_z(big.yaw)[:2, :2]
    world = local @ rot.T + big.center[:2]
    pts = world_to_bev(grid, world)
    clipped = bool(
        np.any(pts[:, 0] < -0.5)
        or np.any(pts[:, 0] > grid.h_bev - 0.5)
        or np.any(pts[:, 1] < -0.5)
        or np.any(pts[:, 1] > grid.w_bev - 0.5)
    )
    return KeypointSet(target_index=-1, points=pts, g=g, clipped=clipped)


def _feat_data(feat) -> np.ndarray:
    data = feat.data if isinstance(feat, BevFeatureMap) else as_tensor(feat)
    if data.ndim != 3:
        raise ContractError("features must be (C, H, W)")
    return data


def _point_array(points) -> np.ndarray:
    pts = points.points if isinstance(points, KeypointSet) else as_tensor(points)
    return pts.reshape(-1, 2)


def _bilinear_corners(pts: np.ndarray, h: int, w: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat cell indices and weights of border-clamped bilinear
    interpolation at (..., N, 2) points, each shaped (..., 4, N) with the
    corners in the order (r0, c0), (r0, c1), (r1, c0), (r1, c1)."""
    r = np.clip(pts[..., 0], 0.0, float(h - 1))
    c = np.clip(pts[..., 1], 0.0, float(w - 1))
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = r - r0
    fc = c - c0
    cells = np.stack([r0 * w + c0, r0 * w + c1, r1 * w + c0, r1 * w + c1], axis=-2)
    weights = np.stack(
        [(1.0 - fr) * (1.0 - fc), (1.0 - fr) * fc, fr * (1.0 - fc), fr * fc], axis=-2
    )
    return cells, weights


def _gather(data: np.ndarray, cells: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(..., N, C) bilinear samples of (C, H, W) data, the four corner
    terms added to zero in corner order."""
    c_dim = data.shape[0]
    flat = data.reshape(c_dim, -1)
    out = np.zeros(cells.shape[:-2] + (cells.shape[-1], c_dim))
    for k in range(4):
        out += weights[..., k, :, None] * np.moveaxis(flat[:, cells[..., k, :]], 0, -1)
    return out


class _Scatter:
    """Fixed-order adjoint of a bilinear gather over T point sets.

    Built from (T, 4, N) corner cells and weights.  Per channel, stage one
    sums each target's contributions to each cell in (corner, point)
    order and stage two sums those per-target cell sums in target order;
    both start from zero.  The result is bit for bit what scattering one
    target at a time with ``np.add.at`` and adding the per-target maps in
    order gives.
    """

    def __init__(self, cells: np.ndarray, weights: np.ndarray, h: int, w: int):
        key = (np.arange(cells.shape[0])[:, None, None] * (h * w) + cells).ravel()
        uniq, self.target_cell = np.unique(key, return_inverse=True)
        self.cell = uniq % (h * w)
        self.weights = weights
        self.shape = (h, w)

    def __call__(self, upstream: np.ndarray) -> np.ndarray:
        """(C, H, W) map of (T, N, C) point gradients."""
        c_dim = upstream.shape[-1]
        values = (np.moveaxis(upstream, -1, 0)[:, :, None, :] * self.weights).reshape(c_dim, -1)
        out = np.empty((c_dim, self.shape[0] * self.shape[1]))
        for channel, row in zip(out, values):
            per_target = np.bincount(self.target_cell, weights=row, minlength=self.cell.size)
            channel[:] = np.bincount(self.cell, weights=per_target, minlength=channel.size)
        return out.reshape(c_dim, *self.shape)


def bilinear_sample(feat, points) -> np.ndarray:
    """4-neighbor interpolation of (C, H, W) features at continuous (row,
    col) points; returns (N, C).  Integer coordinates reproduce the cell
    value exactly; out-of-range points clamp to the border."""
    data = _feat_data(feat)
    cells, weights = _bilinear_corners(_point_array(points), *data.shape[1:])
    return _gather(data, cells, weights)


def bilinear_sample_backward(feat_shape, points, upstream) -> np.ndarray:
    """Adjoint of bilinear_sample: scatter-add (N, C) upstream gradients
    back onto the 4 neighbor cells of each point."""
    c_dim, h, w = feat_shape
    pts = _point_array(points)
    upstream = as_tensor(upstream)
    if upstream.shape != (pts.shape[0], c_dim):
        raise ContractError("upstream gradient must be (N, C)")
    cells, weights = _bilinear_corners(pts, h, w)
    return _Scatter(cells[None], weights[None], h, w)(upstream[None])


def _effective_features(f: np.ndarray, normalization: str):
    """Features the Grams are taken of, with the row scale for "l2".

    Rows are L2-normalized for "l2"; zero rows are guarded by a tiny
    floor and are degenerate for gradients.
    """
    if normalization == "l2":
        norms = np.sqrt(np.sum(f * f, axis=-1))
        scale = np.maximum(norms, 1e-12)
        return f / scale[..., None], scale
    return f, None


def _row_canonical(f: np.ndarray) -> np.ndarray:
    """Each target's rows of a (T, N, C) stack in lexicographic order.

    The channel Gram is row-order symmetric in exact arithmetic;
    accumulating in a canonical order makes it bitwise invariant to
    keypoint permutations too.

    Rows are sorted by (target, first column); only runs that tie there
    are then sorted by the remaining columns.  Both sorts are stable, so
    the order is exactly that of a full lexsort of each target's rows.
    """
    t, n, c = f.shape
    flat = f.reshape(t * n, c)
    target = np.repeat(np.arange(t), n)
    order = np.lexsort((flat[:, 0], target))
    first = flat[order, 0]
    tie = (first[1:] == first[:-1]) & (target[1:] == target[:-1])
    if tie.any():
        # positions in runs of two or more rows, and the run of each
        tied = np.flatnonzero(np.concatenate([tie, [False]]) | np.concatenate([[False], tie]))
        run = np.cumsum(np.concatenate([[True], ~tie]))[tied]
        rows = order[tied]
        order[tied] = rows[np.lexsort(tuple(flat[rows, 1:].T[::-1]) + (run,))]
    return flat[order].reshape(t, n, c)


def _grams(f_eff: np.ndarray, kind: str, normalization: str) -> np.ndarray:
    """(T, C, C) channel or (T, N, N) keypoint Grams of a (T, N, C) stack
    of effective features, one BLAS product per target.  Each slice's
    product depends only on that slice's values, so a target's Gram has
    the same bits in a stack as on its own."""
    if kind == "channel":
        f_can = _row_canonical(f_eff)
        gram = np.swapaxes(f_can, 1, 2) @ f_can
    else:
        gram = f_eff @ np.swapaxes(f_eff, 1, 2)
    if normalization == "count":
        gram /= _gram_count(f_eff, kind)
    return gram


def _gram_count(f: np.ndarray, kind: str) -> int:
    """Terms in each Gram entry: keypoints for channel, channels for keypoint."""
    return f.shape[-2] if kind == "channel" else f.shape[-1]


def _gram_of(f, kind: str, normalization: str) -> np.ndarray:
    f = as_tensor(f)
    _check_norm(normalization)
    stack = f if f.ndim == 3 else f[None]
    gram = _grams(_effective_features(stack, normalization)[0], kind, normalization)
    return gram if f.ndim == 3 else gram[0]


def inter_channel_gram(f, normalization: str = "none") -> np.ndarray:
    """(C, C) Gram of channel pairs, accumulated over keypoint rows in
    canonical order, so permuting rows gives the identical matrix.  A
    (T, N, C) stack gives the (T, C, C) Grams of its targets."""
    return _gram_of(f, "channel", normalization)


def inter_keypoint_gram(f, normalization: str = "none") -> np.ndarray:
    """(N, N) Gram of keypoint pairs, accumulated over channels.  A
    (T, N, C) stack gives the (T, N, N) Grams of its targets."""
    return _gram_of(f, "keypoint", normalization)


def _check_norm(normalization: str):
    if normalization not in GRAM_NORMALIZATIONS:
        raise ConfigError(f"unknown gram normalization {normalization!r}")


def _check_reduction(reduction: str):
    if reduction not in ("mean", "sum"):
        raise ConfigError(f"unknown loss reduction {reduction!r}")


def _chain_row_norm(grad_eff: np.ndarray, f_hat: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Backpropagate through row-L2 normalization f_hat = f / ||f||."""
    inner = np.sum(grad_eff * f_hat, axis=-1, keepdims=True)
    return (grad_eff - inner * f_hat) / scale[..., None]


def _gram_losses(
    fs: np.ndarray, gram_t: np.ndarray, kind: str, normalization: str, reduction: str,
    with_grad: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Values (T,) and student-feature gradients (T, N, C), None without
    ``with_grad``, of T >= 0 targets' Gram losses against fixed teacher
    Grams.

    ``kind`` selects the channel (C x C) or keypoint (N x N) Gram.
    """
    fs_eff, fs_scale = _effective_features(fs, normalization)
    diff = _grams(fs_eff, kind, normalization)
    diff -= gram_t
    denom = float(diff.shape[1] * diff.shape[2]) if reduction == "mean" else 1.0
    values = np.sum((diff * diff).reshape(diff.shape[0], diff.shape[1] * diff.shape[2]), axis=1) / denom
    if not with_grad:
        return values, None
    g_mat = diff
    g_mat *= 2.0 / denom
    if kind == "channel":
        grad_eff = 2.0 * (fs_eff @ g_mat)
    else:
        grad_eff = 2.0 * (g_mat @ fs_eff)
    if normalization == "count":
        grad_eff /= _gram_count(fs, kind)
    if normalization == "l2":
        return values, _chain_row_norm(grad_eff, fs_eff, fs_scale)
    return values, grad_eff


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right float sum, in target order."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _gram_loss(
    targets: List[TargetKeypointFeatures], kind: str, normalization: str, reduction: str
) -> LossResult:
    _check_norm(normalization)
    _check_reduction(reduction)
    if not targets:
        return LossResult(0.0, [], empty=True)
    if len({tkf.student.shape for tkf in targets}) > 1:
        raise ContractError("every target's keypoint features must share one (N, C)")
    gram_t = _gram_of(np.array([tkf.teacher for tkf in targets]), kind, normalization)
    fs = np.array([tkf.student for tkf in targets])
    values, grads = _gram_losses(fs, gram_t, kind, normalization, reduction)
    return LossResult(_sum_in_order(values), list(grads))


def inter_channel_loss(
    targets: List[TargetKeypointFeatures],
    normalization: str = "none",
    loss_reduction: str = "mean",
) -> LossResult:
    """Squared-difference loss between student and teacher channel Grams,
    reduced per target then summed; gradient per student block.  All
    targets share one (N, C)."""
    return _gram_loss(targets, "channel", normalization, loss_reduction)


def inter_keypoint_loss(
    targets: List[TargetKeypointFeatures],
    normalization: str = "none",
    loss_reduction: str = "mean",
) -> LossResult:
    """Squared-difference loss between student and teacher keypoint Grams,
    reduced per target then summed; gradient per student block.  All
    targets share one (N, C)."""
    return _gram_loss(targets, "keypoint", normalization, loss_reduction)


def keypoint_sets_for_boxes(
    boxes: List[Box3D], grid: BevGrid, g: int = 6, enlarge: float = 1.25
) -> List[KeypointSet]:
    """Keypoint lattices for a list of targets, in input order."""
    out = []
    for j, box in enumerate(boxes):
        kp = sample_keypoints(box, grid, g=g, enlarge=enlarge)
        kp.target_index = j
        out.append(kp)
    return out


@dataclass
class DistillPlan:
    """The student-independent half of one scene's BEV distillation.

    The teacher map is a constant, so for fixed boxes, lattice extent
    ``g``, ``enlarge`` and normalization its keypoint features, both
    teacher Grams, the bilinear corners and the scatter order never
    change.  Build it once with ``build_distill_plan`` and pass it to
    every ``bev_distill_terms`` call on the same scene.
    """

    teacher_bev: BevFeatureMap
    boxes: List[Box3D]
    g: int
    enlarge: float
    normalization: str
    cells: np.ndarray  # (T, 4, N) flat BEV cell of each bilinear corner
    weights: np.ndarray  # (T, 4, N) bilinear weight of each corner
    teacher: np.ndarray  # (T, N, C) teacher keypoint features
    teacher_channel: np.ndarray  # (T, C, C) teacher channel Grams
    teacher_keypoint: np.ndarray  # (T, N, N) teacher keypoint Grams
    scatter: _Scatter  # student-feature gradients back onto the (C, H, W) map

    def built_from(self, teacher_bev, boxes, g, enlarge, normalization) -> bool:
        """True when these ``bev_distill_terms`` arguments are the ones
        the plan was built from: the same teacher and box objects."""
        return (
            teacher_bev is self.teacher_bev
            and len(boxes) == len(self.boxes)
            and all(a is b for a, b in zip(boxes, self.boxes))
            and (g, enlarge, normalization) == (self.g, self.enlarge, self.normalization)
        )

    def sample(self, bev: np.ndarray) -> np.ndarray:
        """(T, N, C) features of a (C, H, W) map at every target's keypoints."""
        return _gather(bev, self.cells, self.weights)


def build_distill_plan(
    teacher_bev: BevFeatureMap,
    boxes: List[Box3D],
    g: int = 6,
    enlarge: float = 1.25,
    normalization: str = "none",
) -> DistillPlan:
    """Keypoint lattices, bilinear corners, teacher features, teacher
    Grams and the gradient scatter order of every target, stacked in box
    order."""
    _check_norm(normalization)
    h, w = teacher_bev.data.shape[1:]
    lattices = keypoint_sets_for_boxes(boxes, teacher_bev.grid, g=g, enlarge=enlarge)
    pts = np.array([kp.points for kp in lattices]).reshape(len(lattices), g * g, 2)
    cells, weights = _bilinear_corners(pts, h, w)
    teacher = _gather(teacher_bev.data, cells, weights)
    t_eff, _ = _effective_features(teacher, normalization)
    return DistillPlan(
        teacher_bev=teacher_bev,
        boxes=list(boxes),
        g=g,
        enlarge=enlarge,
        normalization=normalization,
        cells=cells,
        weights=weights,
        teacher=teacher,
        teacher_channel=_grams(t_eff, "channel", normalization),
        teacher_keypoint=_grams(t_eff, "keypoint", normalization),
        scatter=_Scatter(cells, weights, h, w),
    )


def bev_distill_terms(
    student_bev: BevFeatureMap,
    teacher_bev: BevFeatureMap,
    boxes: List[Box3D],
    g: int = 6,
    enlarge: float = 1.25,
    normalization: str = "none",
    loss_reduction: str = "mean",
    *,
    plan: Optional[DistillPlan] = None,
    with_grad: bool = True,
) -> Tuple[LossResult, LossResult]:
    """Channel and keypoint Gram losses over all targets as separate
    results, each with its own gradient on the student BEV tensor, or
    None without ``with_grad``.

    Both maps are sampled at identical keypoints.  ``plan`` is the
    scene's prebuilt teacher side; without one it is built for this
    call.  All targets run as one stack; values are summed and gradient
    contributions scattered in input order, so the result is bit for bit
    that of handling the targets one at a time.  With no boxes the stack
    is empty: both results are 0.0, ``empty``, with zero gradients.
    """
    _check_norm(normalization)
    _check_reduction(loss_reduction)
    if student_bev.data.shape != teacher_bev.data.shape:
        raise ContractError("student and teacher BEV shapes disagree")
    if student_bev.grid != teacher_bev.grid:
        raise ContractError("student and teacher grids disagree")
    if plan is not None and not plan.built_from(teacher_bev, boxes, g, enlarge, normalization):
        raise ContractError("distillation plan was built from different arguments")
    if plan is None:
        plan = build_distill_plan(teacher_bev, boxes, g, enlarge, normalization)
    fs = plan.sample(student_bev.data)
    out = []
    for kind, gram_t in (("channel", plan.teacher_channel), ("keypoint", plan.teacher_keypoint)):
        values, grad_fs = _gram_losses(fs, gram_t, kind, normalization, loss_reduction, with_grad)
        grad = plan.scatter(grad_fs) if with_grad else None
        out.append(LossResult(_sum_in_order(values), grad, empty=not boxes))
    return out[0], out[1]


def bev_distill_loss(
    student_bev: BevFeatureMap,
    teacher_bev: BevFeatureMap,
    boxes: List[Box3D],
    g: int = 6,
    enlarge: float = 1.25,
    normalization: str = "none",
    loss_reduction: str = "mean",
    *,
    plan: Optional[DistillPlan] = None,
) -> LossResult:
    """Combined channel + keypoint Gram loss with the gradient mapped back
    onto the student BEV tensor; teacher features carry no gradient.
    ``plan`` is as for ``bev_distill_terms``."""
    ic, ik = bev_distill_terms(
        student_bev, teacher_bev, boxes,
        g=g, enlarge=enlarge, normalization=normalization, loss_reduction=loss_reduction,
        plan=plan,
    )
    if ic.empty:
        return LossResult(0.0, ic.grad, empty=True)
    return LossResult(
        ic.value + ik.value,
        ic.grad + ik.grad,
        components={"inter_channel": ic.value, "inter_keypoint": ik.value},
    )
