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
from .numerics import LossResult, as_tensor, check_finite, matmul

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


def _bilinear_corners(pts: np.ndarray, h: int, w: int):
    """Corner indices and weights of border-clamped bilinear interpolation."""
    r = np.clip(pts[:, 0], 0.0, float(h - 1))
    c = np.clip(pts[:, 1], 0.0, float(w - 1))
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = r - r0
    fc = c - c0
    corners = ((r0, c0), (r0, c1), (r1, c0), (r1, c1))
    weights = ((1.0 - fr) * (1.0 - fc), (1.0 - fr) * fc, fr * (1.0 - fc), fr * fc)
    return corners, weights


def bilinear_sample(feat, points) -> np.ndarray:
    """4-neighbor interpolation of (C, H, W) features at continuous (row,
    col) points; returns (N, C).  Integer coordinates reproduce the cell
    value exactly; out-of-range points clamp to the border."""
    data = _feat_data(feat)
    pts = _point_array(points)
    c_dim, h, w = data.shape
    flat = data.reshape(c_dim, h * w)
    corners, weights = _bilinear_corners(pts, h, w)
    out = np.zeros((pts.shape[0], c_dim))
    for (rr, cc), wt in zip(corners, weights):
        out += wt[:, None] * flat[:, rr * w + cc].T
    return out


def bilinear_sample_backward(feat_shape, points, upstream) -> np.ndarray:
    """Adjoint of bilinear_sample: scatter-add (N, C) upstream gradients
    back onto the 4 neighbor cells of each point."""
    c_dim, h, w = feat_shape
    pts = _point_array(points)
    upstream = as_tensor(upstream)
    if upstream.shape != (pts.shape[0], c_dim):
        raise ContractError("upstream gradient must be (N, C)")
    grad_hw = np.zeros((h * w, c_dim))
    corners, weights = _bilinear_corners(pts, h, w)
    for (rr, cc), wt in zip(corners, weights):
        np.add.at(grad_hw, rr * w + cc, wt[:, None] * upstream)
    return np.moveaxis(grad_hw.reshape(h, w, c_dim), -1, 0)


def _normalize_rows(f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-L2 normalization; zero rows are guarded by a tiny floor and
    are degenerate for gradients."""
    norms = np.sqrt(np.sum(f * f, axis=1))
    scale = np.maximum(norms, 1e-12)
    return f / scale[:, None], scale


def _effective_features(f: np.ndarray, normalization: str):
    if normalization == "l2":
        return _normalize_rows(f)
    return f, None


def _row_canonical(f: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order.  The channel Gram is row-order
    symmetric in exact arithmetic; accumulating in a canonical order
    makes it bitwise invariant to keypoint permutations too."""
    return f[np.lexsort(f.T[::-1])]


def inter_channel_gram(f, normalization: str = "none") -> np.ndarray:
    """(C, C) Gram of channel pairs, accumulated over keypoint rows in
    canonical order, so permuting rows gives the identical matrix."""
    f = as_tensor(f)
    _check_norm(normalization)
    f_eff, _ = _effective_features(f, normalization)
    f_can = _row_canonical(f_eff)
    gram = matmul(f_can.T, f_can)
    if normalization == "count":
        gram /= f.shape[0]
    return gram


def inter_keypoint_gram(f, normalization: str = "none") -> np.ndarray:
    """(N, N) Gram of keypoint pairs, accumulated over channels."""
    f = as_tensor(f)
    _check_norm(normalization)
    f_eff, _ = _effective_features(f, normalization)
    gram = matmul(f_eff, f_eff.T)
    if normalization == "count":
        gram /= f.shape[1]
    return gram


def _check_norm(normalization: str):
    if normalization not in GRAM_NORMALIZATIONS:
        raise ConfigError(f"unknown gram normalization {normalization!r}")


def _check_reduction(reduction: str):
    if reduction not in ("mean", "sum"):
        raise ConfigError(f"unknown loss reduction {reduction!r}")


def _chain_row_norm(grad_eff: np.ndarray, f_hat: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Backpropagate through row-L2 normalization f_hat = f / ||f||."""
    inner = np.sum(grad_eff * f_hat, axis=1, keepdims=True)
    return (grad_eff - inner * f_hat) / scale[:, None]


def _gram_loss_one(
    fs: np.ndarray, ft: np.ndarray, kind: str, normalization: str, reduction: str
) -> Tuple[float, np.ndarray]:
    """Value and student-feature gradient of one target's Gram loss.

    ``kind`` selects the channel (C x C) or keypoint (N x N) Gram.
    """
    fs_eff, fs_scale = _effective_features(fs, normalization)
    count = fs.shape[0] if kind == "channel" else fs.shape[1]
    if kind == "channel":
        fs_can = _row_canonical(fs_eff)
        gram_s = matmul(fs_can.T, fs_can)
        gram_t = inter_channel_gram(ft, normalization)
    else:
        gram_s = matmul(fs_eff, fs_eff.T)
        gram_t = inter_keypoint_gram(ft, normalization)
    if normalization == "count":
        gram_s = gram_s / count
    diff = gram_s - gram_t
    denom = float(diff.size) if reduction == "mean" else 1.0
    value = float(np.sum(diff * diff)) / denom
    g_mat = (2.0 / denom) * diff
    if kind == "channel":
        grad_eff = 2.0 * (fs_eff @ g_mat)
    else:
        grad_eff = 2.0 * (g_mat @ fs_eff)
    if normalization == "count":
        grad_eff /= count
    if normalization == "l2":
        grad = _chain_row_norm(grad_eff, fs_eff, fs_scale)
    else:
        grad = grad_eff
    return value, grad


def _gram_loss(
    targets: List[TargetKeypointFeatures], kind: str, normalization: str, reduction: str
) -> LossResult:
    _check_norm(normalization)
    _check_reduction(reduction)
    if not targets:
        return LossResult(0.0, [], empty=True)
    total = 0.0
    grads = []
    for tkf in targets:
        value, grad = _gram_loss_one(tkf.student, tkf.teacher, kind, normalization, reduction)
        total += value
        grads.append(grad)
    return LossResult(total, grads)


def inter_channel_loss(
    targets: List[TargetKeypointFeatures],
    normalization: str = "none",
    loss_reduction: str = "mean",
) -> LossResult:
    """Squared-difference loss between student and teacher channel Grams,
    reduced per target then summed; gradient per student block."""
    return _gram_loss(targets, "channel", normalization, loss_reduction)


def inter_keypoint_loss(
    targets: List[TargetKeypointFeatures],
    normalization: str = "none",
    loss_reduction: str = "mean",
) -> LossResult:
    """Squared-difference loss between student and teacher keypoint Grams,
    reduced per target then summed; gradient per student block."""
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


def bev_distill_terms(
    student_bev: BevFeatureMap,
    teacher_bev: BevFeatureMap,
    boxes: List[Box3D],
    g: int = 6,
    enlarge: float = 1.25,
    normalization: str = "none",
    loss_reduction: str = "mean",
) -> Tuple[LossResult, LossResult]:
    """Channel and keypoint Gram losses over all targets as separate
    results, each with its own gradient on the student BEV tensor.

    Both maps are sampled at identical keypoints; per-target gradient
    contributions are scattered into the maps in input order.
    """
    _check_norm(normalization)
    _check_reduction(loss_reduction)
    if student_bev.data.shape != teacher_bev.data.shape:
        raise ContractError("student and teacher BEV shapes disagree")
    if student_bev.grid != teacher_bev.grid:
        raise ContractError("student and teacher grids disagree")
    if not boxes:
        zero = np.zeros_like(student_bev.data)
        return LossResult(0.0, zero, empty=True), LossResult(0.0, zero.copy(), empty=True)
    grad_ic = np.zeros_like(student_bev.data)
    grad_ik = np.zeros_like(student_bev.data)
    total_ic = 0.0
    total_ik = 0.0
    for kp in keypoint_sets_for_boxes(boxes, student_bev.grid, g=g, enlarge=enlarge):
        fs = bilinear_sample(student_bev, kp)
        ft = bilinear_sample(teacher_bev, kp)
        v_ic, g_ic = _gram_loss_one(fs, ft, "channel", normalization, loss_reduction)
        v_ik, g_ik = _gram_loss_one(fs, ft, "keypoint", normalization, loss_reduction)
        total_ic += v_ic
        total_ik += v_ik
        grad_ic += bilinear_sample_backward(student_bev.data.shape, kp, g_ic)
        grad_ik += bilinear_sample_backward(student_bev.data.shape, kp, g_ik)
    return (
        LossResult(total_ic, grad_ic),
        LossResult(total_ik, grad_ik),
    )


def bev_distill_loss(
    student_bev: BevFeatureMap,
    teacher_bev: BevFeatureMap,
    boxes: List[Box3D],
    g: int = 6,
    enlarge: float = 1.25,
    normalization: str = "none",
    loss_reduction: str = "mean",
) -> LossResult:
    """Combined channel + keypoint Gram loss with the gradient mapped back
    onto the student BEV tensor; teacher features carry no gradient."""
    ic, ik = bev_distill_terms(
        student_bev, teacher_bev, boxes,
        g=g, enlarge=enlarge, normalization=normalization, loss_reduction=loss_reduction,
    )
    if ic.empty:
        return LossResult(0.0, ic.grad, empty=True)
    return LossResult(
        ic.value + ik.value,
        ic.grad + ik.grad,
        components={"inter_channel": ic.value, "inter_keypoint": ik.value},
    )
