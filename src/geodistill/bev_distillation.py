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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ContractError
from .geometry import BevGrid, Box3D, enlarge_box_bev, rot_z, world_to_bev
from .numerics import LossResult, as_tensor, check_finite, check_reduction
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
    return KeypointSet(points=pts, g=g, clipped=clipped)


def _feat_data(feat) -> np.ndarray:
    data = feat.data if isinstance(feat, BevFeatureMap) else as_tensor(feat)
    if data.ndim != 3 or 0 in data.shape[1:]:
        raise ContractError(f"features must be (C, H, W) with H, W >= 1, got {data.shape}")
    return data


def _point_array(points) -> np.ndarray:
    pts = points.points if isinstance(points, KeypointSet) else as_tensor(points)
    if pts.ndim == 0 or pts.shape[-1] != 2:
        raise ContractError(f"sample points must be (row, col) pairs on the last axis, got {pts.shape}")
    return pts.reshape(-1, 2)


def _interpolation(pts: np.ndarray, h: int, w: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Border-clamped bilinear interpolation at (T, N, 2) points of an h x
    w grid: the (L,) sorted flat cells that some corner touches; ``win``
    (T, W), each target's window, the indices into those of its touched
    cells in order, -1-padded to the widest; and ``mat`` (T, N, W), each
    point's weights over its target's window, zero at the padding.  A
    point has 4 corners, so W <= min(4N, L).  A non-finite point raises
    ``NumericError``."""
    check_finite(pts, "sample points")
    r = np.clip(pts[..., 0], 0.0, float(h - 1))
    c = np.clip(pts[..., 1], 0.0, float(w - 1))
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = r - r0
    fc = c - c0
    # (T, 4N): the corners (r0, c0), (r0, c1), (r1, c0), (r1, c1) of every point
    cells = np.concatenate([r0 * w + c0, r0 * w + c1, r1 * w + c0, r1 * w + c1], axis=-1)
    weights = np.concatenate([(1.0 - fr) * (1.0 - fc), (1.0 - fr) * fc, fr * (1.0 - fc), fr * fc], axis=-1)
    live, at = np.unique(cells, return_inverse=True)
    t, n = pts.shape[:2]
    # the distinct (target, live cell) pairs in order, and each corner's pair
    pairs, pair = np.unique(np.arange(t)[:, None] * live.size + at.reshape(cells.shape), return_inverse=True)
    owner = pairs // live.size
    slot = np.arange(pairs.size) - np.searchsorted(owner, owner)  # window column of each pair
    width = int(slot.max(initial=-1)) + 1
    win = np.full((t, width), -1)
    win[owner, slot] = pairs - owner * live.size
    # coinciding corners are clamped ones, and all but one of them weigh 0
    flat = (np.arange(t)[:, None] * n + np.tile(np.arange(n), 4)) * width + slot[pair].reshape(cells.shape)
    mat = np.bincount(flat.ravel(), weights.ravel(), minlength=t * n * width).reshape(t, n, width)
    return live, win, mat


def _sample(block: np.ndarray, win: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """(T, N, C) BLAS products of (T, N, W) matrices with a (C, L) block's
    columns at (T, W) windows; a (B, C, L) stack gives (B, T, N, C)."""
    return mat @ np.swapaxes(block, -1, -2)[..., win, :]


def bilinear_sample(feat, points) -> np.ndarray:
    """4-neighbor interpolation of (C, H, W) features at continuous (row,
    col) points, an (N, 2) array or a ``KeypointSet``; returns (N, C),
    the product of the matrix a plan would build for one target of these
    points.  Integer coordinates reproduce the cell value exactly;
    out-of-range points clamp to the border."""
    data = _feat_data(feat)
    c, h, w = data.shape
    live, win, mat = _interpolation(_point_array(points)[None], h, w)
    return _sample(np.take(data.reshape(c, h * w), live, axis=-1), win, mat)[0]


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
    """Each target's rows of a (..., T, N, C) stack in lexicographic order.

    The channel Gram is row-order symmetric in exact arithmetic;
    accumulating in a canonical order makes it bitwise invariant to
    keypoint permutations too.

    Rows are sorted by (target, first column); only runs that tie there
    are then sorted by the remaining columns.  Both sorts are stable, so
    the order is exactly that of a full lexsort of each target's rows.
    """
    n, c = f.shape[-2:]
    t = int(np.prod(f.shape[:-2]))
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
    return flat[order].reshape(f.shape)


def _grams(f_eff: np.ndarray, kind: str, normalization: str, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(..., C, C) channel or (..., N, N) keypoint Grams of a (..., N, C)
    stack of effective features, one BLAS product per target, written
    into ``out`` when given.  Each slice's product depends only on that
    slice's values, so a target's Gram has the same bits in a stack as on
    its own."""
    if kind == "channel":
        f_can = _row_canonical(f_eff)
        gram = np.matmul(np.swapaxes(f_can, -1, -2), f_can, out=out)
    else:
        gram = np.matmul(f_eff, np.swapaxes(f_eff, -1, -2), out=out)
    if normalization == "count":
        gram /= _gram_count(f_eff, kind)
    return gram


def _gram_count(f: np.ndarray, kind: str) -> int:
    """Terms in each Gram entry: keypoints for channel, channels for keypoint."""
    return f.shape[-2] if kind == "channel" else f.shape[-1]


def _gram_of(f, kind: str, normalization: str) -> np.ndarray:
    _check_norm(normalization)
    return _grams(_effective_features(as_tensor(f), normalization)[0], kind, normalization)


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


def _chain_row_norm(grad_eff: np.ndarray, f_hat: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Backpropagate through row-L2 normalization f_hat = f / ||f||."""
    inner = np.sum(grad_eff * f_hat, axis=-1, keepdims=True)
    return (grad_eff - inner * f_hat) / scale[..., None]


def _gram_losses(
    fs: np.ndarray, gram_t: np.ndarray, kind: str, normalization: str, reduction: str,
    with_grad: bool = True, sq: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Values (T,) and student-feature gradients (T, N, C), None without
    ``with_grad``, of T >= 0 targets' Gram losses against fixed teacher
    Grams.  With ``sq``, a (T,) array, each target's sum of squared Gram
    differences is written into it before the reduction's division.
    ``work``, an optional C-contiguous array of shape (2,) + the Grams'
    shape, holds the Gram differences and their squares.

    ``kind`` selects the channel (C x C) or keypoint (N x N) Gram.  A
    (B, T, N, C) stack gives (B, T) values against the same teacher
    Grams, each row bit for bit that of its (T, N, C) slice alone.
    """
    diff_out, sq_out = (None, None) if work is None else work
    fs_eff, fs_scale = _effective_features(fs, normalization)
    diff = _grams(fs_eff, kind, normalization, diff_out)
    diff -= gram_t
    k_sq = diff.shape[-2] * diff.shape[-1]
    denom = float(k_sq) if reduction == "mean" else 1.0
    squares = np.multiply(diff, diff, out=sq_out)
    values = np.sum(squares.reshape(diff.shape[:-2] + (k_sq,)), axis=-1, out=sq) / denom
    if not with_grad:
        return values, None
    g_mat = diff
    g_mat *= 2.0 / denom
    grad_eff = fs_eff @ g_mat if kind == "channel" else g_mat @ fs_eff
    grad_eff *= 2.0
    if normalization == "count":
        grad_eff /= _gram_count(fs, kind)
    if normalization == "l2":
        return values, _chain_row_norm(grad_eff, fs_eff, fs_scale)
    return values, grad_eff


def _sum_in_order(values: np.ndarray):
    """Left-to-right float sum over the last (target) axis, in target
    order: a float for (T,) values, one sum per row for (B, T)."""
    total = sum(values.T, 0.0)
    return total if np.ndim(total) else float(total)


def _gram_loss(
    targets: List[TargetKeypointFeatures], kind: str, normalization: str, reduction: str
) -> LossResult:
    _check_norm(normalization)
    check_reduction(reduction)
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


@dataclass
class DistillPlan:
    """The student-independent half of one scene's BEV distillation.

    The teacher map is a constant, so for fixed boxes, lattice extent
    ``g``, ``enlarge`` and normalization its keypoint features, both
    teacher Grams and the interpolation matrices never change.  Build it
    once with ``build_distill_plan`` and reuse it for every student of
    the scene.

    Only the live cells, those some corner touches, are ever read, so
    the student side runs on a packed (C, L) block of their columns:
    ``pack`` takes it from a (C, H, W) map and ``unpack`` puts it back.
    """

    teacher_bev: BevFeatureMap
    normalization: str
    live: np.ndarray  # (L,) sorted distinct flat BEV cells that any corner touches
    win: np.ndarray  # (T, W) each target's window of ``live`` indices, see ``_interpolation``
    mat: np.ndarray  # (T, N, W) each keypoint's bilinear weights over its window, W <= min(4N, L)
    firsts: np.ndarray  # (L,) the flat window entry of the first target touching each live cell
    repeats: np.ndarray  # (2, S) the live cell and flat window entry of each later touch, in target order
    teacher: np.ndarray  # (T, N, C) teacher keypoint features
    teacher_channel: np.ndarray  # (T, C, C) teacher channel Grams
    teacher_keypoint: np.ndarray  # (T, N, N) teacher keypoint Grams
    # per Gram kind, the ``_gram_losses`` work array of one (C, L) student,
    # taken once: a fresh pair of (T, N, N) arrays on every step lets glibc
    # hand heap pages back that the next step faults in again
    gram_work: Dict[str, np.ndarray] = field(repr=False)

    def pack(self, bev: np.ndarray) -> np.ndarray:
        """The (C, L) live columns of a (C, H, W) map, or (B, C, L) of a
        (B, C, H, W) stack of maps."""
        shape = self.teacher_bev.data.shape
        if np.ndim(bev) not in (3, 4) or np.shape(bev)[-3:] != shape:
            raise ContractError(f"pack needs a {shape} (C, H, W) map or a stack of them, got {np.shape(bev)}")
        return np.take(bev.reshape(bev.shape[:-2] + (-1,)), self.live, axis=-1)

    def unpack(self, block: np.ndarray, base: Optional[np.ndarray] = None) -> np.ndarray:
        """The (C, H, W) map holding the (C, L) ``block`` at the live
        cells and, elsewhere, zeros or the (C, H, W) map ``base``, which
        is written in place whatever its memory order."""
        shape = self.teacher_bev.data.shape
        if base is not None and np.shape(base) != shape:
            raise ContractError(f"unpack base must be {shape}, got {np.shape(base)}")
        out = np.zeros(shape) if base is None else base
        out[:, self.live // shape[2], self.live % shape[2]] = block
        return out

    def sample(self, block: np.ndarray) -> np.ndarray:
        """(T, N, C) features of a (C, L) block at every target's
        keypoints, or (B, T, N, C) of a (B, C, L) stack of blocks."""
        return _sample(block, self.win, self.mat)

    def scatter(self, grad_fs: np.ndarray) -> np.ndarray:
        """Adjoint of ``sample``: the (C, L) block of (T, N, C) keypoint gradients, the
        transposed products' window rows added onto the live cells in target order."""
        rows = (np.swapaxes(self.mat, -1, -2) @ grad_fs).reshape(self.win.size, grad_fs.shape[-1])
        out = rows[self.firsts]
        np.add.at(out, self.repeats[0], rows[self.repeats[1]])
        return out.T

    def terms(
        self, block: np.ndarray, reduction: str, with_grad: bool = True, keypoint_sq: Optional[np.ndarray] = None
    ):
        """(value, gradient) of the channel and then the keypoint Gram
        loss of a (C, L) student block.  Each value is the per-target
        values summed in target order; each gradient is the (C, L) block
        that ``scatter`` gives, None without ``with_grad``.  A (B, C, L)
        stack gives (B,) values and no gradients.  ``keypoint_sq``
        receives the keypoint kind's per-target squared distances (see
        ``_gram_losses``)."""
        check_reduction(reduction)
        fs = self.sample(block)
        single = block.ndim == 2
        out = []
        for kind, gram_t, sq in (
            ("channel", self.teacher_channel, None), ("keypoint", self.teacher_keypoint, keypoint_sq)
        ):
            values, grad_fs = _gram_losses(
                fs, gram_t, kind, self.normalization, reduction, with_grad and single, sq,
                self.gram_work[kind] if single else None,
            )
            out.append((_sum_in_order(values), None if grad_fs is None else self.scatter(grad_fs)))
        return out


def build_distill_plan(
    teacher_bev: BevFeatureMap,
    boxes: List[Box3D],
    g: int = 6,
    enlarge: float = 1.25,
    normalization: str = "none",
) -> DistillPlan:
    """Keypoint lattices, interpolation matrices, teacher features and
    teacher Grams of every target, stacked in box order; the teacher
    features are the teacher's live columns sampled like any student
    block.  A non-finite value anywhere in the teacher map raises
    ``NumericError``, also off the live cells."""
    _check_norm(normalization)
    check_finite(teacher_bev.data, "teacher BEV features")
    lattices = [sample_keypoints(box, teacher_bev.grid, g, enlarge).points for box in boxes]
    pts = np.array(lattices).reshape(len(boxes), g * g, 2)
    live, win, mat = _interpolation(pts, *teacher_bev.data.shape[1:])
    touched = np.flatnonzero(win >= 0)  # window rows in target order
    _, first = np.unique(win.flat[touched], return_index=True)
    later = np.delete(touched, first)
    teacher = _sample(np.take(teacher_bev.data.reshape(teacher_bev.channels, -1), live, axis=-1), win, mat)
    t_eff, _ = _effective_features(teacher, normalization)
    grams = {kind: _grams(t_eff, kind, normalization) for kind in ("channel", "keypoint")}
    return DistillPlan(
        teacher_bev=teacher_bev,
        normalization=normalization,
        live=live,
        win=win,
        mat=mat,
        firsts=touched[first],
        repeats=np.stack([win.flat[later], later]),
        teacher=teacher,
        teacher_channel=grams["channel"],
        teacher_keypoint=grams["keypoint"],
        gram_work={kind: np.empty((2,) + gram.shape) for kind, gram in grams.items()},
    )


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

    Both maps are sampled at identical keypoints.  The teacher side is
    built for this call, and all targets run as one stack through
    ``DistillPlan.terms``: values are the per-target values summed in
    input order, and each gradient is ``DistillPlan.scatter`` onto the
    plan's live cells, adding targets in input order, and is 0.0
    elsewhere.  With no boxes the stack is empty: both results are 0.0,
    ``empty``, with zero gradients.
    """
    _check_norm(normalization)
    check_reduction(loss_reduction)
    if student_bev.data.shape != teacher_bev.data.shape:
        raise ContractError("student and teacher BEV shapes disagree")
    if student_bev.grid != teacher_bev.grid:
        raise ContractError("student and teacher grids disagree")
    plan = build_distill_plan(teacher_bev, boxes, g, enlarge, normalization)
    terms = plan.terms(plan.pack(student_bev.data), loss_reduction)
    return tuple(LossResult(value, plan.unpack(grad), empty=not boxes) for value, grad in terms)


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
