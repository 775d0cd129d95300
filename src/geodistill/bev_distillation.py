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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ContractError
from .geometry import BevGrid, Box3D, enlarge_box_bev, rot_z, world_to_bev
from .numerics import LossResult, as_tensor, check_finite, check_reduction, sq_sums
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
        self.points = as_tensor(self.points)
        if self.g < 2 or self.points.shape != (self.g * self.g, 2):
            raise ContractError(f"keypoints must be (g*g, 2) points of a lattice with g >= 2, got {self.points.shape}")

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


def _interpolation(pts: np.ndarray, h: int, w: int) -> Tuple[np.ndarray, ...]:
    """Border-clamped bilinear interpolation at (T, N, 2) points of an h x
    w grid: the (L,) sorted flat cells that some corner touches; ``win``
    (T, W), each target's window, the indices into those of its touched
    cells in order, -1-padded to the widest; ``mat`` (T, N, W), each
    point's weights over its target's window, zero at the padding; and
    the adjoint's touch order of ``win``'s entries read row-major,
    ``firsts`` and ``repeats`` (see ``DistillPlan``).  A point has 4
    corners, so W <= min(4N, L).  A non-finite point raises
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
    # corners are read target by target, so ``first`` is each live cell's first touch
    live, first, at = np.unique(cells, return_index=True, return_inverse=True)
    t, n = pts.shape[:2]
    # the distinct (target, live cell) pairs in order, and each corner's pair
    pairs, pair = np.unique(np.arange(t)[:, None] * live.size + at.reshape(cells.shape), return_inverse=True)
    owner, cell = np.divmod(pairs, live.size)
    slot = np.arange(pairs.size) - np.searchsorted(owner, owner)  # window column of each pair
    width = int(slot.max(initial=-1)) + 1
    win = np.full((t, width), -1)
    win[owner, slot] = cell
    # coinciding corners are clamped ones, and all but one of them weigh 0
    flat = (np.arange(t)[:, None] * n + np.tile(np.arange(n), 4)) * width + slot[pair].reshape(cells.shape)
    mat = np.bincount(flat.ravel(), weights.ravel(), minlength=t * n * width).reshape(t, n, width)
    entry = owner * width + slot  # the pairs are the window's entries, read row-major
    head = pair.ravel()[first]
    later = np.ones(pairs.size, bool)
    later[head] = False
    return live, win, mat, entry[head], np.array([cell[later], entry[later]])


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
    live, win, mat, _, _ = _interpolation(_point_array(points)[None], h, w)
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

    One stable argsort of the first column along the keypoint axis,
    offset by each target's first row, orders each target's rows; only
    runs that tie there are then sorted by the remaining columns.  Both
    sorts are stable, so the order is that of a full lexsort per target.
    """
    n, c = f.shape[-2:]
    t = int(np.prod(f.shape[:-2]))
    flat = f.reshape(t * n, c)
    order = (np.argsort(flat[:, 0].reshape(t, n), axis=-1, kind="stable") + np.arange(0, t * n, n)[:, None]).ravel()
    first = flat[order, 0]
    tie = first[1:] == first[:-1]
    tie[n - 1::max(n, 1)] = False  # a target's last row and the next one's first
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
    into ``out`` when given; BLAS takes the transposed operand faster as a
    C-contiguous copy.  Each slice's product depends only on that slice's
    values, so a target's Gram has the same bits in a stack as on its own."""
    if kind == "channel":
        f_can = _row_canonical(f_eff)
        gram = np.matmul(np.ascontiguousarray(np.swapaxes(f_can, -1, -2)), f_can, out=out)
    else:
        gram = np.matmul(f_eff, np.ascontiguousarray(np.swapaxes(f_eff, -1, -2)), out=out)
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
    fs: np.ndarray, teacher: Sequence[Tuple[str, np.ndarray]], normalization: str, reduction: str,
    weights: Optional[Sequence[float]] = None, sq: Optional[np.ndarray] = None,
    work: Sequence[np.ndarray] = (),
) -> Tuple[List[np.ndarray], Optional[np.ndarray]]:
    """Values (T,) of T >= 0 targets' Gram losses, one array per
    (kind, teacher Grams) entry of ``teacher``, with ``kind`` "channel"
    (C x C) or "keypoint" (N x N), and with ``weights``, one per entry,
    the (T, N, C) student-feature gradient of their weighted sum.

    A value is the target's Gram difference reduced by ``sq_sums``, one
    dot product, over the entry count under "mean"; row i of ``sq``, a
    (K, T) array for K entries, receives entry i's products, and entry i
    of ``work``, C-contiguous, its Gram differences.  Each kind's feature
    gradient is scaled once, by 4 w / denom (over the count under
    "count"), and the sum takes the row-norm chain once.  A (B, T, N, C) stack gives (B, T)
    values, each row bit for bit that of its (T, N, C) slice alone.
    """
    fs_eff, fs_scale = _effective_features(fs, normalization)
    values, grad = [], None
    for i, (kind, gram_t) in enumerate(teacher):
        diff = _grams(fs_eff, kind, normalization, work[i] if work else None)
        diff -= gram_t
        denom = float(diff.shape[-2] * diff.shape[-1]) if reduction == "mean" else 1.0
        values.append(sq_sums(diff, None if sq is None else sq[i]) / denom)
        if weights is None:
            continue
        part = fs_eff @ diff if kind == "channel" else diff @ fs_eff
        part *= 4.0 * weights[i] / denom / (_gram_count(fs, kind) if normalization == "count" else 1)
        grad = part if grad is None else np.add(grad, part, out=grad)
    if grad is not None and normalization == "l2":
        grad = _chain_row_norm(grad, fs_eff, fs_scale)
    return values, grad


def _sum_in_order(values: np.ndarray):
    """Left-to-right float sum over the last (target) axis, in target
    order: a float for (T,) values, one sum per row for (B, T), T >= 0."""
    total = sum(values.T, np.zeros(values.shape[:-1]))
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
    teacher = ((kind, _gram_of(np.array([tkf.teacher for tkf in targets]), kind, normalization)),)
    fs = np.array([tkf.student for tkf in targets])
    (values,), grads = _gram_losses(fs, teacher, normalization, reduction, (1.0,))
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
    teacher Grams and the interpolation matrices never change; of the map
    it keeps only the shape.  Build it once with ``build_distill_plan``
    and reuse it for every student of the scene.

    Only the live cells, those some corner touches, are ever read, so
    the student side runs on a packed (C, L) block of their columns:
    ``pack`` takes it from a (C, H, W) map and ``unpack`` puts it back.
    ``terms`` is its one composition: one ``sample``, both Gram losses
    and one ``scatter`` of their weighted gradient.
    """

    shape: Tuple[int, int, int]  # (C, H, W) of the teacher map and of every map packed or unpacked
    normalization: str
    live: np.ndarray  # (L,) sorted distinct flat BEV cells that any corner touches
    win: np.ndarray  # (T, W) each target's window of ``live`` indices, see ``_interpolation``
    mat: np.ndarray  # (T, N, W) each keypoint's bilinear weights over its window, W <= min(4N, L)
    firsts: np.ndarray  # (L,) the flat window entry of each live cell's first touch, in its first target
    repeats: np.ndarray  # (2, S) the live cell and flat window entry of each later touch, row-major in ``win``
    teacher: np.ndarray  # (T, N, C) teacher keypoint features
    teacher_channel: np.ndarray  # (T, C, C) teacher channel Grams
    teacher_keypoint: np.ndarray  # (T, N, N) teacher keypoint Grams
    teacher_sq: np.ndarray  # (2, T) squared norms of the channel and the keypoint teacher Grams
    # the channel and the keypoint Gram differences of one (C, L) student,
    # taken once: a fresh (T, N, N) array on every step lets glibc hand
    # heap pages back that the next step faults in again
    gram_work: Tuple[np.ndarray, np.ndarray] = field(repr=False)

    def pack(self, bev: np.ndarray) -> np.ndarray:
        """The (C, L) live columns of a (C, H, W) map."""
        if np.shape(bev) != self.shape:
            raise ContractError(f"pack needs a {self.shape} (C, H, W) map, got {np.shape(bev)}")
        return np.take(bev.reshape(self.shape[0], -1), self.live, axis=-1)

    def unpack(self, block: np.ndarray, base: Optional[np.ndarray] = None) -> np.ndarray:
        """The (C, H, W) map holding the (C, L) ``block`` at the live
        cells and, elsewhere, zeros or the (C, H, W) map ``base``, which
        is written in place whatever its memory order."""
        if base is not None and np.shape(base) != self.shape:
            raise ContractError(f"unpack base must be {self.shape}, got {np.shape(base)}")
        out = np.zeros(self.shape) if base is None else base
        out[:, self.live // self.shape[2], self.live % self.shape[2]] = block
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

    def terms(self, block: np.ndarray, reduction: str, weights: Optional[Tuple[float, float]] = None, gram_sq=None):
        """(ic, ik, gradient): the channel and the keypoint Gram loss of a
        (C, L) student block, each the per-target values summed in target
        order, and with ``weights`` = (w_ic, w_ik) the (C, L) gradient of
        w_ic * ic + w_ik * ik, the kinds' keypoint gradients summed and
        scattered once (None without; a weight of 0 only scales its
        term).  A (B, C, L) stack gives (B,) values and no gradient.
        ``gram_sq``, a (2, T) array, receives a single block's squared
        channel and keypoint Gram distances of each target."""
        check_reduction(reduction)
        single = block.ndim == 2
        values, grad_fs = _gram_losses(
            self.sample(block), (("channel", self.teacher_channel), ("keypoint", self.teacher_keypoint)),
            self.normalization, reduction, weights if single else None, gram_sq,
            self.gram_work if single else (),
        )
        ic, ik = (_sum_in_order(v) for v in values)
        return ic, ik, None if grad_fs is None else self.scatter(grad_fs)


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
    live, win, mat, firsts, repeats = _interpolation(pts, *teacher_bev.data.shape[1:])
    teacher = _sample(np.take(teacher_bev.data.reshape(teacher_bev.channels, -1), live, axis=-1), win, mat)
    t_eff, _ = _effective_features(teacher, normalization)
    grams = {kind: _grams(t_eff, kind, normalization) for kind in ("channel", "keypoint")}
    return DistillPlan(
        shape=teacher_bev.data.shape,
        normalization=normalization,
        live=live,
        win=win,
        mat=mat,
        firsts=firsts,
        repeats=repeats,
        teacher=teacher,
        teacher_channel=grams["channel"],
        teacher_keypoint=grams["keypoint"],
        teacher_sq=np.array([sq_sums(grams["channel"]), sq_sums(grams["keypoint"])]),
        gram_work=(np.empty(grams["channel"].shape), np.empty(grams["keypoint"].shape)),
    )


def _dense_plan(student_bev, teacher_bev, boxes, g, enlarge, normalization, loss_reduction):
    """The plan of a one-shot call and the student's packed block."""
    _check_norm(normalization)
    check_reduction(loss_reduction)
    if student_bev.data.shape != teacher_bev.data.shape:
        raise ContractError("student and teacher BEV shapes disagree")
    if student_bev.grid != teacher_bev.grid:
        raise ContractError("student and teacher grids disagree")
    plan = build_distill_plan(teacher_bev, boxes, g, enlarge, normalization)
    return plan, plan.pack(student_bev.data)


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

    The teacher side is built for this call.  Each result comes from its
    own ``DistillPlan.terms`` call, with weights (1, 0) for the channel
    loss and (0, 1) for the keypoint loss, so each call also evaluates the
    other kind; its gradient is unpacked with 0.0 off the live cells.
    With no boxes both results are 0.0, ``empty``, with zero gradients.
    """
    plan, block = _dense_plan(student_bev, teacher_bev, boxes, g, enlarge, normalization, loss_reduction)
    ic, _, ic_grad = plan.terms(block, loss_reduction, (1.0, 0.0))
    _, ik, ik_grad = plan.terms(block, loss_reduction, (0.0, 1.0))
    return tuple(LossResult(v, plan.unpack(grad), empty=not boxes) for v, grad in ((ic, ic_grad), (ik, ik_grad)))


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
    onto the student BEV tensor, from one ``DistillPlan.terms`` call with
    weights (1, 1); teacher features carry no gradient."""
    plan, block = _dense_plan(student_bev, teacher_bev, boxes, g, enlarge, normalization, loss_reduction)
    ic, ik, grad = plan.terms(block, loss_reduction, (1.0, 1.0))
    if not boxes:
        return LossResult(0.0, plan.unpack(grad), empty=True)
    return LossResult(ic + ik, plan.unpack(grad), components={"inter_channel": ic, "inter_keypoint": ik})
