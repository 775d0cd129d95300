"""Depth training signals for a categorical depth head.

Two losses, both returning analytic gradients with respect to the
raw logits:

* a dense binary cross-entropy against one-hot binned ground truth, and
* a relative-depth loss that anchors each foreground target at a
  reference pixel and penalizes errors in depth differences, so only
  the target's internal depth structure is supervised.

Reference selection is non-differentiable: the chosen index is frozen
during the backward pass while the reference pixel's depth still
carries gradient.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, ContractError, SkippedTargetError
from .geometry import ForegroundDepthSet
from .numerics import LossResult, as_tensor, check_finite, check_reduction, softmax_rows
from .numerics import _check_fields, _choice, _ranged

BCE_CLAMP = 1e-7

REFERENCE_STRATEGIES = (
    "all_to_adaptive_smallest_error",
    "all_to_adaptive_highest_conf",
    "all_to_certain_3d_center",
    "all_to_certain_2d_center",
    "one_to_one",
)

BIN_MODES = ("uniform", "spacing_increasing")


@dataclass(frozen=True)
class DepthBins:
    """Discretization of the depth range into ``count`` ordered bins.

    ``uniform`` places centers at equal-width cell midpoints;
    ``spacing_increasing`` does the same in log-depth, so bin width
    grows with distance.  Centers are strictly increasing and lie
    inside [d_min, d_max].  They are derived from the other fields,
    which alone decide equality, and are read-only like the frozen
    fields.
    """

    count: int = _ranged(dataclasses.MISSING, ">= 2", lambda v: v >= 2)
    mode: str = _choice("uniform", BIN_MODES)
    d_min: float = _ranged(1.0, "> 0", lambda v: v > 0)
    d_max: float = 60.0
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_fields("bins.", DepthBins, vars(self))
        if not self.d_min < self.d_max:
            raise ConfigError(f"bins.d_max must be > d_min ({self.d_min!r}), got {self.d_max!r}")
        half_steps = np.arange(self.count) + 0.5
        if self.mode == "uniform":
            c = self.d_min + half_steps * ((self.d_max - self.d_min) / self.count)
        else:
            c = self.d_min * np.exp(half_steps * (np.log(self.d_max / self.d_min) / self.count))
        c.flags.writeable = False
        object.__setattr__(self, "centers", c)
        if not (np.all(np.isfinite(c)) and np.all(np.diff(c) > 0) and self.d_min <= c[0] and c[-1] <= self.d_max):
            lo, hi = float(c[0]), float(c[-1])
            raise ConfigError(f"bins.centers must be finite, increasing and in [d_min, d_max], got {lo!r} to {hi!r}")


@dataclass
class CategoricalDepthMap:
    """Per-pixel logits over depth bins."""

    logits: np.ndarray

    def __post_init__(self):
        self.logits = as_tensor(self.logits)
        if self.logits.ndim != 3:
            raise ContractError(f"logits must be (D, H, W), got shape {self.logits.shape}")
        check_finite(self.logits, "logits")

    @property
    def num_bins(self) -> int:
        return self.logits.shape[0]


@dataclass(frozen=True)
class ReferenceSelection:
    """How the anchor pixel of each target is chosen.

    ``signed_reference_error`` switches the smallest-error strategy from
    argmin of |gt - pred| to argmin of the signed difference gt - pred.
    A config sets both as its top-level ``reference_strategy`` and
    ``signed_reference_error`` and builds this as ``HarnessConfig.reference``.
    """

    strategy: str = _choice("all_to_adaptive_smallest_error", REFERENCE_STRATEGIES)
    signed_reference_error: bool = False

    def __post_init__(self):
        _check_fields("reference.", ReferenceSelection, vars(self))


def logit_rows(logits: np.ndarray) -> np.ndarray:
    """(..., H*W, D) rows of a (..., D, H, W) map or map stack; row y * W + x is pixel (x, y)."""
    return np.moveaxis(logits, -3, -1).reshape(logits.shape[:-3] + (-1, logits.shape[-3]))


def rows_to_map(rows: np.ndarray, h: int, w: int) -> np.ndarray:
    """Inverse of logit_rows: (H*W, D) rows back to a (D, H, W) map."""
    return np.moveaxis(rows.reshape(h, w, -1), -1, 0)


def packed_to_map(rows: np.ndarray, at: np.ndarray, h: int, w: int) -> np.ndarray:
    """(D, H, W) map holding (N, D) ``rows`` at flat pixel indices ``at``
    and 0 elsewhere."""
    out = np.zeros((h * w, rows.shape[1]))
    out[at] = rows
    return rows_to_map(out, h, w)


def pixel_rows(fds: ForegroundDepthSet, width: int) -> np.ndarray:
    """Flat row index y * W + x of every pixel of a foreground set."""
    return fds.pixels[:, 1] * width + fds.pixels[:, 0]


def expected_depths(probs: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Expected bin center of every probability row."""
    return np.sum(probs * centers, axis=-1)


def reference_scores(
    fds: ForegroundDepthSet,
    pred_depth,
    sel: ReferenceSelection,
    conf=None,
) -> np.ndarray:
    """Score of every pixel of one target as its reference; lower is
    better.

    ``pred_depth`` holds the predicted continuous depth per set pixel,
    ``conf`` the per-pixel peak bin probability (only needed by the
    highest-confidence strategy).  The score is the depth error
    ``gt - pred`` (its magnitude unless ``signed_reference_error``), the
    negated confidence, or the squared distance to the target's center.
    """
    if fds.skipped:
        raise SkippedTargetError(f"target {fds.target_index} has fewer than 2 pixels")
    if sel.strategy == "one_to_one":
        raise ValueError("the pairwise strategy uses no reference pixel")
    pred_depth = as_tensor(pred_depth).reshape(-1)
    if pred_depth.shape[0] != len(fds):
        raise ContractError("pred_depth length must match the pixel set")

    if sel.strategy == "all_to_adaptive_smallest_error":
        err = fds.gt_depth - pred_depth
        return err if sel.signed_reference_error else np.abs(err)
    if sel.strategy == "all_to_adaptive_highest_conf":
        if conf is None:
            raise ValueError("highest-confidence selection needs per-pixel conf")
        conf = as_tensor(conf).reshape(-1)
        if conf.shape[0] != len(fds):
            raise ContractError("conf length must match the pixel set")
        return -conf
    if sel.strategy == "all_to_certain_3d_center" and fds.center_uv is not None:
        # pixel (x, y) covers [x, x+1) x [y, y+1); measure from its center
        cx, cy = fds.center_uv[0] - 0.5, fds.center_uv[1] - 0.5
    else:  # the 2d center, and the 3d one of a target without a projected center
        cx, cy = fds.pixels[:, 0].mean(), fds.pixels[:, 1].mean()
    dx = fds.pixels[:, 0] - cx
    dy = fds.pixels[:, 1] - cy
    return dx * dx + dy * dy


def select_reference(
    fds: ForegroundDepthSet,
    pred_depth,
    sel: ReferenceSelection,
    conf=None,
) -> int:
    """Pick the reference pixel of one target; returns its index into
    ``fds.pixels``: the first pixel of smallest ``reference_scores``, so
    ties resolve to the first pixel in row-major order, which is the
    storage order of the set."""
    # the method, not np.argmin: its dispatch costs more than a short scan
    return int(reference_scores(fds, pred_depth, sel, conf).argmin())


def relative_depths(
    fds: ForegroundDepthSet, pred_depth, ref: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Depths of one target re-expressed relative to the reference pixel,
    given by its index ``ref`` into the set.  Both returned channels are
    exactly 0 at the reference pixel.
    """
    idx = operator.index(ref)
    if not 0 <= idx < len(fds):
        raise ValueError(f"reference index {idx} outside the pixel set")
    pred_depth = as_tensor(pred_depth).reshape(-1)
    if pred_depth.shape[0] != len(fds):
        raise ContractError("pred_depth length must match the pixel set")
    return pred_depth - pred_depth[idx], fds.gt_depth - fds.gt_depth[idx]


def assign_depth_bins(gt_values, bins: DepthBins) -> np.ndarray:
    """Indices of the nearest bin center; exact midpoints go to the lower bin."""
    gt_values = as_tensor(gt_values)
    midpoints = (bins.centers[:-1] + bins.centers[1:]) / 2.0
    return np.searchsorted(midpoints, gt_values, side="left")


# ---------------------------------------------------------------------------
# Packed engine: both losses on gathered (N, D) logit rows
# ---------------------------------------------------------------------------


@dataclass
class PackedView:
    """One camera's supervised rows; the trainer builds it once per scene.

    ``rows`` holds the flat pixel index of each valid pixel, ``gt_bins``
    its ground-truth bin, and ``targets`` pairs every non-skipped
    foreground set with the positions of its pixels within ``rows``.
    """

    rows: np.ndarray
    gt_bins: np.ndarray
    targets: List[Tuple[ForegroundDepthSet, np.ndarray]]


def pack_view(
    gt, valid, bins: DepthBins, targets: Sequence[ForegroundDepthSet] = ()
) -> PackedView:
    """Gather plan of one camera: valid rows, their bins, and each
    target's rows; every target pixel must be valid."""
    valid = np.asarray(valid, dtype=bool)
    rows = np.nonzero(valid.reshape(-1))[0]
    gt_valid = as_tensor(gt).reshape(-1)[rows]
    if np.any(gt_valid <= 0):
        raise ContractError("gt depth must be positive on valid pixels")
    return PackedView(
        rows=rows,
        gt_bins=assign_depth_bins(gt_valid, bins),
        targets=_target_positions(rows, targets, valid.shape),
    )


def _target_positions(
    rows: np.ndarray, targets: Sequence[ForegroundDepthSet], shape: Tuple[int, int]
) -> List[Tuple[ForegroundDepthSet, np.ndarray]]:
    """Each non-skipped target with the positions of its pixels in ``rows``."""
    lookup = np.full(shape[0] * shape[1], -1, dtype=np.int64)
    lookup[rows] = np.arange(rows.size)
    packed = []
    for fds in targets:
        if fds.skipped:
            continue
        pos = lookup[pixel_rows(fds, shape[1])]
        if np.any(pos < 0):
            raise ContractError("foreground pixel outside the valid mask")
        packed.append((fds, pos))
    return packed


def bce_rows(
    probs: np.ndarray,
    gt_bins: np.ndarray,
    grad_rows: Optional[np.ndarray] = None,
    scale: float = 1.0,
    work: Optional[np.ndarray] = None,
) -> Union[float, np.ndarray]:
    """Summed one-hot BCE of (N, D) softmax rows against their gt bins.

    Probabilities are clamped to [BCE_CLAMP, 1 - BCE_CLAMP]; clamped
    entries pass no gradient, matching the piecewise-constant clip.  When
    ``grad_rows`` is given, ``scale`` times the gradient w.r.t. the
    underlying logits is written into it, with the bits of adding it to
    zeros; it also holds the gradient's temporaries.  ``work`` is an
    optional C-contiguous array of the probabilities' shape that holds
    the others.  A C-ordered (B, N, D) stack of row sets against the
    same bins gives B sums, each bit for bit that of its (N, D) slice on
    its own.
    """
    hit = (..., np.arange(probs.shape[-2]), gt_bins)
    work = np.empty_like(probs) if work is None else work
    # with every probability strictly inside the clamp, the clip and the
    # gradient mask change no bit and are skipped
    inside = probs.size > 0 and probs.min() > BCE_CLAMP and probs.max() < 1.0 - BCE_CLAMP
    clamped = probs if inside else np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    at_gt = clamped[hit]
    logs = np.log1p(np.negative(clamped, out=work), out=work)
    logs[hit] = np.log(at_gt)
    # every log is negative and nonzero, so negating the sum rounds as
    # summing the negated terms; 0.0 - keeps an empty sum at +0.0
    total = 0.0 - np.sum(logs.reshape(logs.shape[:-2] + (-1,)), axis=-1)
    if grad_rows is not None:
        grad_p = np.divide(1.0, np.subtract(1.0, clamped, out=grad_rows), out=grad_rows)
        grad_p[hit] = -1.0 / at_gt
        if not inside:
            grad_p *= (probs > BCE_CLAMP) & (probs < 1.0 - BCE_CLAMP)
        inner = np.sum(np.multiply(grad_p, probs, out=work), axis=-1, keepdims=True)
        g = np.multiply(probs, np.subtract(grad_p, inner, out=grad_rows), out=grad_rows)
        np.add(np.multiply(g, scale, out=g), 0.0, out=g)
    return total if total.ndim else float(total)


def relative_residual(
    d: np.ndarray, gt: np.ndarray, ref: Optional[int], reduction: str
) -> Tuple[Union[float, np.ndarray], np.ndarray]:
    """Loss and d-gradient of one target's squared relative residuals.

    With a reference index, depths are anchored at that pixel; the index
    is a constant of the backward pass, while d[ref] still receives
    gradient through every residual it appears in.  With ``ref`` None,
    residuals run over all ordered pixel pairs (p, q), p != q.  A
    C-ordered (B, n) stack of depth vectors gives B losses and
    gradients, each bit for bit that of its row on its own.
    """
    n = d.shape[-1]
    if ref is None:
        e = (d[..., :, None] - d[..., None, :]) - (gt[:, None] - gt[None, :])
        denom = float(n * (n - 1)) if reduction == "mean" else 1.0
        grad_d = 4.0 * np.sum(e, axis=-1) / denom
        e = e.reshape(d.shape[:-1] + (n * n,))
    else:
        e = (d - d[..., ref, None]) - (gt - gt[ref])
        denom = float(n) if reduction == "mean" else 1.0
        grad_d = 2.0 * e / denom
        grad_d[..., ref] -= 2.0 * np.sum(e, axis=-1) / denom
    value = np.sum(e * e, axis=-1) / denom
    return (value if value.ndim else float(value)), grad_d


def relative_depth_rows(
    probs: np.ndarray,
    targets: Sequence[Tuple[ForegroundDepthSet, np.ndarray]],
    centers: np.ndarray,
    sel: ReferenceSelection,
    reduction: str,
    grad_rows: Optional[np.ndarray] = None,
    scale: float = 1.0,
) -> float:
    """Relative-depth loss summed over targets, in target order.

    ``probs`` are softmax rows and each target carries the positions of
    its pixels among them.  Each target's reference is selected on the
    current prediction; with ``grad_rows``, ``scale`` times the logit
    gradient is added into it, overlapping targets in target order.
    """
    total = 0.0
    # one (M, D) scratch for every target's products; its leading rows are
    # C-contiguous, so each row sum rounds as on a fresh array
    work = np.empty((max((pos.size for _, pos in targets), default=0), probs.shape[-1]))
    for fds, pos in targets:
        p = probs[pos]
        buf = work[: pos.size]
        depths = np.sum(np.multiply(p, centers, out=buf), axis=-1)
        ref = None
        if sel.strategy != "one_to_one":
            conf = np.max(p, axis=1) if sel.strategy == "all_to_adaptive_highest_conf" else None
            ref = select_reference(fds, depths, sel, conf)
        value, grad_d = relative_residual(depths, fds.gt_depth, ref, reduction)
        if grad_rows is not None:
            # chain through the softmax expectation d = sum_k p_k c_k; a
            # target's pixels are distinct, so += accumulates like np.add.at
            np.subtract(centers, depths[:, None], out=buf)
            buf *= grad_d[:, None]
            buf *= p
            buf *= scale
            grad_rows[pos] += buf
        total += value
    return total


# ---------------------------------------------------------------------------
# Dense (D, H, W) wrapper
# ---------------------------------------------------------------------------


def inner_depth_loss(
    targets: List[ForegroundDepthSet],
    depthmap: CategoricalDepthMap,
    bins: DepthBins,
    sel: ReferenceSelection,
    loss_reduction: str = "mean",
) -> LossResult:
    """Relative-depth loss over all non-skipped targets.

    Per target, predicted continuous depths and ground truth are both
    anchored at the selected reference pixel (or compared over all
    ordered pairs for the pairwise strategy) and squared residuals are
    reduced per ``loss_reduction``, then summed over targets.  The
    gradient is with respect to the full logits tensor; overlapping
    targets accumulate.  Softmax runs on the target pixels only.
    """
    check_reduction(loss_reduction)
    if bins.count != depthmap.num_bins:
        raise ContractError("depth map bin count disagrees with bins")
    d, h, w = depthmap.logits.shape
    used = [fds for fds in targets if not fds.skipped]
    if not used:
        return LossResult(0.0, np.zeros_like(depthmap.logits), empty=True)
    rows = np.unique(np.concatenate([pixel_rows(fds, w) for fds in used]))
    grad_rows = np.zeros((rows.size, d))
    value = relative_depth_rows(
        softmax_rows(logit_rows(depthmap.logits)[rows]),
        _target_positions(rows, used, (h, w)),
        bins.centers,
        sel,
        loss_reduction,
        grad_rows,
    )
    grad = packed_to_map(grad_rows, rows, h, w)
    return LossResult(value, grad, components={"targets_used": float(len(used))})
