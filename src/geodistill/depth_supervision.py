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
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


def packed_to_map(rows: np.ndarray, at: np.ndarray, h: int, w: int) -> np.ndarray:
    """(D, H, W) map holding (N, D) ``rows`` at flat pixel indices ``at``
    and 0 elsewhere; the inverse of ``logit_rows`` on those pixels."""
    out = np.zeros((h * w, rows.shape[1]))
    out[at] = rows
    return np.moveaxis(out.reshape(h, w, -1), -1, 0)


def pixel_rows(fds: ForegroundDepthSet, width: int) -> np.ndarray:
    """Flat row index y * W + x of every pixel of a foreground set."""
    return fds.pixels[:, 1] * width + fds.pixels[:, 0]


def expected_depths(probs: np.ndarray, centers: np.ndarray, work: Optional[np.ndarray] = None) -> np.ndarray:
    """Expected bin center of every probability row; ``work``, an optional
    C-contiguous array of the probabilities' shape, holds the products.
    Each row sum of C-contiguous rows rounds as on a fresh array."""
    return np.sum(np.multiply(probs, centers, out=work), axis=-1)


def select_reference(fds: ForegroundDepthSet, pred_depth, sel: ReferenceSelection, conf=None) -> int:
    """Pick the reference pixel of one target from the predicted depth per
    set pixel and, for the highest-confidence strategy only, the peak bin
    probability ``conf`` per pixel; returns its index into ``fds.pixels``:
    the first pixel of smallest score (``select_references`` of the target
    laid out alone), so ties go to the first pixel in the set's order."""
    if fds.skipped:
        raise SkippedTargetError(f"target {fds.target_index} has fewer than 2 pixels")
    h, w = np.max(fds.pixels, axis=0, initial=0)[::-1] + 1
    layout = target_layout([(pixel_rows(fds, w), [fds], (h, w))])
    if sel.strategy == "one_to_one":
        raise ValueError("the pairwise strategy uses no reference pixel")
    pred_depth = as_tensor(pred_depth).reshape(1, -1)
    if pred_depth.shape[1] != len(fds):
        raise ContractError("pred_depth length must match the pixel set")
    if sel.strategy == "all_to_adaptive_highest_conf":
        if conf is None:
            raise ValueError("highest-confidence selection needs per-pixel conf")
        conf = as_tensor(conf).reshape(-1, 1)  # one-entry rows, each its own maximum
        if conf.shape[0] != len(fds):
            raise ContractError("conf length must match the pixel set")
    return int(select_references(layout, pred_depth, conf, sel)[0])


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

    ``rows`` holds the flat pixel index of each valid pixel, and
    ``gt_bins`` its ground-truth bin; ``target_layout`` places the
    targets among the rows.
    """

    rows: np.ndarray
    gt_bins: np.ndarray


def pack_view(gt, valid, bins: DepthBins) -> PackedView:
    """Gather plan of one camera: the valid rows of ``gt`` (``valid`` has its shape) and their bins."""
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != np.shape(gt):
        raise ContractError(f"valid mask {valid.shape} does not match gt {np.shape(gt)}")
    rows = np.nonzero(valid.reshape(-1))[0]
    gt_valid = as_tensor(gt).reshape(-1)[rows]
    if not np.all(np.isfinite(gt_valid) & (gt_valid > 0)):
        raise ContractError("gt depth must be finite and positive on valid pixels")
    return PackedView(rows=rows, gt_bins=assign_depth_bins(gt_valid, bins))


def bce_rows(
    probs: np.ndarray, gt_bins: np.ndarray, grad_rows: Optional[np.ndarray] = None, scale: float = 1.0,
    work: Optional[np.ndarray] = None,
) -> Union[float, np.ndarray]:
    """Summed one-hot BCE of (N, D) softmax rows against their gt bins.

    Probabilities are clamped to [BCE_CLAMP, 1 - BCE_CLAMP]; clamped
    entries pass no gradient, matching the piecewise-constant clip.  When
    ``grad_rows`` is given, ``scale`` (>= 0) times the gradient w.r.t.
    the underlying logits, ``scale * r - p * sum_k (scale * r_k)`` with r
    = p / (1 - p), -1 at the gt bin and 0 where clamped, is written into
    it with the bits of adding it to zeros; it also holds the gradient's
    temporaries, and ``work``, an optional C-contiguous array of the
    probabilities' shape, the others.  A C-ordered (B, N, D) stack of row
    sets against the same bins gives B sums, each bit for bit that of its
    (N, D) slice on its own.
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
        r = np.divide(probs, np.subtract(1.0, clamped, out=grad_rows), out=grad_rows)
        r *= scale
        r[hit] = 0.0 - scale
        if not inside:
            np.copyto(r, 0.0, where=(probs <= BCE_CLAMP) | (probs >= 1.0 - BCE_CLAMP))
        # r holds no -0.0, and a difference is -0.0 only from a -0.0 minuend
        np.subtract(r, np.multiply(probs, np.sum(r, axis=-1, keepdims=True), out=work), out=r)
    return total if total.ndim else float(total)


@dataclass
class TargetLayout:
    """Every target of a packed depth block (each view's (N, D) rows in
    camera order), laid out once.  ``rows`` (U,) holds the sorted block
    rows that targets touch, ``local`` their positions in their views,
    and ``views`` each view's (block rows, ``rows``, targets) slices.
    Target j's pixels are the rows ``index[j, mask[j]]``, with gt depths
    ``gt[j, mask[j]]``; the (T, K) padding repeats its first row and holds
    gt 0.0.  ``fixed_refs`` holds each target's reference column under the
    two center strategies, whose scores do not depend on the prediction.
    Targets that overlap share a row: it appears in each one's index."""

    rows: np.ndarray
    local: np.ndarray
    views: List[Tuple[slice, slice, slice]]
    index: np.ndarray
    mask: np.ndarray
    counts: np.ndarray
    gt: np.ndarray
    fixed_refs: Dict[str, np.ndarray]


def target_layout(views: Sequence[Tuple[np.ndarray, Sequence[ForegroundDepthSet], Tuple[int, int]]]) -> TargetLayout:
    """The layout of the non-skipped targets of views given as (flat
    pixel index of each row, targets, (H, W)) in camera order; a target
    pixel outside its view's (H, W) or that is no row of its view raises."""
    offsets, pairs, targets_of_view = [0], [], []
    for rows, targets, (h, w) in views:
        used = [fds for fds in targets if not fds.skipped]
        xy = np.concatenate([fds.pixels for fds in used] + [np.zeros((0, 2), np.int64)])
        if np.any((xy < 0) | (xy >= (w, h))):
            raise ContractError(f"foreground pixel outside its {h}x{w} view")
        lookup = np.full(h * w, -1, dtype=np.int64)
        lookup[rows] = np.arange(offsets[-1], offsets[-1] + rows.size)
        targets_of_view.append(slice(len(pairs), len(pairs) + len(used)))
        pairs += [(fds, lookup[pixel_rows(fds, w)]) for fds in used]
        offsets.append(offsets[-1] + rows.size)
    counts = np.array([len(fds) for fds, _ in pairs], dtype=float)
    # at least one column, so that every per-target reduction has an axis
    mask = np.arange(max(counts.max(initial=0), 1)) < counts[:, None]
    # each touch's block row, pixel x and y and gt depth, zero in the padding
    touch = np.zeros((4,) + mask.shape)
    touch[:, mask] = np.concatenate([np.column_stack([pos, fds.pixels, fds.gt_depth]) for fds, pos in pairs]
                                    + [np.zeros((0, 4))]).T
    block_rows, px, py, gt = touch
    if block_rows.min(initial=0.0) < 0:
        raise ContractError("foreground pixel outside the valid mask")
    rows, at = np.unique(block_rows[mask].astype(np.int64), return_inverse=True)  # at in (camera, target, pixel) order
    index = np.zeros(mask.shape, np.int64)
    index[mask] = at
    bounds = np.searchsorted(rows, offsets).tolist()
    centroid = touch[1:3].sum(axis=-1) / np.maximum(counts, 1)
    # pixel (x, y) covers [x, x+1) x [y, y+1); measure from its center
    projected = np.array([centroid[:, j] if fds.center_uv is None else np.subtract(fds.center_uv, 0.5)
                          for j, (fds, _) in enumerate(pairs)]).reshape(-1, 2).T
    cx, cy = np.array([projected, centroid]).transpose(1, 0, 2)[..., None]  # (2 strategies, T, 1) each
    refs = np.where(mask, (px - cx) ** 2 + (py - cy) ** 2, np.inf).argmin(axis=-1)
    return TargetLayout(
        rows=rows, local=rows - np.repeat(offsets[:-1], [b - a for a, b in zip(bounds, bounds[1:])]),
        views=[(slice(*offsets[v:v + 2]), slice(*bounds[v:v + 2]), t) for v, t in enumerate(targets_of_view)],
        index=np.where(mask, index, index[:, :1]), mask=mask, counts=counts, gt=gt,
        fixed_refs=dict(zip(("all_to_certain_3d_center", "all_to_certain_2d_center"), refs)),
    )


def layout_scores(layout: TargetLayout, d: np.ndarray, probs: np.ndarray, sel: ReferenceSelection) -> np.ndarray:
    """(..., T, K) scores of an adaptive strategy for every target of
    ``layout``, lower is better and +inf at the padding, from (..., T, K)
    padded depths ``d`` and (U, D) probabilities: the error ``gt - d``
    (its magnitude unless ``signed_reference_error``), or the negated
    row maximum."""
    if sel.strategy == "all_to_adaptive_smallest_error":
        scores = layout.gt - d
        if not sel.signed_reference_error:
            np.abs(scores, out=scores)
    else:
        scores = -np.max(probs, axis=-1)[layout.index]
    scores[..., ~layout.mask] = np.inf
    return scores


def select_references(layout: TargetLayout, d: np.ndarray, probs: np.ndarray, sel: ReferenceSelection):
    """Each target's reference column: its fixed one under a center
    strategy, else the first of its smallest ``layout_scores``; None for
    the pairwise strategy."""
    if sel.strategy == "one_to_one" or sel.strategy in layout.fixed_refs:
        return layout.fixed_refs.get(sel.strategy)
    return layout_scores(layout, d, probs, sel).argmin(axis=-1)


def relative_residual(
    d: np.ndarray, layout: TargetLayout, ref: Optional[np.ndarray], reduction: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Values (T,) and d-gradients (T, K) of every target's squared relative
    residuals from its (T, K) padded depths ``d``; the padding adds 0 and
    gets 0.  With (T,) reference columns, each target is anchored at its
    reference pixel, a constant of the backward pass, while d[ref] still
    gets gradient through every residual; with ``ref`` None, residuals run
    over all ordered pixel pairs (p, q), p != q.  A C-ordered (B, T, K)
    stack gives (B, T) values, each row bit for bit its slice's alone."""
    n, mask = layout.counts, layout.mask
    if ref is None:
        e = (d[..., :, None] - d[..., None, :]) - (layout.gt[:, :, None] - layout.gt[:, None, :])
        e *= mask[:, :, None] & mask[:, None, :]
        denom = n * (n - 1.0) if reduction == "mean" else np.ones_like(n)
        grad_d = 4.0 * np.sum(e, axis=-1) / denom[:, None]
        e = e.reshape(e.shape[:-2] + (e.shape[-1] ** 2,))
    else:
        t = np.arange(ref.size)
        e = ((d - d[..., t, ref][..., None]) - (layout.gt - layout.gt[t, ref][:, None])) * mask
        denom = n if reduction == "mean" else np.ones_like(n)
        grad_d = 2.0 * e / denom[:, None]
        grad_d[..., t, ref] -= 2.0 * np.sum(e, axis=-1) / denom
    return np.sum(e * e, axis=-1) / denom, grad_d


def relative_depth_rows(
    probs: np.ndarray, layout: TargetLayout, centers: np.ndarray, sel: ReferenceSelection, reduction: str,
    grad_rows: Optional[np.ndarray] = None, scale: float = 1.0, work: Optional[np.ndarray] = None,
) -> float:
    """Relative-depth loss of every target of ``layout`` in one pass over
    the (U, D) softmax rows of ``layout.rows``, each target's reference
    selected on the current prediction; values are summed in target
    order within a view, and the views in camera order.  With
    ``grad_rows``, the block's rows, ``scale`` times the logit gradient is
    added into it: each row's depth gradient is summed over the targets
    that touch it, in target order, chained once and added by one fancy
    add.  ``work`` is an optional C-contiguous array of the
    probabilities' shape for the temporaries."""
    work = np.empty_like(probs) if work is None else work
    depths = expected_depths(probs, centers, work)
    d = depths[layout.index]
    values, grad_d = relative_residual(d, layout, select_references(layout, d, probs, sel), reduction)
    if grad_rows is not None:
        # chain through d = sum_k p_k c_k: every touch of a row adds
        # g * p_k * (c_k - d), so its targets' g are summed first
        g = np.bincount(layout.index[layout.mask], scale * grad_d[layout.mask])
        np.subtract(centers, depths[:, None], out=work)
        work *= g[:, None]
        work *= probs
        grad_rows[layout.rows] += work  # the rows are distinct
    per_target = values.tolist()
    return sum((sum(per_target[targets], 0.0) for _, _, targets in layout.views), 0.0)


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
    layout = target_layout([(rows, used, (h, w))])
    grad_rows = np.zeros((rows.size, d))
    probs = softmax_rows(logit_rows(depthmap.logits)[rows])
    value = relative_depth_rows(probs[layout.rows], layout, bins.centers, sel, loss_reduction, grad_rows)
    grad = packed_to_map(grad_rows, rows, h, w)
    return LossResult(value, grad, components={"targets_used": float(len(used))})
