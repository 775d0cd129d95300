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

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, ContractError, SkippedTargetError
from .geometry import ForegroundDepthSet
from .numerics import LossResult, as_tensor, check_finite, softmax_rows

BCE_CLAMP = 1e-7

REFERENCE_STRATEGIES = (
    "all_to_adaptive_smallest_error",
    "all_to_adaptive_highest_conf",
    "all_to_certain_3d_center",
    "all_to_certain_2d_center",
    "one_to_one",
)

LOSS_REDUCTIONS = ("mean", "sum")


@dataclass
class DepthBins:
    """Discretization of the depth range into ``count`` ordered bins.

    ``uniform`` places centers at equal-width cell midpoints;
    ``spacing_increasing`` does the same in log-depth, so bin width
    grows with distance.  Centers are strictly increasing and lie
    inside [d_min, d_max].
    """

    count: int
    mode: str = "uniform"
    d_min: float = 1.0
    d_max: float = 60.0
    centers: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.count < 2:
            raise ContractError("need at least 2 depth bins")
        if not (0.0 < self.d_min < self.d_max):
            raise ContractError("require 0 < d_min < d_max")
        if self.mode not in ("uniform", "spacing_increasing"):
            raise ConfigError(f"unknown bin mode {self.mode!r}")
        if self.centers is None:
            half_steps = np.arange(self.count) + 0.5
            if self.mode == "uniform":
                width = (self.d_max - self.d_min) / self.count
                self.centers = self.d_min + half_steps * width
            else:
                log_width = np.log(self.d_max / self.d_min) / self.count
                self.centers = self.d_min * np.exp(half_steps * log_width)
        self.centers = as_tensor(self.centers)
        if self.centers.shape != (self.count,):
            raise ContractError("centers length must equal the bin count")
        if np.any(np.diff(self.centers) <= 0):
            raise ContractError("bin centers must be strictly increasing")
        if self.centers[0] < self.d_min or self.centers[-1] > self.d_max:
            raise ContractError("bin centers must lie within [d_min, d_max]")


@dataclass
class CategoricalDepthMap:
    """Per-pixel logits over depth bins; probabilities derived on demand."""

    logits: np.ndarray
    _probs: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.logits = as_tensor(self.logits)
        if self.logits.ndim != 3:
            raise ContractError(f"logits must be (D, H, W), got shape {self.logits.shape}")
        check_finite(self.logits, "logits")

    @property
    def num_bins(self) -> int:
        return self.logits.shape[0]

    @property
    def probs(self) -> np.ndarray:
        if self._probs is None:
            _, h, w = self.logits.shape
            self._probs = rows_to_map(softmax_rows(logit_rows(self.logits)), h, w)
        return self._probs


@dataclass
class ReferenceSelection:
    """How the anchor pixel of each target is chosen.

    ``signed_reference_error`` switches the smallest-error strategy from
    argmin of |gt - pred| to argmin of the signed difference gt - pred.
    """

    strategy: str = "all_to_adaptive_smallest_error"
    signed_reference_error: bool = False

    def __post_init__(self):
        if self.strategy not in REFERENCE_STRATEGIES:
            raise ConfigError(f"unknown reference strategy {self.strategy!r}")


def logit_rows(logits: np.ndarray) -> np.ndarray:
    """(H*W, D) row view of a (D, H, W) map; row y * W + x is pixel (x, y)."""
    return np.moveaxis(logits, 0, -1).reshape(-1, logits.shape[0])


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


def _ref_index(fds: ForegroundDepthSet, ref: Union[int, Sequence[int]]) -> int:
    if isinstance(ref, (int, np.integer)):
        idx = int(ref)
        if not 0 <= idx < len(fds):
            raise ValueError(f"reference index {idx} outside the pixel set")
        return idx
    x, y = int(ref[0]), int(ref[1])
    hits = np.nonzero((fds.pixels[:, 0] == x) & (fds.pixels[:, 1] == y))[0]
    if hits.size == 0:
        raise ValueError(f"reference pixel ({x}, {y}) is not in the set")
    return int(hits[0])


def relative_depths(
    fds: ForegroundDepthSet, pred_depth, ref
) -> Tuple[np.ndarray, np.ndarray]:
    """Depths of one target re-expressed relative to the reference pixel.

    ``ref`` may be an index into the set or an (x, y) pixel pair.  Both
    returned channels are exactly 0 at the reference pixel.
    """
    idx = _ref_index(fds, ref)
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
    probs: np.ndarray, gt_bins: np.ndarray, grad_rows: Optional[np.ndarray] = None, scale: float = 1.0
) -> float:
    """Summed one-hot BCE of softmax rows against their gt bins.

    Probabilities are clamped to [BCE_CLAMP, 1 - BCE_CLAMP]; clamped
    entries pass no gradient, matching the piecewise-constant clip.  When
    ``grad_rows`` is given, ``scale`` times the gradient w.r.t. the
    underlying logits is added into it.
    """
    hit = (np.arange(probs.shape[0]), gt_bins)
    clamped = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    at_gt = clamped[hit]
    terms = -np.log1p(-clamped)
    terms[hit] = -np.log(at_gt)
    if grad_rows is not None:
        grad_p = 1.0 / (1.0 - clamped)
        grad_p[hit] = -1.0 / at_gt
        grad_p *= (probs > BCE_CLAMP) & (probs < 1.0 - BCE_CLAMP)
        inner = np.sum(grad_p * probs, axis=1, keepdims=True)
        grad_rows += scale * (probs * (grad_p - inner))
    return float(np.sum(terms))


def relative_residual(
    d: np.ndarray, gt: np.ndarray, ref: Optional[int], reduction: str
) -> Tuple[float, np.ndarray]:
    """Loss and d-gradient of one target's squared relative residuals.

    With a reference index, depths are anchored at that pixel; the index
    is a constant of the backward pass, while d[ref] still receives
    gradient through every residual it appears in.  With ``ref`` None,
    residuals run over all ordered pixel pairs (p, q), p != q.
    """
    if ref is None:
        e_mat = (d[:, None] - d[None, :]) - (gt[:, None] - gt[None, :])
        denom = float(d.size * (d.size - 1)) if reduction == "mean" else 1.0
        return float(np.sum(e_mat * e_mat)) / denom, 4.0 * np.sum(e_mat, axis=1) / denom
    e = (d - d[ref]) - (gt - gt[ref])
    denom = float(e.size) if reduction == "mean" else 1.0
    grad_d = 2.0 * e / denom
    grad_d[ref] -= 2.0 * float(np.sum(e)) / denom
    return float(np.sum(e * e)) / denom, grad_d


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
    for fds, pos in targets:
        p = probs[pos]
        depths = expected_depths(p, centers)
        ref = None
        if sel.strategy != "one_to_one":
            conf = np.max(p, axis=1) if sel.strategy == "all_to_adaptive_highest_conf" else None
            ref = select_reference(fds, depths, sel, conf)
        value, grad_d = relative_residual(depths, fds.gt_depth, ref, reduction)
        if grad_rows is not None:
            # chain through the softmax expectation d = sum_k p_k c_k; a
            # target's pixels are distinct, so += accumulates like np.add.at
            grad_rows[pos] += scale * (p * (grad_d[:, None] * (centers - depths[:, None])))
        total += value
    return total


# ---------------------------------------------------------------------------
# Dense (D, H, W) wrappers
# ---------------------------------------------------------------------------


def absolute_depth_loss(
    depthmap: CategoricalDepthMap,
    gt,
    valid,
    bins: DepthBins,
) -> LossResult:
    """Dense per-pixel BCE between the categorical map and binned ground
    truth, averaged over valid pixels; gradient w.r.t. the logits."""
    if bins.count != depthmap.num_bins:
        raise ContractError("depth map bin count disagrees with bins")
    _, h, w = depthmap.logits.shape
    if np.shape(gt) != (h, w) or np.shape(valid) != (h, w):
        raise ContractError("gt and valid must both be (H, W)")
    view = pack_view(gt, valid, bins)
    if view.rows.size == 0:
        return LossResult(0.0, np.zeros_like(depthmap.logits), empty=True)
    probs = softmax_rows(logit_rows(depthmap.logits)[view.rows])
    grad_rows = np.zeros_like(probs)
    value = bce_rows(probs, view.gt_bins, grad_rows)
    n = float(view.rows.size)
    grad = packed_to_map(grad_rows / n, view.rows, h, w)
    return LossResult(value / n, grad, components={"valid_pixels": n})


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
    if loss_reduction not in LOSS_REDUCTIONS:
        raise ConfigError(f"unknown loss reduction {loss_reduction!r}")
    if bins.count != depthmap.num_bins:
        raise ContractError("depth map bin count disagrees with bins")
    d, h, w = depthmap.logits.shape
    used = [fds for fds in targets if not fds.skipped]
    if not used:
        return LossResult(0.0, np.zeros_like(depthmap.logits), empty=True)
    covered = np.zeros(h * w, dtype=bool)
    covered[np.concatenate([pixel_rows(fds, w) for fds in used])] = True
    rows = np.nonzero(covered)[0]
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
