"""Configuration, loss composition, gradient checking, and a toy
first-order training loop that drives every loss end to end on a
synthetic scene.

The trainable parameters are the per-view depth logits at valid pixels
and the student BEV feature map.  Reports are JSON with a declared
format version and are deterministic for a fixed config up to the
wall-clock field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .bev_distillation import (
    GRAM_NORMALIZATIONS,
    BevFeatureMap,
    DistillPlan,
    TargetKeypointFeatures,
    bev_distill_loss,
    bev_distill_terms,
    build_distill_plan,
    inter_channel_gram,
    inter_channel_loss,
    inter_keypoint_gram,
    inter_keypoint_loss,
)
from .depth_supervision import (
    LOSS_REDUCTIONS,
    CategoricalDepthMap,
    DepthBins,
    ReferenceSelection,
    absolute_depth_loss,
    bce_rows,
    expected_depths,
    inner_depth_loss,
    logit_rows,
    pack_view,
    pixel_rows,
    relative_depth_rows,
    relative_residual,
    rows_to_map,
    select_reference,
)
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .geometry import BevGrid, Box3D, ForegroundDepthSet
from .numerics import (
    LossResult,
    finite_difference_gradient,
    frobenius_sq_distance,
    softmax_rows,
)
from .rng import CounterRng
from .scenegen import (
    SceneConfig,
    SyntheticScene,
    ViewGroundTruth,
    generate_scene,
    render_gt_views,
)

REPORT_FORMAT_VERSION = 1

# Logit amplitude that drives every softmax probability past the BCE
# clamp, making the one-hot prediction an exact stationary point.
SATURATION_LOGIT = 40.0

# The Adam update is elementwise, so it runs over the flat parameter
# vector in blocks whose operands and temporaries stay in a core's L2
# cache; in one pass over the whole vector each temporary spills, and the
# update takes about twice as long on the default scene.
ADAM_BLOCK = 32768


def thread_count() -> int:
    """Worker count from TIG_THREADS; 0 or unset means 1, and more than
    the machine's CPU count means that count."""
    raw = os.environ.get("TIG_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"TIG_THREADS must be an integer, got {raw!r}") from exc
    return max(1, min(n, os.cpu_count() or 1))


def parallel_map(fn: Callable, items: List) -> List:
    """Order-preserving map, threaded when TIG_THREADS > 1.

    Results are collected in input order, so reductions over them are
    identical at any thread count.
    """
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _require(
    name: str, value, what: str, ok: Optional[Callable[[Any], bool]] = None, kind: type = numbers.Real
) -> None:
    """Raise ConfigError unless ``value`` is a ``kind`` and ``ok(value)``
    holds when given; ``what`` describes the accepted values in the
    message.  ``kind`` is ``numbers.Real`` (a finite number),
    ``numbers.Integral`` (an integer) or ``bool``; a bool is never taken
    for a number."""
    if kind is bool:
        typed = isinstance(value, bool)
    else:
        typed = (
            not isinstance(value, bool)
            and isinstance(value, kind)
            and (kind is numbers.Integral or math.isfinite(value))
        )
    if not typed or (ok is not None and not ok(value)):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def _require_list(name: str, value, what: str, kinds) -> list:
    """``value`` as a JSON list with one entry per ``kinds``, entry ``i``
    checked by ``_require`` as a ``kinds[i]``."""
    if not (isinstance(value, list) and len(value) == len(kinds)):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    for v, kind in zip(value, kinds):
        _require(name, v, what, kind=kind)
    return value


def _build(where: str, cls, *args, **kw):
    """``cls(*args, **kw)`` with its range checks reported as config errors."""
    try:
        return cls(*args, **kw)
    except ContractError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class LossWeights:
    """Non-negative weights of the four differentiated loss terms."""

    w_a: float = 1.0
    w_r: float = 1.0
    w_ic: float = 1.0
    w_ik: float = 1.0

    def __post_init__(self):
        for name in ("w_a", "w_r", "w_ic", "w_ik"):
            _require(f"weights.{name}", getattr(self, name), "a finite number >= 0", lambda v: v >= 0)


@dataclass
class OptimizerConfig:
    """Adam update rule of the toy trainer.

    Per-coordinate scaling keeps one ``step_size`` workable across the
    depth losses and the quartic Gram losses, whose gradient magnitudes
    differ by orders of magnitude and change as training progresses.
    """

    step_size: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_steps: int = 2000
    target_reduction: float = 0.99
    ik_rel_target: float = 0.01
    final_lr_fraction: float = 0.05
    init_logit_scale: float = 0.01
    init_bev_scale: float = 0.1
    divergence_factor: float = 1e6

    def __post_init__(self):
        for name, what, ok in (
            ("step_size", "> 0", lambda v: v > 0),
            ("beta1", "in [0, 1)", lambda v: 0.0 <= v < 1.0),
            ("beta2", "in [0, 1)", lambda v: 0.0 <= v < 1.0),
            ("eps", "> 0", lambda v: v > 0),
            ("target_reduction", "in (0, 1)", lambda v: 0.0 < v < 1.0),
            ("ik_rel_target", "> 0", lambda v: v > 0),
            ("final_lr_fraction", "in (0, 1]", lambda v: 0.0 < v <= 1.0),
            ("init_logit_scale", "", None),
            ("init_bev_scale", "", None),
            ("divergence_factor", "", None),
        ):
            _require(f"optimizer.{name}", getattr(self, name), f"a finite number {what}".rstrip(), ok)
        _require(
            "optimizer.max_steps", self.max_steps, "an integer >= 1", lambda v: v >= 1, kind=numbers.Integral
        )


@dataclass
class GradcheckConfig:
    instances: int = 100
    h: float = 1e-6
    fail_threshold: float = 1e-4

    def __post_init__(self):
        _require(
            "gradcheck.instances", self.instances, "an integer >= 1", lambda v: v >= 1, kind=numbers.Integral
        )
        _require("gradcheck.h", self.h, "a finite number > 0", lambda v: v > 0)
        _require("gradcheck.fail_threshold", self.fail_threshold, "a finite number >= 0", lambda v: v >= 0)


@dataclass
class HarnessConfig:
    """Everything one run needs; see the README for the JSON schema."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    bins: DepthBins = field(default_factory=lambda: DepthBins(112))
    reference: ReferenceSelection = field(default_factory=ReferenceSelection)
    loss_reduction: str = "mean"
    keypoint_g: int = 6
    enlarge: float = 1.25
    gram_normalization: str = "none"
    weights: LossWeights = field(default_factory=LossWeights)
    external_det_loss: float = 0.0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    gradcheck: GradcheckConfig = field(default_factory=GradcheckConfig)

    def __post_init__(self):
        if self.loss_reduction not in LOSS_REDUCTIONS:
            raise ConfigError(f"unknown loss reduction {self.loss_reduction!r}")
        if self.gram_normalization not in GRAM_NORMALIZATIONS:
            raise ConfigError(f"unknown gram normalization {self.gram_normalization!r}")
        _require("keypoint_g", self.keypoint_g, "an integer >= 2", lambda g: g >= 2, kind=numbers.Integral)
        _require("enlarge", self.enlarge, "a finite number >= 1", lambda e: e >= 1.0)
        _require("external_det_loss", self.external_det_loss, "a finite number")


def default_config() -> HarnessConfig:
    return HarnessConfig()


def _check_keys(d: Dict, allowed, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


def _scene_from_dict(d: Dict) -> SceneConfig:
    fields = dataclasses.fields(SceneConfig)
    _check_keys(d, {f.name for f in fields}, "scene")
    for f in fields:
        if f.type == "int" and f.name in d:
            _require(f"scene.{f.name}", d[f.name], "an integer", kind=numbers.Integral)
    kw = dict(d)
    if "grid" in kw:
        g = _require_list(
            "scene.grid", kw["grid"],
            "[x_min, x_max, y_min, y_max, h_bev, w_bev] with integer cell counts",
            (numbers.Real,) * 4 + (numbers.Integral,) * 2,
        )
        kw["grid"] = _build("scene.grid", BevGrid, *(float(v) for v in g[:4]), *g[4:])
    for key in ("length_range", "width_range", "height_range"):
        if key in kw:
            lo, hi = _require_list(f"scene.{key}", kw[key], "[lo, hi]", (numbers.Real,) * 2)
            kw[key] = (float(lo), float(hi))
    return _build("scene", SceneConfig, **kw)


def _scene_to_dict(s: SceneConfig) -> Dict:
    out = {}
    for f in dataclasses.fields(SceneConfig):
        value = getattr(s, f.name)
        if f.name == "grid":
            value = [value.x_min, value.x_max, value.y_min, value.y_max, value.h_bev, value.w_bev]
        elif f.name in ("length_range", "width_range", "height_range"):
            value = list(value)
        out[f.name] = value
    return out


_TOP_KEYS = (
    "scene",
    "bins",
    "reference_strategy",
    "signed_reference_error",
    "loss_reduction",
    "keypoint_g",
    "enlarge",
    "gram_normalization",
    "weights",
    "external_det_loss",
    "optimizer",
    "gradcheck",
)


def config_from_dict(d: Dict) -> HarnessConfig:
    """Build a config from a parsed JSON object; unknown keys anywhere
    are errors."""
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(d, _TOP_KEYS, "config")
    kw: Dict[str, Any] = {}
    if "scene" in d:
        kw["scene"] = _scene_from_dict(d["scene"])
    if "bins" in d:
        _check_keys(d["bins"], ("count", "mode", "d_min", "d_max"), "bins")
        _require("bins.count", d["bins"].get("count"), "an integer", kind=numbers.Integral)
        for key in ("d_min", "d_max"):
            if key in d["bins"]:
                _require(f"bins.{key}", d["bins"][key], "a finite number")
        kw["bins"] = _build("bins", DepthBins, **d["bins"])
    ref_kw = {}
    if "reference_strategy" in d:
        ref_kw["strategy"] = d["reference_strategy"]
    if "signed_reference_error" in d:
        _require("signed_reference_error", d["signed_reference_error"], "true or false", kind=bool)
        ref_kw["signed_reference_error"] = d["signed_reference_error"]
    if ref_kw:
        kw["reference"] = ReferenceSelection(**ref_kw)
    for key in ("loss_reduction", "keypoint_g", "enlarge", "gram_normalization", "external_det_loss"):
        if key in d:
            kw[key] = d[key]
    if "weights" in d:
        _check_keys(d["weights"], ("w_a", "w_r", "w_ic", "w_ik"), "weights")
        kw["weights"] = LossWeights(**d["weights"])
    if "optimizer" in d:
        names = {f.name for f in dataclasses.fields(OptimizerConfig)}
        _check_keys(d["optimizer"], names, "optimizer")
        kw["optimizer"] = OptimizerConfig(**d["optimizer"])
    if "gradcheck" in d:
        names = {f.name for f in dataclasses.fields(GradcheckConfig)}
        _check_keys(d["gradcheck"], names, "gradcheck")
        kw["gradcheck"] = GradcheckConfig(**d["gradcheck"])
    return HarnessConfig(**kw)


def config_to_dict(cfg: HarnessConfig) -> Dict:
    """Config echo in the same shape config_from_dict accepts."""
    return {
        "scene": _scene_to_dict(cfg.scene),
        "bins": {
            "count": cfg.bins.count,
            "mode": cfg.bins.mode,
            "d_min": cfg.bins.d_min,
            "d_max": cfg.bins.d_max,
        },
        "reference_strategy": cfg.reference.strategy,
        "signed_reference_error": cfg.reference.signed_reference_error,
        "loss_reduction": cfg.loss_reduction,
        "keypoint_g": cfg.keypoint_g,
        "enlarge": cfg.enlarge,
        "gram_normalization": cfg.gram_normalization,
        "weights": {
            "w_a": cfg.weights.w_a,
            "w_r": cfg.weights.w_r,
            "w_ic": cfg.weights.w_ic,
            "w_ik": cfg.weights.w_ik,
        },
        "external_det_loss": cfg.external_det_loss,
        "optimizer": {
            f.name: getattr(cfg.optimizer, f.name)
            for f in dataclasses.fields(OptimizerConfig)
        },
        "gradcheck": {
            f.name: getattr(cfg.gradcheck, f.name)
            for f in dataclasses.fields(GradcheckConfig)
        },
    }


def load_config(source: str) -> HarnessConfig:
    """Load a config: the literal name "default" or a JSON file path."""
    if source == "default":
        return default_config()
    try:
        with open(source) as fobj:
            data = json.load(fobj)
    except OSError as exc:
        raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {source!r} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """JSON-serializable run record; ``data`` holds per-kind sections."""

    kind: str
    config: Dict[str, Any]
    status: str = "ok"
    wall_clock_s: float = 0.0
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "format_version": REPORT_FORMAT_VERSION,
            "kind": self.kind,
            "status": self.status,
            "config": self.config,
            "wall_clock_s": self.wall_clock_s,
        }
        payload.update(self.data)
        return strict_json(payload)


def strict_json(payload: Dict[str, Any]) -> str:
    """Report text: sorted keys, indented, and strict JSON."""
    return json.dumps(_finite_or_null(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite_or_null(value):
    """Copy of a report value with every non-finite float (a diverged
    loss, a distance relative to a zero norm) replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_report(path: str, report: RunReport) -> None:
    with open(path, "w") as fobj:
        fobj.write(report.to_json())


# ---------------------------------------------------------------------------
# Loss composition
# ---------------------------------------------------------------------------


def _weighted_grad(g1, w1, g2, w2):
    if isinstance(g1, list) != isinstance(g2, list):
        raise ShapeError("component gradients have different structure")
    if isinstance(g1, list):
        if len(g1) != len(g2):
            raise ShapeError("component gradient lists differ in length")
        return [w1 * a + w2 * b for a, b in zip(g1, g2)]
    if g1.shape != g2.shape:
        raise ShapeError(f"component gradient shapes differ: {g1.shape} vs {g2.shape}")
    return w1 * g1 + w2 * g2


def total_loss(
    absolute: LossResult,
    inner: LossResult,
    channel: LossResult,
    keypoint: LossResult,
    det: float = 0.0,
    weights: Optional[LossWeights] = None,
) -> LossResult:
    """Weighted sum of the four differentiated terms plus the externally
    supplied detection scalar, which carries no gradient.

    The gradient is a dict: "depth_logits" combines the two depth
    losses, "bev_features" the two distillation losses.
    """
    w = weights if weights is not None else LossWeights()
    value = (
        float(det)
        + w.w_a * absolute.value
        + w.w_r * inner.value
        + w.w_ic * channel.value
        + w.w_ik * keypoint.value
    )
    grad = {
        "depth_logits": _weighted_grad(absolute.grad, w.w_a, inner.grad, w.w_r),
        "bev_features": _weighted_grad(channel.grad, w.w_ic, keypoint.grad, w.w_ik),
    }
    components = {
        "absolute_depth": absolute.value,
        "inner_depth": inner.value,
        "inter_channel": channel.value,
        "inter_keypoint": keypoint.value,
        "external_det": float(det),
    }
    empty = absolute.empty and inner.empty and channel.empty and keypoint.empty
    return LossResult(value, grad, empty=empty, components=components)


# ---------------------------------------------------------------------------
# Student inputs and full-scene evaluation
# ---------------------------------------------------------------------------


def identity_student_inputs(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth]
) -> Tuple[List[CategoricalDepthMap], List[ViewGroundTruth], BevFeatureMap]:
    """Student inputs that sit exactly at the optimum.

    Valid pixels carry saturated one-hot logits at the ground-truth bin,
    every foreground set's gt depth is replaced by the continuous depth
    those logits produce (bitwise, so relative-depth residuals vanish
    exactly), and the student BEV map is a copy of the teacher's.
    """
    bins = cfg.bins
    d = bins.count
    maps: List[CategoricalDepthMap] = []
    new_views: List[ViewGroundTruth] = []
    for view in views:
        h, w = view.depth.shape
        logits_hw = np.zeros((h * w, d))
        packed = pack_view(view.depth, view.valid, bins)
        logits_hw[packed.rows, packed.gt_bins] = SATURATION_LOGIT
        new_targets = [
            fds
            if fds.skipped
            else dataclasses.replace(
                fds,
                gt_depth=expected_depths(softmax_rows(logits_hw[pixel_rows(fds, w)]), bins.centers),
            )
            for fds in view.targets
        ]
        maps.append(CategoricalDepthMap(rows_to_map(logits_hw, h, w)))
        new_views.append(dataclasses.replace(view, targets=new_targets))
    student = BevFeatureMap(data=scene.teacher_bev.data.copy(), grid=scene.grid)
    return maps, new_views, student


def random_student_inputs(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth]
) -> Tuple[List[CategoricalDepthMap], List[ViewGroundTruth], BevFeatureMap]:
    """Small-noise student inputs, seeded from the scene seed.

    Only the logits at valid pixels are drawn: each equals its entry of
    the full (D, H, W) normal draw bit for bit, and every other logit is
    0, since no loss reads it.
    """
    root = CounterRng(cfg.scene.seed).substream("student-init")
    d = cfg.bins.count
    maps = []
    for view in views:
        h, w = view.depth.shape
        rows = np.flatnonzero(view.valid)
        logits_hw = np.zeros((h * w, d))
        # flat (D, H, W) position of bin k at pixel row r is k * H * W + r
        index = rows[:, None] + h * w * np.arange(d)
        noise = root.substream(f"logits-{view.cam_index}").normal_at((d, h, w), index)
        logits_hw[rows] = cfg.optimizer.init_logit_scale * noise
        maps.append(CategoricalDepthMap(rows_to_map(logits_hw, h, w)))
    bev = cfg.optimizer.init_bev_scale * root.substream("bev").normal(scene.teacher_bev.data.shape)
    return maps, views, BevFeatureMap(data=bev, grid=scene.grid)


def evaluate_scene_losses(
    cfg: HarnessConfig,
    scene: SyntheticScene,
    views: List[ViewGroundTruth],
    depth_maps: List[CategoricalDepthMap],
    student_bev: BevFeatureMap,
) -> LossResult:
    """All four losses over every view plus the BEV terms, composed via
    total_loss.  Depth terms are evaluated per view (in parallel when
    TIG_THREADS allows) and summed in camera order."""
    bins = cfg.bins

    def _view_losses(pair):
        view, dm = pair
        a = absolute_depth_loss(dm, view.depth, view.valid, bins)
        r = inner_depth_loss(view.targets, dm, bins, cfg.reference, cfg.loss_reduction)
        return a, r

    per_view = parallel_map(_view_losses, list(zip(views, depth_maps)))
    a_value = sum(a.value for a, _ in per_view)
    r_value = sum(r.value for _, r in per_view)
    a_res = LossResult(a_value, [a.grad for a, _ in per_view], empty=all(a.empty for a, _ in per_view))
    r_res = LossResult(r_value, [r.grad for _, r in per_view], empty=all(r.empty for _, r in per_view))
    ic, ik = _bev_terms(cfg, scene, student_bev)
    return total_loss(a_res, r_res, ic, ik, det=cfg.external_det_loss, weights=cfg.weights)


def _bev_terms(
    cfg: HarnessConfig,
    scene: SyntheticScene,
    student: BevFeatureMap,
    plan: Optional[DistillPlan] = None,
):
    """Inter-channel and inter-keypoint results of one student map;
    ``plan`` is the scene's teacher side when the caller keeps one."""
    return bev_distill_terms(
        student,
        scene.teacher_bev,
        scene.boxes,
        g=cfg.keypoint_g,
        enlarge=cfg.enlarge,
        normalization=cfg.gram_normalization,
        loss_reduction=cfg.loss_reduction,
        plan=plan,
    )


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class _Instance:
    f: Callable[[np.ndarray], float]
    x0: np.ndarray
    analytic: np.ndarray
    tie_adjacent: bool = False


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(numeric))), 1e-10)
    return float(np.max(np.abs(analytic - numeric))) / denom


def _absolute_instance(cfg: HarnessConfig, sub: CounterRng) -> _Instance:
    d = 3 + int(sub.uniform(1)[0] * 5)
    h, w = 2, 3
    bins = DepthBins(count=d, d_min=1.0, d_max=10.0)
    logits = 2.0 * sub.normal((d, h, w))
    valid = sub.uniform((h, w)) < 0.7
    if not valid.any():
        valid[0, 0] = True
    gt = 1.0 + 9.0 * sub.uniform((h, w))
    midpoints = (bins.centers[:-1] + bins.centers[1:]) / 2.0
    tie = bool(np.min(np.abs(gt[valid][:, None] - midpoints[None, :])) < 1e-5)
    dm = CategoricalDepthMap(logits)
    probs = dm.probs
    tie = tie or bool(
        np.any(np.abs(probs - 1e-7) < 1e-9) or np.any(np.abs(probs - (1 - 1e-7)) < 1e-9)
    )
    analytic = absolute_depth_loss(dm, gt, valid, bins).grad

    def f(x):
        return absolute_depth_loss(CategoricalDepthMap(x), gt, valid, bins).value

    return _Instance(f=f, x0=logits, analytic=analytic, tie_adjacent=tie)


def _inner_instance(cfg: HarnessConfig, sub: CounterRng) -> _Instance:
    n = 2 + int(sub.uniform(1)[0] * 5)
    d = 3 + int(sub.uniform(1)[0] * 4)
    h, w = 3, 4
    bins = DepthBins(count=d, d_min=1.0, d_max=10.0)
    order = np.argsort(sub.uniform(h * w), kind="stable")[:n]
    order = np.sort(order)
    pixels = np.stack([order % w, order // w], axis=1)
    gt = 2.0 + 8.0 * sub.uniform(n)
    center = (sub.uniform(1)[0] * w, sub.uniform(1)[0] * h)
    fds = ForegroundDepthSet(
        target_index=0, pixels=pixels, gt_depth=gt, skipped=False, center_uv=center
    )
    logits = 2.0 * sub.normal((d, h, w))
    dm = CategoricalDepthMap(logits)
    sel = cfg.reference
    probs = softmax_rows(logit_rows(logits)[order])
    depths = expected_depths(probs, bins.centers)
    tie = False
    if sel.strategy == "all_to_adaptive_smallest_error":
        err = gt - depths
        if not sel.signed_reference_error:
            err = np.abs(err)
        two = np.sort(err)[:2]
        tie = bool(two[1] - two[0] < 1e-5 * (1.0 + abs(two[0])))
    elif sel.strategy == "all_to_adaptive_highest_conf":
        conf = np.sort(np.max(probs, axis=1))[::-1][:2]
        tie = bool(conf[0] - conf[1] < 1e-6)
    analytic = inner_depth_loss([fds], dm, bins, sel, cfg.loss_reduction).grad
    # the reference is chosen once at x0 and frozen, as in the backward pass
    ref = None
    if sel.strategy != "one_to_one":
        ref = select_reference(fds, depths, sel, conf=np.max(probs, axis=1))

    def f(x):
        dep = expected_depths(softmax_rows(logit_rows(x)[order]), bins.centers)
        return relative_residual(dep, gt, ref, cfg.loss_reduction)[0]

    return _Instance(f=f, x0=logits, analytic=analytic, tie_adjacent=tie)


def _feature_gram_instance(cfg: HarnessConfig, sub: CounterRng, kind: str) -> _Instance:
    n = 2 + int(sub.uniform(1)[0] * 5)
    c = 2 + int(sub.uniform(1)[0] * 5)
    fs = sub.normal((n, c))
    ft = sub.normal((n, c))
    tie = False
    if cfg.gram_normalization == "l2":
        norms = np.concatenate(
            [np.sqrt(np.sum(fs * fs, axis=1)), np.sqrt(np.sum(ft * ft, axis=1))]
        )
        tie = bool(np.min(norms) < 1e-3)
    loss_fn = inter_channel_loss if kind == "channel" else inter_keypoint_loss
    res = loss_fn(
        [TargetKeypointFeatures(student=fs, teacher=ft)],
        normalization=cfg.gram_normalization,
        loss_reduction=cfg.loss_reduction,
    )

    def f(x):
        return loss_fn(
            [TargetKeypointFeatures(student=x.reshape(n, c), teacher=ft)],
            normalization=cfg.gram_normalization,
            loss_reduction=cfg.loss_reduction,
        ).value

    return _Instance(f=f, x0=fs, analytic=res.grad[0], tie_adjacent=tie)


def _bev_instance(cfg: HarnessConfig, sub: CounterRng) -> _Instance:
    grid = BevGrid(-4.0, 4.0, -4.0, 4.0, 5, 5)
    c = 2
    student = sub.normal((c, 5, 5))
    teacher_data = sub.normal((c, 5, 5))
    n_boxes = 1 + int(sub.uniform(1)[0] * 2)
    boxes = []
    for _ in range(n_boxes):
        draw = sub.uniform(5)
        boxes.append(
            Box3D(
                center=np.array([4.0 * draw[0] - 2.0, 4.0 * draw[1] - 2.0, 0.5]),
                size=np.array([1.5 + 1.5 * draw[2], 1.0 + draw[3], 1.0]),
                yaw=2.0 * math.pi * draw[4] - math.pi,
            )
        )
    teacher = BevFeatureMap(data=teacher_data, grid=grid)
    # the teacher side is the same for every evaluation of this instance
    plan = build_distill_plan(teacher, boxes, 2, cfg.enlarge, cfg.gram_normalization)

    def loss(x):
        return bev_distill_loss(
            BevFeatureMap(data=x, grid=grid),
            teacher,
            boxes,
            g=2,
            enlarge=cfg.enlarge,
            normalization=cfg.gram_normalization,
            loss_reduction=cfg.loss_reduction,
            plan=plan,
        )

    def f(x):
        return loss(x).value

    res = loss(student)
    return _Instance(f=f, x0=student, analytic=res.grad)


_GRADCHECK_LOSSES = (
    ("absolute_depth", "w_a"),
    ("inner_depth", "w_r"),
    ("inter_channel", "w_ic"),
    ("inter_keypoint", "w_ik"),
    ("bev_distill", None),
)


def _build_instance(name: str, cfg: HarnessConfig, sub: CounterRng) -> _Instance:
    if name == "absolute_depth":
        return _absolute_instance(cfg, sub)
    if name == "inner_depth":
        return _inner_instance(cfg, sub)
    if name == "inter_channel":
        return _feature_gram_instance(cfg, sub, "channel")
    if name == "inter_keypoint":
        return _feature_gram_instance(cfg, sub, "keypoint")
    return _bev_instance(cfg, sub)


def run_gradcheck(cfg: HarnessConfig) -> RunReport:
    """Compare every analytic gradient against central finite differences
    on seeded random instances; tie-adjacent instances are excluded."""
    t0 = time.perf_counter()
    root = CounterRng(cfg.scene.seed)
    losses: Dict[str, Dict[str, Any]] = {}
    all_ok = True
    overall = 0.0
    for name, weight_attr in _GRADCHECK_LOSSES:
        if weight_attr is None:
            skip = cfg.weights.w_ic == 0 and cfg.weights.w_ik == 0
        else:
            skip = getattr(cfg.weights, weight_attr) == 0
        if skip:
            losses[name] = {"skipped": True, "reason": "zero weight"}
            continue
        want = cfg.gradcheck.instances
        instances: List[_Instance] = []
        excluded = 0
        attempts = 0
        while len(instances) < want and attempts < 10 * want:
            inst = _build_instance(name, cfg, root.substream(f"gradcheck-{name}-{attempts}"))
            attempts += 1
            if inst.tie_adjacent:
                excluded += 1
                continue
            instances.append(inst)

        def _check(inst: _Instance):
            try:
                numeric = finite_difference_gradient(inst.f, inst.x0, cfg.gradcheck.h)
            except NumericError:
                return None
            return _rel_error(inst.analytic, numeric)

        results = parallel_map(_check, instances)
        overflow = sum(1 for r in results if r is None)
        rels = [r for r in results if r is not None]
        max_rel = max(rels) if rels else 0.0
        ok = bool(rels) and max_rel <= cfg.gradcheck.fail_threshold
        losses[name] = {
            "instances": len(rels),
            "excluded_tie_adjacent": excluded,
            "overflow": overflow,
            "max_rel_error": max_rel,
            "passed": ok,
        }
        overall = max(overall, max_rel)
        all_ok = all_ok and ok
    report = RunReport(
        kind="gradcheck",
        config=config_to_dict(cfg),
        status="passed" if all_ok else "failed",
        wall_clock_s=time.perf_counter() - t0,
        data={
            "losses": losses,
            "max_rel_error": overall,
            "fail_threshold": cfg.gradcheck.fail_threshold,
        },
    )
    return report


# ---------------------------------------------------------------------------
# Toy training loop
# ---------------------------------------------------------------------------


def _gram_distance_summary(student: np.ndarray, plan: DistillPlan) -> List[Dict[str, float]]:
    """Per-target Frobenius distances between student and teacher Grams,
    plus the raw keypoint-feature distance that is allowed to stay big.
    The teacher features and Grams come from the scene's plan."""
    fs = plan.sample(student)
    b_s = inter_keypoint_gram(fs, plan.normalization)
    a_s = inter_channel_gram(fs, plan.normalization)
    out = []
    for j in range(len(plan.boxes)):
        ft, b_t, a_t = plan.teacher[j], plan.teacher_keypoint[j], plan.teacher_channel[j]
        b_norm = math.sqrt(float(np.sum(b_t * b_t)))
        a_norm = math.sqrt(float(np.sum(a_t * a_t)))
        f_norm = math.sqrt(float(np.sum(ft * ft)))
        ik_dist = math.sqrt(frobenius_sq_distance(b_s[j], b_t))
        ic_dist = math.sqrt(frobenius_sq_distance(a_s[j], a_t))
        raw_dist = math.sqrt(frobenius_sq_distance(fs[j], ft))
        out.append(
            {
                "target": j,
                "inter_keypoint_frob": ik_dist,
                "inter_keypoint_rel": ik_dist / b_norm if b_norm else float("inf"),
                "inter_channel_frob": ic_dist,
                "inter_channel_rel": ic_dist / a_norm if a_norm else float("inf"),
                "raw_feature_frob": raw_dist,
                "raw_feature_rel": raw_dist / f_norm if f_norm else float("inf"),
            }
        )
    return out


def run_train_toy(cfg: HarnessConfig, identity_init: bool = False) -> RunReport:
    """Optimize depth logits and the student BEV map against the total
    loss with bias-corrected Adam and an exponentially decayed step.

    Stops "converged" when the total loss has dropped by
    target_reduction AND every target's keypoint Gram is within
    ik_rel_target of the teacher's; otherwise on exhausting max_steps,
    an exactly zero gradient (nothing left to improve), or divergence.
    """
    t0 = time.perf_counter()
    opt = cfg.optimizer
    w = cfg.weights
    d, centers = cfg.bins.count, cfg.bins.centers
    sel, reduction = cfg.reference, cfg.loss_reduction
    scene = generate_scene(cfg.scene)
    views = render_gt_views(scene)
    teacher = scene.teacher_bev

    # trainable state comes from the same constructors the one-shot
    # evaluation uses, so step-0 losses agree with eval-losses
    build = identity_student_inputs if identity_init else random_student_inputs
    maps, eff_views, student_map = build(cfg, scene, views)
    packed = [pack_view(v.depth, v.valid, cfg.bins, v.targets) for v in eff_views]
    plan = build_distill_plan(teacher, scene.boxes, cfg.keypoint_g, cfg.enlarge, cfg.gram_normalization)

    # each view's valid-pixel logits and the student BEV map are views
    # into one flat parameter vector; the gradient shares its layout
    ends = np.cumsum([p.rows.size * d for p in packed] + [student_map.data.size])
    params = np.empty(ends[-1])
    grad = np.empty_like(params)

    def split(vec):
        parts = np.split(vec, ends[:-1])
        return [part.reshape(-1, d) for part in parts[:-1]], parts[-1].reshape(student_map.data.shape)

    logits, student = split(params)
    logit_grads, student_grad = split(grad)
    for dst, dm, view in zip(logits, maps, packed):
        dst[...] = logit_rows(dm.logits)[view.rows]
    student[...] = student_map.data
    moment1 = np.zeros_like(params)
    moment2 = np.zeros_like(params)
    series: Dict[str, List[float]] = {
        key: [] for key in ("total", "absolute_depth", "inner_depth", "inter_channel", "inter_keypoint")
    }
    status = "max_steps"
    initial: Optional[float] = None

    for step in range(opt.max_steps):
        grad.fill(0.0)
        # per-view values, summed across views in camera order exactly
        # as evaluate_scene_losses sums them
        a_views: List[float] = []
        r_views: List[float] = []
        for view, view_logits, view_grad in zip(packed, logits, logit_grads):
            n = view.rows.size
            if not n:
                continue
            probs = softmax_rows(view_logits)
            if w.w_a > 0:
                bce_sum, bce_grad = bce_rows(probs, view.gt_bins)
                a_views.append(bce_sum / n)
                view_grad += (w.w_a / n) * bce_grad
            if w.w_r > 0:
                r_views.append(
                    relative_depth_rows(probs, view.targets, centers, sel, reduction, view_grad, w.w_r)
                )
        a_val = sum(a_views, 0.0)
        r_val = sum(r_views, 0.0)
        if w.w_ic > 0 or w.w_ik > 0:
            ic, ik = _bev_terms(cfg, scene, BevFeatureMap(data=student, grid=scene.grid), plan)
            ic_val, ik_val = ic.value, ik.value
            student_grad[...] = w.w_ic * ic.grad + w.w_ik * ik.grad
        else:
            ic_val = ik_val = 0.0

        # the term order of total_loss
        total = cfg.external_det_loss + w.w_a * a_val + w.w_r * r_val + w.w_ic * ic_val + w.w_ik * ik_val
        for key, value in zip(series, (total, a_val, r_val, ic_val, ik_val)):
            series[key].append(value)

        if not math.isfinite(total):
            status = "diverged"
            break
        if initial is None:
            initial = total
        if total <= (1.0 - opt.target_reduction) * initial:
            # declare convergence only once every target's keypoint Gram
            # is also within ik_rel_target of the teacher's
            summary = _gram_distance_summary(student, plan)
            worst_ik = max((e["inter_keypoint_rel"] for e in summary), default=0.0)
            if worst_ik <= opt.ik_rel_target:
                status = "converged"
                break
        if total > opt.divergence_factor * max(initial, 1e-12):
            status = "diverged"
            break
        if not np.any(grad):
            status = "stationary"
            break
        bias1 = 1.0 - opt.beta1 ** (step + 1)
        bias2 = 1.0 - opt.beta2 ** (step + 1)
        # exponential decay to final_lr_fraction * step_size at max_steps
        lr = opt.step_size * opt.final_lr_fraction ** (step / max(opt.max_steps - 1, 1))
        for start in range(0, params.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            g = grad[block]
            moment1[block] = opt.beta1 * moment1[block] + (1.0 - opt.beta1) * g
            moment2[block] = opt.beta2 * moment2[block] + (1.0 - opt.beta2) * g * g
            params[block] -= lr * ((moment1[block] / bias1) / (np.sqrt(moment2[block] / bias2) + opt.eps))

    final = series["total"][-1] if series["total"] else float("nan")
    reduction = 1.0 - final / initial if initial else 0.0
    teacher_norm = math.sqrt(float(np.sum(teacher.data * teacher.data)))
    map_dist = math.sqrt(frobenius_sq_distance(student, teacher.data))
    report = RunReport(
        kind="train-toy",
        config=config_to_dict(cfg),
        status=status,
        wall_clock_s=time.perf_counter() - t0,
        data={
            "steps_run": len(series["total"]),
            "initial_total": initial if initial is not None else float("nan"),
            "final_total": final,
            "loss_reduction": reduction,
            "loss_series": series,
            "gram_distances": _gram_distance_summary(student, plan),
            "bev_feature_distance": {
                "frobenius": map_dist,
                "relative_to_teacher": map_dist / teacher_norm if teacher_norm else float("inf"),
            },
            "valid_pixels_per_view": [p.rows.size for p in packed],
        },
    )
    return report
