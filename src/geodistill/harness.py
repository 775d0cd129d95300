"""Configuration, the scene problem that composes the training
objective, gradient checking, and a toy first-order training loop that
drives every loss end to end on a synthetic scene.

The trainable parameters are the per-view depth logits at valid pixels
and the student BEV feature map.  Reports are JSON with a declared
format version and are deterministic for a fixed config up to the
wall-clock field.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .bev_distillation import (
    GRAM_NORMALIZATIONS,
    BevFeatureMap,
    DistillPlan,
    TargetKeypointFeatures,
    _gram_losses,
    _gram_of,
    bev_distill_loss,
    bev_distill_terms,
    build_distill_plan,
    inter_channel_loss,
    inter_keypoint_loss,
)
from .depth_supervision import (
    LOSS_REDUCTIONS,
    CategoricalDepthMap,
    DepthBins,
    PackedView,
    ReferenceSelection,
    absolute_depth_loss,
    assign_depth_bins,
    bce_rows,
    expected_depths,
    inner_depth_loss,
    logit_rows,
    pack_view,
    packed_to_map,
    reference_scores,
    relative_depth_rows,
    relative_residual,
)
from .errors import ConfigError, ContractError, NumericError
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


# the kind and its wording of a config number, by its field's annotation
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a finite number")}


def _ranged(default, what: str, ok: Callable[[Any], bool]):
    """A numeric config field with a range: ``ok`` accepts a value and
    ``what`` states the range after the kind in error messages."""
    return field(default=default, metadata={"range": (what, ok)})


def _check_fields(where: str, cls, values: Dict[str, Any]) -> None:
    """``_require`` each entry of ``values`` that names an ``int`` or
    ``float`` field of ``cls``: the annotation gives the kind, the
    field's metadata its range; ``where`` prefixes the name."""
    for f in dataclasses.fields(cls):
        if f.name in values and f.type in _KINDS:
            kind, noun = _KINDS[f.type]
            what, ok = f.metadata.get("range", ("", None))
            _require(where + f.name, values[f.name], f"{noun} {what}".rstrip(), ok, kind)


@dataclass
class LossWeights:
    """Non-negative weights of the four differentiated loss terms."""

    w_a: float = _ranged(1.0, ">= 0", lambda v: v >= 0)
    w_r: float = _ranged(1.0, ">= 0", lambda v: v >= 0)
    w_ic: float = _ranged(1.0, ">= 0", lambda v: v >= 0)
    w_ik: float = _ranged(1.0, ">= 0", lambda v: v >= 0)

    def __post_init__(self):
        _check_fields("weights.", LossWeights, vars(self))


@dataclass
class OptimizerConfig:
    """Adam update rule of the toy trainer.

    Per-coordinate scaling keeps one ``step_size`` workable across the
    depth losses and the quartic Gram losses, whose gradient magnitudes
    differ by orders of magnitude and change as training progresses.
    """

    step_size: float = _ranged(0.1, "> 0", lambda v: v > 0)
    beta1: float = _ranged(0.9, "in [0, 1)", lambda v: 0.0 <= v < 1.0)
    beta2: float = _ranged(0.999, "in [0, 1)", lambda v: 0.0 <= v < 1.0)
    eps: float = _ranged(1e-8, "> 0", lambda v: v > 0)
    max_steps: int = _ranged(2000, ">= 1", lambda v: v >= 1)
    target_reduction: float = _ranged(0.99, "in (0, 1)", lambda v: 0.0 < v < 1.0)
    ik_rel_target: float = _ranged(0.01, "> 0", lambda v: v > 0)
    final_lr_fraction: float = _ranged(0.05, "in (0, 1]", lambda v: 0.0 < v <= 1.0)
    init_logit_scale: float = 0.01
    init_bev_scale: float = 0.1
    divergence_factor: float = 1e6

    def __post_init__(self):
        _check_fields("optimizer.", OptimizerConfig, vars(self))


@dataclass
class GradcheckConfig:
    instances: int = _ranged(100, ">= 1", lambda v: v >= 1)
    h: float = _ranged(1e-6, "> 0", lambda v: v > 0)
    fail_threshold: float = _ranged(1e-4, ">= 0", lambda v: v >= 0)

    def __post_init__(self):
        _check_fields("gradcheck.", GradcheckConfig, vars(self))


@dataclass
class HarnessConfig:
    """Everything one run needs; see the README for the JSON schema."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    bins: DepthBins = field(default_factory=lambda: DepthBins(112))
    reference: ReferenceSelection = field(default_factory=ReferenceSelection)
    loss_reduction: str = "mean"
    keypoint_g: int = _ranged(6, ">= 2", lambda g: g >= 2)
    enlarge: float = _ranged(1.25, ">= 1", lambda e: e >= 1.0)
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
        _check_fields("", HarnessConfig, vars(self))


def default_config() -> HarnessConfig:
    return HarnessConfig()


# config sections that map one-to-one onto a HarnessConfig field, by key
_SECTIONS = {"weights": LossWeights, "optimizer": OptimizerConfig, "gradcheck": GradcheckConfig}
# top-level keys that hold a HarnessConfig field's plain value
_PLAIN_KEYS = tuple(f.name for f in dataclasses.fields(HarnessConfig) if f.type in ("str", "int", "float"))
_BINS_KEYS = ("count", "mode", "d_min", "d_max")
_TOP_KEYS = ("scene", "bins", "reference_strategy", "signed_reference_error") + _PLAIN_KEYS + tuple(_SECTIONS)


def _check_keys(d: Dict, allowed, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


def _scene_from_dict(d: Dict) -> SceneConfig:
    _check_keys(d, {f.name for f in dataclasses.fields(SceneConfig)}, "scene")
    _check_fields("scene.", SceneConfig, d)
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


def config_from_dict(d: Dict) -> HarnessConfig:
    """Build a config from a parsed JSON object; unknown keys anywhere
    are errors."""
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(d, _TOP_KEYS, "config")
    kw: Dict[str, Any] = {key: d[key] for key in _PLAIN_KEYS if key in d}
    if "scene" in d:
        kw["scene"] = _scene_from_dict(d["scene"])
    if "bins" in d:
        _check_keys(d["bins"], _BINS_KEYS, "bins")
        _check_fields("bins.", DepthBins, {"count": None, **d["bins"]})  # count is required
        kw["bins"] = _build("bins", DepthBins, **d["bins"])
    ref_kw = {}
    if "reference_strategy" in d:
        ref_kw["strategy"] = d["reference_strategy"]
    if "signed_reference_error" in d:
        _require("signed_reference_error", d["signed_reference_error"], "true or false", kind=bool)
        ref_kw["signed_reference_error"] = d["signed_reference_error"]
    if ref_kw:
        kw["reference"] = ReferenceSelection(**ref_kw)
    for key, cls in _SECTIONS.items():
        if key in d:
            _check_keys(d[key], {f.name for f in dataclasses.fields(cls)}, key)
            kw[key] = cls(**d[key])
    return HarnessConfig(**kw)


def config_to_dict(cfg: HarnessConfig) -> Dict:
    """Config echo in the same shape config_from_dict accepts."""
    out = {
        "scene": _scene_to_dict(cfg.scene),
        "bins": {key: getattr(cfg.bins, key) for key in _BINS_KEYS},
        "reference_strategy": cfg.reference.strategy,
        "signed_reference_error": cfg.reference.signed_reference_error,
    }
    out.update((key, getattr(cfg, key)) for key in _PLAIN_KEYS)
    out.update((key, dataclasses.asdict(getattr(cfg, key))) for key in _SECTIONS)
    return out


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
# The scene problem: the one training objective
# ---------------------------------------------------------------------------

TERMS = ("absolute_depth", "inner_depth", "inter_channel", "inter_keypoint")  # in report order


@dataclass
class SceneProblem:
    """The weighted objective of one scene over a flat parameter vector
    (each view's valid-pixel logit rows, then the student BEV map; a
    gradient has the same layout).  ``build`` packs the views and the BEV
    teacher side once; only ``evaluate`` composes the objective."""

    cfg: HarnessConfig
    scene: SyntheticScene
    views: List[ViewGroundTruth]
    packed: List[PackedView]
    plan: DistillPlan
    ends: np.ndarray  # end offset of each view's rows, then of the BEV map
    # The last evaluation's BEV results, held until the next call: freed at
    # once, their maps let glibc hand heap pages back to the OS that the next
    # step faults in again, and a bev-heavy step runs about 20 % slower.
    last_bev: Any = field(default=None, repr=False)

    @classmethod
    def build(cls, cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth]) -> "SceneProblem":
        packed = [pack_view(v.depth, v.valid, cfg.bins, v.targets) for v in views]
        plan = build_distill_plan(
            scene.teacher_bev, scene.boxes, cfg.keypoint_g, cfg.enlarge, cfg.gram_normalization
        )
        sizes = [p.rows.size * cfg.bins.count for p in packed] + [scene.teacher_bev.data.size]
        return cls(cfg, scene, views, packed, plan, np.cumsum(sizes))

    def split(self, vec: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        """Each view's (N, D) logit rows and the (C, H, W) BEV map, as
        views into a parameter or gradient vector."""
        parts = np.split(vec, self.ends[:-1])
        rows = [part.reshape(-1, self.cfg.bins.count) for part in parts[:-1]]
        return rows, parts[-1].reshape(self.scene.teacher_bev.data.shape)

    def evaluate(self, params: np.ndarray, grad: Optional[np.ndarray] = None) -> LossResult:
        """Total loss at ``params`` with its components (``TERMS`` and
        "external_det", a constant without gradient).

        With ``grad``, the weighted gradient is written into it and a term
        of weight 0 is skipped and reads 0.0 (the BEV terms only both
        together).  Without, every term is evaluated and no gradient is
        formed.  View values are summed in camera order."""
        cfg, w, scene = self.cfg, self.cfg.weights, self.scene
        value_only = grad is None
        logits, student = self.split(params)
        logit_grads, student_grad = ([None] * len(logits), None) if value_only else self.split(grad)
        if not value_only:
            grad.fill(0.0)
        a_views, r_views = [], []
        for view, rows, rows_grad in zip(self.packed, logits, logit_grads):
            n = view.rows.size
            if not n:
                continue
            probs = softmax_rows(rows)
            if value_only or w.w_a > 0:
                a_views.append(bce_rows(probs, view.gt_bins, rows_grad, w.w_a / n) / n)
            if value_only or w.w_r > 0:
                r_views.append(relative_depth_rows(
                    probs, view.targets, cfg.bins.centers, cfg.reference, cfg.loss_reduction, rows_grad, w.w_r
                ))
        ic_val = ik_val = 0.0
        if value_only or w.w_ic > 0 or w.w_ik > 0:
            ic, ik = bev_distill_terms(
                BevFeatureMap(data=student, grid=scene.grid), scene.teacher_bev, scene.boxes,
                cfg.keypoint_g, cfg.enlarge, cfg.gram_normalization, cfg.loss_reduction,
                plan=self.plan, with_grad=not value_only,
            )
            ic_val, ik_val = ic.value, ik.value
            self.last_bev = (ic, ik)
            if not value_only:
                student_grad[...] = w.w_ic * ic.grad + w.w_ik * ik.grad
        det = float(cfg.external_det_loss)
        values = (sum(a_views, 0.0), sum(r_views, 0.0), ic_val, ik_val)
        total = det + w.w_a * values[0] + w.w_r * values[1] + w.w_ic * values[2] + w.w_ik * values[3]
        empty = not scene.boxes and not any(p.rows.size for p in self.packed)
        return LossResult(total, None, empty=empty, components=dict(zip(TERMS, values), external_det=det))


def student_problem(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth], identity: bool = False
) -> Tuple[SceneProblem, np.ndarray]:
    """The scene problem and the flat parameters of a starting student.
    The identity student sits exactly at the optimum: saturated one-hot
    logits at each valid pixel's gt bin, each foreground set's gt depth
    replaced by the continuous depth of those logits (bitwise, so
    relative residuals vanish exactly), and the teacher's BEV map.  The
    random student is small noise seeded from the scene seed; each
    valid-pixel logit is its entry of the full (D, H, W) normal draw."""
    d = cfg.bins.count
    if identity:
        # continuous depth of the saturated one-hot logits of each bin
        at_bin = expected_depths(softmax_rows(SATURATION_LOGIT * np.eye(d)), cfg.bins.centers)
        views = [_identity_view(v, at_bin, cfg.bins) for v in views]
    problem = SceneProblem.build(cfg, scene, views)
    params = np.zeros(problem.ends[-1])
    logits, bev = problem.split(params)
    if identity:
        for rows, view in zip(logits, problem.packed):
            rows[np.arange(view.rows.size), view.gt_bins] = SATURATION_LOGIT
        bev[...] = scene.teacher_bev.data
        return problem, params
    root = CounterRng(cfg.scene.seed).substream("student-init")
    for rows, view, packed in zip(logits, views, problem.packed):
        h, w = view.depth.shape
        # flat (D, H, W) position of bin k at pixel row r is k * H * W + r
        index = packed.rows[:, None] + h * w * np.arange(d)
        noise = root.substream(f"logits-{view.cam_index}").normal_at((d, h, w), index)
        rows[...] = cfg.optimizer.init_logit_scale * noise
    bev[...] = cfg.optimizer.init_bev_scale * root.substream("bev").normal(bev.shape)
    return problem, params


def _identity_view(view: ViewGroundTruth, at_bin: np.ndarray, bins: DepthBins) -> ViewGroundTruth:
    """``view`` with each usable target's gt depth set to ``at_bin`` of its pixels' gt bins."""
    def at_optimum(fds: ForegroundDepthSet) -> ForegroundDepthSet:
        gt_bins = assign_depth_bins(view.depth[fds.pixels[:, 1], fds.pixels[:, 0]], bins)
        return dataclasses.replace(fds, gt_depth=at_bin[gt_bins])

    return dataclasses.replace(view, targets=[fds if fds.skipped else at_optimum(fds) for fds in view.targets])


# ---------------------------------------------------------------------------
# The dense (D, H, W) API over the scene problem
# ---------------------------------------------------------------------------


def _dense_student(problem: SceneProblem, params: np.ndarray):
    logits, bev = problem.split(params)
    maps = [
        CategoricalDepthMap(packed_to_map(rows, p.rows, *v.depth.shape))
        for rows, p, v in zip(logits, problem.packed, problem.views)
    ]
    return maps, problem.views, BevFeatureMap(data=bev, grid=problem.scene.grid)


def identity_student_inputs(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth]
) -> Tuple[List[CategoricalDepthMap], List[ViewGroundTruth], BevFeatureMap]:
    """Dense maps, views with their replaced gt depths, and student BEV
    map of the identity student of ``student_problem``."""
    return _dense_student(*student_problem(cfg, scene, views, identity=True))


def random_student_inputs(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth]
) -> Tuple[List[CategoricalDepthMap], List[ViewGroundTruth], BevFeatureMap]:
    """Dense maps, views and student BEV map of the random student of
    ``student_problem``; logits outside the valid pixels are 0."""
    return _dense_student(*student_problem(cfg, scene, views))


def evaluate_scene_losses(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth],
    depth_maps: List[CategoricalDepthMap], student_bev: BevFeatureMap,
) -> LossResult:
    """The scene problem of ``views`` at dense student inputs, with the
    gradient as one (D, H, W) map per view ("depth_logits") and a (C, H, W)
    map ("bev_features"); as in train-toy, a term of weight 0 reads 0.0."""
    problem = SceneProblem.build(cfg, scene, views)
    shapes = [(cfg.bins.count,) + v.depth.shape for v in views] + [scene.teacher_bev.data.shape]
    if [dm.logits.shape for dm in depth_maps] + [student_bev.data.shape] != shapes:
        raise ContractError("student inputs disagree with the views, the bins or the teacher map")
    params = np.concatenate(
        [logit_rows(dm.logits)[p.rows].ravel() for dm, p in zip(depth_maps, problem.packed)]
        + [student_bev.data.ravel()]
    )
    grad = np.empty_like(params)
    res = problem.evaluate(params, grad)
    logit_grads, bev_grad = problem.split(grad)
    res.grad = {
        "depth_logits": [
            packed_to_map(g, p.rows, *v.depth.shape) for g, p, v in zip(logit_grads, problem.packed, views)
        ],
        "bev_features": bev_grad,
    }
    return res


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
    analytic = inner_depth_loss([fds], dm, bins, sel, cfg.loss_reduction).grad
    ref, tie = None, False
    if sel.strategy != "one_to_one":
        conf = np.max(probs, axis=1) if sel.strategy == "all_to_adaptive_highest_conf" else None
        scores = reference_scores(fds, depths, sel, conf)
        # the reference is chosen once at x0 and frozen, as in the backward pass
        ref = int(scores.argmin())
        best, second = np.sort(scores)[:2]
        if sel.strategy == "all_to_adaptive_smallest_error":
            tie = bool(second - best < 1e-5 * (1.0 + abs(best)))
        elif sel.strategy == "all_to_adaptive_highest_conf":
            tie = bool(second - best < 1e-6)

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
    norm, reduction = cfg.gram_normalization, cfg.loss_reduction
    res = loss_fn([TargetKeypointFeatures(student=fs, teacher=ft)], norm, reduction)
    # the teacher Gram is the same for every evaluation of this instance
    gram_t = _gram_of(ft[None], kind, norm)

    def f(x):
        values, _ = _gram_losses(x.reshape(1, n, c), gram_t, kind, norm, reduction, with_grad=False)
        return values[0]

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
    analytic = bev_distill_loss(
        BevFeatureMap(data=student, grid=grid), teacher, boxes, 2, cfg.enlarge, cfg.gram_normalization,
        cfg.loss_reduction, plan=plan,
    ).grad

    def f(x):
        ic, ik = bev_distill_terms(
            BevFeatureMap(data=x, grid=grid), teacher, boxes, 2, cfg.enlarge, cfg.gram_normalization,
            cfg.loss_reduction, plan=plan, with_grad=False,
        )
        return ic.value + ik.value

    return _Instance(f=f, x0=student, analytic=analytic)


# each checked loss family: its instance builder, and the weights that
# skip it when all are 0
_GRADCHECK_FAMILIES = {
    "absolute_depth": (_absolute_instance, ("w_a",)),
    "inner_depth": (_inner_instance, ("w_r",)),
    "inter_channel": (functools.partial(_feature_gram_instance, kind="channel"), ("w_ic",)),
    "inter_keypoint": (functools.partial(_feature_gram_instance, kind="keypoint"), ("w_ik",)),
    "bev_distill": (_bev_instance, ("w_ic", "w_ik")),
}


def run_gradcheck(cfg: HarnessConfig) -> RunReport:
    """Compare every analytic gradient against central finite differences
    on seeded random instances; tie-adjacent instances are excluded, and
    at most 10 instances are drawn per one wanted."""
    t0 = time.perf_counter()
    root = CounterRng(cfg.scene.seed)
    want = cfg.gradcheck.instances
    losses: Dict[str, Dict[str, Any]] = {}
    all_ok = True
    overall = 0.0
    for name, (build, weights) in _GRADCHECK_FAMILIES.items():
        if all(getattr(cfg.weights, w) == 0 for w in weights):
            losses[name] = {"skipped": True, "reason": "zero weight"}
            continue
        rels: List[float] = []
        excluded = overflow = 0
        for attempt in range(10 * want):
            if len(rels) + overflow == want:
                break
            inst = build(cfg, root.substream(f"gradcheck-{name}-{attempt}"))
            if inst.tie_adjacent:
                excluded += 1
                continue
            try:
                numeric = finite_difference_gradient(inst.f, inst.x0, cfg.gradcheck.h)
            except NumericError:
                overflow += 1
                continue
            rels.append(_rel_error(inst.analytic, numeric))
        max_rel = max(rels, default=0.0)
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


def _row_sq(stack: np.ndarray) -> np.ndarray:
    """Sum of squares of each target's slice of a (T, A, B) stack, T >= 0."""
    return np.sum((stack * stack).reshape(stack.shape[0], stack.shape[1] * stack.shape[2]), axis=1)


def _gram_distance_summary(student: np.ndarray, plan: DistillPlan) -> List[Dict[str, float]]:
    """Per-target Frobenius distances between student and teacher Grams,
    plus the raw keypoint-feature distance that is allowed to stay big.
    The teacher features and Grams come from the scene's plan."""
    fs = plan.sample(student)
    # name -> per-target squared distances and teacher squared norms
    columns = {}
    for kind, gram_t in (("keypoint", plan.teacher_keypoint), ("channel", plan.teacher_channel)):
        sq, _ = _gram_losses(fs, gram_t, kind, plan.normalization, "sum", with_grad=False)
        columns[f"inter_{kind}"] = (sq, _row_sq(gram_t))
    columns["raw_feature"] = (_row_sq(fs - plan.teacher), _row_sq(plan.teacher))
    out = [{"target": j} for j in range(len(plan.boxes))]
    for name, (dist_sq, norm_sq) in columns.items():
        for entry, d2, n2 in zip(out, dist_sq.tolist(), norm_sq.tolist()):
            dist, norm = math.sqrt(d2), math.sqrt(n2)
            entry[f"{name}_frob"] = dist
            entry[f"{name}_rel"] = dist / norm if norm else float("inf")
    return out


def run_train_toy(cfg: HarnessConfig, identity_init: bool = False) -> RunReport:
    """Optimize depth logits and the student BEV map against the total
    loss with bias-corrected Adam and an exponentially decayed step.

    Stops "converged" when the total loss has dropped by
    target_reduction AND every target's keypoint Gram is within
    ik_rel_target of the teacher's; otherwise on exhausting max_steps,
    an exactly zero gradient (nothing left to improve), or divergence.
    No update follows the last evaluation, so every figure of the report
    describes the same parameters.
    """
    t0 = time.perf_counter()
    opt = cfg.optimizer
    scene = generate_scene(cfg.scene)
    teacher = scene.teacher_bev
    # eval-losses builds the same problem and student, so step-0 losses agree
    problem, params = student_problem(cfg, scene, render_gt_views(scene), identity_init)
    _, student = problem.split(params)
    grad = np.empty_like(params)
    moment1 = np.zeros_like(params)
    moment2 = np.zeros_like(params)
    series: Dict[str, List[float]] = {key: [] for key in ("total",) + TERMS}
    status = "max_steps"
    initial: Optional[float] = None

    # A diverging run overflows on its way to the "diverged" status that
    # reports it, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(opt.max_steps):
            res = problem.evaluate(params, grad)
            total = res.value
            series["total"].append(total)
            for key in TERMS:
                series[key].append(res.components[key])

            if not math.isfinite(total):
                status = "diverged"
                break
            if initial is None:
                initial = total
            if total <= (1.0 - opt.target_reduction) * initial:
                # declare convergence only once every target's keypoint Gram
                # is also within ik_rel_target of the teacher's
                summary = _gram_distance_summary(student, problem.plan)
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
            if step + 1 == opt.max_steps:
                break  # the report describes the parameters evaluated last
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
        map_dist = math.sqrt(frobenius_sq_distance(student, teacher.data))
        gram_distances = _gram_distance_summary(student, problem.plan)

    final = series["total"][-1]
    reduction = 1.0 - final / initial if initial else 0.0
    teacher_norm = math.sqrt(float(np.sum(teacher.data * teacher.data)))
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
            "gram_distances": gram_distances,
            "bev_feature_distance": {
                "frobenius": map_dist,
                "relative_to_teacher": map_dist / teacher_norm if teacher_norm else float("inf"),
            },
            "valid_pixels_per_view": [p.rows.size for p in problem.packed],
        },
    )
    return report
