"""Configuration, the scene problem that composes the training
objective, gradient checking, and a toy first-order training loop that
drives every loss end to end on a synthetic scene.

The trainable parameters are the per-view depth logits at valid pixels
and the student BEV features at the cells the keypoints read.  Reports are JSON with a declared
format version and are deterministic for a fixed config up to the
wall-clock field.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .bev_distillation import (
    GRAM_NORMALIZATIONS,
    BevFeatureMap,
    DistillPlan,
    _effective_features,
    _gram_losses,
    _gram_of,
    bev_distill_terms,  # noqa: F401  perfbench/test_perfbench.py checks its tracer rebinds this name
    build_distill_plan,
)
from .depth_supervision import (
    BCE_CLAMP,
    REFERENCE_STRATEGIES,
    CategoricalDepthMap,
    DepthBins,
    PackedView,
    ReferenceSelection,
    TargetLayout,
    assign_depth_bins,
    bce_rows,
    expected_depths,
    layout_scores,
    logit_rows,
    pack_view,
    packed_to_map,
    relative_depth_rows,
    relative_residual,
    select_references,
    target_layout,
)
from .errors import ConfigError, ContractError, NumericError
from .geometry import BevGrid, Box3D, ForegroundDepthSet
from .numerics import (
    LOSS_REDUCTIONS,
    _QUOTE,
    LossResult,
    _check_fields,
    _choice,
    _field_checks,
    _ranged,
    check_finite,
    finite_difference_gradient,
    frobenius_sq_distance,
    softmax_rows,
    sq_sums,
)
from .rng import CounterRng
from .scenegen import (
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


@dataclass
class SceneConfig:
    """Knobs of the synthetic scene generator.

    Boxes are placed on a ring around the origin between
    ``place_radius_min`` and ``place_radius_max`` with non-overlapping
    footprints; cameras sit near the origin facing outward and jointly
    cover 360 degrees.  Unlike every other config section it is not
    frozen, because ``perfbench`` sets ``seed`` in place.
    """

    # CounterRng keeps 64 bits of the seed; a wider one would alias another
    seed: int = _ranged(42, "in [0, 2**64)", lambda v: 0 <= v < 2**64)
    num_boxes: int = _ranged(4, ">= 0", lambda v: v >= 0)
    num_cameras: int = _ranged(6, ">= 1", lambda v: v >= 1)
    points_per_box: int = _ranged(300, ">= 0", lambda v: v >= 0)
    ground_points: int = _ranged(2048, ">= 0", lambda v: v >= 0)
    # the teacher's front and rear signatures are orthogonal
    channels: int = _ranged(16, ">= 2", lambda v: v >= 2)
    grid: BevGrid = field(default_factory=lambda: BevGrid(-24.0, 24.0, -24.0, 24.0, 64, 64))
    length_range: Tuple[float, float] = (3.8, 5.5)
    width_range: Tuple[float, float] = (1.6, 2.2)
    height_range: Tuple[float, float] = (1.4, 1.9)
    place_radius_min: float = _ranged(8.0, "> 0", lambda v: v > 0)
    place_radius_max: float = 18.0
    place_clearance: float = _ranged(0.5, ">= 0", lambda v: v >= 0)
    max_place_attempts: int = _ranged(1000, ">= 1", lambda v: v >= 1)
    ground_radius: float = _ranged(22.0, "> 0", lambda v: v > 0)
    image_width: int = _ranged(96, ">= 1", lambda v: v >= 1)
    image_height: int = _ranged(64, ">= 1", lambda v: v >= 1)
    focal: float = _ranged(70.0, "> 0", lambda v: v > 0)
    cam_height: float = 1.6
    cam_ring_radius: float = 0.5
    z_near: float = _ranged(0.1, "> 0", lambda v: v > 0)
    teacher_amplitude: float = 1.0
    teacher_noise: float = _ranged(0.05, ">= 0", lambda v: v >= 0)
    enlarge: float = _ranged(1.25, "> 0", lambda v: v > 0)

    def __post_init__(self):
        _check_fields("scene.", SceneConfig, vars(self))
        for name in ("length_range", "width_range", "height_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ConfigError(f"scene.{name} must be [lo, hi] with 0 < lo <= hi, got {[lo, hi]!r}")
            setattr(self, name, (float(lo), float(hi)))
        if not self.place_radius_min <= self.place_radius_max:
            raise ConfigError(
                f"scene.place_radius_max must be >= place_radius_min ({self.place_radius_min!r}), "
                f"got {self.place_radius_max!r}"
            )


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights of the four differentiated loss terms."""

    w_a: float = _ranged(1.0, ">= 0", lambda v: v >= 0)
    w_r: float = _ranged(1.0, ">= 0", lambda v: v >= 0)
    w_ic: float = _ranged(1.0, ">= 0", lambda v: v >= 0)
    w_ik: float = _ranged(1.0, ">= 0", lambda v: v >= 0)

    def __post_init__(self):
        _check_fields("weights.", LossWeights, vars(self))


@dataclass(frozen=True)
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
    divergence_factor: float = _ranged(1e6, ">= 1", lambda v: v >= 1)

    def __post_init__(self):
        _check_fields("optimizer.", OptimizerConfig, vars(self))


@dataclass(frozen=True)
class GradcheckConfig:
    instances: int = _ranged(100, ">= 1", lambda v: v >= 1)
    h: float = _ranged(1e-6, "> 0", lambda v: v > 0)
    fail_threshold: float = _ranged(1e-4, ">= 0", lambda v: v >= 0)

    def __post_init__(self):
        _check_fields("gradcheck.", GradcheckConfig, vars(self))


@dataclass(frozen=True)
class HarnessConfig:
    """Everything one run needs; see the README for the JSON schema."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    bins: DepthBins = field(default_factory=lambda: DepthBins(112))
    reference_strategy: str = _choice(ReferenceSelection.strategy, REFERENCE_STRATEGIES)
    signed_reference_error: bool = ReferenceSelection.signed_reference_error
    loss_reduction: str = _choice("mean", LOSS_REDUCTIONS)
    keypoint_g: int = _ranged(6, ">= 2", lambda g: g >= 2)
    enlarge: float = _ranged(1.25, ">= 1", lambda e: e >= 1.0)
    gram_normalization: str = _choice("none", GRAM_NORMALIZATIONS)
    weights: LossWeights = field(default_factory=LossWeights)
    external_det_loss: float = _ranged(0.0, ">= 0", lambda v: v >= 0)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    gradcheck: GradcheckConfig = field(default_factory=GradcheckConfig)

    def __post_init__(self):
        _check_fields("", HarnessConfig, vars(self))

    @functools.cached_property
    def reference(self) -> ReferenceSelection:
        """The reference-pixel choice the depth kernels take."""
        return ReferenceSelection(self.reference_strategy, self.signed_reference_error)


def default_config() -> HarnessConfig:
    return HarnessConfig()


def _from_json(cls, d, where: str):
    """A ``cls`` from its JSON object ``d``, whose keys are the init
    fields of ``cls``: a nested config class is a JSON object, the grid a
    six-entry list and a tuple a list.  A field not given keeps its
    default, and a required one is None, which its check rejects."""
    checks = _field_checks(cls)
    if not isinstance(d, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {_QUOTE.repr(d)}")
    unknown = sorted(set(d) - set(checks))
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'config'}: {_QUOTE.repr(unknown)}")
    kw = {}
    for f in dataclasses.fields(cls):
        if f.name not in d:
            if f.init and f.default is f.default_factory is dataclasses.MISSING:
                kw[f.name] = None
            continue
        kind, value = checks[f.name][0], d[f.name]
        if kind is BevGrid:
            value = BevGrid(*value) if isinstance(value, list) and len(value) == 6 else value
        elif dataclasses.is_dataclass(kind):
            value = _from_json(kind, value, f"{where}.{f.name}".lstrip("."))
        elif isinstance(kind, tuple) and isinstance(value, list):
            value = tuple(value)
        kw[f.name] = value
    return cls(**kw)


def _to_json(value):
    """Strict JSON form of a report or config value (``_from_json`` reads a config back): a non-finite
    float (a diverged loss, a distance relative to a zero norm) becomes None, a tuple a list, the grid
    its six-entry list and a config section its init fields; a report's commonest kinds come first."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if isinstance(value, BevGrid):
        return list(dataclasses.astuple(value))
    if dataclasses.is_dataclass(value):  # no comprehension reads value, or each call would make it a cell
        names = [f.name for f in dataclasses.fields(value) if f.init]
        return dict(zip(names, map(_to_json, map(functools.partial(getattr, value), names))))
    return value


def config_from_dict(d: Dict) -> HarnessConfig:
    """Build a config from a parsed JSON object; unknown keys anywhere
    are errors."""
    return _from_json(HarnessConfig, d, "")


def config_to_dict(cfg: HarnessConfig) -> Dict:
    """Config echo in the same shape config_from_dict accepts."""
    return _to_json(cfg)


def load_config(source: str) -> HarnessConfig:
    """Load a config: the literal name "default" or a JSON file path."""
    if source == "default":
        return default_config()
    try:
        with open(source, encoding="utf-8") as fobj:
            data = json.load(fobj)
    except OSError as exc:
        raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    # a syntax error, bytes that are not UTF-8, nesting too deep for the
    # parser, or an integer too long to convert
    except (ValueError, RecursionError) as exc:
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
        """Report text: sorted keys, indented, and strict JSON."""
        payload = {
            "format_version": REPORT_FORMAT_VERSION,
            "kind": self.kind,
            "status": self.status,
            "config": self.config,
            "wall_clock_s": self.wall_clock_s,
        }
        payload.update(self.data)
        return json.dumps(_to_json(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


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
    of ``size`` entries: the (N, D) depth block of each view's valid-pixel
    logit rows in camera order, then, from ``cut`` on, the (C, L) block of
    the student BEV map's live cells, C from ``plan.shape``; a gradient has
    the same layout.  ``build`` packs the views, their ``TargetLayout`` and
    the BEV teacher side once; ``evaluate`` alone assembles the objective."""

    cfg: HarnessConfig
    views: List[ViewGroundTruth]
    packed: List[PackedView]
    plan: DistillPlan
    layout: TargetLayout
    cut: int  # where the BEV block starts
    size: int  # entries of the parameter vector
    # (2, R, D) step buffers, a view's probabilities and work, which hold
    # the layout's rows as the inner-depth pass's (U, D) work; a call uses
    # leading rows, which are C-contiguous, so its sums round as in fresh arrays.
    rows_buffers: np.ndarray = field(repr=False)
    target_rows: np.ndarray = field(repr=False)  # (U, D) probabilities of the layout's rows
    empty: bool  # no target and no valid pixel: nothing to supervise

    @classmethod
    def build(cls, cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth]) -> "SceneProblem":
        packed = [pack_view(v.depth, v.valid, cfg.bins) for v in views]
        plan = build_distill_plan(
            scene.teacher_bev, scene.boxes, cfg.keypoint_g, cfg.enlarge, cfg.gram_normalization
        )
        layout = target_layout([(p.rows, v.targets, v.depth.shape) for p, v in zip(packed, views)])
        d = cfg.bins.count
        cut = sum(p.rows.size for p in packed) * d
        n_max = max([p.rows.size for p in packed] + [(layout.rows.size + 1) // 2])
        return cls(
            cfg, views, packed, plan, layout, cut, cut + plan.shape[0] * plan.live.size,
            rows_buffers=np.empty((2, n_max, d)),
            target_rows=np.empty((layout.rows.size, d)),
            empty=not scene.boxes and not any(p.rows.size for p in packed),
        )

    def blocks(self, vec: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The (N, D) depth block and the (C, L) BEV block, as views into a parameter or gradient vector."""
        depth, bev = vec[:self.cut], vec[self.cut:]
        return depth.reshape(-1, self.cfg.bins.count), bev.reshape(self.plan.shape[0], -1)

    def split(self, vec: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        """Each view's (N, D) rows of the depth block, and the BEV block."""
        depth, bev = self.blocks(vec)
        return [depth[rows] for rows, _, _ in self.layout.views], bev

    def evaluate(
        self, params: np.ndarray, grad: Optional[np.ndarray] = None, gram_sq: Optional[np.ndarray] = None,
        held: Optional[Tuple[float, float]] = None,
    ) -> LossResult:
        """Total loss at ``params`` with its components (``TERMS`` and
        "external_det", a constant without gradient): the weighted sum of
        the depth terms, the BEV terms and the external scalar.

        Every call evaluates every term; a weight only scales its term's
        share of the total and, with ``grad``, of the weighted gradient
        written into it.  Without ``grad`` no gradient is formed.  View
        values are summed in camera order.  ``gram_sq`` is passed on to
        ``bev_terms``.  ``held``, the depth terms' values of a frozen depth
        block, stands in for ``depth_terms``, which then does not run, and
        leaves the depth block of ``grad`` as it is.  A non-finite BEV
        block raises ``NumericError``.

        The first term that writes a block of ``grad`` assigns it, with
        the bits of adding into zeros, so ``grad`` may hold anything on
        entry."""
        logits, student = self.blocks(params)
        logit_grad, student_grad = self.blocks(grad) if grad is not None else (None, None)
        depth = self.depth_terms(logits, logit_grad) if held is None else held
        values = depth + self.bev_terms(student, student_grad, gram_sq)
        w, det = self.cfg.weights, float(self.cfg.external_det_loss)
        total = det + w.w_a * values[0] + w.w_r * values[1] + w.w_ic * values[2] + w.w_ik * values[3]
        return LossResult(total, None, empty=self.empty, components=dict(zip(TERMS, values), external_det=det))

    def depth_terms(self, logits: np.ndarray, logit_grad: Optional[np.ndarray]) -> Tuple[float, float]:
        """The absolute and inner depth values of the (N, D) depth block, and
        its weighted gradient written into ``logit_grad`` unless that is None:
        softmax and BCE view by view, summed in camera order, each view's
        target rows copied into ``target_rows``, then one inner-depth pass."""
        cfg, w, layout = self.cfg, self.cfg.weights, self.layout
        a_views = []
        for (rows, entries, _), view in zip(layout.views, self.packed):
            n = view.rows.size
            if not n:
                continue
            probs_buf, work = self.rows_buffers[:, :n]
            probs = softmax_rows(logits[rows], out=probs_buf)
            rows_grad = None if logit_grad is None else logit_grad[rows]
            a_views.append(bce_rows(probs, view.gt_bins, rows_grad, w.w_a / n, work) / n)
            np.take(probs, layout.local[entries], axis=0, out=self.target_rows[entries], mode="clip")
        inner = relative_depth_rows(
            self.target_rows, layout, cfg.bins.centers, cfg.reference, cfg.loss_reduction,
            logit_grad, w.w_r, self.rows_buffers.reshape(-1, cfg.bins.count)[:layout.rows.size],
        )
        return sum(a_views, 0.0), inner

    def bev_terms(
        self, student: np.ndarray, student_grad: Optional[np.ndarray], gram_sq: Optional[np.ndarray] = None
    ) -> Tuple[float, float]:
        """The inter-channel and inter-keypoint values of the (C, L)
        ``student`` block, with each target's squared Gram distances
        written into the (2, T) ``gram_sq`` if given (see
        ``DistillPlan.terms``); unless ``student_grad`` is None, the plan's
        one weighted scatter of w_ic * ic + w_ik * ik is written into it."""
        check_finite(student, "BEV features")
        weights = None if student_grad is None else (self.cfg.weights.w_ic, self.cfg.weights.w_ik)
        ic, ik, grad = self.plan.terms(student, self.cfg.loss_reduction, weights, gram_sq)
        if grad is not None:
            student_grad[...] = grad
        return ic, ik


def student_problem(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth], identity: bool = False
) -> Tuple[SceneProblem, np.ndarray]:
    """The scene problem and the flat parameters of a starting student.
    The identity student sits exactly at the optimum: saturated one-hot
    logits at each valid pixel's gt bin, each foreground set's gt depth
    replaced by the continuous depth of those logits (bitwise, so
    relative residuals vanish exactly), and the teacher's BEV map.  The
    random student is small noise seeded from the scene seed; each
    valid-pixel logit is its entry of the full (D, H, W) normal draw,
    and each BEV block entry its entry of the full (C, H, W) draw.
    Either student's BEV block is the live columns of ``_start_bev``'s
    full map, which is drawn only where it is read."""
    d = cfg.bins.count
    if identity:
        # continuous depth of the saturated one-hot logits of each bin
        at_bin = expected_depths(softmax_rows(SATURATION_LOGIT * np.eye(d)), cfg.bins.centers)
        views = [_identity_view(v, at_bin, cfg.bins) for v in views]
    problem = SceneProblem.build(cfg, scene, views)
    params = np.zeros(problem.size)
    logits, bev = problem.split(params)
    if identity:
        bev[...] = problem.plan.pack(scene.teacher_bev.data)
        for rows, view in zip(logits, problem.packed):
            rows[np.arange(view.rows.size), view.gt_bins] = SATURATION_LOGIT
    else:
        noise = _init_stream(cfg, "bev").normal_columns(scene.teacher_bev.data.shape, problem.plan.live)
        bev[...] = cfg.optimizer.init_bev_scale * noise
        for rows, view, packed in zip(logits, views, problem.packed):
            sub = _init_stream(cfg, f"logits-{view.cam_index}")
            rows[...] = cfg.optimizer.init_logit_scale * sub.normal_columns((d,) + view.depth.shape, packed.rows).T
    return problem, params


def _init_stream(cfg: HarnessConfig, label: str) -> CounterRng:
    """The random student's stream of draws ``label``."""
    return CounterRng(cfg.scene.seed).substream("student-init").substream(label)


def _start_bev(cfg: HarnessConfig, scene: SyntheticScene, identity: bool) -> np.ndarray:
    """The full (C, H, W) BEV map of ``student_problem``'s starting
    student: the teacher's map, or one scaled normal draw."""
    if identity:
        return scene.teacher_bev.data.copy()
    return cfg.optimizer.init_bev_scale * _init_stream(cfg, "bev").normal(scene.teacher_bev.data.shape)


def _identity_view(view: ViewGroundTruth, at_bin: np.ndarray, bins: DepthBins) -> ViewGroundTruth:
    """``view`` with each usable target's gt depth set to ``at_bin`` of its pixels' gt bins."""
    def at_optimum(fds: ForegroundDepthSet) -> ForegroundDepthSet:
        gt_bins = assign_depth_bins(view.depth[fds.pixels[:, 1], fds.pixels[:, 0]], bins)
        return dataclasses.replace(fds, gt_depth=at_bin[gt_bins])

    return dataclasses.replace(view, targets=[fds if fds.skipped else at_optimum(fds) for fds in view.targets])


# ---------------------------------------------------------------------------
# The dense (D, H, W) API over the scene problem
# ---------------------------------------------------------------------------


def _dense_student(cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth], identity: bool):
    problem, params = student_problem(cfg, scene, views, identity)
    logits, _ = problem.split(params)
    maps = [
        CategoricalDepthMap(packed_to_map(rows, p.rows, *v.depth.shape))
        for rows, p, v in zip(logits, problem.packed, problem.views)
    ]
    return maps, problem.views, BevFeatureMap(data=_start_bev(cfg, scene, identity), grid=scene.grid)


def identity_student_inputs(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth]
) -> Tuple[List[CategoricalDepthMap], List[ViewGroundTruth], BevFeatureMap]:
    """Dense maps, views with their replaced gt depths, and student BEV
    map of the identity student of ``student_problem``."""
    return _dense_student(cfg, scene, views, identity=True)


def random_student_inputs(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth]
) -> Tuple[List[CategoricalDepthMap], List[ViewGroundTruth], BevFeatureMap]:
    """Dense maps, views and student BEV map of the random student of
    ``student_problem``; logits outside the valid pixels are 0, and the
    BEV map is the whole draw."""
    return _dense_student(cfg, scene, views, identity=False)


def evaluate_scene_losses(
    cfg: HarnessConfig, scene: SyntheticScene, views: List[ViewGroundTruth],
    depth_maps: List[CategoricalDepthMap], student_bev: BevFeatureMap,
) -> LossResult:
    """The scene problem of ``views`` at dense student inputs, with the
    gradient as one (D, H, W) map per view ("depth_logits") and a (C, H, W)
    map ("bev_features", 0.0 off the live cells).  Its components are
    eval-losses' and train-toy's for the same student."""
    problem = SceneProblem.build(cfg, scene, views)
    shapes = [(cfg.bins.count,) + v.depth.shape for v in views] + [scene.teacher_bev.data.shape]
    if [dm.logits.shape for dm in depth_maps] + [student_bev.data.shape] != shapes:
        raise ContractError("student inputs disagree with the views, the bins or the teacher map")
    if student_bev.grid != scene.grid:
        raise ContractError("student and teacher grids disagree")
    params = np.empty(problem.size)
    logits, bev = problem.split(params)
    for rows, dm, p in zip(logits, depth_maps, problem.packed):
        rows[...] = logit_rows(dm.logits)[p.rows]
    bev[...] = problem.plan.pack(student_bev.data)
    grad = np.empty_like(params)
    res = problem.evaluate(params, grad)
    logit_grads, bev_grad = problem.split(grad)
    res.grad = {
        "depth_logits": [
            packed_to_map(g, p.rows, *v.depth.shape) for g, p, v in zip(logit_grads, problem.packed, views)
        ],
        "bev_features": problem.plan.unpack(bev_grad),
    }
    return res


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class _Instance:
    """One drawn check on only the entries its loss reads: ``values``
    maps a (B, *x0.shape) stack of inputs to their B loss values through
    the kernel that also gives ``analytic``."""

    values: Callable[[np.ndarray], np.ndarray]
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
    view = pack_view(gt, valid, bins)
    rows = logit_rows(logits)[view.rows]
    probs = softmax_rows(rows)
    at_clamp = np.minimum(np.abs(probs - BCE_CLAMP), np.abs(probs - (1.0 - BCE_CLAMP)))
    tie = bool(np.any(at_clamp < 1e-9))
    analytic = np.empty_like(probs)
    bce_rows(probs, view.gt_bins, analytic)
    n = view.rows.size
    # the mean BCE over the valid rows, as SceneProblem.depth_terms forms it
    return _Instance(
        values=lambda xs: bce_rows(softmax_rows(xs), view.gt_bins) / n,
        x0=rows, analytic=analytic / n, tie_adjacent=tie,
    )


def _inner_instance(cfg: HarnessConfig, sub: CounterRng) -> _Instance:
    n = 2 + int(sub.uniform(1)[0] * 5)
    d = 3 + int(sub.uniform(1)[0] * 4)
    h, w = 3, 4
    bins = DepthBins(count=d, d_min=1.0, d_max=10.0)
    order = np.sort(np.argsort(sub.uniform(h * w), kind="stable")[:n])
    pixels = np.stack([order % w, order // w], axis=1)
    gt = 2.0 + 8.0 * sub.uniform(n)
    center = (sub.uniform(1)[0] * w, sub.uniform(1)[0] * h)
    fds = ForegroundDepthSet(target_index=0, pixels=pixels, gt_depth=gt, skipped=False, center_uv=center)
    rows = logit_rows(2.0 * sub.normal((d, h, w)))[order]
    layout = target_layout([(order, [fds], (h, w))])
    sel = cfg.reference
    probs = softmax_rows(rows)
    analytic = np.zeros_like(rows)
    relative_depth_rows(probs, layout, bins.centers, sel, cfg.loss_reduction, analytic)
    # the reference is chosen once at x0 and frozen, as in the backward pass
    d0 = expected_depths(probs, bins.centers)[layout.index]
    ref = select_references(layout, d0, probs, sel)
    tie = False
    if sel.strategy.startswith("all_to_adaptive"):
        best, second = np.sort(layout_scores(layout, d0, probs, sel)[0])[:2]
        if sel.strategy == "all_to_adaptive_smallest_error":
            tie = bool(second - best < 1e-5 * (1.0 + abs(best)))
        else:
            tie = bool(second - best < 1e-6)
    return _Instance(
        values=lambda xs: relative_residual(
            np.take(expected_depths(softmax_rows(xs), bins.centers), layout.index, axis=-1), layout, ref,
            cfg.loss_reduction,
        )[0][..., 0],
        x0=rows, analytic=analytic, tie_adjacent=tie,
    )


def _feature_gram_instance(cfg: HarnessConfig, sub: CounterRng, kind: str) -> _Instance:
    n = 2 + int(sub.uniform(1)[0] * 5)
    c = 2 + int(sub.uniform(1)[0] * 5)
    fs = sub.normal((n, c))
    ft = sub.normal((n, c))
    both = np.concatenate([fs, ft])
    norm, reduction = cfg.gram_normalization, cfg.loss_reduction
    tie = norm == "l2" and bool(np.min(_effective_features(both, norm)[1]) < 1e-3)
    # the student is one target, and so is each input of a stack, against
    # the instance's teacher Gram
    teacher = ((kind, _gram_of(ft[None], kind, norm)),)
    _, grads = _gram_losses(fs[None], teacher, norm, reduction, (1.0,))
    return _Instance(
        values=lambda xs: _gram_losses(xs, teacher, norm, reduction)[0][0],
        x0=fs, analytic=grads[0], tie_adjacent=tie,
    )


def _bev_instance(cfg: HarnessConfig, sub: CounterRng) -> _Instance:
    grid = BevGrid(-4.0, 4.0, -4.0, 4.0, 5, 5)
    c = 2
    student = sub.normal((c, 5, 5))
    teacher = BevFeatureMap(data=sub.normal((c, 5, 5)), grid=grid)
    draws = [sub.uniform(5) for _ in range(1 + int(sub.uniform(1)[0] * 2))]
    boxes = [
        Box3D(
            center=np.array([4.0 * draw[0] - 2.0, 4.0 * draw[1] - 2.0, 0.5]),
            size=np.array([1.5 + 1.5 * draw[2], 1.0 + draw[3], 1.0]),
            yaw=2.0 * math.pi * draw[4] - math.pi,
        )
        for draw in draws
    ]
    # the teacher side is the same for every evaluation of this instance
    plan = build_distill_plan(teacher, boxes, 2, cfg.enlarge, cfg.gram_normalization)
    block = plan.pack(student)
    _, _, grad = plan.terms(block, cfg.loss_reduction, (1.0, 1.0))

    def values(xs):
        """ic + ik of each block of a stack."""
        ic, ik, _ = plan.terms(xs, cfg.loss_reduction)
        return ic + ik

    return _Instance(values=values, x0=block, analytic=grad)


# each checked loss family's instance builder, by name
_GRADCHECK_FAMILIES = {
    "absolute_depth": _absolute_instance,
    "inner_depth": _inner_instance,
    "inter_channel": functools.partial(_feature_gram_instance, kind="channel"),
    "inter_keypoint": functools.partial(_feature_gram_instance, kind="keypoint"),
    "bev_distill": _bev_instance,
}


def run_gradcheck(cfg: HarnessConfig) -> RunReport:
    """Compare every family's analytic gradient, whatever the loss
    weights, against central finite differences on seeded random
    instances; tie-adjacent instances are excluded, and at most 10
    instances are drawn per one wanted."""
    t0 = time.perf_counter()
    root = CounterRng(cfg.scene.seed)
    want = cfg.gradcheck.instances
    losses: Dict[str, Dict[str, Any]] = {}
    for name, build in _GRADCHECK_FAMILIES.items():
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
                numeric = finite_difference_gradient(inst.values, inst.x0, cfg.gradcheck.h)
            except NumericError:
                overflow += 1
                continue
            rels.append(_rel_error(inst.analytic, numeric))
        max_rel = max(rels, default=0.0)
        losses[name] = {
            "instances": len(rels),
            "excluded_tie_adjacent": excluded,
            "overflow": overflow,
            "max_rel_error": max_rel,
            "passed": bool(rels) and max_rel <= cfg.gradcheck.fail_threshold,
        }
    return RunReport(
        kind="gradcheck",
        config=config_to_dict(cfg),
        status="passed" if all(loss["passed"] for loss in losses.values()) else "failed",
        wall_clock_s=time.perf_counter() - t0,
        data={
            "losses": losses,
            "max_rel_error": max(loss["max_rel_error"] for loss in losses.values()),
            "fail_threshold": cfg.gradcheck.fail_threshold,
        },
    )


# ---------------------------------------------------------------------------
# Toy training loop
# ---------------------------------------------------------------------------


def _gram_distance_summary(student: np.ndarray, plan: DistillPlan, gram_sq: np.ndarray) -> List[Dict[str, float]]:
    """Per-target Frobenius distances between the Grams of the (C, L)
    student block and the teacher's, from ``gram_sq``, the (2, T) squared
    distances that the evaluation of ``student`` recorded (NaN where none
    did), plus the raw keypoint-feature distance that is allowed to stay
    big.  The teacher features and Grams come from the scene's plan."""
    fs = plan.sample(student)
    # name -> per-target squared distances and teacher squared norms
    columns = {
        "inter_channel": (gram_sq[0], plan.teacher_sq[0]),
        "inter_keypoint": (gram_sq[1], plan.teacher_sq[1]),
        "raw_feature": (sq_sums(fs - plan.teacher), sq_sums(plan.teacher)),
    }
    out = [{"target": j} for j in range(len(plan.teacher))]
    for name, (dist_sq, norm_sq) in columns.items():
        for entry, (dist, rel) in zip(out, _distances(dist_sq, norm_sq)):
            entry[f"{name}_frob"] = dist
            entry[f"{name}_rel"] = rel
    return out


def _distances(dist_sq: np.ndarray, norm_sq: np.ndarray) -> List[Tuple[float, float]]:
    """Each target's distance and distance relative to the norm, from
    its squared distance and squared norm (inf relative to a zero norm)."""
    out = []
    for d2, n2 in zip(dist_sq.tolist(), norm_sq.tolist()):
        dist, norm = math.sqrt(d2), math.sqrt(n2)
        out.append((dist, dist / norm if norm else float("inf")))
    return out


def _worst_keypoint_rel(gram_sq: np.ndarray, plan: DistillPlan) -> float:
    """Largest relative keypoint-Gram distance over targets, as the summary
    gives it, from a (2, T) record of squared Gram distances."""
    return max((rel for _, rel in _distances(gram_sq[1], plan.teacher_sq[1])), default=0.0)


def lr_at(opt: OptimizerConfig, step: int) -> float:
    """Step size of update ``step``: decayed exponentially from
    ``step_size`` at step 0 to ``final_lr_fraction * step_size`` at step
    ``max_steps - 1``."""
    return opt.step_size * opt.final_lr_fraction ** (step / max(opt.max_steps - 1, 1))


def adam_update(
    params: np.ndarray, grad: np.ndarray, m1: np.ndarray, m2: np.ndarray,
    step: int, lr: float, opt: OptimizerConfig, tmp: np.ndarray,
) -> None:
    """Bias-corrected Adam update ``step`` (from 0) of flat ``params`` and
    its moments ``m1`` and ``m2``, in place, in blocks of ``ADAM_BLOCK``, in
    Kingma and Ba's efficient form (arXiv 1412.6980, Section 2): ``params -=
    (lr_t * m1) / (sqrt(m2) + eps_hat)``, see ``lr_t`` and ``eps_hat`` below.
    ``tmp`` holds at least one block; ``grad`` is overwritten as the second
    temporary, as the next evaluation writes it again."""
    # both bias corrections folded in, with t = step + 1
    root2 = math.sqrt(1.0 - opt.beta2 ** (step + 1))
    lr_t = lr * root2 / (1.0 - opt.beta1 ** (step + 1))
    eps_hat = opt.eps * root2
    for start in range(0, params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g, a, b, p = grad[block], m1[block], m2[block], params[block]
        t = tmp[: g.size]
        # m1 = b1 * m1 + c1 * g and m2 = b2 * m2 + (c2 * g) * g
        np.add(np.multiply(a, opt.beta1, out=a), np.multiply(g, 1.0 - opt.beta1, out=t), out=a)
        np.multiply(np.multiply(g, 1.0 - opt.beta2, out=t), g, out=t)
        np.add(np.multiply(b, opt.beta2, out=b), t, out=b)
        u = np.add(np.sqrt(b, out=g), eps_hat, out=g)
        np.subtract(p, np.divide(np.multiply(a, lr_t, out=t), u, out=t), out=p)


def run_train_toy(cfg: HarnessConfig, identity_init: bool = False) -> RunReport:
    """Optimize depth logits and the student BEV map against the total
    loss with bias-corrected Adam and an exponentially decayed step.

    Stops "converged" when the total loss has dropped by
    target_reduction AND every target's keypoint Gram is within
    ik_rel_target of the teacher's; otherwise on exhausting max_steps,
    an exactly zero gradient of the trained block (nothing left to
    improve), or divergence.

    Each step is one ``SceneProblem.evaluate``.  The depth block is
    frozen at the first step whose total meets the first criterion
    (``total_met_step``): later steps pass the depth terms' values as
    ``held``, so they evaluate and update only the BEV block.  The depth
    terms read only the logits and Adam is per coordinate, so the BEV block
    is that of a run without the freeze; so are the status and the step
    count while the total stays within the criterion's bound.  No update
    follows the last evaluation, and none touches the depth block after
    the freeze, so every figure of the report describes the same
    parameters.
    """
    t0 = time.perf_counter()
    opt = cfg.optimizer
    # the Adam update's temporary, reused by every block; taken before the
    # scene, it sits below the per-step allocations in the heap, and
    # bev-heavy peaks about 0.6 MB lower than with it taken after them
    adam_tmp = np.empty(ADAM_BLOCK)
    scene = generate_scene(cfg.scene)
    teacher = scene.teacher_bev
    # eval-losses builds the same problem and student, so step-0 losses agree
    problem, params = student_problem(cfg, scene, render_gt_views(scene), identity_init)
    # the full starting map, for the final BEV distance; drawn before the
    # loop, its transients reuse memory the steps take later, and drawn at
    # the end they raise bev-heavy's peak RSS by about 0.4 MB
    start_bev = _start_bev(cfg, scene, identity_init)
    grad = np.empty_like(params)
    moment1 = np.zeros_like(params)
    moment2 = np.zeros_like(params)
    series: Dict[str, List[float]] = {key: [] for key in ("total",) + TERMS}
    status = "max_steps"
    initial: Optional[float] = None
    total_met_step: Optional[int] = None  # also the step that froze the depth block
    held: Optional[Tuple[float, float]] = None  # the depth terms' values once frozen
    trained = slice(0, None)  # the part of the vector that Adam updates
    # each target's squared channel and keypoint Gram distances, NaN until evaluated
    gram_sq = np.full((2, len(scene.boxes)), np.nan)

    # A diverging run overflows on its way to the "diverged" status that
    # reports it, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(opt.max_steps):
            res = problem.evaluate(params, grad, gram_sq, held)
            total = res.value
            series["total"].append(total)
            for key in TERMS:
                series[key].append(res.components[key])

            if not math.isfinite(total):
                status = "diverged"
                break
            if initial is None:
                initial = total
            bound = (1.0 - opt.target_reduction) * initial
            if total <= bound:
                if total_met_step is None:
                    total_met_step = step
                    held = (res.components["absolute_depth"], res.components["inner_depth"])
                    trained = slice(problem.cut, None)
                # declare convergence only once every target's keypoint Gram
                # is also within ik_rel_target of the teacher's
                if _worst_keypoint_rel(gram_sq, problem.plan) <= opt.ik_rel_target:
                    status = "converged"
                    break
            if total > opt.divergence_factor * max(initial, 1e-12):
                status = "diverged"
                break
            if not np.any(grad[trained]):
                status = "stationary"
                break
            if step + 1 == opt.max_steps:
                break  # the report describes the parameters evaluated last
            adam_update(
                params[trained], grad[trained], moment1[trained], moment2[trained],
                step, lr_at(opt, step), opt, adam_tmp,
            )
        # the full map: the starting map with its live cells trained, in place
        _, student = problem.blocks(params)
        full = problem.plan.unpack(student, start_bev)
        map_sq = frobenius_sq_distance(full, teacher.data)
        gram_distances = _gram_distance_summary(student, problem.plan, gram_sq)

    final = series["total"][-1]
    reduction = 1.0 - final / initial if initial else 0.0
    [(map_dist, map_rel)] = _distances(np.array([map_sq]), sq_sums(teacher.data.reshape(1, -1))[None])
    return RunReport(
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
                "relative_to_teacher": map_rel,
            },
            "valid_pixels_per_view": [p.rows.size for p in problem.packed],
            "total_met_step": total_met_step,
            "depth_frozen_at": total_met_step,
        },
    )
