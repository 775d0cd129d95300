"""Config plumbing, loss composition, run reports, gradcheck, and the toy
trainer."""

import ast
import dataclasses
import json
import math
import pathlib
import re
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodistill import (
    GRAM_NORMALIZATIONS,
    BevFeatureMap,
    BevGrid,
    CategoricalDepthMap,
    ConfigError,
    ContractError,
    ForegroundDepthSet,
    GradcheckConfig,
    HarnessConfig,
    LossWeights,
    NumericError,
    OptimizerConfig,
    RunReport,
    SceneConfig,
    build_distill_plan,
    config_from_dict,
    config_to_dict,
    default_config,
    evaluate_scene_losses,
    frobenius_sq_distance,
    generate_scene,
    identity_student_inputs,
    inter_channel_gram,
    inter_keypoint_gram,
    load_config,
    random_student_inputs,
    render_gt_views,
    run_gradcheck,
    run_train_toy,
    write_report,
)
from geodistill.depth_supervision import (
    REFERENCE_STRATEGIES,
    DepthBins,
    ReferenceSelection,
    bce_rows,
    expected_depths,
    relative_residual,
    select_references,
)
from geodistill.bev_distillation import _gram_losses
from geodistill.numerics import LOSS_REDUCTIONS, finite_difference_gradient, softmax_rows, sq_sums
from geodistill import cli, harness
from geodistill.harness import TERMS, SceneProblem, student_problem
from geodistill.oracles import adam_scalar
from geodistill.rng import CounterRng

# 12 boxes, g = 10, 32 channels on two small cameras with 16 bins
BEV_HEAVY = {
    "scene": {
        "num_boxes": 12,
        "num_cameras": 2,
        "channels": 32,
        "image_width": 48,
        "image_height": 32,
        "focal": 40.0,
    },
    "bins": {"count": 16},
    "keypoint_g": 10,
}


def small_harness_config(**optimizer_overrides):
    """Scene and bins small enough for sub-second end-to-end runs."""
    scene = SceneConfig(
        seed=5,
        num_boxes=2,
        num_cameras=2,
        points_per_box=80,
        ground_points=300,
        channels=4,
        grid=BevGrid(-24.0, 24.0, -24.0, 24.0, 24, 24),
        image_width=48,
        image_height=32,
        focal=40.0,
    )
    optimizer = OptimizerConfig(**optimizer_overrides)
    return HarnessConfig(scene=scene, bins=DepthBins(16), keypoint_g=3, optimizer=optimizer)


def reference_gram_sq(student, plan):
    """The (2, T) squared channel and keypoint Gram distances of each
    target of a (C, L) student block, from a fresh ``_gram_losses`` pass
    over its keypoint features: the reference for the record that an
    evaluation leaves."""
    kinds = (("channel", plan.teacher_channel), ("keypoint", plan.teacher_keypoint))
    return np.array(_gram_losses(plan.sample(student), kinds, plan.normalization, "sum")[0])


def reference_gram_summary(student, plan):
    """The entries of ``_gram_distance_summary`` for a (C, L) student
    block, from ``reference_gram_sq`` and teacher norms taken afresh."""
    fs = plan.sample(student)
    channel, keypoint = reference_gram_sq(student, plan)
    columns = {
        "inter_channel": (channel, sq_sums(plan.teacher_channel)),
        "inter_keypoint": (keypoint, sq_sums(plan.teacher_keypoint)),
        "raw_feature": (sq_sums(fs - plan.teacher), sq_sums(plan.teacher)),
    }
    out = [{"target": j} for j in range(len(plan.teacher))]
    for name, (dist_sq, norm_sq) in columns.items():
        for entry, (dist, rel) in zip(out, harness._distances(dist_sq, norm_sq)):
            entry[f"{name}_frob"] = dist
            entry[f"{name}_rel"] = rel
    return out


# a valid value other than the default of each string config key
OTHER_CHOICE = {
    "mode": "spacing_increasing",
    "reference_strategy": "one_to_one",
    "loss_reduction": "sum",
    "gram_normalization": "l2",
}


def other_value(key, value):
    """A valid config value unlike ``value`` at every leaf: a flipped
    bool, another choice, an integer plus one, a doubled enlargement, or
    a halved (0 -> 0.5) number."""
    if isinstance(value, dict):
        return {k: other_value(k, v) for k, v in value.items()}
    if isinstance(value, list):
        return [other_value(key, v) for v in value]
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return OTHER_CHOICE[key]
    if isinstance(value, int):
        return value + 1
    if key == "enlarge":
        return 2.0 * value
    return value / 2.0 if value else 0.5


# any JSON value of any kind: integers stay within +-10**6, because a
# loaded bins.count allocates that many centers
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-10**6, 10**6), st.floats()), max_size=7),
    st.dictionaries(st.text(max_size=4), st.integers(-10**6, 10**6), max_size=2),
)
STRING_CHOICES = (
    ("uniform", "spacing_increasing") + REFERENCE_STRATEGIES + LOSS_REDUCTIONS + GRAM_NORMALIZATIONS
)
DEFAULT_ECHO = config_to_dict(default_config())
# each section's keys, from its dataclass
SECTION_CLASSES = {
    "scene": SceneConfig, "bins": DepthBins,
    "weights": LossWeights, "optimizer": OptimizerConfig, "gradcheck": GradcheckConfig,
}


def values_near(default):
    """Values of the default's kind around it, in and out of range, or
    any value at all."""
    if isinstance(default, bool):
        near = st.booleans()
    elif isinstance(default, int):
        near = st.integers(-2, 2 * default + 2)
    elif isinstance(default, float):
        near = st.one_of(st.floats(-2.0, 2.0).map(lambda f: f * default), st.floats(-1.0, 2.0))
    elif isinstance(default, str):
        near = st.sampled_from(STRING_CHOICES)
    elif isinstance(default, list):
        near = st.tuples(*(values_near(v) for v in default)).map(list)
    else:
        near = st.nothing()
    return st.one_of(near, ANY_VALUE)


@st.composite
def config_dicts(draw):
    """A config dict over every top-level key and every section field,
    each present or not and about one in eight of them off its default,
    with an unknown key now and then; a section may be of the wrong kind."""
    def some(keys, defaults):
        out = {}
        for key in keys:
            if draw(st.booleans()):
                default = defaults.get(key)
                out[key] = draw(values_near(default)) if draw(st.integers(0, 7)) == 0 else default
        if draw(st.integers(0, 9)) == 0:
            out[draw(st.text(max_size=4))] = draw(ANY_VALUE)
        return out

    plain = [f.name for f in dataclasses.fields(HarnessConfig) if f.name not in SECTION_CLASSES]
    d = some(plain, DEFAULT_ECHO)
    for key, cls in SECTION_CLASSES.items():
        if draw(st.booleans()):
            fields = [f.name for f in dataclasses.fields(cls)]
            d[key] = some(fields, DEFAULT_ECHO[key]) if draw(st.integers(0, 9)) else draw(ANY_VALUE)
    return d


# the prefix of each config class's field names in its errors
CONFIG_NAMES = {
    SceneConfig: "scene.", BevGrid: "scene.grid.", DepthBins: "bins.", ReferenceSelection: "reference.",
    LossWeights: "weights.", OptimizerConfig: "optimizer.", GradcheckConfig: "gradcheck.", HarnessConfig: "",
}
# valid values of the required fields
REQUIRED = {BevGrid: dict(x_min=-24.0, x_max=24.0, y_min=-24.0, y_max=24.0, h_bev=64, w_bev=64), DepthBins: dict(count=16)}


def wrong_kind_cases():
    """(class, field, value, config name) for every init field of every
    config class, with None, a numeric string unless the field is a
    string, a float for an integer, an integer for a bool, and a short
    tuple or one of strings for a tuple."""
    extra = {"str": [], "int": [2.5], "bool": [1], "Tuple[float, float]": [(1.0,), ("a", "b")]}
    cases = []
    for cls, where in CONFIG_NAMES.items():
        for f in dataclasses.fields(cls):
            if f.init:
                name = where + f.name
                values = [None] + ["1.5"] * (f.type != "str") + extra.get(f.type, [])
                cases += [pytest.param(cls, f.name, v, name, id=f"{name}={v!r}") for v in values]
    return cases


class TestConfigDicts:
    @settings(max_examples=150, deadline=None)
    @given(d=config_dicts())
    # log-spaced bins whose d_max / d_min overflows to infinity
    @example(d={"bins": {"count": 4, "mode": "spacing_increasing", "d_min": 1e-320, "d_max": 1.0}})
    def test_generated_dict_loads_and_round_trips_or_is_config_error(self, d):
        """A dict of values in and out of range, of wrong kinds, NaN,
        +-inf, bools, strings, lists and unknown keys either raises
        ConfigError, or loads every given value and echoes a dict that
        loads back to the same echo."""
        try:
            cfg = config_from_dict(d)
        except ConfigError:
            return
        echo = config_to_dict(cfg)
        for key, value in d.items():
            given = dict(echo[key], **value) if key in SECTION_CLASSES else value
            assert echo[key] == given
        assert config_to_dict(config_from_dict(echo)) == echo

    def test_integer_too_large_for_a_float_is_config_error(self):
        """A 400-digit integer, which no float holds, in any float field of
        any section, at the top level, in a grid extent or a size range is
        a ConfigError that names the field."""
        huge = 10**400
        cases = [({f.name: huge}, f.name) for f in dataclasses.fields(HarnessConfig) if f.type == "float"]
        for key, cls in SECTION_CLASSES.items():
            for f in dataclasses.fields(cls):
                if f.type == "float":
                    cases.append(({key: dict(DEFAULT_ECHO[key], **{f.name: huge})}, f"{key}.{f.name}"))
        for name in ("grid", "length_range", "width_range", "height_range"):
            for i in range(4 if name == "grid" else 2):
                value = list(DEFAULT_ECHO["scene"][name])
                value[i] = huge
                where = f"scene.grid.{dataclasses.fields(BevGrid)[i].name}" if name == "grid" else f"scene.{name}"
                cases.append(({"scene": {name: value}}, where))
        assert len(cases) > 30
        for d, name in cases:
            with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be"):
                config_from_dict(d)

    def test_round_trip_is_identity(self):
        cfg = default_config()
        echo = config_to_dict(config_from_dict(config_to_dict(cfg)))
        assert echo == config_to_dict(cfg)

    def test_every_field_loads_and_echoes(self):
        """Every field of every section, set to a valid non-default value,
        is loaded and echoed back, and each section echoes exactly the
        fields of its dataclass: a new field is loaded and echoed from its
        declaration alone."""
        default = config_to_dict(default_config())
        d = other_value("config", default)
        assert config_to_dict(config_from_dict(d)) == d
        for key, cls in (
            ("scene", SceneConfig), ("weights", LossWeights),
            ("optimizer", OptimizerConfig), ("gradcheck", GradcheckConfig),
        ):
            assert list(d[key]) == [f.name for f in dataclasses.fields(cls)]
            assert all(d[key][name] != value for name, value in default[key].items())
        assert list(d) == [f.name for f in dataclasses.fields(HarnessConfig)]

    def test_readme_defaults_block_is_the_default_echo(self):
        """README's jsonc defaults block, without its // comments, is the
        echo of the default config."""
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        assert json.loads(re.sub(r"//.*", "", block)) == config_to_dict(default_config())

    def test_seed_must_fit_the_generator(self):
        """Seeds are the 64-bit unsigned integers; a wider or negative one
        would alias another seed in the generator."""
        assert config_from_dict({"scene": {"seed": 2**64 - 1}}).scene.seed == 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match=r"^scene\.seed must be an integer in \[0, 2\*\*64\), got "):
                config_from_dict({"scene": {"seed": seed}})

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("num_boxes", 2.5), ("focal", -1.0)])
    def test_scene_config_built_in_code_checks_its_fields(self, field, value):
        """A SceneConfig made in code gets the same kind and range checks
        as one loaded from JSON: a float seed is not taken as the integer
        below it."""
        with pytest.raises(ConfigError, match=rf"^scene\.{field} must be "):
            SceneConfig(**{field: value})

    def test_integer_too_long_to_print_is_quoted_by_its_digits(self):
        """An integer with more digits than Python converts to a string is
        a ConfigError quoting its length, not a traceback from quoting it."""
        for value in (10**5000, -(10**5000), [10**5000]):
            with pytest.raises(ConfigError) as err:
                HarnessConfig(enlarge=value)
            assert "got " in str(err.value) and "<integer of about 5001 digits>" in str(err.value)
            assert len(str(err.value)) <= 200

    @pytest.mark.parametrize("cls, field, value, name", wrong_kind_cases())
    def test_config_built_in_code_checks_every_field(self, cls, field, value, name):
        """A config object made in code rejects a value of the wrong kind
        in any field, nested sections and tuples included, with a
        ConfigError that starts with the field's config name."""
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be "):
            cls(**dict(REQUIRED.get(cls, {}), **{field: value}))

    def test_every_declared_range_matches_its_check(self):
        """The range text of each ``_ranged`` field, ``>= x``, ``> x`` or
        ``in`` an interval, states what its predicate does: an inclusive
        bound is accepted and the next float outside it rejected; an
        exclusive bound is rejected and the next float inside it accepted.
        A ``_choice`` field's text, ``one of`` its options, accepts every
        option it lists and no other string."""
        def number(text):
            base, _, exponent = text.partition("**")
            return float(base) ** int(exponent) if exponent else float(text)

        ranged = [
            (f"{cls.__name__}.{f.name}", *f.metadata["range"])
            for cls in (HarnessConfig, *SECTION_CLASSES.values(), BevGrid, ReferenceSelection)
            for f in dataclasses.fields(cls) if "range" in f.metadata
        ]
        names = {name for name, _, _ in ranged}
        assert len(ranged) > 30 and any(name.startswith("SceneConfig.") for name in names)
        assert {
            "DepthBins.count", "DepthBins.mode", "DepthBins.d_min", "BevGrid.h_bev", "BevGrid.w_bev",
            "ReferenceSelection.strategy", "HarnessConfig.loss_reduction", "HarnessConfig.gram_normalization",
        } <= names
        for name, what, ok in ranged:
            choice = re.fullmatch(r"one of (.+)", what)
            if choice:
                options = ast.literal_eval(f"({choice[1]},)")
                assert len(options) >= 2 and all(isinstance(o, str) and ok(o) for o in options), (name, what)
                assert not ok("".join(options)) and not ok(options[0].upper()), (name, what)
                continue
            interval = re.fullmatch(r"in ([\[(])(\S+), (\S+)([\])])", what)
            if interval:
                bounds = [(number(interval[2]), interval[1] == "[", -math.inf),
                          (number(interval[3]), interval[4] == "]", math.inf)]
            else:
                side = re.fullmatch(r"(>=|>) (\S+)", what)
                assert side, (name, what)
                bounds = [(number(side[2]), side[1] == ">=", -math.inf)]
            for bound, inclusive, outside in bounds:
                if inclusive:
                    assert ok(bound) and not ok(math.nextafter(bound, outside)), (name, what)
                else:
                    assert not ok(bound) and ok(math.nextafter(bound, -outside)), (name, what)

    def test_overrides_apply(self):
        d = {
            "bins": {"count": 24, "d_min": 2.0, "d_max": 40.0},
            "reference_strategy": "one_to_one",
            "loss_reduction": "sum",
            "weights": {"w_ik": 0.5},
            "optimizer": {"max_steps": 17},
            "scene": {"seed": 9, "num_boxes": 1},
        }
        cfg = config_from_dict(d)
        assert cfg.bins.count == 24 and cfg.bins.d_max == 40.0
        assert cfg.reference.strategy == "one_to_one"
        assert cfg.loss_reduction == "sum"
        assert cfg.weights.w_ik == 0.5 and cfg.weights.w_a == 1.0
        assert cfg.optimizer.max_steps == 17
        assert cfg.scene.seed == 9 and cfg.scene.num_boxes == 1

    def test_unknown_keys_rejected_at_every_level(self):
        for bad in (
            {"mystery": 1},
            {"scene": {"mystery": 1}},
            {"bins": {"mystery": 1}},
            {"weights": {"mystery": 1}},
            {"optimizer": {"mystery": 1}},
            {"gradcheck": {"mystery": 1}},
        ):
            with pytest.raises(ConfigError):
                config_from_dict(bad)

    def test_bad_values_rejected(self):
        for bad in (
            {"weights": {"w_a": -1.0}},
            {"loss_reduction": "max"},
            {"optimizer": {"step_size": 0.0}},
            {"optimizer": {"final_lr_fraction": 0.0}},
            {"keypoint_g": 1},
            {"enlarge": 0.5},
            {"gram_normalization": "nope"},
            {"reference_strategy": "nope"},
            {"gradcheck": {"instances": 0}},
        ):
            with pytest.raises(ConfigError):
                config_from_dict(bad)
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])

    def test_load_config_default_and_file(self, tmp_path):
        assert config_to_dict(load_config("default")) == config_to_dict(default_config())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bins": {"count": 10}}))
        assert load_config(str(path)).bins.count == 10

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(bad))

    def test_defaults_documented(self):
        cfg = default_config()
        assert cfg.bins.count == 112
        assert cfg.scene.num_cameras == 6
        assert cfg.weights == LossWeights(1.0, 1.0, 1.0, 1.0)
        assert cfg.reference.strategy == "all_to_adaptive_smallest_error"


def section_classes(cls):
    """``cls`` and every config class nested in its fields."""
    hints = typing.get_type_hints(cls)
    nested = [hints[f.name] for f in dataclasses.fields(cls) if dataclasses.is_dataclass(hints[f.name])]
    return [cls] + [c for n in nested for c in section_classes(n)]


class TestFrozenConfig:
    """A config changes only through a constructor, which checks it; the
    scene section alone stays mutable, because ``perfbench`` sets its
    seed in place."""

    def test_every_section_but_scene_is_frozen(self):
        classes = section_classes(HarnessConfig)
        assert set(classes) == {HarnessConfig, *SECTION_CLASSES.values(), BevGrid}
        for cls in classes + [ReferenceSelection]:
            assert cls.__dataclass_params__.frozen is (cls is not SceneConfig), cls

    def test_assignment_raises_and_construction_checks(self):
        cfg = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.bins.count = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.reference_strategy = "x"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.reference.strategy = "x"
        with pytest.raises(ConfigError, match=r"^reference_strategy must be one of 'all_to_adaptive_smallest_error', "):
            HarnessConfig(reference_strategy="x")
        with pytest.raises(ValueError, match="read-only"):
            cfg.bins.centers[0] = 99.0
        assert cfg.bins.centers.tobytes() == DepthBins(112).centers.tobytes()
        cfg.scene.seed = 7
        assert config_to_dict(cfg)["scene"]["seed"] == 7

    def test_reference_is_built_once_from_the_top_level_fields(self):
        """``reference`` is the kernels' ReferenceSelection of the two
        top-level fields, built once per config; a replaced config builds
        its own."""
        cfg = HarnessConfig(reference_strategy="one_to_one", signed_reference_error=True)
        assert cfg.reference == ReferenceSelection("one_to_one", True) and cfg.reference is cfg.reference
        assert HarnessConfig().reference == ReferenceSelection()
        other = dataclasses.replace(cfg, reference_strategy="all_to_certain_2d_center")
        assert other.reference == ReferenceSelection("all_to_certain_2d_center", True)


class TestTotalLoss:
    """The total loss as SceneProblem.evaluate composes it."""

    @staticmethod
    def problem(cfg):
        scene = generate_scene(cfg.scene)
        return student_problem(cfg, scene, render_gt_views(scene))

    def check_total(self, weights, det):
        """total == det + sum of w_i * component_i in term order, with
        and without a gradient."""
        cfg = dataclasses.replace(small_harness_config(), weights=weights, external_det_loss=det)
        problem, params = self.problem(cfg)
        for grad in (None, np.empty_like(params)):
            res = problem.evaluate(params, grad)
            c = res.components
            assert c["external_det"] == det and all(c[key] > 0.0 for key in TERMS)
            want = det
            for key, w in zip(TERMS, (weights.w_a, weights.w_r, weights.w_ic, weights.w_ik)):
                want += w * c[key]
            assert res.value == want

    def test_gradient_is_the_central_difference_of_the_total(self):
        """With distinct positive weights, evaluate's gradient at two logits
        of each view and four BEV-block entries matches central
        differences of its own total: the weights, their per-view scale
        and the split offsets are composed as the total is."""
        cfg = dataclasses.replace(small_harness_config(), weights=LossWeights(w_a=0.7, w_r=1.3, w_ic=2.1, w_ik=0.4))
        problem, params = self.problem(cfg)
        grad = np.empty_like(params)
        problem.evaluate(params, grad)
        # flat indices of the chosen coordinates, read off the layout itself
        rows, block = problem.split(np.arange(params.size))
        coords = [r[i, b] for r, p in zip(rows, problem.packed) for i, b in ((0, p.gt_bins[0]), (len(r) // 2, 3))]
        coords += block[[0, 1, 2, 3], [0, block.shape[1] // 3, 2 * block.shape[1] // 3, -1]].tolist()
        h = 1e-5
        numeric = []
        for i in coords:
            shifted = [params.copy(), params.copy()]
            shifted[0][i] += h
            shifted[1][i] -= h
            plus, minus = (problem.evaluate(x).value for x in shifted)
            numeric.append((plus - minus) / (2.0 * h))
        assert len(coords) == 8 and np.all(grad[coords] != 0.0)
        np.testing.assert_allclose(grad[coords], numeric, rtol=1e-5, atol=0.0)

    def test_held_depth_values_stand_in_for_the_depth_terms(self, monkeypatch):
        """Given the depth terms' values of a full evaluation at the same
        parameters as ``held``, evaluate gives that evaluation's total,
        components and BEV block of the gradient bit for bit, with and
        without a gradient, never calls depth_terms and leaves the depth
        block of the gradient as it held."""
        cfg = dataclasses.replace(
            small_harness_config(), weights=LossWeights(w_a=0.7, w_r=1.3, w_ic=2.1, w_ik=0.4), external_det_loss=0.5
        )
        problem, params = self.problem(cfg)
        full_grad = np.empty_like(params)
        whole = problem.evaluate(params, full_grad)
        held = (whole.components["absolute_depth"], whole.components["inner_depth"])
        calls = []
        monkeypatch.setattr(SceneProblem, "depth_terms", lambda *args: calls.append(args))
        for grad in (None, np.full_like(params, 7.25)):
            part = problem.evaluate(params, grad, held=held)
            assert (part.value.hex(), part.components, part.empty) == (whole.value.hex(), whole.components, whole.empty)
            if grad is not None:
                assert grad[problem.cut:].tobytes() == full_grad[problem.cut:].tobytes()
                assert np.all(grad[:problem.cut] == 7.25)
        assert calls == []

    def test_unit_weights_hand_value(self):
        self.check_total(LossWeights(), 5.0)

    def test_weights_scale_linearly(self):
        self.check_total(LossWeights(w_a=2.0, w_r=0.5, w_ic=3.0, w_ik=0.25), 1.5)

    def test_per_view_gradient_lists(self):
        """evaluate_scene_losses gives one dense (D, H, W) gradient per view:
        the problem's packed rows at the valid pixels, 0 elsewhere; and one
        (C, H, W) BEV gradient: the problem's block at the live cells, 0
        elsewhere."""
        cfg = small_harness_config()
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, eff_views, student = random_student_inputs(cfg, scene, views)
        res = evaluate_scene_losses(cfg, scene, eff_views, maps, student)
        problem, params = student_problem(cfg, scene, views)
        grad = np.empty_like(params)
        problem.evaluate(params, grad)
        logit_grads, bev_grad = problem.split(grad)
        assert isinstance(res.grad["depth_logits"], list) and len(res.grad["depth_logits"]) == len(views)
        for dense, rows, view in zip(res.grad["depth_logits"], logit_grads, views):
            assert dense.shape == (cfg.bins.count,) + view.depth.shape
            assert np.any(rows) and np.array_equal(dense[:, view.valid].T, rows)
            assert np.all(dense[:, ~view.valid] == 0.0)
        assert np.array_equal(res.grad["bev_features"], problem.plan.unpack(bev_grad))

    def test_mismatched_student_inputs_rejected(self):
        """Student inputs that disagree with the views, the bins or the
        teacher map are rejected, including a BEV map with the scene's
        cell counts on other extents."""
        cfg = small_harness_config()
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, _, student = random_student_inputs(cfg, scene, views)
        g = scene.grid
        shifted = BevGrid(g.x_min + 1.0, g.x_max + 1.0, g.y_min, g.y_max, g.h_bev, g.w_bev)
        for bad_maps, bad_student in (
            (maps[:-1], student),
            ([CategoricalDepthMap(m.logits[:-1]) for m in maps], student),
            (maps, BevFeatureMap(data=student.data[:-1], grid=student.grid)),
            (maps, BevFeatureMap(data=student.data, grid=shifted)),
        ):
            with pytest.raises(ContractError):
                evaluate_scene_losses(cfg, scene, views, bad_maps, bad_student)

    @pytest.mark.parametrize("edge", ["x=W", "x=-1", "y=H", "y=-1", "far"])
    def test_target_pixel_outside_its_view_rejected(self, edge):
        """A target pixel outside its view raises, also where its flat row
        is a valid pixel of the view: every pixel is valid here."""
        cfg = small_harness_config()
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, _, student = random_student_inputs(cfg, scene, views)
        h, w = views[0].depth.shape
        pixel = {"x=W": (w, 3), "x=-1": (-1, 3), "y=H": (3, h), "y=-1": (3, -1), "far": (w + 7, 2)}[edge]
        fds = ForegroundDepthSet(target_index=0, pixels=[[2, 2], pixel], gt_depth=[5.0, 6.0], skipped=False)
        depth = np.where(views[0].valid, views[0].depth, 5.0)
        views[0] = dataclasses.replace(views[0], depth=depth, valid=np.ones_like(views[0].valid), targets=[fds])
        with pytest.raises(ContractError, match="outside its"):
            evaluate_scene_losses(cfg, scene, views, maps, student)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(w_a=-0.1)

    def test_empty_only_when_all_terms_empty(self):
        """No valid pixel in any view and no box: every term is empty and
        the total is the external scalar; one box or one view with valid
        pixels makes the problem non-empty."""
        cfg = dataclasses.replace(small_harness_config(), external_det_loss=5.0)
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        blind = [dataclasses.replace(v, valid=np.zeros_like(v.valid), targets=[]) for v in views]
        no_boxes = dataclasses.replace(scene, boxes=[])
        for scn, vws, empty in (
            (no_boxes, blind, True), (scene, blind, False), (no_boxes, [views[0]] + blind[1:], False)
        ):
            problem = SceneProblem.build(cfg, scn, vws)
            for grad in (None, np.zeros(problem.size)):
                res = problem.evaluate(np.zeros(problem.size), grad)
                assert res.empty == empty
                if empty:
                    assert res.value == 5.0 and all(res.components[key] == 0.0 for key in TERMS)

    @pytest.mark.parametrize(
        "weights",
        [
            LossWeights(w_a=0.5, w_r=2.0, w_ic=1.5, w_ik=3.0),
            LossWeights(w_a=0.0),
            LossWeights(w_r=0.0),
            LossWeights(w_ic=0.0),
            LossWeights(w_ik=0.0),
            LossWeights(w_ic=0.0, w_ik=0.0),
            LossWeights(w_a=0.0, w_r=0.0, w_ic=0.0, w_ik=0.0),
        ],
        ids=["mixed", "w_a-0", "w_r-0", "w_ic-0", "w_ik-0", "bev-0", "all-0"],
    )
    @pytest.mark.parametrize("seed", [5, 7])
    def test_value_only_call_equals_gradient_call(self, seed, weights):
        """For every weight pattern, eval-losses' call without a gradient
        and the trainer's call with one give the same bits: every term is
        evaluated, and a weight only scales it."""
        cfg = small_harness_config()
        cfg = dataclasses.replace(cfg, scene=dataclasses.replace(cfg.scene, seed=seed), weights=weights)
        problem, params = self.problem(cfg)
        grad = np.empty_like(params)
        plain, with_grad = problem.evaluate(params), problem.evaluate(params, grad)
        assert plain.grad is None and np.any(grad) == any(dataclasses.astuple(weights))
        assert all(plain.components[key] > 0.0 for key in TERMS)
        assert (plain.value, plain.components, plain.empty) == (
            with_grad.value, with_grad.components, with_grad.empty
        )

    @pytest.mark.parametrize(
        "weights",
        [
            LossWeights(),
            LossWeights(w_a=0.0),
            LossWeights(w_r=0.0),
            LossWeights(w_ic=0.0, w_ik=0.0),
            LossWeights(w_a=0.0, w_r=0.0, w_ic=0.0, w_ik=0.0),
        ],
        ids=["default", "w_a-0", "w_r-0", "bev-0", "all-0"],
    )
    def test_gradient_ignores_what_the_buffer_held(self, weights):
        """evaluate writes every block of the gradient, the first term to
        write a block assigning it: a buffer filled with NaN and one of
        zeros give the same bits, signs of zeros included, also with a
        view that has no valid pixel."""
        cfg = dataclasses.replace(small_harness_config(), weights=weights)
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        views[1] = dataclasses.replace(views[1], valid=np.zeros_like(views[1].valid), targets=[])
        problem, params = student_problem(cfg, scene, views)
        assert problem.packed[0].rows.size and not problem.packed[1].rows.size
        runs = []
        for fill in (np.nan, 0.0):
            grad = np.full_like(params, fill)
            res = problem.evaluate(params, grad)
            runs.append((res.value, res.components, grad))
        (value, components, grad), (value_z, components_z, grad_z) = runs
        assert (value, components) == (value_z, components_z)
        assert not np.isnan(grad).any()
        assert grad.tobytes() == grad_z.tobytes()
        assert np.array_equal(np.signbit(grad), np.signbit(grad_z))


class TestRunReport:
    def test_json_shape(self, tmp_path):
        report = RunReport(
            kind="demo", config={"b": 1, "a": 2}, status="ok", wall_clock_s=0.5,
            data={"x": [1, 2], "score": 3.5},
        )
        text = report.to_json()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["format_version"] == 1
        assert parsed["kind"] == "demo" and parsed["status"] == "ok"
        assert parsed["x"] == [1, 2]
        # sorted-key serialization is deterministic
        assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
        path = tmp_path / "r.json"
        write_report(str(path), report)
        assert path.read_text() == text


class TestIdentityStudent:
    def test_identity_inputs_sit_at_the_optimum(self):
        """With the identity student every differentiated term except the
        clamped-BCE floor is exactly zero, and every gradient is exactly
        zero everywhere."""
        cfg = small_harness_config()
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, eff_views, student = identity_student_inputs(cfg, scene, views)
        res = evaluate_scene_losses(cfg, scene, eff_views, maps, student)
        assert res.components["inner_depth"] == 0.0
        assert res.components["inter_channel"] == 0.0
        assert res.components["inter_keypoint"] == 0.0
        assert 0.0 < res.components["absolute_depth"] < 1e-3
        for g in res.grad["depth_logits"]:
            assert np.all(g == 0.0)
        assert np.all(res.grad["bev_features"] == 0.0)

    @pytest.mark.parametrize("which", ["default-42", "bev-heavy-1", "odd-bins-15"])
    def test_random_logits_are_the_full_draw_at_valid_pixels(self, which):
        """Logits at valid pixels equal the entries of the full (D, H, W)
        draw bit for bit, for an even and an odd bin count; every other
        logit is 0."""
        if which == "default-42":
            cfg = default_config()
        elif which == "odd-bins-15":
            cfg = config_from_dict({"bins": {"count": 15}})
        else:
            cfg = config_from_dict(dict(BEV_HEAVY, scene=dict(BEV_HEAVY["scene"], seed=1)))
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, _, student = random_student_inputs(cfg, scene, views)
        root = CounterRng(cfg.scene.seed).substream("student-init")
        d = cfg.bins.count
        for view, dm in zip(views, maps):
            h, w = view.depth.shape
            full = cfg.optimizer.init_logit_scale * root.substream(
                f"logits-{view.cam_index}"
            ).normal((d, h, w))
            assert view.valid.any()
            assert dm.logits.shape == (d, h, w)
            assert dm.logits[:, view.valid].tobytes() == full[:, view.valid].tobytes()
            assert np.all(dm.logits[:, ~view.valid] == 0.0)
        bev = cfg.optimizer.init_bev_scale * root.substream("bev").normal(student.data.shape)
        assert student.data.tobytes() == bev.tobytes()

    def test_random_inputs_are_not_at_the_optimum(self):
        cfg = small_harness_config()
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, eff_views, student = random_student_inputs(cfg, scene, views)
        res = evaluate_scene_losses(cfg, scene, eff_views, maps, student)
        assert res.components["inner_depth"] > 0.0
        assert res.components["inter_keypoint"] > 0.0


def layout_config(which):
    """The small config with an even or an odd channel count, or bev-heavy."""
    if which == "bev-heavy":
        return config_from_dict(dict(BEV_HEAVY, scene=dict(BEV_HEAVY["scene"], seed=1), optimizer={"max_steps": 3}))
    cfg = small_harness_config(max_steps=3)
    return dataclasses.replace(cfg, scene=dataclasses.replace(cfg.scene, channels=int(which.split("-")[1])))


class TestPackedLayout:
    """The BEV side of the parameter vector holds only the live cells:
    each view's valid-pixel logit rows, then a (C, L) block."""

    @pytest.mark.parametrize("which", ["small-4", "small-5", "bev-heavy"])
    def test_vector_and_moments_hold_valid_rows_then_live_cells(self, monkeypatch, which):
        cfg = layout_config(which)
        scene = generate_scene(cfg.scene)
        problem, params = student_problem(cfg, scene, render_gt_views(scene))
        channels, live = cfg.scene.channels, problem.plan.live.size
        want = sum(p.rows.size for p in problem.packed) * cfg.bins.count + channels * live
        assert params.shape == (want,) and problem.size == want
        assert problem.cut == want - channels * live
        assert 0 < live < cfg.scene.grid.h_bev * cfg.scene.grid.w_bev
        assert problem.split(params)[1].shape == (channels, live)
        # train-toy's Adam moments are its zeros_like arrays
        sizes = []
        real = np.zeros_like

        def spy(a, *args, **kw):
            out = real(a, *args, **kw)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np, "zeros_like", spy)
        run_train_toy(cfg)
        monkeypatch.undo()
        assert sizes.count(want) == 2 and max(sizes) == want

    @pytest.mark.parametrize("identity", [False, True])
    @pytest.mark.parametrize("which", ["small-4", "small-5", "bev-heavy"])
    def test_student_blocks_are_live_columns_of_the_dense_maps(self, which, identity):
        """The random and identity students' BEV blocks are the live
        columns of the dense API's maps bit for bit, for an even and an
        odd channel count."""
        cfg = layout_config(which)
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        problem, params = student_problem(cfg, scene, views, identity=identity)
        inputs = identity_student_inputs if identity else random_student_inputs
        _, _, student = inputs(cfg, scene, views)
        columns = student.data.reshape(cfg.scene.channels, -1)[:, problem.plan.live]
        assert problem.split(params)[1].tobytes() == np.ascontiguousarray(columns).tobytes()

    @pytest.mark.parametrize("entry", ["random_student_inputs", "run_train_toy", "student_problem"])
    def test_starting_map_is_drawn_once(self, monkeypatch, entry):
        """The random student's full starting BEV map is one normal draw of
        the teacher map's shape, for the dense API and for train-toy; the
        dense student's map is that whole draw, scaled.  The scene problem
        alone draws only the live cells."""
        cfg = layout_config("small-4")
        scene = generate_scene(cfg.scene)
        shape = scene.teacher_bev.data.shape
        draws = []
        real = CounterRng.normal

        def counting(self, *args, **kw):
            out = real(self, *args, **kw)
            if out.shape == shape:
                draws.append(out)
            return out

        monkeypatch.setattr(CounterRng, "normal", counting)
        if entry == "run_train_toy":
            monkeypatch.setattr(harness, "generate_scene", lambda _: scene)
            run_train_toy(cfg)
            assert len(draws) == 1
        elif entry == "student_problem":
            student_problem(cfg, scene, render_gt_views(scene))
            assert not draws
        else:
            _, _, student = random_student_inputs(cfg, scene, render_gt_views(scene))
            assert len(draws) == 1
            assert student.data.tobytes() == (cfg.optimizer.init_bev_scale * draws[0]).tobytes()

    def test_dense_bev_gradient_is_zero_off_the_live_cells(self):
        cfg = layout_config("small-4")
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, eff_views, student = random_student_inputs(cfg, scene, views)
        grad = evaluate_scene_losses(cfg, scene, eff_views, maps, student).grad["bev_features"]
        live = student_problem(cfg, scene, views)[0].plan.live
        flat = grad.reshape(cfg.scene.channels, -1)
        off = np.delete(flat, live, axis=1)
        assert off.size and np.all(off == 0.0) and not np.signbit(off).any()
        assert np.all(np.any(flat[:, live] != 0.0, axis=0))


class TestRunGradcheck:
    def test_small_run_passes(self):
        cfg = dataclasses.replace(small_harness_config(), gradcheck=GradcheckConfig(instances=6))
        report = run_gradcheck(cfg)
        assert report.status == "passed"
        assert report.data["max_rel_error"] <= cfg.gradcheck.fail_threshold
        for name in (
            "absolute_depth",
            "inner_depth",
            "inter_channel",
            "inter_keypoint",
            "bev_distill",
        ):
            entry = report.data["losses"][name]
            assert entry["passed"]
            assert entry["instances"] == 6
            assert "excluded_tie_adjacent" in entry

    def test_weights_do_not_change_what_is_checked(self):
        """Gradcheck checks every family whatever the weights: its
        ``losses`` are byte-identical for unit weights, for each weight 0
        on its own and for all weights 0."""
        def losses(weights):
            cfg = dataclasses.replace(small_harness_config(), gradcheck=GradcheckConfig(instances=2), weights=weights)
            report = run_gradcheck(cfg)
            assert report.status == "passed"
            return json.dumps(report.data["losses"], sort_keys=True)

        want = losses(LossWeights())
        assert json.loads(want).keys() == set(harness._GRADCHECK_FAMILIES)
        zeros = [LossWeights(**{name: 0.0}) for name in ("w_a", "w_r", "w_ic", "w_ik")]
        for weights in zeros + [LossWeights(0.0, 0.0, 0.0, 0.0)]:
            assert losses(weights) == want, weights

    def test_overflowing_instances_fail_every_family(self, monkeypatch):
        """An instance whose finite differences overflow is counted, not
        checked, and a family with no checked instance fails."""
        def overflow(f, x0, h):
            raise NumericError("overflow")

        monkeypatch.setattr(harness, "finite_difference_gradient", overflow)
        cfg = dataclasses.replace(small_harness_config(), gradcheck=GradcheckConfig(instances=3))
        report = run_gradcheck(cfg)
        for entry in report.data["losses"].values():
            assert entry["overflow"] == 3 and entry["instances"] == 0
            assert entry["passed"] is False
        assert report.status == "failed"

    def test_tie_adjacent_instances_are_drawn_at_most_ten_per_wanted(self, monkeypatch):
        """With every instance tie-adjacent, each family draws 10 per wanted
        instance, checks none and fails."""
        instance = harness._Instance
        monkeypatch.setattr(harness, "_Instance", lambda **kw: instance(**dict(kw, tie_adjacent=True)))
        cfg = dataclasses.replace(small_harness_config(), gradcheck=GradcheckConfig(instances=2))
        report = run_gradcheck(cfg)
        for entry in report.data["losses"].values():
            assert entry["excluded_tie_adjacent"] == 20 and entry["instances"] == 0
            assert entry["overflow"] == 0 and entry["passed"] is False
        assert report.status == "failed"

    def test_one_wrong_family_fails_itself_and_the_run(self, monkeypatch, tmp_path):
        """A family whose analytic gradient is doubled fails on its own: the
        other families still pass, the run fails with that family's error
        as its overall maximum, and the ``gradcheck`` command exits 1."""
        build = harness._GRADCHECK_FAMILIES["inter_channel"]

        def doubled(cfg, sub):
            inst = build(cfg, sub)
            inst.analytic = 2.0 * inst.analytic
            return inst

        monkeypatch.setitem(harness._GRADCHECK_FAMILIES, "inter_channel", doubled)
        cfg = dataclasses.replace(small_harness_config(), gradcheck=GradcheckConfig(instances=2))
        report = run_gradcheck(cfg)
        losses = report.data["losses"]
        assert report.status == "failed"
        assert [name for name, entry in losses.items() if not entry["passed"]] == ["inter_channel"]
        worst = losses["inter_channel"]["max_rel_error"]
        assert report.data["max_rel_error"] == worst > cfg.gradcheck.fail_threshold
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli.main(["gradcheck", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("norm, scale, tie", [
        ("l2", 0.0, True), ("l2", 5e-4, True), ("l2", 2e-3, False), ("l2", 0.02, False), ("none", 0.0, False),
    ])
    def test_feature_instance_is_tie_adjacent_below_a_row_norm_of_1e3(self, side, norm, scale, tie):
        """Under l2 a Gram instance is tie-adjacent exactly when a student
        or teacher row's L2 norm, not its square, is below 1e-3."""
        class Stream:
            """n = c = 2, then the student's and the teacher's rows."""
            def __init__(self, rows):
                self.rows = rows

            def uniform(self, size):
                return np.zeros(size)

            def normal(self, shape):
                return self.rows.pop(0)

        rows = [np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([[-1.0, 0.5], [2.0, 1.0]])]
        rows[side][1] = [0.6 * scale, -0.8 * scale]
        cfg = dataclasses.replace(small_harness_config(), gram_normalization=norm)
        assert harness._feature_gram_instance(cfg, Stream(rows), "keypoint").tie_adjacent is tie


def _absolute_value(cfg, call, x0, x):
    """The mean BCE of one input's rows against the instance's bins."""
    (_, gt_bins, _), _, _ = call
    return bce_rows(softmax_rows(x), gt_bins) / gt_bins.size


def _inner_value(cfg, call, x0, x):
    """relative_residual of one input's one-target layout against the
    reference chosen at the instance's start point, as the analytic
    gradient freezes it."""
    (_, layout, centers, sel, reduction, _), _, _ = call
    p0 = softmax_rows(x0)
    ref = select_references(layout, expected_depths(p0, centers)[layout.index], p0, sel)
    return relative_residual(expected_depths(softmax_rows(x), centers)[layout.index], layout, ref, reduction)[0][0]


def _gram_value(cfg, call, x0, x):
    """One input as a one-target stack against the instance's teacher Gram."""
    (_, teacher, norm, reduction, _), _, _ = call
    return _gram_losses(x[None], teacher, norm, reduction)[0][0][0]


def _bev_value(cfg, call, x0, x):
    """ic + ik of one (C, L) block through the instance's plan."""
    _, _, plan = call
    ic, ik, _ = plan.terms(x, cfg.loss_reduction)
    return ic + ik


# per gradcheck family: the kernel its builder takes the analytic gradient
# from (for the BEV family the plan builder), and the value of one input
# given the config, that first call's (args, kwargs, result) and x0
_KERNEL_VALUES = {
    "absolute_depth": ("bce_rows", _absolute_value),
    "inner_depth": ("relative_depth_rows", _inner_value),
    "inter_channel": ("_gram_losses", _gram_value),
    "inter_keypoint": ("_gram_losses", _gram_value),
    "bev_distill": ("build_distill_plan", _bev_value),
}


class TestStackedFiniteDifferences:
    @pytest.mark.parametrize(
        "overrides",
        [{"gram_normalization": n, "loss_reduction": r} for n in GRAM_NORMALIZATIONS for r in LOSS_REDUCTIONS]
        + [{"reference_strategy": s} for s in REFERENCE_STRATEGIES]
        + [{"signed_reference_error": True}],
        ids=lambda overrides: "-".join(f"{key}={value}" for key, value in overrides.items()),
    )
    def test_stacked_values_equal_the_public_loss_per_input(self, monkeypatch, overrides):
        """Each value of an instance's finite-difference stack equals, with
        ==, its family's kernel on that one perturbed input alone, called
        as the builder called it for the analytic gradient."""
        cfg = config_from_dict(overrides)
        calls = {}
        for name in {name for name, _ in _KERNEL_VALUES.values()}:
            def record(*args, _real=getattr(harness, name), _name=name, **kw):
                result = _real(*args, **kw)
                calls.setdefault(_name, (args, kw, result))
                return result
            monkeypatch.setattr(harness, name, record)
        root = CounterRng(cfg.scene.seed)
        for family, build in harness._GRADCHECK_FAMILIES.items():
            name, value = _KERNEL_VALUES[family]
            for attempt in range(4):
                calls.clear()
                inst = build(cfg, root.substream(f"gradcheck-{family}-{attempt}"))
                call = calls[name]
                seen = []

                def f(xs):
                    seen.append((xs, inst.values(xs)))
                    return seen[-1][1]

                finite_difference_gradient(f, inst.x0, cfg.gradcheck.h)
                (xs, stacked), = seen
                assert stacked.tolist() == [value(cfg, call, inst.x0, x) for x in xs], (family, attempt)

    def test_each_instance_is_one_stacked_value_call(self, monkeypatch):
        """finite_difference_gradient calls its function once per checked
        instance of every family, on the (2m, *x0.shape) stack."""
        real = harness.finite_difference_gradient
        shapes = []

        def counting(f, x0, h):
            calls = []

            def counted(xs):
                calls.append(xs.shape)
                return f(xs)

            grad = real(counted, x0, h)
            shapes.append((x0.shape, calls))
            return grad

        monkeypatch.setattr(harness, "finite_difference_gradient", counting)
        cfg = dataclasses.replace(small_harness_config(), gradcheck=GradcheckConfig(instances=3))
        losses = run_gradcheck(cfg).data["losses"]
        assert all(entry["instances"] == 3 and entry["overflow"] == 0 for entry in losses.values())
        assert len(shapes) == 3 * len(losses) == 15
        for shape, calls in shapes:
            assert calls == [(2 * math.prod(shape),) + shape]


class TestRunTrainToy:
    def test_identity_init_is_stationary_immediately(self):
        """Starting at the optimum, the very first gradient is exactly
        zero and the loop stops without touching the state."""
        cfg = small_harness_config()
        report = run_train_toy(cfg, identity_init=True)
        assert report.status == "stationary"
        assert report.data["steps_run"] == 1
        assert report.data["final_total"] == report.data["initial_total"]
        series = report.data["loss_series"]
        assert series["inner_depth"] == [0.0]
        assert series["inter_channel"] == [0.0]
        assert series["inter_keypoint"] == [0.0]
        assert report.data["bev_feature_distance"]["frobenius"] == 0.0

    @staticmethod
    def assert_step_zero_matches_evaluation(cfg):
        """The trainer's step-0 series entries equal, bit for bit, every
        component of evaluate_scene_losses and of eval-losses' value-only
        call on the same freshly built student."""
        cfg = dataclasses.replace(cfg, optimizer=OptimizerConfig(max_steps=1))
        series = run_train_toy(cfg).data["loss_series"]
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, eff_views, student = random_student_inputs(cfg, scene, views)
        dense = evaluate_scene_losses(cfg, scene, eff_views, maps, student)
        problem, params = student_problem(cfg, scene, views)
        plain = problem.evaluate(params)
        for res in (dense, plain):
            assert series["total"] == [res.value]
            for key in TERMS:
                assert series[key] == [res.components[key]]

    def test_step_zero_matches_one_shot_evaluation(self):
        self.assert_step_zero_matches_evaluation(small_harness_config())
        self.assert_step_zero_matches_evaluation(default_config())

    @pytest.mark.parametrize("seed", [1, 3, 42])
    def test_step_zero_matches_evaluation_with_overlapping_targets(self, seed):
        """Twelve boxes on two cameras give overlapping targets in several
        views; step 0 still equals the one-shot evaluations in every
        component, since all of them sum per-view values in camera order.
        At seed 1 any other order differs in the last bit."""
        cfg = config_from_dict(dict(BEV_HEAVY, scene=dict(BEV_HEAVY["scene"], seed=seed)))
        self.assert_step_zero_matches_evaluation(cfg)

    def test_zero_teacher_report_is_strict_json(self, tmp_path):
        """A teacher map of exact zeros makes every distance relative to
        the teacher undefined; the report writes those as null, never as
        Infinity or NaN."""
        cfg = config_from_dict(
            {
                "scene": {
                    "num_boxes": 2,
                    "num_cameras": 2,
                    "teacher_amplitude": 0.0,
                    "teacher_noise": 0.0,
                },
                "optimizer": {"max_steps": 3},
            }
        )
        path = tmp_path / "train_report.json"
        write_report(str(path), run_train_toy(cfg))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        parsed = json.loads(path.read_text(), parse_constant=reject)
        assert parsed["bev_feature_distance"]["relative_to_teacher"] is None
        for entry in parsed["gram_distances"]:
            for key in ("inter_keypoint_rel", "inter_channel_rel", "raw_feature_rel"):
                assert entry[key] is None

    @pytest.mark.parametrize("reduction", LOSS_REDUCTIONS)
    @pytest.mark.parametrize("norm", GRAM_NORMALIZATIONS)
    def test_convergence_check_equals_gram_distance_summary(self, monkeypatch, norm, reduction):
        """After every evaluation of a short run, the BEV-only ones after
        the freeze included, the record of squared Gram distances that the
        step leaves equals a fresh pass over the evaluated block
        (``reference_gram_sq``) bit for bit, and the keypoint criterion
        read from it is the worst inter_keypoint_rel of the reference
        summary, also with zero BEV weights; the report's distances are
        the reference summary of the last block.  A total criterion of a
        5 % reduction freezes the depth block within the first steps."""
        pairs = []
        last = []
        bev_terms = SceneProblem.bev_terms

        def checked(problem, student, student_grad, gram_sq):
            values = bev_terms(problem, student, student_grad, gram_sq)
            worst = max(e["inter_keypoint_rel"] for e in reference_gram_summary(student, problem.plan))
            pairs.append((gram_sq.tobytes(), reference_gram_sq(student, problem.plan).tobytes()))
            pairs.append((harness._worst_keypoint_rel(gram_sq, problem.plan).hex(), worst.hex()))
            last[:] = [student.copy(), problem.plan]
            return values

        monkeypatch.setattr(SceneProblem, "bev_terms", checked)
        for weights in (LossWeights(), LossWeights(w_ic=0.0, w_ik=0.0)):
            pairs.clear()
            cfg = dataclasses.replace(
                small_harness_config(max_steps=6, target_reduction=0.05),
                gram_normalization=norm, loss_reduction=reduction, weights=weights,
            )
            report = run_train_toy(cfg)
            assert 2 * report.data["steps_run"] == len(pairs)
            assert report.data["gram_distances"] == reference_gram_summary(*last)
            if weights.w_ik:
                assert report.data["steps_run"] == 6 and report.data["depth_frozen_at"] <= 3
            else:
                # nothing is left to train once the depth block is frozen
                assert report.status == "stationary"
            for got, want in pairs:
                assert got == want

    def test_summary_reads_only_the_record_it_is_given(self):
        """A summary reads the record of squared Gram distances that it is
        passed and no other: evaluating other blocks of the same plan,
        alone or stacked, leaves a filled record as it was, and a record
        that no evaluation filled gives NaN Gram distances (null in a
        report), never left-over memory."""
        cfg = small_harness_config(max_steps=1)
        scene = generate_scene(cfg.scene)
        problem, params = student_problem(cfg, scene, render_gt_views(scene))
        _, student = problem.split(params)
        want = reference_gram_summary(student, problem.plan)
        record = np.full((2, len(scene.boxes)), np.nan)
        unset = harness._gram_distance_summary(student, problem.plan, record)
        for got, entry in zip(unset, want):
            for key, value in got.items():
                assert math.isnan(value) if key.startswith("inter_") else value == entry[key]
        problem.bev_terms(student, None, record)
        filled = record.tobytes()
        other = student + 1.0
        problem.bev_terms(other, np.empty_like(other))
        problem.plan.terms(np.stack([other, 2.0 * student]), cfg.loss_reduction)
        assert record.tobytes() == filled
        assert harness._gram_distance_summary(student, problem.plan, record) == want

    def test_distillation_weights_zero_leaves_bev_untouched(self, tmp_path):
        """With w_ic = w_ik = 0 the BEV terms are still evaluated: each
        BEV series is constant at eval-losses' value of the starting
        student, and the student map never moves from it."""
        cfg = dataclasses.replace(small_harness_config(max_steps=5), weights=LossWeights(w_ic=0.0, w_ik=0.0))
        report = run_train_toy(cfg)
        series = report.data["loss_series"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli.main(["eval-losses", "--config", str(path), "--out", str(tmp_path)]) == 0
        evaluated = json.loads((tmp_path / "eval_report.json").read_text())["losses"]
        for key in ("inter_channel", "inter_keypoint"):
            assert evaluated[key] > 0.0
            assert series[key] == [evaluated[key]] * report.data["steps_run"]
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        _, _, student = random_student_inputs(cfg, scene, views)
        want = math.sqrt(frobenius_sq_distance(student.data, scene.teacher_bev.data))
        assert report.data["bev_feature_distance"]["frobenius"] == want

    @pytest.mark.parametrize("norm", GRAM_NORMALIZATIONS)
    def test_gram_distances_equal_per_target_recomputation(self, norm):
        """Each target's Gram and raw-feature distances equal, bit for
        bit, a recomputation through the public Gram functions and
        frobenius_sq_distance.  Zero BEV weights keep the student map at
        its starting draw."""
        cfg = dataclasses.replace(
            small_harness_config(max_steps=3), weights=LossWeights(w_ic=0.0, w_ik=0.0), gram_normalization=norm
        )
        entries = run_train_toy(cfg).data["gram_distances"]
        scene = generate_scene(cfg.scene)
        _, _, student = random_student_inputs(cfg, scene, render_gt_views(scene))
        plan = build_distill_plan(scene.teacher_bev, scene.boxes, cfg.keypoint_g, cfg.enlarge, norm)
        fs = plan.sample(plan.pack(student.data))
        assert [e["target"] for e in entries] == list(range(len(scene.boxes)))
        for j, entry in enumerate(entries):
            ft = plan.teacher[j]
            pairs = [
                (name, gram(fs[j], norm), gram(ft, norm))
                for name, gram in (("inter_keypoint", inter_keypoint_gram), ("inter_channel", inter_channel_gram))
            ]
            for name, got, want in pairs + [("raw_feature", fs[j], ft)]:
                dist = math.sqrt(frobenius_sq_distance(got, want))
                want_norm = math.sqrt(frobenius_sq_distance(want, np.zeros_like(want)))
                assert entry[f"{name}_frob"] == dist
                assert entry[f"{name}_rel"] == dist / want_norm

    def test_max_steps_report_describes_the_evaluated_student(self):
        """A run stopped by max_steps applies no update after its last
        evaluation, so its distances describe the student whose total it
        reports: after one step, the starting student."""
        cfg = small_harness_config(max_steps=1)
        report = run_train_toy(cfg)
        assert report.status == "max_steps" and report.data["loss_reduction"] == 0.0
        assert report.data["total_met_step"] is None and report.data["depth_frozen_at"] is None
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        problem, params = student_problem(cfg, scene, views)
        _, student = problem.split(params)
        assert report.data["gram_distances"] == reference_gram_summary(student, problem.plan)
        _, _, start = random_student_inputs(cfg, scene, views)
        full = problem.plan.unpack(student, start.data)
        assert full.tobytes() == start.data.tobytes()
        want = math.sqrt(frobenius_sq_distance(full, scene.teacher_bev.data))
        assert report.data["bev_feature_distance"]["frobenius"] == want

    def test_loss_decreases_on_small_scene(self):
        cfg = small_harness_config(max_steps=60)
        report = run_train_toy(cfg)
        series = report.data["loss_series"]["total"]
        assert series[-1] < series[0]
        assert report.data["steps_run"] == len(series)
        assert len(report.data["valid_pixels_per_view"]) == cfg.scene.num_cameras

    def test_external_det_loss_rides_along(self):
        cfg = dataclasses.replace(small_harness_config(max_steps=1), external_det_loss=2.5)
        report = run_train_toy(cfg)
        cfg2 = small_harness_config(max_steps=1)
        base = run_train_toy(cfg2)
        diff = report.data["initial_total"] - base.data["initial_total"]
        assert diff == pytest.approx(2.5, abs=1e-12)


class TestUpdateRule:
    """The Adam kernel and the step schedule of the trainer."""

    @pytest.mark.parametrize("step", [0, 4])
    def test_adam_update_equals_the_scalar_oracle_bit_for_bit(self, step):
        """Across a block boundary, with zero gradients and zero moments
        among the entries, the blocked kernel gives the oracle's
        parameters and moments at tolerance 0.0."""
        opt = OptimizerConfig(beta1=0.8, beta2=0.99, eps=1e-3)
        n = harness.ADAM_BLOCK + 37
        sub = CounterRng(3).substream("adam")
        params, grad, m1 = sub.normal(n), sub.normal(n), sub.normal(n)
        m2 = sub.normal(n) ** 2
        grad[::5] = 0.0
        m1[::7] = m2[::7] = 0.0
        want = adam_scalar(params, grad, m1, m2, step, 0.03, opt.beta1, opt.beta2, opt.eps)
        harness.adam_update(params, grad, m1, m2, step, 0.03, opt, np.empty(harness.ADAM_BLOCK))
        assert [params.tolist(), m1.tolist(), m2.tolist()] == list(want)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(1, 40),
        step=st.integers(0, 3000),
        beta1=st.floats(0.0, 0.999),
        beta2=st.floats(0.0, 0.9999),
        eps=st.sampled_from([1e-8, 1e-3, 1.0]),
        lr=st.floats(1e-4, 1.0),
    )
    def test_efficient_form_equals_the_textbook_form(self, seed, n, step, beta1, beta2, eps, lr):
        """Kingma and Ba's efficient form, one step size and eps_hat with
        both bias corrections folded in, gives each entry of the textbook
        update lr * (m1 / (1 - beta1^t)) / (sqrt(m2 / (1 - beta2^t)) +
        eps) to 1e-12 relative (1e-300 absolute, for updates so small that
        they are subnormal), and its moments bit for bit."""
        opt = OptimizerConfig(beta1=beta1, beta2=beta2, eps=eps)
        sub = CounterRng(seed)
        grad, m1, m2 = sub.normal(n), sub.normal(n), sub.normal(n) ** 2
        grad[::3] = 0.0
        a = beta1 * m1 + (1.0 - beta1) * grad
        b = beta2 * m2 + ((1.0 - beta2) * grad) * grad
        bias1, bias2 = 1.0 - beta1 ** (step + 1), 1.0 - beta2 ** (step + 1)
        want = lr * (a / bias1) / (np.sqrt(b / bias2) + eps)
        # from zero parameters, the new parameters are the negated update exactly
        params = np.zeros(n)
        harness.adam_update(params, grad, m1, m2, step, lr, opt, np.empty(harness.ADAM_BLOCK))
        assert m1.tobytes() == a.tobytes() and m2.tobytes() == b.tobytes()
        np.testing.assert_allclose(-params, want, rtol=1e-12, atol=1e-300)

    def test_lr_at_decays_from_step_size_to_its_final_fraction(self):
        opt = OptimizerConfig(step_size=0.1, final_lr_fraction=0.05, max_steps=2000)
        assert harness.lr_at(opt, 0) == 0.1
        assert harness.lr_at(opt, 1999) == 0.1 * 0.05
        assert 0.1 * 0.05 < harness.lr_at(opt, 1000) < 0.1
        assert harness.lr_at(OptimizerConfig(step_size=0.1, max_steps=1), 0) == 0.1


class TestDepthFreeze:
    """The depth block is frozen at the first step whose total meets the
    total criterion, ``total_met_step``."""

    @staticmethod
    def traced_run(cfg, monkeypatch):
        """The report of ``cfg`` and the problem and parameter vector it
        trained, as they stand at the end of the run."""
        made = []

        def recorded(*args, **kw):
            made.append(student_problem(*args, **kw))
            return made[-1]

        monkeypatch.setattr(harness, "student_problem", recorded)
        report = run_train_toy(cfg)
        monkeypatch.undo()
        return report, made[0]

    @staticmethod
    def unfrozen_run(cfg):
        """The trainer's loop with no freeze, replayed from its parts: each
        step evaluates the whole objective, checks both criteria and
        updates the whole vector.  Returns the status, each term's series,
        the step that first met the total criterion, and the final Gram
        distances (``reference_gram_summary``) and BEV map distance."""
        opt = cfg.optimizer
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        problem, params = student_problem(cfg, scene, views)
        _, student = problem.split(params)
        grad, moment1, moment2 = np.empty_like(params), np.zeros_like(params), np.zeros_like(params)
        status, met, totals = "max_steps", None, []
        series = {key: [] for key in TERMS}
        for step in range(opt.max_steps):
            res = problem.evaluate(params, grad)
            totals.append(res.value)
            for key in TERMS:
                series[key].append(res.components[key])
            if res.value <= (1.0 - opt.target_reduction) * totals[0]:
                met = step if met is None else met
                worst = max(e["inter_keypoint_rel"] for e in reference_gram_summary(student, problem.plan))
                if worst <= opt.ik_rel_target:
                    status = "converged"
                    break
            if step + 1 < opt.max_steps:
                lr = harness.lr_at(opt, step)
                harness.adam_update(params, grad, moment1, moment2, step, lr, opt, np.empty(harness.ADAM_BLOCK))
        _, _, start = random_student_inputs(cfg, scene, views)
        full = problem.plan.unpack(student, start.data)
        map_dist = math.sqrt(frobenius_sq_distance(full, scene.teacher_bev.data))
        return status, series, met, reference_gram_summary(student, problem.plan), map_dist

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_steps": 300, "target_reduction": 0.7, "ik_rel_target": 0.1},
            {"max_steps": 60, "target_reduction": 0.5},
        ],
        ids=["converged", "max_steps"],
    )
    def test_freeze_leaves_the_bev_side_unchanged(self, monkeypatch, overrides):
        """Against the same run with no freeze: the same status, step
        count, Gram and BEV distances and BEV series; constant depth
        series from the freeze on; and a final total that is a fresh
        evaluation of the final parameters, bit for bit."""
        cfg = small_harness_config(**overrides)
        report, (problem, params) = self.traced_run(cfg, monkeypatch)
        status, series, met, gram_distances, map_dist = self.unfrozen_run(cfg)
        d = report.data
        frozen = d["depth_frozen_at"]
        assert frozen is not None and frozen == d["total_met_step"] == met < d["steps_run"] - 1
        assert (report.status, d["steps_run"]) == (status, len(series["inter_keypoint"]))
        assert report.status == ("converged" if overrides["max_steps"] == 300 else "max_steps")
        assert json.dumps(d["gram_distances"]) == json.dumps(gram_distances)
        assert d["bev_feature_distance"]["frobenius"] == map_dist
        for key in ("inter_channel", "inter_keypoint"):
            assert d["loss_series"][key] == series[key]
        for key in ("absolute_depth", "inner_depth"):
            held = d["loss_series"][key][frozen:]
            assert held == [held[0]] * len(held)
            assert d["loss_series"][key][:frozen + 1] == series[key][:frozen + 1]
            assert d["loss_series"][key][frozen + 1:] != series[key][frozen + 1:]
        scene = generate_scene(cfg.scene)
        fresh, _ = student_problem(cfg, scene, render_gt_views(scene))
        assert fresh.evaluate(params).value == d["final_total"] == d["loss_series"]["total"][-1]

    def test_depth_terms_run_until_the_freeze_only(self, monkeypatch):
        """A run that freezes evaluates the depth terms on each step up to
        and including the freezing one and on none after it."""
        calls = []
        depth_terms = SceneProblem.depth_terms

        def counted(*args):
            calls.append(None)
            return depth_terms(*args)

        monkeypatch.setattr(SceneProblem, "depth_terms", counted)
        report = run_train_toy(small_harness_config(max_steps=6, target_reduction=0.05))
        frozen = report.data["total_met_step"]
        assert frozen is not None and frozen + 1 < report.data["steps_run"] == 6
        assert len(calls) == frozen + 1

    def test_zero_bev_gradient_stops_a_frozen_run_stationary(self):
        """With zero BEV weights the BEV block's gradient is exactly zero,
        so the freeze leaves nothing to train: the run stops stationary at
        the freezing step, although the depth gradient is not zero."""
        cfg = dataclasses.replace(
            small_harness_config(max_steps=300, target_reduction=0.5), weights=LossWeights(w_ic=0.0, w_ik=0.0)
        )
        report = run_train_toy(cfg)
        assert report.status == "stationary"
        assert report.data["steps_run"] == report.data["depth_frozen_at"] + 1
