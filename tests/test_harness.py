"""Config plumbing, loss composition, run reports, gradcheck, and the toy
trainer."""

import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest

from geodistill import (
    GRAM_NORMALIZATIONS,
    BevFeatureMap,
    BevGrid,
    CategoricalDepthMap,
    ConfigError,
    ContractError,
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
from geodistill.depth_supervision import DepthBins
from geodistill import harness
from geodistill.harness import TERMS, SceneProblem, student_problem
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
    cfg = default_config()
    cfg.scene = SceneConfig(
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
    cfg.bins = DepthBins(16)
    cfg.keypoint_g = 3
    if optimizer_overrides:
        cfg.optimizer = OptimizerConfig(**optimizer_overrides)
    return cfg


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


class TestConfigDicts:
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
        plain = {f.name for f in dataclasses.fields(HarnessConfig)} - {"reference"}
        assert plain | {"reference_strategy", "signed_reference_error"} == set(d)

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
            with pytest.raises(ConfigError, match=r"scene\.seed must be in \[0, 2\*\*64\)"):
                config_from_dict({"scene": {"seed": seed}})

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


class TestTotalLoss:
    """The total loss as SceneProblem.evaluate composes it."""

    @staticmethod
    def problem(cfg):
        scene = generate_scene(cfg.scene)
        return student_problem(cfg, scene, render_gt_views(scene))

    def check_total(self, weights, det):
        """total == det + sum of w_i * component_i in term order, with
        and without a gradient."""
        cfg = small_harness_config()
        cfg.weights = weights
        cfg.external_det_loss = det
        problem, params = self.problem(cfg)
        for grad in (None, np.empty_like(params)):
            res = problem.evaluate(params, grad)
            c = res.components
            assert c["external_det"] == det and all(c[key] > 0.0 for key in TERMS)
            want = det
            for key, w in zip(TERMS, (weights.w_a, weights.w_r, weights.w_ic, weights.w_ik)):
                want += w * c[key]
            assert res.value == want

    def test_unit_weights_hand_value(self):
        self.check_total(LossWeights(), 5.0)

    def test_weights_scale_linearly(self):
        self.check_total(LossWeights(w_a=2.0, w_r=0.5, w_ic=3.0, w_ik=0.25), 1.5)

    def test_per_view_gradient_lists(self):
        """evaluate_scene_losses gives one dense (D, H, W) gradient per view:
        the problem's packed rows at the valid pixels, 0 elsewhere."""
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
        assert np.array_equal(res.grad["bev_features"], bev_grad)

    def test_mismatched_student_inputs_rejected(self):
        cfg = small_harness_config()
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        maps, _, student = random_student_inputs(cfg, scene, views)
        for bad_maps, bad_student in (
            (maps[:-1], student),
            ([CategoricalDepthMap(m.logits[:-1]) for m in maps], student),
            (maps, BevFeatureMap(data=student.data[:-1], grid=student.grid)),
        ):
            with pytest.raises(ContractError):
                evaluate_scene_losses(cfg, scene, views, bad_maps, bad_student)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(w_a=-0.1)

    def test_empty_only_when_all_terms_empty(self):
        """No valid pixel in any view and no box: every term is empty and
        the total is the external scalar; one box or one view with valid
        pixels makes the problem non-empty."""
        cfg = small_harness_config()
        cfg.external_det_loss = 5.0
        scene = generate_scene(cfg.scene)
        views = render_gt_views(scene)
        blind = [dataclasses.replace(v, valid=np.zeros_like(v.valid), targets=[]) for v in views]
        no_boxes = dataclasses.replace(scene, boxes=[])
        for scn, vws, empty in (
            (no_boxes, blind, True), (scene, blind, False), (no_boxes, [views[0]] + blind[1:], False)
        ):
            problem = SceneProblem.build(cfg, scn, vws)
            for grad in (None, np.zeros(problem.ends[-1])):
                res = problem.evaluate(np.zeros(problem.ends[-1]), grad)
                assert res.empty == empty
                if empty:
                    assert res.value == 5.0 and all(res.components[key] == 0.0 for key in TERMS)

    @pytest.mark.parametrize("seed", [5, 7])
    def test_value_only_call_equals_gradient_call(self, seed):
        """With every weight non-zero, eval-losses' call without a gradient
        and the trainer's call with one give the same bits."""
        cfg = small_harness_config()
        cfg.scene.seed = seed
        cfg.weights = LossWeights(w_a=0.5, w_r=2.0, w_ic=1.5, w_ik=3.0)
        problem, params = self.problem(cfg)
        grad = np.empty_like(params)
        plain, with_grad = problem.evaluate(params), problem.evaluate(params, grad)
        assert plain.grad is None and np.any(grad)
        assert (plain.value, plain.components, plain.empty) == (
            with_grad.value, with_grad.components, with_grad.empty
        )


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

    @pytest.mark.parametrize("which", ["default-42", "bev-heavy-1"])
    def test_random_logits_are_the_full_draw_at_valid_pixels(self, which):
        """Logits at valid pixels equal the entries of the full (D, H, W)
        draw bit for bit; every other logit is 0."""
        if which == "default-42":
            cfg = default_config()
        else:
            cfg = config_from_dict(BEV_HEAVY)
            cfg.scene.seed = 1
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


class TestRunGradcheck:
    def test_small_run_passes(self):
        cfg = small_harness_config()
        cfg.gradcheck.instances = 6
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

    def test_zero_weight_losses_are_skipped(self):
        cfg = small_harness_config()
        cfg.gradcheck.instances = 2
        cfg.weights = LossWeights(w_a=0.0, w_r=1.0, w_ic=0.0, w_ik=0.0)
        report = run_gradcheck(cfg)
        losses = report.data["losses"]
        assert losses["absolute_depth"] == {"skipped": True, "reason": "zero weight"}
        assert losses["inter_channel"]["skipped"] is True
        assert losses["inter_keypoint"]["skipped"] is True
        assert losses["bev_distill"]["skipped"] is True
        assert losses["inner_depth"]["passed"]
        assert report.status == "passed"

    @pytest.mark.parametrize("w_ic, w_ik", [(0.0, 1.0), (1.0, 0.0)])
    def test_one_zero_gram_weight_skips_only_its_family(self, w_ic, w_ik):
        """The combined BEV family is skipped only when both Gram weights
        are 0."""
        cfg = small_harness_config()
        cfg.gradcheck.instances = 2
        cfg.weights = LossWeights(w_a=1.0, w_r=1.0, w_ic=w_ic, w_ik=w_ik)
        losses = run_gradcheck(cfg).data["losses"]
        skipped = {name for name, entry in losses.items() if entry.get("skipped")}
        assert skipped == {"inter_channel" if w_ic == 0 else "inter_keypoint"}
        assert losses["bev_distill"]["instances"] == 2 and losses["bev_distill"]["passed"]

    def test_overflowing_instances_fail_every_family(self, monkeypatch):
        """An instance whose finite differences overflow is counted, not
        checked, and a family with no checked instance fails."""
        def overflow(f, x0, h):
            raise NumericError("overflow")

        monkeypatch.setattr(harness, "finite_difference_gradient", overflow)
        cfg = small_harness_config()
        cfg.gradcheck.instances = 3
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
        cfg = small_harness_config()
        cfg.gradcheck.instances = 2
        report = run_gradcheck(cfg)
        for entry in report.data["losses"].values():
            assert entry["excluded_tie_adjacent"] == 20 and entry["instances"] == 0
            assert entry["overflow"] == 0 and entry["passed"] is False
        assert report.status == "failed"


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
        cfg.optimizer = OptimizerConfig(max_steps=1)
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
        cfg = config_from_dict(BEV_HEAVY)
        cfg.scene.seed = seed
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

    def test_distillation_weights_zero_leaves_bev_untouched(self):
        """With w_ic = w_ik = 0 the BEV series stays exactly zero and the
        student map never moves from its initialization."""
        cfg = small_harness_config(max_steps=5)
        cfg.weights = LossWeights(w_a=1.0, w_r=1.0, w_ic=0.0, w_ik=0.0)
        report = run_train_toy(cfg)
        series = report.data["loss_series"]
        assert series["inter_channel"] == [0.0] * report.data["steps_run"]
        assert series["inter_keypoint"] == [0.0] * report.data["steps_run"]
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
        cfg = small_harness_config(max_steps=3)
        cfg.weights = LossWeights(w_a=1.0, w_r=1.0, w_ic=0.0, w_ik=0.0)
        cfg.gram_normalization = norm
        entries = run_train_toy(cfg).data["gram_distances"]
        scene = generate_scene(cfg.scene)
        _, _, student = random_student_inputs(cfg, scene, render_gt_views(scene))
        plan = build_distill_plan(scene.teacher_bev, scene.boxes, cfg.keypoint_g, cfg.enlarge, norm)
        fs = plan.sample(student.data)
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
        scene = generate_scene(cfg.scene)
        problem, params = student_problem(cfg, scene, render_gt_views(scene))
        _, student = problem.split(params)
        assert report.data["gram_distances"] == harness._gram_distance_summary(student, problem.plan)
        want = math.sqrt(frobenius_sq_distance(student, scene.teacher_bev.data))
        assert report.data["bev_feature_distance"]["frobenius"] == want

    def test_loss_decreases_on_small_scene(self):
        cfg = small_harness_config(max_steps=60)
        report = run_train_toy(cfg)
        series = report.data["loss_series"]["total"]
        assert series[-1] < series[0]
        assert report.data["steps_run"] == len(series)
        assert len(report.data["valid_pixels_per_view"]) == cfg.scene.num_cameras

    def test_external_det_loss_rides_along(self):
        cfg = small_harness_config(max_steps=1)
        cfg.external_det_loss = 2.5
        report = run_train_toy(cfg)
        cfg2 = small_harness_config(max_steps=1)
        base = run_train_toy(cfg2)
        diff = report.data["initial_total"] - base.data["initial_total"]
        assert diff == pytest.approx(2.5, abs=1e-12)
