"""Command-line interface: subcommands, artifacts, and exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import geodistill
from geodistill import generate_scene, read_scene, read_tsr, render_gt_views
from geodistill import cli
from geodistill.cli import main
from geodistill.harness import config_from_dict


SMALL = {
    "scene": {
        "seed": 5,
        "num_boxes": 2,
        "num_cameras": 2,
        "points_per_box": 80,
        "ground_points": 300,
        "channels": 4,
        "grid": [-24.0, 24.0, -24.0, 24.0, 24, 24],
        "image_width": 48,
        "image_height": 32,
        "focal": 40.0,
    },
    "bins": {"count": 16},
    "keypoint_g": 3,
    "gradcheck": {"instances": 4},
    "optimizer": {"max_steps": 5},
}


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def read_json(path):
    with open(path) as fobj:
        return json.load(fobj)


class TestUsageErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["gen-scene", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-scene" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["gen-scene", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_negative_seed(self, small_cfg, tmp_path, capsys):
        code = main(["gen-scene", "--config", small_cfg, "--seed", "-1", "--out", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_seed_flag_beyond_64_bits(self, small_cfg, tmp_path, capsys):
        """Like a config seed, ``--seed`` must be in [0, 2**64); a wider one
        would alias a 64-bit seed."""
        code = main(["gen-scene", "--config", small_cfg, "--seed", str(2**64), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "scene.seed" in err and err.count("\n") == 1

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory(self, small_cfg, tmp_path, capsys, sub):
        """An ``--out`` that is a file, or lies under one, exits 2 with one
        error line."""
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = os.path.join(str(blocker), sub) if sub else str(blocker)
        assert main(["eval-losses", "--config", small_cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, blocked",
        [("gen-scene", "scene.scn"), ("eval-losses", "eval_report.json")],
    )
    def test_output_file_that_cannot_be_written(
        self, small_cfg, tmp_path, capsys, command, blocked
    ):
        """An output file the command cannot write, here a directory in its
        place, exits 2 with one error line, not a traceback."""
        (tmp_path / "out" / blocked).mkdir(parents=True)
        assert main([command, "--config", small_cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and blocked in err and err.count("\n") == 1

    def test_readme_cli_block_lists_every_command(self):
        """The README's CLI synopsis names exactly the parser's commands,
        in its order."""
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
        listed = [line.split()[1] for line in block.splitlines()]
        assert listed == list(cli._COMMANDS)

    @pytest.mark.parametrize(
        "key, value",
        [("keypoint_g", 2.5), ("keypoint_g", True), ("keypoint_g", 1), ("enlarge", float("nan")),
         ("enlarge", float("inf")), ("enlarge", 0.5), ("enlarge", "1.25"),
         ("external_det_loss", float("nan")),
         ("optimizer", {"step_size": float("nan")}), ("optimizer", {"beta1": float("inf")}),
         ("optimizer", {"beta2": True}), ("optimizer", {"eps": float("-inf")}),
         ("optimizer", {"target_reduction": float("nan")}),
         ("optimizer", {"ik_rel_target": float("inf")}),
         ("optimizer", {"final_lr_fraction": float("nan")}),
         ("optimizer", {"init_logit_scale": float("inf")}),
         ("optimizer", {"init_bev_scale": float("nan")}),
         ("optimizer", {"divergence_factor": True}), ("optimizer", {"max_steps": True}),
         ("optimizer", {"max_steps": 2.5}),
         ("weights", {"w_a": float("nan")}), ("weights", {"w_r": float("inf")}),
         ("weights", {"w_ic": True}), ("weights", {"w_ik": float("-inf")}),
         ("gradcheck", {"h": float("inf")}), ("gradcheck", {"h": float("nan")}),
         ("gradcheck", {"fail_threshold": float("nan")}), ("gradcheck", {"instances": True}),
         ("scene", {"num_cameras": True}), ("bins", {"count": True})],
    )
    def test_bad_lattice_config_is_config_error(self, tmp_path, capsys, key, value):
        """A lattice extent that is not an integer >= 2, an enlargement
        that is not a finite number >= 1, and a NaN, infinite or boolean
        optimizer, weight, gradcheck, scene or bins number exit 2 with a
        one-line error that names the field."""
        name = key
        if isinstance(value, dict):
            name = f"{key}.{next(iter(value))}"
            value = dict(SMALL.get(key, {}), **value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL, **{key: value})))
        code = main(["eval-losses", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value, fragment",
        [("scene", {"length_range": [3.8]}, "scene.length_range"),
         ("scene", {"width_range": "1.6"}, "scene.width_range"),
         ("scene", {"height_range": [1.4, float("nan")]}, "scene.height_range"),
         ("scene", {"length_range": [5.5, 3.8]}, "scene: size ranges"),
         ("scene", {"num_cameras": 0}, "scene: need at least one camera"),
         ("scene", {"channels": 0}, "scene: need at least two feature channels"),
         ("scene", {"grid": [-24.0, 24.0, -24.0, 24.0, "24", 24]}, "scene.grid"),
         ("scene", {"grid": [-24.0, 24.0, -24.0, 24.0, 24.7, 24]}, "scene.grid"),
         ("scene", {"grid": [-24.0, 24.0, -24.0, 24.0, 24]}, "scene.grid"),
         ("scene", {"grid": [24.0, -24.0, -24.0, 24.0, 24, 24]}, "scene.grid: grid extents"),
         ("bins", {"count": 1}, "bins: need at least 2 depth bins"),
         ("bins", {"d_min": float("nan")}, "bins.d_min"),
         ("bins", {"d_max": "60"}, "bins.d_max"),
         ("bins", {"d_min": 5.0, "d_max": 2.0}, "bins: require 0 < d_min < d_max"),
         ("signed_reference_error", "no", "signed_reference_error"),
         ("signed_reference_error", 1, "signed_reference_error"),
         ("scene", {"focal": "70"}, "scene.focal"),
         ("scene", {"focal": float("nan")}, "scene.focal"),
         ("scene", {"teacher_amplitude": float("nan")}, "scene.teacher_amplitude"),
         ("scene", {"z_near": True}, "scene.z_near"),
         ("scene", {"seed": -1}, "scene.seed must be in [0, 2**64)"),
         ("scene", {"channels": 1}, "scene: need at least two feature channels"),
         ("scene", {"focal": -1.0}, "scene: focal must be positive"),
         ("scene", {"image_width": 0}, "scene: image extents must be >= 1"),
         ("scene", {"image_height": 0}, "scene: image extents must be >= 1"),
         ("scene", {"z_near": 0.0}, "scene: z_near must be positive")],
    )
    def test_bad_scene_or_bins_config_is_config_error(self, tmp_path, capsys, key, value, fragment):
        """Scene and bins fields of the wrong type or length, non-finite,
        out of range, or a non-boolean signed_reference_error exit 2 with
        one error line, not a traceback or exit 1."""
        if isinstance(value, dict):
            value = dict(SMALL.get(key, {}), **value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL, **{key: value})))
        code = main(["eval-losses", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err and err.count("\n") == 1

    def test_bins_without_count_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL, bins={"mode": "uniform"})))
        code = main(["eval-losses", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: bins.count must be an integer, got None\n"

    def test_non_finite_value_in_a_loss_is_one_line_error(self, small_cfg, tmp_path, capsys, monkeypatch):
        """A NaN that enters after the config is read, here in the teacher
        map the identity student copies, raises a NumericError in the
        loss; it exits 1 with one line, like a contract error."""
        def nan_teacher(scene_cfg):
            scene = generate_scene(scene_cfg)
            scene.teacher_bev.data[0, 0, 0] = np.nan
            return scene

        monkeypatch.setattr("geodistill.cli.generate_scene", nan_teacher)
        argv = ["eval-losses", "--config", small_cfg, "--student", "identity"]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1

    def test_module_entry_point_exits_2_without_traceback(self, tmp_path):
        """``python -m geodistill`` runs the CLI; keypoint_g 2.5 is a
        config error, not a traceback."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL, keypoint_g=2.5)))
        src = os.path.dirname(os.path.dirname(geodistill.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "geodistill", "eval-losses", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "keypoint_g" in proc.stderr

    def test_console_script_installed(self):
        proc = subprocess.run(
            ["geodistill", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "gen-scene" in proc.stdout


class TestGenScene:
    def test_writes_scene_and_teacher(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-scene", "--config", small_cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        scene = read_scene(str(out / "scene.scn"))
        want = generate_scene(config_from_dict(SMALL).scene)
        assert np.array_equal(scene.points, want.points)
        teacher = read_tsr(str(out / "teacher_bev.tsr"))
        assert np.array_equal(teacher, want.teacher_bev.data)

    def test_seed_override_changes_output(self, small_cfg, tmp_path, capsys):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out, seed in ((a, None), (b, "7"), (c, None)):
            argv = ["gen-scene", "--config", small_cfg, "--out", str(out)]
            if seed:
                argv += ["--seed", seed]
            assert main(argv) == 0
        capsys.readouterr()
        base = (a / "scene.scn").read_bytes()
        assert base == (c / "scene.scn").read_bytes()
        assert base != (b / "scene.scn").read_bytes()


class TestRenderDepth:
    def test_writes_per_camera_maps(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["render-depth", "--config", small_cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        cfg = config_from_dict(SMALL)
        views = render_gt_views(generate_scene(cfg.scene))
        for view in views:
            depth = read_tsr(str(out / f"depth_cam{view.cam_index}.tsr"))
            valid = read_tsr(str(out / f"valid_cam{view.cam_index}.tsr"))
            assert np.array_equal(depth, view.depth)
            assert np.array_equal(valid.astype(bool), view.valid)


class TestEvalLosses:
    def test_identity_student_zeroes_distillation_terms(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["eval-losses", "--config", small_cfg, "--student", "identity", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        report = read_json(out / "eval_report.json")
        assert report["kind"] == "eval-losses"
        assert report["student"] == "identity"
        assert report["losses"]["inner_depth"] == 0.0
        assert report["losses"]["inter_channel"] == 0.0
        assert report["losses"]["inter_keypoint"] == 0.0
        assert 0.0 < report["losses"]["absolute_depth"] < 1e-3

    def test_random_student_report(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["eval-losses", "--config", small_cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        report = read_json(out / "eval_report.json")
        assert report["total"] > 0.0
        assert report["format_version"] == 1
        assert report["config"]["scene"]["seed"] == 5
        assert "total:" in text


class TestGradcheckCommand:
    def test_passes_and_reports(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", small_cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        report = read_json(out / "gradcheck_report.json")
        assert report["status"] == "passed"
        assert report["max_rel_error"] <= report["fail_threshold"]


class TestTrainToyCommand:
    def test_identity_init_counts_as_success(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train-toy", "--config", small_cfg, "--identity-init", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        report = read_json(out / "train_report.json")
        assert report["status"] == "stationary"
        assert report["steps_run"] == 1

    def test_unconverged_run_fails(self, small_cfg, tmp_path, capsys):
        """max_steps far too small: the run ends unconverged with exit 1."""
        out = tmp_path / "out"
        code = main(["train-toy", "--config", small_cfg, "--out", str(out)])
        assert code == 1
        capsys.readouterr()
        report = read_json(out / "train_report.json")
        assert report["status"] == "max_steps"

    def test_diverging_run_warns_about_nothing(self, tmp_path, capsys):
        """A step size far too large diverges: exit 1 with status
        "diverged", and numpy warns about none of the overflow on the way."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL, optimizer={"max_steps": 5, "step_size": 1e300})))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train-toy", "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        assert code == 1
        assert read_json(out / "train_report.json")["status"] == "diverged"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestOracleCommand:
    def test_oracle_suite_passes(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["oracle", "--config", small_cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        fixtures = read_json(out / "oracle_fixtures.json")
        assert fixtures["passed"] is True
        assert set(fixtures["families"]) >= {
            "matmul",
            "gram",
            "projection",
            "points_in_box",
            "bilinear",
            "bin_assignment",
        }

    def test_fixtures_are_strict_json(self, small_cfg, tmp_path, capsys, monkeypatch):
        """A non-finite fixture value is written as null, never as NaN."""
        import geodistill.cli as cli

        def suite(seed):
            return {"matmul": {"max_abs_diff": float("nan"), "tolerance": 0.0}}, False

        monkeypatch.setattr(cli, "run_oracle_suite", suite)
        out = tmp_path / "out"
        assert main(["oracle", "--config", small_cfg, "--out", str(out)]) == 1
        capsys.readouterr()

        def reject(token):
            raise ValueError(token)

        text = (out / "oracle_fixtures.json").read_text()
        fixtures = json.loads(text, parse_constant=reject)
        assert fixtures["families"]["matmul"]["max_abs_diff"] is None
