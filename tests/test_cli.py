"""Command-line interface: subcommands, artifacts, and exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodistill
from geodistill import GRAM_NORMALIZATIONS, generate_scene, read_scene, read_tsr, render_gt_views
from geodistill import cli
from geodistill.cli import main
from geodistill.depth_supervision import REFERENCE_STRATEGIES
from geodistill.numerics import LOSS_REDUCTIONS
from geodistill.harness import config_from_dict, config_to_dict


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
         ("external_det_loss", float("nan")), ("external_det_loss", -1.0),
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
         ("scene", {"num_cameras": True}), ("bins", {"count": True}),
         ("optimizer", {"divergence_factor": 0.5}), ("optimizer", {"step_size": 10**400})],
    )
    def test_bad_lattice_config_is_config_error(self, tmp_path, capsys, key, value):
        """A lattice extent that is not an integer >= 2, an enlargement
        that is not a finite number >= 1, a NaN, infinite or boolean
        optimizer, weight, gradcheck, scene or bins number, a float field
        given an integer too large for a float, a negative
        detection loss and a divergence factor below 1 exit 2 with a
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
        "command, key, value, code",
        [("eval-losses", "optimizer", {"init_bev_scale": 1e80}, 1),
         ("eval-losses", "optimizer", {"init_bev_scale": 1e300}, 1),
         ("eval-losses", "scene", {"teacher_amplitude": 1e200}, 1),
         ("eval-losses", "bins", {"d_max": 1e308}, 1),
         ("eval-losses", "scene", {"focal": 1e308}, 0),
         ("train-toy", "scene", {"teacher_amplitude": 1e200}, 1),
         ("gradcheck", "gradcheck", {"h": 1e300}, 1)],
        ids=["bev-1e80", "bev-1e300", "teacher-1e200", "d_max-1e308", "focal-1e308", "train-toy", "gradcheck-h"],
    )
    def test_overflow_exits_with_at_most_one_error_line(self, tmp_path, capsys, command, key, value, code):
        """A config whose numbers overflow on the way to a loss leaks no
        numpy warning: a non-finite eval-losses total exits 1 with one
        error line, a diverged or failed check exits 1, and a total that
        stays finite exits 0."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL, **{key: dict(SMALL.get(key, {}), **value)})))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") <= 1 and "Warning" not in err
        if command == "eval-losses":
            assert err.startswith("error: the total loss is not finite") if code else not err

    @pytest.mark.parametrize("command", ["eval-losses", "train-toy", "gradcheck"])
    def test_infinite_keypoint_footprint_is_one_line_error(self, tmp_path, capsys, command):
        """An enlargement that takes a box footprint to infinity exits 1
        with one error line, where NaN lattice points would end in an
        IndexError traceback."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"enlarge": 1e308}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: box center, size and yaw must be finite\n"

    @pytest.mark.parametrize(
        "key, value, fragment",
        [("scene", {"length_range": [3.8]}, "scene.length_range"),
         ("scene", {"width_range": "1.6"}, "scene.width_range"),
         ("scene", {"height_range": [1.4, float("nan")]}, "scene.height_range"),
         ("scene", {"length_range": [5.5, 3.8]}, "scene.length_range must be [lo, hi] with 0 < lo <= hi"),
         ("scene", {"num_cameras": 0}, "scene.num_cameras must be an integer >= 1, got 0"),
         ("scene", {"channels": 0}, "scene.channels must be an integer >= 2, got 0"),
         ("scene", {"grid": [-24.0, 24.0, -24.0, 24.0, "24", 24]}, "scene.grid"),
         ("scene", {"grid": [-24.0, 24.0, -24.0, 24.0, 24.7, 24]}, "scene.grid"),
         ("scene", {"grid": [-24.0, 24.0, -24.0, 24.0, 24]}, "scene.grid"),
         ("scene", {"grid": [24.0, -24.0, -24.0, 24.0, 24, 24]}, "scene.grid.x_max must be > x_min (24.0), got -24.0"),
         ("bins", {"count": 1}, "bins.count must be an integer >= 2, got 1"),
         ("bins", {"d_min": float("nan")}, "bins.d_min"),
         ("bins", {"d_max": "60"}, "bins.d_max"),
         ("bins", {"d_min": 5.0, "d_max": 2.0}, "bins.d_max must be > d_min (5.0), got 2.0"),
         ("signed_reference_error", "no", "signed_reference_error"),
         ("signed_reference_error", 1, "signed_reference_error"),
         ("scene", {"focal": "70"}, "scene.focal"),
         ("scene", {"focal": float("nan")}, "scene.focal"),
         ("scene", {"teacher_amplitude": float("nan")}, "scene.teacher_amplitude"),
         ("scene", {"z_near": True}, "scene.z_near"),
         ("scene", {"seed": -1}, "scene.seed must be an integer in [0, 2**64), got -1"),
         ("scene", {"channels": 1}, "scene.channels must be an integer >= 2, got 1"),
         ("scene", {"focal": -1.0}, "scene.focal must be a finite number > 0, got -1.0"),
         ("scene", {"image_width": 0}, "scene.image_width must be an integer >= 1, got 0"),
         ("scene", {"image_height": 0}, "scene.image_height must be an integer >= 1, got 0"),
         ("scene", {"z_near": 0.0}, "scene.z_near must be a finite number > 0, got 0.0"),
         ("scene", {"enlarge": 0.0}, "scene.enlarge must be a finite number > 0, got 0.0"),
         ("scene", {"enlarge": -1.25}, "scene.enlarge must be a finite number > 0, got -1.25"),
         ("scene", {"max_place_attempts": 0}, "scene.max_place_attempts must be an integer >= 1, got 0"),
         ("scene", {"teacher_noise": -1.0}, "scene.teacher_noise must be a finite number >= 0, got -1.0"),
         ("scene", {"place_clearance": -5.0}, "scene.place_clearance must be a finite number >= 0, got -5.0"),
         ("scene", {"ground_radius": 0.0}, "scene.ground_radius must be a finite number > 0, got 0.0"),
         ("scene", {"ground_radius": -3.0}, "scene.ground_radius must be a finite number > 0, got -3.0"),
         ("scene", {"place_radius_max": 5.0}, "scene.place_radius_max must be >= place_radius_min (8.0), got 5.0")],
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
        assert err == "error: bins.count must be an integer >= 2, got None\n"

    @pytest.mark.parametrize(
        "text, fragment",
        [('{"keypoint_g": ' + "[" * 400 + "]" * 400 + "}", "keypoint_g must be an integer >= 2, got [[...]]"),
         ('{"scene": "' + "s" * 5000 + '"}', "scene must be a JSON object, got 'sss"),
         ('{"' + "k" * 3000 + '": 1}', "unknown keys in config: ['kkk"),
         ('{"scene": {"seed": -1}}', "scene.seed must be an integer in [0, 2**64), got -1\n"),
         ('{"keypoint_g": 2.5}', "keypoint_g must be an integer >= 2, got 2.5\n"),
         ('{"loss_reduction": "max"}', "loss_reduction must be one of 'mean', 'sum', got 'max'\n"),
         ('{"scene": {"length_range": [5.5, 3.8]}}', "got [5.5, 3.8]\n")],
        ids=["nested-400", "long-section", "long-key", "seed", "float", "string", "list"],
    )
    def test_quoted_value_is_bounded(self, tmp_path, capsys, text, fragment):
        """A config error quotes the bad value in one line of at most 200
        characters: a deep nesting, a long string or a long unknown key is
        cut short, and an ordinary value is quoted whole."""
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["eval-losses", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201 and fragment in err

    @pytest.mark.parametrize(
        "content",
        [b'{"keypoint_g": 6, "loss_reduction": "\xe9"}', b"[" * 100_000 + b"]" * 100_000,
         b'{"keypoint_g": ' + b"9" * 5000 + b"}"],
        ids=["not-utf8", "nested-100000", "5000-digits"],
    )
    def test_undecodable_config_file_is_config_error(self, tmp_path, capsys, content):
        """A config file that is not UTF-8, nests arrays deeper than the
        parser goes, or holds an integer too long to convert exits 2 with
        the one-line invalid-JSON error, not a traceback."""
        path = tmp_path / "config.json"
        path.write_bytes(content)
        code = main(["eval-losses", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {str(path)!r} is not valid JSON: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command", [
        ["eval-losses", "--student", "random"], ["train-toy"], ["train-toy", "--identity-init"],
    ])
    def test_non_finite_teacher_fails_every_student(self, small_cfg, tmp_path, capsys, monkeypatch, command):
        """A NaN anywhere in the teacher map stops eval-losses and
        train-toy with one line, whatever cells the student is trained
        on."""
        def nan_teacher(scene_cfg):
            scene = generate_scene(scene_cfg)
            scene.teacher_bev.data[-1, -1, -1] = np.nan
            return scene

        # eval-losses makes its scene in the CLI, train-toy in the harness
        monkeypatch.setattr("geodistill.cli.generate_scene", nan_teacher)
        monkeypatch.setattr("geodistill.harness.generate_scene", nan_teacher)
        code = main(command + ["--config", small_cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: teacher BEV features contains non-finite values\n"

    def test_out_of_memory_is_one_line_error(self, small_cfg, tmp_path, capsys, monkeypatch):
        """A MemoryError, such as an allocation for a huge lattice, exits
        1 with one line instead of a traceback."""
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 233. TiB")

        monkeypatch.setattr("geodistill.cli.student_problem", no_memory)
        code = main(["eval-losses", "--config", small_cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 233. TiB\n"

    @pytest.mark.parametrize("key, value", [
        ("keypoint_g", 10**30), ("bins", {"count": 10**30}), ("scene", {"image_width": 2**62}),
    ])
    def test_array_past_numpy_size_limit_is_out_of_memory(self, tmp_path, capsys, key, value):
        """An integer size that numpy refuses before allocating, with its
        own ValueError, exits 1 with the one out-of-memory line."""
        if isinstance(value, dict):
            value = dict(SMALL.get(key, {}), **value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL, **{key: value})))
        code = main(["eval-losses", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_other_value_error_still_surfaces(self, small_cfg, tmp_path, monkeypatch):
        def bad_value(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("geodistill.cli.student_problem", bad_value)
        with pytest.raises(ValueError, match="broadcast"):
            main(["eval-losses", "--config", small_cfg, "--out", str(tmp_path / "out")])

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
        """A passing suite reports status "passed" beside ``passed`` and
        echoes the config that ran, the seed override included."""
        out = tmp_path / "out"
        assert main(["oracle", "--config", small_cfg, "--seed", "7", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        fixtures = read_json(out / "oracle_fixtures.json")
        assert fixtures["passed"] is True and fixtures["status"] == "passed"
        assert fixtures["kind"] == "oracle"
        assert fixtures["config"] == config_to_dict(config_from_dict(dict(SMALL, scene=dict(SMALL["scene"], seed=7))))
        assert set(fixtures["families"]) >= {
            "matmul",
            "gram",
            "projection",
            "points_in_box",
            "bilinear",
            "bin_assignment",
        }

    def test_fixtures_are_strict_json(self, small_cfg, tmp_path, capsys, monkeypatch):
        """A non-finite fixture value is written as null, never as NaN;
        a failing suite reports status "failed" beside ``passed``."""
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
        assert fixtures["passed"] is False and fixtures["status"] == "failed"


@st.composite
def tiny_configs(draw):
    """Valid configs of one camera with a 1x1 image, 0 to 3 boxes, g = 2,
    2 bins and 1 to 3 steps."""
    return {
        "scene": {
            "seed": draw(st.integers(0, 2**64 - 1)),
            "num_boxes": draw(st.integers(0, 3)),
            "num_cameras": 1,
            "image_width": 1,
            "image_height": 1,
            "points_per_box": draw(st.integers(0, 40)),
            "ground_points": draw(st.integers(0, 60)),
            "channels": draw(st.integers(2, 4)),
        },
        "bins": {"count": 2},
        "keypoint_g": 2,
        "reference_strategy": draw(st.sampled_from(REFERENCE_STRATEGIES)),
        "loss_reduction": draw(st.sampled_from(LOSS_REDUCTIONS)),
        "gram_normalization": draw(st.sampled_from(GRAM_NORMALIZATIONS)),
        "gradcheck": {"instances": 1},
        "optimizer": {"max_steps": draw(st.integers(1, 3))},
    }


# each command, and the JSON report it writes
COMMAND_REPORTS = {
    "gen-scene": None,
    "render-depth": None,
    "eval-losses": "eval_report.json",
    "gradcheck": "gradcheck_report.json",
    "train-toy": "train_report.json",
    "oracle": "oracle_fixtures.json",
}


class TestTinyConfigs:
    def test_every_command_is_covered(self):
        assert set(COMMAND_REPORTS) == set(cli._COMMANDS)

    @settings(max_examples=5, deadline=None)
    @given(cfg=tiny_configs())
    def test_every_command_exits_0_or_1_with_strict_reports(self, cfg):
        """In process, every command on a tiny valid config exits 0 or 1,
        writes its report as strict JSON (always when it exits 0) with the
        fields every report holds, prints at most one line to stderr, an
        ``error:`` line, and warns nothing."""

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fobj:
                json.dump(cfg, fobj)
            for command, report in COMMAND_REPORTS.items():
                out = os.path.join(tmp, command)
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    code = main([command, "--config", path, "--out", out])
                lines = err.getvalue().splitlines()
                assert code in (0, 1), (command, lines)
                assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines), lines
                assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], command
                if report is not None and (code == 0 or os.path.exists(os.path.join(out, report))):
                    with open(os.path.join(out, report)) as fobj:
                        parsed = json.loads(fobj.read(), parse_constant=reject)
                    assert {"format_version", "kind", "status", "config", "wall_clock_s"} <= set(parsed), command
                    assert (parsed["kind"], parsed["config"]) == (command, config_to_dict(config_from_dict(cfg)))
