"""Command-line entry point.

Subcommands cover the whole pipeline: scene generation, depth
rendering, one-shot loss evaluation, finite-difference gradient
checking, the toy training loop, and the brute-force oracle suite.

Exit codes: 0 on success, 1 when a check fails (gradcheck over
threshold, training not converged, oracle mismatch) or memory runs
out, 2 on bad configuration or usage, or an output it cannot write.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import time
from typing import List, Optional

import numpy as np

from .errors import ConfigError, ContractError, FormatError, GenerationError, NumericError
from .harness import (
    RunReport,
    config_to_dict,
    load_config,
    run_gradcheck,
    run_train_toy,
    student_problem,
    write_report,
)
from .numerics import write_tsr
from .oracles import run_oracle_suite
from .scenegen import generate_scene, render_gt_views, write_scene


def _cmd_gen_scene(args, cfg) -> int:
    scene = generate_scene(cfg.scene)
    scene_path = os.path.join(args.out, "scene.scn")
    teacher_path = os.path.join(args.out, "teacher_bev.tsr")
    write_scene(scene_path, scene)
    write_tsr(teacher_path, scene.teacher_bev.data)
    print(
        f"scene: {len(scene.boxes)} boxes, {len(scene.points)} points, "
        f"{len(scene.cameras)} cameras -> {scene_path}"
    )
    print(f"teacher BEV {scene.teacher_bev.data.shape} -> {teacher_path}")
    return 0


def _cmd_render_depth(args, cfg) -> int:
    scene = generate_scene(cfg.scene)
    views = render_gt_views(scene)
    for view in views:
        depth_path = os.path.join(args.out, f"depth_cam{view.cam_index}.tsr")
        valid_path = os.path.join(args.out, f"valid_cam{view.cam_index}.tsr")
        write_tsr(depth_path, view.depth)
        write_tsr(valid_path, view.valid.astype(float))
        usable = sum(1 for t in view.targets if not t.skipped)
        print(
            f"cam{view.cam_index}: {int(view.valid.sum())} valid pixels, "
            f"{usable}/{len(view.targets)} usable targets -> {depth_path}"
        )
    return 0


def _cmd_eval_losses(args, cfg) -> int:
    t0 = time.perf_counter()
    scene = generate_scene(cfg.scene)
    views = render_gt_views(scene)
    problem, params = student_problem(cfg, scene, views, identity=args.student == "identity")
    result = problem.evaluate(params)
    if not math.isfinite(result.value):
        raise NumericError(f"the total loss is not finite ({result.value})")
    report = RunReport(
        kind="eval-losses",
        config=config_to_dict(cfg),
        status="ok",
        wall_clock_s=time.perf_counter() - t0,
        data={
            "student": args.student,
            "losses": result.components,
            "total": result.value,
            "empty": result.empty,
        },
    )
    path = os.path.join(args.out, "eval_report.json")
    write_report(path, report)
    for name in sorted(result.components):
        print(f"{name}: {result.components[name]:.17g}")
    print(f"total: {result.value:.17g}")
    print(f"report -> {path}")
    return 0


def _cmd_gradcheck(args, cfg) -> int:
    report = run_gradcheck(cfg)
    path = os.path.join(args.out, "gradcheck_report.json")
    write_report(path, report)
    for name, entry in report.data["losses"].items():
        print(
            f"{name}: {entry['instances']} instances, "
            f"max rel error {entry['max_rel_error']:.3e}, "
            f"{'PASS' if entry['passed'] else 'FAIL'}"
        )
    print(f"gradcheck {report.status}; report -> {path}")
    return 0 if report.status == "passed" else 1


def _cmd_train_toy(args, cfg) -> int:
    report = run_train_toy(cfg, identity_init=args.identity_init)
    path = os.path.join(args.out, "train_report.json")
    write_report(path, report)
    d = report.data
    print(
        f"status {report.status}: {d['steps_run']} steps, "
        f"total {d['initial_total']:.6g} -> {d['final_total']:.6g} "
        f"(reduction {d['loss_reduction']:.4%})"
    )
    for entry in d["gram_distances"]:
        print(
            f"target {entry['target']}: inter-keypoint rel {entry['inter_keypoint_rel']:.3e}, "
            f"inter-channel rel {entry['inter_channel_rel']:.3e}, "
            f"raw feature rel {entry['raw_feature_rel']:.3e}"
        )
    print(f"report -> {path}")
    success = report.status == "converged" or (args.identity_init and report.status == "stationary")
    return 0 if success else 1


def _cmd_oracle(args, cfg) -> int:
    t0 = time.perf_counter()
    fixtures, ok = run_oracle_suite(seed=cfg.scene.seed)
    path = os.path.join(args.out, "oracle_fixtures.json")
    write_report(path, RunReport(
        kind="oracle", config=config_to_dict(cfg), status="passed" if ok else "failed",
        wall_clock_s=time.perf_counter() - t0, data={"passed": ok, "families": fixtures},
    ))
    for name, entry in sorted(fixtures.items()):
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(entry.items()) if not isinstance(v, (list, dict))
        )
        print(f"{name}: {detail}")
    print(f"oracle {'PASS' if ok else 'FAIL'}; fixtures -> {path}")
    return 0 if ok else 1


# how numpy words a ValueError for an array larger than it can address
_NUMPY_SIZE_LIMITS = ("Maximum allowed size exceeded", "array is too big")

_COMMON_OPTIONS = (
    ("--config", {"default": "default", "help": 'config JSON path, or "default" for built-in defaults'}),
    ("--seed", {"type": int, "default": None, "help": "override the scene seed"}),
    ("--out", {"default": "out", "help": "output directory (created if missing)"}),
)

# name -> (help, handler, options beyond the common ones)
_COMMANDS = {
    "gen-scene": ("generate a synthetic scene and teacher BEV map", _cmd_gen_scene, ()),
    "render-depth": ("render per-camera depth maps and masks", _cmd_render_depth, ()),
    "eval-losses": ("evaluate every loss once and write a report", _cmd_eval_losses, (
        ("--student", {
            "choices": ("identity", "random"),
            "default": "random",
            "help": "student construction: exact optimum or seeded noise",
        }),
    )),
    "gradcheck": ("compare analytic gradients to finite differences", _cmd_gradcheck, ()),
    "train-toy": ("run the toy training loop to convergence", _cmd_train_toy, (
        ("--identity-init", {
            "action": "store_true",
            "help": "start at the exact optimum (sanity mode; stops immediately)",
        }),
    )),
    "oracle": ("run brute-force oracle comparisons", _cmd_oracle, ()),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodistill",
        description="Depth-distribution and BEV feature distillation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON_OPTIONS + options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, scene=dataclasses.replace(cfg.scene, seed=args.seed))
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out!r}: {exc}") from exc
        try:
            # a value that overflows reaches a loss as a non-finite number,
            # which the command reports as its one error line
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return _COMMANDS[args.command][1](args, cfg)
        except OSError as exc:
            raise ConfigError(f"cannot write output in {args.out!r}: {exc}") from exc
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, GenerationError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_NUMPY_SIZE_LIMITS):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
