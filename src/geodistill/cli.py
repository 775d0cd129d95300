"""Command-line entry point.

Subcommands cover the whole pipeline: scene generation, depth
rendering, one-shot loss evaluation, finite-difference gradient
checking, the toy training loop, and the brute-force oracle suite.

Exit codes: 0 on success, 1 when a check fails (gradcheck over
threshold, training not converged, oracle mismatch), 2 on bad
configuration or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import List, Optional

from .errors import ConfigError, ContractError, FormatError, GenerationError, NumericError
from .harness import (
    RunReport,
    config_to_dict,
    load_config,
    run_gradcheck,
    run_train_toy,
    strict_json,
    student_problem,
    write_report,
)
from .numerics import write_tsr
from .oracles import run_oracle_suite
from .scenegen import generate_scene, render_gt_views, write_scene


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--config",
        default="default",
        help='config JSON path, or "default" for built-in defaults',
    )
    sub.add_argument("--seed", type=int, default=None, help="override the scene seed")
    sub.add_argument("--out", default="out", help="output directory (created if missing)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodistill",
        description="Depth-distribution and BEV feature distillation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate a synthetic scene and teacher BEV map")
    _add_common(p)

    p = sub.add_parser("render-depth", help="render per-camera depth maps and masks")
    _add_common(p)

    p = sub.add_parser("eval-losses", help="evaluate every loss once and write a report")
    _add_common(p)
    p.add_argument(
        "--student",
        choices=("identity", "random"),
        default="random",
        help="student construction: exact optimum or seeded noise",
    )

    p = sub.add_parser("gradcheck", help="compare analytic gradients to finite differences")
    _add_common(p)

    p = sub.add_parser("train-toy", help="run the toy training loop to convergence")
    _add_common(p)
    p.add_argument(
        "--identity-init",
        action="store_true",
        help="start at the exact optimum (sanity mode; stops immediately)",
    )

    p = sub.add_parser("oracle", help="run brute-force oracle comparisons")
    _add_common(p)

    return parser


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
        if entry.get("skipped"):
            print(f"{name}: skipped ({entry['reason']})")
            continue
        print(
            f"{name}: {entry['instances']} instances, "
            f"max rel error {entry['max_rel_error']:.3e}, "
            f"{'PASS' if entry['passed'] else 'FAIL'}"
        )
    print(f"gradcheck {report.status}; report -> {path}")
    return 0 if report.status == "passed" else 1


def _cmd_train_toy(args, cfg, identity_init: bool) -> int:
    report = run_train_toy(cfg, identity_init=identity_init)
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
    success = report.status == "converged" or (identity_init and report.status == "stationary")
    return 0 if success else 1


def _cmd_oracle(args, cfg) -> int:
    fixtures, ok = run_oracle_suite(seed=cfg.scene.seed)
    path = os.path.join(args.out, "oracle_fixtures.json")
    with open(path, "w") as fobj:
        fobj.write(strict_json({"format_version": 1, "passed": ok, "families": fixtures}))
    for name, entry in sorted(fixtures.items()):
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(entry.items()) if not isinstance(v, (list, dict))
        )
        print(f"{name}: {detail}")
    print(f"oracle {'PASS' if ok else 'FAIL'}; fixtures -> {path}")
    return 0 if ok else 1


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
            cfg.scene = dataclasses.replace(cfg.scene, seed=args.seed)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out!r}: {exc}") from exc
        if args.command == "gen-scene":
            return _cmd_gen_scene(args, cfg)
        if args.command == "render-depth":
            return _cmd_render_depth(args, cfg)
        if args.command == "eval-losses":
            return _cmd_eval_losses(args, cfg)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args, cfg)
        if args.command == "train-toy":
            return _cmd_train_toy(args, cfg, args.identity_init)
        if args.command == "oracle":
            return _cmd_oracle(args, cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, GenerationError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
