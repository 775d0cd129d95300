"""The three workloads: CLI sessions of one closed-loop client, plus the
correctness checks every session runs.

A session issues geodistill CLI calls one at a time, each waiting for
the previous one, and reads back the report each call writes.  The
workload seed is the scene seed of every call, except that
converge-default always trains the pinned seed-42 fixture (see
converge_default).  Pinned values hold only for seed 42 on the
full-size configs; every other seed gets the structural checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

PIN_SEED = 42
# Default config, seed 42: initial total of train-toy and of the random
# eval-losses student (tests/test_acceptance.py pins the same value).
DEFAULT_INITIAL_TOTAL = 67.3014281939027
# bev-heavy config, seed 42: initial total at the commit that defined
# this benchmark.
BEV_HEAVY_INITIAL_TOTAL = 59.29248089855084
GRADCHECK_THRESHOLD = 1e-4
EVAL_CALLS = 40
SMOKE_EVAL_CALLS = 11
# a tail percentile is quoted with at least this many samples beyond it
TAIL_SAMPLES = 10

# 12 boxes x 10 x 10 keypoints x 32 channels on two small cameras with
# 16 bins: the BEV Gram path dominates each step.
BEV_HEAVY_CONFIG = {
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
    "optimizer": {"max_steps": 200},
}

# The small config of tests/test_acceptance.py::test_7_determinism.
SMOKE_CONFIG = {
    "scene": {
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
    "gradcheck": {"instances": 8},
    "optimizer": {"max_steps": 40},
}


class Checks:
    """Correctness checks of a run; a failed one never stops the run."""

    def __init__(self) -> None:
        self.results: List[Dict] = []

    def check(self, name: str, ok, detail="") -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": str(detail)})
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r["ok"])


@dataclass
class Call:
    command: str
    code: Optional[int]
    seconds: float
    report: Optional[Dict]


class Client:
    """Issues CLI calls through ``cli.main`` one after another.

    ``cli.main`` is looked up on every call, so a traced pass reaches the
    wrapped entry point.  Each report is read back after its call, and a
    digest of it without ``wall_clock_s`` is kept for comparing passes.
    """

    def __init__(self, cli, out_dir: str) -> None:
        self.cli = cli
        self.out_dir = out_dir
        self.digests: List[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def call(self, argv: List[str], report_name: str) -> Call:
        path = os.path.join(self.out_dir, report_name)
        if os.path.exists(path):
            os.remove(path)
        with open(os.path.join(self.out_dir, "cli.log"), "a") as log:
            with contextlib.redirect_stdout(log):
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(argv + ["--out", self.out_dir])
                except Exception:  # a crash is a failed check, not the end of the run
                    code = None
                    traceback.print_exc()
                seconds = time.perf_counter() - t0
        report = None
        if os.path.exists(path):
            with open(path) as fobj:
                report = json.load(fobj)
            stable = {k: v for k, v in report.items() if k != "wall_clock_s"}
            text = json.dumps(stable, sort_keys=True)
            self.digests.append(hashlib.sha256(text.encode()).hexdigest())
        return Call(argv[0], code, seconds, report)


@dataclass
class Context:
    seed: int
    config: str
    smoke: bool

    @property
    def pinned(self) -> bool:
        return self.seed == PIN_SEED and not self.smoke

    def args(self, command: str, seed: Optional[int] = None) -> List[str]:
        return [command, "--config", self.config, "--seed", str(self.seed if seed is None else seed)]


@dataclass
class Session:
    """What one session measured; ``unit_ms`` is its unit of work."""

    run_s: float
    unit_ms: float
    steps: int
    figures: Dict[str, float] = field(default_factory=dict)
    extra: Dict = field(default_factory=dict)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _close(a, b, rel: float) -> bool:
    return _finite(a) and abs(a - b) <= rel * abs(b)


def _train_checks(checks: Checks, ctx: Context, ev: Call, tr: Call) -> Dict:
    """Checks shared by both training workloads; returns the train data."""
    checks.check("eval-losses exits 0", ev.code == 0, ev.code)
    checks.check("train-toy wrote its report", tr.report is not None, tr.code)
    if tr.report is None:
        return {}
    d = tr.report
    first = d["loss_series"]["total"][0] if d["loss_series"]["total"] else None
    eval_total = ev.report["total"] if ev.report else None
    if ctx.pinned:
        checks.check(
            "seed 42 train-toy step-0 total equals eval-losses total bit for bit",
            first is not None and first == eval_total,
            f"{first!r} vs {eval_total!r}",
        )
    else:
        # The trainer re-implements the depth losses inline; away from
        # the pinned fixtures its step-0 total can differ from the
        # one-shot evaluation in the last bit (bev-heavy seed 1 does).
        checks.check(
            "train-toy step-0 total equals eval-losses total to 1e-12",
            eval_total is not None and _close(first, eval_total, 1e-12),
            f"{first!r} vs {eval_total!r}",
        )
    checks.check(
        "initial and final totals are finite",
        _finite(d["initial_total"]) and _finite(d["final_total"]),
        (d["initial_total"], d["final_total"]),
    )
    checks.check(
        "final total is below initial total",
        _finite(d["final_total"]) and d["final_total"] < d["initial_total"],
        (d["initial_total"], d["final_total"]),
    )
    return d


def _training(tr: Call, ev: Call, extra: Dict) -> Session:
    steps = int(tr.report["steps_run"]) if tr.report else 0
    if tr.report and ev.report and tr.report["loss_series"]["total"]:
        extra["step0_bitwise_equal"] = tr.report["loss_series"]["total"][0] == ev.report["total"]
    figures = {
        "train_s": tr.seconds,
        "steps_run": steps,
        "steps_per_s": steps / tr.seconds,
        "eval_losses_ms": 1000.0 * ev.seconds,
    }
    return Session(
        run_s=ev.seconds + tr.seconds,
        unit_ms=1000.0 * tr.seconds / max(steps, 1),
        steps=steps,
        figures=figures,
        extra=extra,
    )


def converge_default(client: Client, checks: Checks, ctx: Context) -> Session:
    """eval-losses on the held-out scene of the workload seed, then
    eval-losses and train-toy to convergence on the seed-42 fixture.

    Training always uses the fixture: its cost per step depends on the
    scene (steps spent in the per-step Gram convergence check, valid
    pixels, usable targets), with a quartile spread of 15 % over seeds
    1-10 on a 2-core x86-64 VM, and scenes 2, 4 and 9 stop at max_steps
    without converging.  The seed still picks the held-out scene.
    """
    held_out = client.call(ctx.args("eval-losses"), "eval_report.json")
    total = held_out.report["total"] if held_out.report else None
    checks.check(
        f"held-out eval-losses seed {ctx.seed} exits 0 with a finite total",
        held_out.code == 0 and _finite(total) and total > 0,
        (held_out.code, total),
    )
    fixture = dataclasses.replace(ctx, seed=PIN_SEED)
    ev = client.call(fixture.args("eval-losses"), "eval_report.json")
    tr = client.call(fixture.args("train-toy"), "train_report.json")
    d = _train_checks(checks, fixture, ev, tr)
    extra: Dict = {}
    if d:
        status = d["status"]
        converged = status == "converged"
        max_steps = d["config"]["optimizer"]["max_steps"]
        worst_ik = max((e["inter_keypoint_rel"] for e in d["gram_distances"]), default=0.0)
        checks.check(f"steps_run <= {max_steps}", d["steps_run"] <= max_steps, d["steps_run"])
        if fixture.pinned:
            checks.check("train-toy converges", converged and tr.code == 0, (status, tr.code))
            checks.check("loss_reduction >= 0.99", d["loss_reduction"] >= 0.99, d["loss_reduction"])
            checks.check("worst inter-keypoint rel <= 0.01", worst_ik <= 0.01, worst_ik)
            checks.check(
                "initial_total pinned",
                _close(d["initial_total"], DEFAULT_INITIAL_TOTAL, 1e-6),
                repr(d["initial_total"]),
            )
        else:
            # the smoke config stops at max_steps by design
            checks.check(
                "train-toy ends converged or at max_steps",
                status in ("converged", "max_steps"),
                status,
            )
        extra = {
            "status": status,
            "converged": converged,
            "worst_inter_keypoint_rel": worst_ik,
            "loss_reduction": d["loss_reduction"],
        }
    session = _training(tr, ev, extra)
    session.run_s += held_out.seconds
    session.figures["held_out_eval_ms"] = 1000.0 * held_out.seconds
    if extra.get("converged"):
        session.figures["steps_to_converge"] = session.steps
    return session


def bev_heavy(client: Client, checks: Checks, ctx: Context) -> Session:
    """eval-losses, then a fixed-length train-toy on the BEV-heavy scene."""
    ev = client.call(ctx.args("eval-losses"), "eval_report.json")
    tr = client.call(ctx.args("train-toy"), "train_report.json")
    d = _train_checks(checks, ctx, ev, tr)
    extra: Dict = {}
    if d:
        max_steps = d["config"]["optimizer"]["max_steps"]
        checks.check(f"steps_run == {max_steps}", d["steps_run"] == max_steps, d["steps_run"])
        if ctx.pinned:
            checks.check(
                "seed 42 initial_total pinned",
                _close(d["initial_total"], BEV_HEAVY_INITIAL_TOTAL, 1e-9),
                repr(d["initial_total"]),
            )
        extra = {"status": d["status"], "loss_reduction": d["loss_reduction"]}
    return _training(tr, ev, extra)


def _kept_ratio(report: Optional[Dict]) -> float:
    kept = tried = 0
    for entry in (report or {}).get("losses", {}).values():
        if entry.get("skipped"):
            continue
        kept += entry["instances"]
        tried += entry["instances"] + entry["excluded_tie_adjacent"] + entry["overflow"]
    return kept / tried if tried else 0.0


def tail(samples: List[float]) -> Dict[str, float]:
    """Median, and the highest percentile with TAIL_SAMPLES samples beyond
    it (the largest sample when that percentile would sit below the
    median)."""
    s = sorted(samples)
    n = len(s)
    idx = n - 1 - TAIL_SAMPLES
    if idx < n // 2:
        idx = n - 1
    return {"p50": statistics.median(s), "tail": s[idx], "tail_pct": 100.0 * (idx + 1) / n, "n": n}


def verify(client: Client, checks: Checks, ctx: Context) -> Session:
    """gradcheck, oracle, the identity-student checks, and a series of
    cold eval-losses calls on distinct seeds."""
    gc = client.call(ctx.args("gradcheck"), "gradcheck_report.json")
    checks.check("gradcheck exits 0", gc.code == 0, gc.code)
    if gc.report is not None:
        checks.check("gradcheck passed", gc.report["status"] == "passed", gc.report["max_rel_error"])
        checks.check(
            "gradcheck threshold is 1e-4",
            gc.report["fail_threshold"] == GRADCHECK_THRESHOLD,
            gc.report["fail_threshold"],
        )
    orc = client.call(ctx.args("oracle"), "oracle_fixtures.json")
    checks.check("oracle exits 0", orc.code == 0, orc.code)
    checks.check("oracle passed", bool(orc.report and orc.report["passed"]), orc.code)

    ident = client.call(ctx.args("eval-losses") + ["--student", "identity"], "eval_report.json")
    losses = ident.report["losses"] if ident.report else {}
    for term in ("inner_depth", "inter_channel", "inter_keypoint"):
        checks.check(
            f"identity student gives exactly zero {term}", losses.get(term) == 0.0, losses.get(term)
        )
    stay = client.call(ctx.args("train-toy") + ["--identity-init"], "train_report.json")
    checks.check("identity-init train-toy exits 0", stay.code == 0, stay.code)
    checks.check(
        "identity-init train-toy is stationary",
        bool(stay.report and stay.report["status"] == "stationary"),
        stay.report and stay.report["status"],
    )

    n_eval = SMOKE_EVAL_CALLS if ctx.smoke else EVAL_CALLS
    eval_ms = []
    for i in range(n_eval):
        ev = client.call(ctx.args("eval-losses", ctx.seed + i), "eval_report.json")
        eval_ms.append(1000.0 * ev.seconds)
        total = ev.report["total"] if ev.report else None
        checks.check(f"eval-losses seed {ctx.seed + i} exits 0 with a finite total",
                     ev.code == 0 and _finite(total) and total > 0, (ev.code, total))
        if i == 0 and ctx.pinned:
            checks.check(
                "seed 42 random eval total pinned",
                _close(total, DEFAULT_INITIAL_TOTAL, 1e-12),
                repr(total),
            )
    calls = [gc, orc, ident, stay]
    run_s = sum(c.seconds for c in calls) + sum(eval_ms) / 1000.0
    stats = tail(eval_ms)
    figures = {
        "gradcheck_s": gc.seconds,
        "oracle_s": orc.seconds,
        "identity_checks_ms": 1000.0 * (ident.seconds + stay.seconds),
        "eval_losses_ms_p50": stats["p50"],
        "eval_losses_ms_tail": stats["tail"],
    }
    extra = {
        "eval_losses_tail_percentile": stats["tail_pct"],
        "eval_losses_calls": stats["n"],
        "gradcheck_kept_ratio": _kept_ratio(gc.report),
        "gradcheck_max_rel_error": gc.report["max_rel_error"] if gc.report else None,
    }
    steps = int(stay.report["steps_run"]) if stay.report else 0
    return Session(run_s=run_s, unit_ms=1000.0 * run_s, steps=steps, figures=figures, extra=extra)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Optional[Dict]  # None: the built-in default config
    session: Callable[[Client, Checks, Context], Session]
    unit: str
    train_seed: Optional[int] = None  # the scene trained, when not the workload seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge-default",
            "Headline: default config, train-toy to convergence on the pinned seed-42 "
            "scene. unit_ms is ms per optimizer step, mostly the inline depth losses and Adam.",
            None,
            converge_default,
            "one optimizer step",
            train_seed=PIN_SEED,
        ),
        Workload(
            "bev-heavy",
            "12 boxes, g=10, 32 channels, 2 small cameras, 200 steps: Gram matching "
            "dominates each step, the depth path is small. unit_ms is ms per step.",
            BEV_HEAVY_CONFIG,
            bev_heavy,
            "one optimizer step",
        ),
        Workload(
            "verify",
            "gradcheck, oracle, identity checks and 40 cold eval-losses calls: the "
            "losses as thousands of tiny one-shot calls. unit_ms is one whole round.",
            None,
            verify,
            "one verify round",
        ),
    )
}


def config_source(workload: Workload, smoke: bool, out_dir: str) -> str:
    """The --config argument: "default" or a JSON file in ``out_dir``."""
    cfg = SMOKE_CONFIG if smoke else workload.config
    if cfg is None:
        return "default"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fobj:
        json.dump(cfg, fobj, sort_keys=True, indent=2)
    return path


def scene_size(harness, config: str, seed: int) -> Dict[str, int]:
    """Computed work per step of the workload's scene: valid pixels x
    bins, and targets x g^2 x channels."""
    cfg = harness.load_config(config)
    cfg.scene.seed = seed
    scene = harness.generate_scene(cfg.scene)
    views = harness.render_gt_views(scene)
    valid = sum(int(v.valid.sum()) for v in views)
    return {
        "bin_cells": valid * cfg.bins.count,
        "keypoint_features": len(scene.boxes) * cfg.keypoint_g ** 2 * cfg.scene.channels,
    }
