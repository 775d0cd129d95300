"""geodistill benchmark: one closed-loop client per workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload converge-default --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload verify --seed 5 --seconds 1 --trace 1 --smoke

Workloads: converge-default, bev-heavy and verify (see workloads.py), or
``all`` to run each in its own process.  Every CLI call goes through
``geodistill.cli.main`` with TIG_THREADS unset and one BLAS thread.

``--trace 0`` times several cold set-ups in fresh interpreters, then
repeats the workload's session until ``--seconds`` of it have been timed
(at least one session), and reports the END_TO_END metrics of layers.py.

``--trace 1`` runs one session untraced and one traced, checks that the
two produce the same reports apart from ``wall_clock_s``, writes the
spans to a sidecar once at the end, and reports the PER_LAYER metrics.

``--smoke`` swaps in the small config of test_7_determinism.

Every run checks the program's outputs.  Human-readable figures go to
stdout, the full result (environment, every figure with its unit, every
check) to ``.perfbench_out/<workload>/result-trace<t>.json``, and the
last stdout line is the JSON result object.  Exit code 2 means the run
could not start (bad arguments, or no geodistill sources in this
checkout) and nothing was measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import env

TIG_THREADS_FOUND = env.pin_threads()

SETUP_PROBES = 5
SMOKE_SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def _parse(argv: List[str]) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _setup_seconds(config: str, seed: int, probes: int) -> List[float]:
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, probe, config, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _sessions(workload, client, checks, ctx, seconds: float):
    done = []
    timed = 0.0
    while not done or timed < seconds:
        session = workload.session(client, checks, ctx)
        done.append(session)
        timed += session.run_s
    return done


def _line_metrics(figures: Dict[str, Dict], table) -> Dict[str, Dict]:
    return {m.name: {"value": figures[m.name]["value"], "unit": m.unit} for m in table}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _figures(sessions, units: Dict[str, str]) -> Dict[str, Dict]:
    """Median over sessions of each per-session figure, with its unit."""
    out = {
        "run_s": {"value": statistics.median([s.run_s for s in sessions]), "unit": "s"},
        "unit_ms": {"value": statistics.median([s.unit_ms for s in sessions]), "unit": "ms"},
    }
    for key in sessions[0].figures:
        out[key] = {"value": statistics.median([s.figures[key] for s in sessions]), "unit": units[key]}
    return out


FIGURE_UNITS = {
    "train_s": "s",
    "steps_run": "count",
    "steps_to_converge": "count",
    "steps_per_s": "1/s",
    "eval_losses_ms": "ms",
    "held_out_eval_ms": "ms",
    "gradcheck_s": "s",
    "oracle_s": "s",
    "identity_checks_ms": "ms",
    "eval_losses_ms_p50": "ms",
    "eval_losses_ms_tail": "ms",
}


def run_workload(args, cli, harness) -> Dict:
    import layers
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(env.OUT, args.workload + ("-smoke" if args.smoke else ""))
    config = workloads.config_source(workload, args.smoke, out_dir)
    ctx = workloads.Context(seed=args.seed, config=config, smoke=args.smoke)
    train_seed = args.seed if workload.train_seed is None else workload.train_seed
    checks = workloads.Checks()
    result: Dict = {
        "workload": workload.name,
        "why": workload.why,
        "unit_of_work": workload.unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env.environment(TIG_THREADS_FOUND),
    }

    if args.trace == 0:
        probes = SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES
        setup = _setup_seconds(config, train_seed, probes)
        client = workloads.Client(cli, os.path.join(out_dir, "plain"))
        sessions = _sessions(workload, client, checks, ctx, args.seconds)
        figures = _figures(sessions, FIGURE_UNITS)
        figures["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        figures["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB"}
        result["setup_samples_s"] = setup
        result["sessions"] = len(sessions)
        result["session_details"] = [s.extra for s in sessions]
        metrics = _line_metrics(figures, layers.END_TO_END)
    else:
        plain = workloads.Client(cli, os.path.join(out_dir, "plain"))
        untraced = workload.session(plain, checks, ctx)
        tracer = spans.Tracer()
        traced_client = workloads.Client(cli, os.path.join(out_dir, "traced"))
        tracer.install(hooks=layers.HOOKS)
        try:
            traced = workload.session(traced_client, checks, ctx)
        finally:
            tracer.uninstall()
        checks.check(
            "traced reports match untraced ones except wall_clock_s",
            plain.digests == traced_client.digests and plain.digests,
            f"{len(plain.digests)} vs {len(traced_client.digests)} reports",
        )
        size = workloads.scene_size(harness, config, train_seed)
        summary = tracer.summary()
        layer = layers.layer_metrics(
            tracer,
            summary,
            steps=traced.steps,
            bin_cells=size["bin_cells"],
            keypoint_features=size["keypoint_features"],
            overhead_ratio=traced.run_s / untraced.run_s - 1.0,
            gradcheck_kept_ratio=untraced.extra.get("gradcheck_kept_ratio", 0.0),
        )
        catalogue = {m.name: m for m in layers.catalogue()}
        figures = _figures([untraced], FIGURE_UNITS)
        figures["traced_run_s"] = {"value": traced.run_s, "unit": "s"}
        figures.update(
            {
                k: {"value": v, "unit": catalogue[k].unit, "moves": catalogue[k].moves}
                for k, v in layer.items()
            }
        )
        sidecar = os.path.join(out_dir, "trace.jsonl")
        tracer.write_sidecar(sidecar)
        result["trace_sidecar"] = os.path.relpath(sidecar, env.ROOT)
        result["span_summary"] = summary
        result["session_details"] = [untraced.extra]
        metrics = _line_metrics(figures, layers.PER_LAYER)
        if workload.name != "verify":
            for m in layers.VERIFY_LAYERS:
                figures.pop(m.name)

    figures["error_rate"] = {"value": checks.failed / max(checks.attempted, 1), "unit": "ratio"}
    result["figures"] = figures
    result["checks"] = checks.results
    result["line"] = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    path = os.path.join(out_dir, f"result-trace{args.trace}.json")
    with open(path, "w") as fobj:
        json.dump(_strict(result), fobj, sort_keys=True, indent=2, allow_nan=False)
        fobj.write("\n")
    return result


def _strict(obj):
    """JSON-safe copy: a non-finite float (a report can hold one) becomes null."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _print_result(result: Dict) -> None:
    e = result["environment"]
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']}"
          f" (unit of work: {result['unit_of_work']})")
    print(f"  nproc {e['nproc']}, Python {e['python']}, numpy {e['numpy']}, "
          f"BLAS {e['blas']['name']} {e['blas']['version']} at "
          f"{e['blas_threads']['OPENBLAS_NUM_THREADS']} thread, "
          f"TIG_THREADS {e['tig_threads'] or 'unset'}, commit {e['git_commit']}")
    for name, fig in sorted(result["figures"].items()):
        print(f"  {name} = {fig['value']:.6g} {fig['unit']}")
    for row in result["checks"]:
        if not row["ok"]:
            print(f"  FAILED check: {row['check']} ({row['detail']})")
    line = result["line"]
    print(f"  checks: {line['attempted'] - line['failed']}/{line['attempted']} passed")


def run_all(args) -> Dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    import workloads

    line: Dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(proc.returncode or 1)
        sub = json.loads(lines[-1])
        line["correct"] = line["correct"] and sub["correct"]
        line["attempted"] += sub["attempted"]
        line["failed"] += sub["failed"]
        for key, value in sub["metrics"].items():
            line["metrics"][f"{name}.{key}"] = value
    return line


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        line = run_all(args)
    else:
        try:
            cli = env.load_package("geodistill.cli")
            harness = env.load_package("geodistill.harness")
        except (env.PackageMissing, ImportError) as exc:
            print(f"error: cannot load geodistill from this checkout: {exc}", file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        result = run_workload(args, cli, harness)
        _print_result(result)
        print(f"  benchmark wall time {time.perf_counter() - t0:.1f} s")
        line = result["line"]
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
