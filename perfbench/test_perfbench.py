"""Tests of the benchmark itself: run with ``python -m pytest perfbench``.

The smoke runs use the small test_7_determinism config and take a few
seconds each.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench_json():
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fobj:
        return json.load(fobj)


def test_benchmark_json_matches_the_catalogue():
    bench = _bench_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for key, table in (("end_to_end", layers.END_TO_END), ("per_layer", layers.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == [
            (m.name, m.unit, m.better) for m in table
        ]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])


def _run(args, cwd=env.ROOT, timeout=300):
    return subprocess.run(
        [sys.executable] + args, cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run([RUN, "--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    table = layers.PER_LAYER if trace else layers.END_TO_END
    assert list(line["metrics"]) == [m.name for m in table]
    for m in table:
        fig = line["metrics"][m.name]
        assert fig["unit"] == m.unit
        assert isinstance(fig["value"], (int, float)) and math.isfinite(fig["value"])
    out = os.path.join(env.OUT, workload + "-smoke")
    with open(os.path.join(out, f"result-trace{trace}.json")) as fobj:
        result = json.load(fobj)
    assert result["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert result["environment"]["tig_threads"] is None
    if trace:
        assert os.path.exists(os.path.join(env.ROOT, result["trace_sidecar"]))
        expected = {m.name for m in layers.PER_LAYER}
        if workload == "verify":
            expected |= {m.name for m in layers.VERIFY_LAYERS}
        assert expected <= set(result["figures"])


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "verify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_quotes_the_percentile_with_ten_samples_beyond():
    stats = workloads.tail([float(i) for i in range(40)])
    assert stats["tail"] == 29.0 and stats["tail_pct"] == 75.0 and stats["p50"] == 19.5
    assert workloads.tail([1.0, 2.0, 3.0])["tail"] == 3.0


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def outer(x):
        return traced_leaf(x) + traced_leaf(x)

    assert tracer.wrap("m.outer", outer)(20000) == 2 * sum(range(20000))
    summary = tracer.summary()
    assert summary["m.leaf"]["calls"] == 2 and summary["m.outer"]["calls"] == 1
    assert summary["m.outer"]["self_s"] == pytest.approx(
        summary["m.outer"]["total_s"] - summary["m.leaf"]["total_s"], abs=1e-9
    )
    assert list(tracer.parent) == [-1, 0, 0]


def test_install_rebinds_every_lookup_and_uninstall_restores():
    harness = env.load_package("geodistill.harness")
    bev = env.load_package("geodistill.bev_distillation")
    numerics = env.load_package("geodistill.numerics")
    originals = (harness.bev_distill_terms, bev.matmul, numerics.matmul)
    tracer = spans.Tracer()
    tracer.install(hooks=layers.HOOKS)
    try:
        assert harness.bev_distill_terms is bev.bev_distill_terms
        assert harness.bev_distill_terms.__wrapped__ is originals[0]
        assert bev.matmul is numerics.matmul and bev.matmul.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert (harness.bev_distill_terms, bev.matmul, numerics.matmul) == originals
