"""Golden report digests: the cheap reports of the CLI, pinned byte for
byte.

Each run's output files are hashed with SHA-256, a JSON report after
dropping its ``wall_clock_s``, any other file as written.  The digests in
``golden_digests.json`` hold only for the environment recorded beside
them (numpy's version, its BLAS and the SIMD targets it dispatches to),
since the last bits of a report depend on which kernels numpy runs.  On
another environment the test is skipped and says which part differs.

Print the digests of the current tree with

    PYTHONPATH=src python tests/test_golden.py

and add ``--write`` to replace ``golden_digests.json``; a change that moves
report bits on purpose does that and names the runs whose digests moved.
Either way the output ends with the runs whose digests differ from
``golden_digests.json`` as it was before the call.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import numpy as np
import pytest

from geodistill.cli import main as cli_main

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")

# the small scene of tests/test_acceptance.py::test_7_determinism
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
    "gradcheck": {"instances": 8},
    "optimizer": {"max_steps": 40},
}

# the bev-heavy benchmark scene (perfbench/workloads.py), whose depth side
# has pixels that overlapping targets share; its max_steps stays 3, which
# the pinned eval-losses report echoes
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
    "optimizer": {"max_steps": 3},
}

# config file name -> config; a run argument naming one stands for its file
CONFIGS = {
    "small": SMALL,
    "bev-heavy": BEV_HEAVY,
    # Adam's first updates hardly depend on the last bits of the gradient, so
    # a bev-heavy train-toy of 3 or 4 steps leaves a change in them unseen
    "bev-heavy-8": dict(BEV_HEAVY, optimizer={"max_steps": 8}),
    "default-3": {"optimizer": {"max_steps": 3}},
}

# run name -> CLI arguments
RUNS = {
    "eval-losses-random": ["eval-losses"],
    "eval-losses-identity": ["eval-losses", "--student", "identity"],
    "gradcheck": ["gradcheck"],
    "oracle": ["oracle"],
    "gen-scene-small": ["gen-scene", "--config", "small"],
    "render-depth-small": ["render-depth", "--config", "small"],
    "train-toy-small": ["train-toy", "--config", "small"],
    "train-toy-small-identity": ["train-toy", "--config", "small", "--identity-init"],
    "train-toy-default-3": ["train-toy", "--config", "default-3"],
    "eval-losses-bev-heavy": ["eval-losses", "--config", "bev-heavy"],
    "train-toy-bev-heavy-8": ["train-toy", "--config", "bev-heavy-8"],
    # seed 42's lattices share no BEV cell between targets; seed 0's share
    # some, so the scatter's later touches reach a pinned report
    "train-toy-bev-heavy-8-seed-0": ["train-toy", "--config", "bev-heavy-8", "--seed", "0"],
}


def environment():
    """What report bits depend on besides the code: numpy's version, its
    BLAS, and the SIMD targets it was built for that this CPU enables."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # a numpy that only prints its build config
        blas = "unknown"
    targets = umath.__cpu_baseline__ + umath.__cpu_dispatch__
    return {
        "numpy": np.__version__,
        "blas": blas,
        "simd": [t for t in targets if umath.__cpu_features__.get(t)],
    }


def file_digest(path: pathlib.Path) -> str:
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        data.pop("wall_clock_s", None)
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(workdir: pathlib.Path):
    """run name -> {output file name: digest} of every run of ``RUNS``."""
    files = {}
    for key, cfg in CONFIGS.items():
        files[key] = str(workdir / f"{key}.json")
        pathlib.Path(files[key]).write_text(json.dumps(cfg))
    out = {}
    for name, args in RUNS.items():
        where = workdir / name
        argv = [files.get(a, a) for a in args] + ["--out", str(where)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        assert code in (0, 1), name  # a train-toy may stop at max_steps
        out[name] = {p.name: file_digest(p) for p in sorted(where.iterdir())}
    return out


def moved_runs(got, golden):
    """Sorted names of the runs whose digests differ between ``got`` and
    ``golden``, each a run name -> digests map, or that only one holds."""
    return sorted(name for name in got.keys() | golden.keys() if got.get(name) != golden.get(name))


def test_cheap_reports_match_their_golden_digests(tmp_path):
    """Every cheap report is byte-identical to its pinned digest, apart
    from ``wall_clock_s``, on the environment the digests were taken on."""
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    if here != golden["environment"]:
        differs = sorted(k for k in here if here[k] != golden["environment"].get(k))
        pytest.skip(f"environment differs ({', '.join(differs)}): the digests pin other kernels' bits")
    moved = moved_runs(digests(tmp_path), golden["runs"])
    assert not moved, f"report bits changed: {', '.join(moved)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        current = {"environment": environment(), "runs": digests(pathlib.Path(tmp))}
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"environment": None, "runs": {}}
    text = json.dumps(current, indent=2) + "\n"
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(text)
    else:
        print(text, end="")
    if current["environment"] != golden["environment"]:
        print(f"environment differs from {GOLDEN.name}'s, so its digests pin other kernels' bits")
    print(f"runs whose digests differ from {GOLDEN.name}: {', '.join(moved_runs(current['runs'], golden['runs'])) or 'none'}")
