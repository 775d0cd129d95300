"""Process set-up shared by the benchmark and its set-up probe.

Importing this module touches nothing; ``pin_threads`` must run before
numpy is first imported, and ``load_package`` imports geodistill from
this checkout's ``src`` only, never from an installed copy.
"""

from __future__ import annotations

import importlib
import os
import platform
import subprocess
import sys
from typing import Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> Optional[str]:
    """One BLAS thread and the package's serial default (TIG_THREADS
    unset).  Returns the TIG_THREADS value found, if any."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return os.environ.pop("TIG_THREADS", None)


class PackageMissing(Exception):
    """The checkout holds no importable geodistill sources."""


def load_package(name: str = "geodistill.cli"):
    """Import ``name`` from ``SRC``; raise PackageMissing otherwise."""
    if not os.path.isfile(os.path.join(SRC, "geodistill", "__init__.py")):
        raise PackageMissing(f"no geodistill package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module = importlib.import_module(name)
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise PackageMissing(f"{name} resolved to {module.__file__}, outside {SRC}")
    return module


def _git_commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _blas() -> Dict[str, str]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": str(blas.get("name")), "version": str(blas.get("version"))}


def environment(tig_threads_found: Optional[str]) -> Dict:
    """What a result depends on besides the code: cores, interpreter,
    numpy and its BLAS, thread settings and the commit."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "tig_threads": os.environ.get("TIG_THREADS"),
        "tig_threads_found": tig_threads_found,
        "git_commit": _git_commit(),
    }
