"""Dense float64 tensor kernels shared by every module.

All functions take and return numpy float64 arrays, never mutate their
inputs, and use deterministic reduction orders so repeated runs are
bit-identical.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, TextIO

import numpy as np

from .errors import FormatError, NumericError, ShapeError


def as_tensor(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def check_finite(arr: np.ndarray, what: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values")
    return arr


@dataclass
class LossResult:
    """Scalar loss value plus its gradient w.r.t. the differentiated input.

    ``grad`` is an ndarray for single-tensor losses, a list of ndarrays
    for per-target losses, a dict keyed by parameter name for composed
    losses, or None when no gradient was asked for.  ``empty`` marks
    degenerate calls that had nothing to supervise (value 0).
    """

    value: float
    grad: Any
    empty: bool = False
    components: Dict[str, float] = field(default_factory=dict)


def matmul(a, b) -> np.ndarray:
    """2-D matrix product with ascending-index summation over the inner axis.

    The contraction accumulates k = 0, 1, ... in order, so the result is
    bit-identical to a scalar triple loop with the k loop innermost.  It
    is the reference the oracle suite checks at tolerance 0.0; the loss
    code uses BLAS products.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents disagree: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def frobenius_sq_distance(a, b) -> float:
    """Sum of squared elementwise differences."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sum(d * d))


def softmax_rows(logits) -> np.ndarray:
    """Softmax over the trailing axis, with max-subtraction for stability."""
    logits = as_tensor(logits)
    if logits.shape[-1] < 1:
        raise ShapeError("softmax_rows needs a non-empty trailing axis")
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def finite_difference_gradient(f: Callable[[np.ndarray], float], x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Serves as the independent oracle for every analytic gradient in the
    package; it only ever calls ``f`` as a black box.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = as_tensor(x)
    # flatten through a copy: reshape(-1) on a strided view would not give a
    # writable alias, so accumulate into a fresh flat buffer instead
    flat = np.ascontiguousarray(x).reshape(-1)
    grad = np.empty(flat.size)
    for i in range(flat.size):
        xp = flat.copy()
        xp[i] += h
        fp = float(f(xp.reshape(x.shape)))
        xm = flat.copy()
        xm[i] -= h
        fm = float(f(xm.reshape(x.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"function evaluated non-finite at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape)


# ---------------------------------------------------------------------------
# TSR v1 text format
#
#   line 1:  TSR 1
#   line 2:  whitespace-separated extents
#   rest:    row-major values, written with shortest round-trip precision
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def open_text(target, mode: str = "r") -> Iterator[TextIO]:
    """A path opened in ``mode`` and closed on exit, or a text file
    object as it is, left open."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode) as fobj:
            yield fobj
    else:
        yield target


def write_tsr(dest, arr) -> None:
    """Write a tensor in TSR v1 format to a path or text file object."""
    arr = as_tensor(arr)
    if arr.ndim < 1:
        raise ShapeError("TSR tensors need at least one extent")
    if not np.all(np.isfinite(arr)):
        raise FormatError("TSR tensors must be finite")
    rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr.reshape(1, -1)
    with open_text(dest, "w") as fobj:
        fobj.write("TSR 1\n")
        fobj.write(" ".join(str(e) for e in arr.shape) + "\n")
        for row in rows:
            fobj.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_tsr(src) -> np.ndarray:
    """Read a TSR v1 tensor from a path or text file object."""
    with open_text(src) as fobj:
        header = fobj.readline().strip()
        if header != "TSR 1":
            raise FormatError(f"expected 'TSR 1' header, got {header!r}")
        try:
            shape = tuple(int(tok) for tok in fobj.readline().split())
        except ValueError as exc:
            raise FormatError(f"bad extents line: {exc}") from exc
        if not shape or any(e < 1 for e in shape):
            raise FormatError(f"extents must be positive, got {shape}")
        count = math.prod(shape)
        values = []
        for line in fobj:
            toks = line.split()
            if not toks:
                continue
            if len(values) + len(toks) > count:
                raise FormatError("more values than the extents allow")
            try:
                values.extend(float(t) for t in toks)
            except ValueError as exc:
                raise FormatError(f"bad value token: {exc}") from exc
            if len(values) == count:
                break
    if len(values) != count:
        raise FormatError(f"expected {count} values, got {len(values)}")
    arr = np.array(values)
    if not np.all(np.isfinite(arr)):
        raise FormatError("TSR stream contains non-finite values")
    return arr.reshape(shape)
