"""Dense float64 tensor kernels shared by every module.

All functions take and return numpy float64 arrays, never mutate their
inputs, and use deterministic reduction orders so repeated runs are
bit-identical.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import numbers
import os
import reprlib
import sys
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, TextIO, Tuple

import numpy as np

from .errors import ConfigError, FormatError, NumericError, ShapeError

# the values every loss accepts as its reduction
LOSS_REDUCTIONS = ("mean", "sum")


def as_tensor(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def check_finite(arr: np.ndarray, what: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values")
    return arr


def check_reduction(reduction: str) -> None:
    if reduction not in LOSS_REDUCTIONS:
        raise ConfigError(f"unknown loss reduction {reduction!r}")


def _is(value, kind) -> bool:
    """Whether ``value`` is of config kind ``kind``: a class, or a tuple
    of kinds for a tuple of that many entries.  A number is never a bool
    and a real one is finite (not NaN, infinite or an integer too large
    for a float)."""
    if isinstance(kind, tuple):
        return isinstance(value, tuple) and len(value) == len(kind) and all(map(_is, value, kind))
    if kind in (numbers.Real, numbers.Integral) and isinstance(value, bool):
        return False
    return isinstance(value, kind) and (kind is not numbers.Real or abs(value) <= sys.float_info.max)


class _Quote(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # too many digits to convert to a string at all
            return f"<integer of about {int(math.log10(abs(x))) + 1} digits>"


# quotes a bad value in a config error: a long string or number, a long
# list or a nested one is cut short with "...", so the error stays one
# short line whatever the value
_QUOTE = _Quote()
_QUOTE.maxlevel, _QUOTE.maxlist, _QUOTE.maxtuple = 1, 8, 8
_QUOTE.maxstring = _QUOTE.maxlong = _QUOTE.maxother = 40


def _require(name: str, value, what: str, ok: Optional[Callable[[Any], bool]], kind) -> None:
    """Raise ConfigError, whose message says ``what`` is accepted, unless
    ``value`` is a ``kind`` (see ``_is``) and ``ok(value)`` holds if given."""
    if not _is(value, kind) or (ok is not None and not ok(value)):
        raise ConfigError(f"{name} must be {what}, got {_QUOTE.repr(value)}")


# the kind and its wording of a config value, by its field's annotation;
# a string field is a choice, whose options say what it may be
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
          bool: (bool, "true or false"), str: (str, "")}


def _ranged(default, what: str, ok: Callable[[Any], bool]):
    """A config field with a range: ``ok`` accepts a value and ``what``
    states the range after the kind in error messages.  A ``default`` of
    ``dataclasses.MISSING`` makes the field required."""
    return field(default=default, metadata={"range": (what, ok)})


def _choice(default: str, options: Tuple[str, ...]):
    """A string config field that takes one of ``options``."""
    return _ranged(default, "one of " + ", ".join(map(repr, options)), lambda v: v in options)


@functools.lru_cache(maxsize=None)
def _field_checks(cls) -> Dict[str, Tuple[Any, str, Optional[Callable[[Any], bool]]]]:
    """``_require``'s (kind, what, ok) for each init field of config class
    ``cls``: the kind from its annotation (a number, bool or string, a
    tuple of numbers, or a nested config class), the range from its
    declaration."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in filter(lambda f: f.init, dataclasses.fields(cls)):
        hint = hints[f.name]
        if typing.get_origin(hint) is tuple:
            n = len(typing.get_args(hint))
            kind, noun = (numbers.Real,) * n, f"a list of {n} finite numbers"
        else:
            kind, noun = _KINDS.get(hint, (hint, ("an " if hint.__name__[0] in "AEIOU" else "a ") + hint.__name__))
        what, ok = f.metadata.get("range", ("", None))
        out[f.name] = (kind, f"{noun} {what}".strip(), ok)
    return out


def _check_fields(where: str, cls, values: Dict[str, Any]) -> None:
    """``_require`` the value in ``values`` of each init field of config
    class ``cls`` (see ``_field_checks``); ``where`` prefixes the field
    names."""
    for name, (kind, what, ok) in _field_checks(cls).items():
        _require(where + name, values[name], what, ok, kind)


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


def sq_sums(stack: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum of squares of each (A, B) matrix of a (..., A, B) stack, the dot
    product of its flattened entries with themselves, into ``out`` (...,) if given."""
    flat = stack.reshape(stack.shape[:-2] + (1, stack.shape[-2] * stack.shape[-1]))
    return np.matmul(flat, np.swapaxes(flat, -1, -2), out=None if out is None else out[..., None, None])[..., 0, 0]


def frobenius_sq_distance(a, b) -> float:
    """Sum of squared elementwise differences, reduced as ``sq_sums`` does."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(sq_sums((a - b).reshape(1, -1)))


def softmax_rows(logits, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the trailing axis, with max-subtraction for stability.

    ``out`` is an optional C-contiguous array of the logits' shape that
    receives the result; the rows sum in the same order either way."""
    logits = as_tensor(logits)
    if logits.shape[-1] < 1:
        raise ShapeError("softmax_rows needs a non-empty trailing axis")
    e = np.subtract(logits, np.max(logits, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, np.sum(e, axis=-1, keepdims=True), out=e)


def finite_difference_gradient(f: Callable[[np.ndarray], np.ndarray], x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``x``.

    ``f`` maps a (2m, *x.shape) stack of inputs to their 2m values; it is
    called once, on x + h e_i for each of the m flat coordinates i, then
    x - h e_i for each.  Serves as the independent oracle for every
    analytic gradient in the package; it only ever calls ``f`` as a
    black box.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = as_tensor(x)
    m = x.size
    stack = np.tile(x.reshape(-1), (2, m, 1))
    stack[:, np.arange(m), np.arange(m)] += [[h], [-h]]
    fp, fm = as_tensor(f(stack.reshape((2 * m,) + x.shape))).reshape(2, m)
    bad = np.flatnonzero(~(np.isfinite(fp) & np.isfinite(fm)))
    if bad.size:
        raise NumericError(f"function evaluated non-finite at coordinate {bad[0]}")
    return ((fp - fm) / (2.0 * h)).reshape(x.shape)


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


def _fmt(*values) -> str:
    """Numbers as TSR and SCN files write them: an integer as is, else its float's shortest repr."""
    return " ".join(str(v) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in values)


def write_tsr(dest, arr) -> None:
    """Write a tensor in TSR v1 format to a path or text file object."""
    arr = as_tensor(arr)
    if arr.ndim < 1 or 0 in arr.shape:
        raise ShapeError(f"TSR tensors need at least one extent, each positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("TSR tensors must be finite")
    rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr.reshape(1, -1)
    with open_text(dest, "w") as fobj:
        fobj.write("TSR 1\n")
        fobj.write(_fmt(*arr.shape) + "\n")
        for row in rows:
            fobj.write(_fmt(*row) + "\n")


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
