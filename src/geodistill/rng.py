"""Counter-based pseudo-random generator for reproducible fixtures.

The generator is SplitMix64 driven in counter mode: output ``k`` of a
stream with seed ``s`` is

    out[k] = mix64((s + (k + 1) * GAMMA) mod 2**64)

with GAMMA = 0x9E3779B97F4A7C15 and ``mix64`` the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic mod 2**64).  Uniform doubles take the top 53 bits,
``u = (out >> 11) * 2**-53``, so ``u`` lies in [0, 1).  Normal draws use
the Box-Muller transform: a request for ``n`` normals consumes ``2 * m``
outputs with ``m = ceil(n / 2)``; the first ``m`` become radii (shifted
into (0, 1] so the log is finite), the second ``m`` become angles.
Entry ``j`` of the draw pairs radius ``j mod m`` with angle
``j mod m + m`` and takes the cosine when ``j < m``, the sine otherwise.
Because output ``k`` is a function of ``k`` alone, any subset of the
entries can be computed without the rest, bit for bit:
``CounterRng.normal_columns`` computes some columns of a draw seen as a
(rows, columns) matrix.  When the row count is even, ``m`` is a whole
number of rows, so rows ``k`` and ``k + rows / 2`` of a column take the
cosine and the sine of one pair.

Named substreams are independent streams seeded with
``mix64(parent_seed XOR fnv1a64(label))``.  They never consume parent
state, so the draw sequence of one stream cannot depend on another.

Everything here is plain integer arithmetic, stable across releases and
easy to reimplement elsewhere, which keeps generated fixtures portable.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import ContractError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a single integer, taken mod 2**64."""
    return int(_mix64_array(np.array([z & _MASK], dtype=np.uint64))[0])


def fnv1a64(label: str) -> int:
    """FNV-1a hash of a UTF-8 label, used to derive substream seeds."""
    h = _FNV_BASIS
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class CounterRng:
    """Deterministic stream of f64 draws backed by counter-mode SplitMix64."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self.counter = 0

    def substream(self, label: str) -> "CounterRng":
        """Independent child stream; does not advance this stream."""
        return CounterRng(mix64(self.seed ^ fnv1a64(label)))

    def _outputs(self, ks: np.ndarray) -> np.ndarray:
        """Raw outputs at the 1-based uint64 counters ``ks``."""
        return _mix64_array(np.uint64(self.seed) + ks * np.uint64(_GAMMA))

    def next_u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        ks = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return self._outputs(ks)

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Uniform draws in [lo, hi), shaped per ``shape`` (int or tuple)."""
        shape, n = _shape_size(shape)
        u = (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (lo + (hi - lo) * u).reshape(shape)

    def normal(self, shape, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """Standard Box-Muller normals scaled to N(mu, sigma^2): the one
        column of an (n, 1) draw."""
        shape, n = _shape_size(shape)
        return (mu + sigma * self._columns(n, 1, np.zeros((1, 1), np.int64))).reshape(shape)

    def normal_columns(self, shape, columns) -> np.ndarray:
        """Columns ``columns`` of ``normal(shape)`` seen as a (shape[0], -1)
        matrix, bit for bit, shaped (shape[0],) + columns.shape.

        Only the requested entries are computed, but the stream advances
        by the whole draw's 2 * ceil(n / 2) outputs, so later draws are
        the same either way.
        """
        shape, _ = _shape_size(shape)
        if not shape:
            raise ContractError("normal_columns needs a shape with at least one axis")
        width = int(np.prod(shape[1:]))
        columns = np.asarray(columns)
        if columns.size and columns.dtype.kind not in "iu":
            raise ContractError(f"normal_columns index must hold integers, got {columns.dtype}")
        if columns.size and (columns.min() < 0 or columns.max() >= width):
            raise ContractError(f"normal_columns index outside [0, {width})")
        z = self._columns(shape[0], width, columns.reshape(1, -1).astype(np.int64))
        return z.reshape((shape[0],) + columns.shape)

    def _columns(self, lead: int, width: int, cols: np.ndarray) -> np.ndarray:
        """The (lead, k) entries at the (1, k) int64 columns ``cols`` of a
        (lead, width) normal draw in the module docstring's arrangement,
        each pair computed once; the stream advances by the whole draw."""
        m = (lead * width + 1) // 2
        start = np.uint64(self.counter + 1)
        if lead % 2:  # pairs straddle rows: each entry takes its own pair
            flat = cols + width * np.arange(lead)[:, None]
            sine = flat >= m
            ks = np.where(sine, flat - m, flat).astype(np.uint64) + start
        else:
            ks = (cols.astype(np.uint64) + start) + np.uint64(width) * np.arange(lead // 2, dtype=np.uint64)[:, None]
        self.counter += 2 * m
        # radii from (0, 1] so log() stays finite; angles from [0, 1)
        r = np.sqrt(-2.0 * np.log(((self._outputs(ks) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53))
        theta = 2.0 * np.pi * ((self._outputs(ks + np.uint64(m)) >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        if lead % 2:
            return r * np.where(sine, np.sin(theta), np.cos(theta))
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])


def _shape_size(shape) -> Tuple[Tuple[int, ...], int]:
    """``shape`` (int or tuple) as a tuple, and its element count."""
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    return shape, int(np.prod(shape)) if shape else 1
