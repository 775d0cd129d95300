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
entries can be computed without the rest (``CounterRng.normal_at``),
bit for bit.

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
    """SplitMix64 finalizer on a single 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


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

    def _polar(self, pairs: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
        """Box-Muller radius and angle of the pairs ``pairs`` of a draw of
        ``m`` pairs that starts at the current counter."""
        ks = pairs.astype(np.uint64) + np.uint64(self.counter + 1)
        # Radii from (0, 1] so log() stays finite; angles from [0, 1).
        u1 = ((self._outputs(ks) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (self._outputs(ks + np.uint64(m)) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2

    def normal(self, shape, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """Standard Box-Muller normals scaled to N(mu, sigma^2)."""
        shape, n = _shape_size(shape)
        m = (n + 1) // 2
        r, theta = self._polar(np.arange(m), m)
        self.counter += 2 * m
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return (mu + sigma * z).reshape(shape)

    def normal_at(self, shape, index, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """Entries at the flat positions ``index`` of ``normal(shape, mu,
        sigma)``, bit for bit, shaped like ``index``.

        Only the requested entries are computed, but the stream advances
        by the whole draw's 2 * ceil(n / 2) outputs, so later draws are
        the same either way.
        """
        shape, n = _shape_size(shape)
        index = np.asarray(index)
        flat = index.reshape(-1)
        if flat.size and flat.dtype.kind not in "iu":
            raise ContractError(f"normal_at index must hold integers, got {flat.dtype}")
        if flat.size and (flat.min() < 0 or flat.max() >= n):
            raise ContractError(f"normal_at index outside [0, {n})")
        m = (n + 1) // 2
        sine = flat >= m
        r, theta = self._polar(np.where(sine, flat - m, flat), m)
        self.counter += 2 * m
        z = np.cos(theta, out=np.empty_like(theta), where=~sine)
        np.sin(theta, out=z, where=sine)
        z *= r
        return (mu + sigma * z).reshape(index.shape)


def _shape_size(shape) -> Tuple[Tuple[int, ...], int]:
    """``shape`` (int or tuple) as a tuple, and its element count."""
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    return shape, int(np.prod(shape)) if shape else 1
