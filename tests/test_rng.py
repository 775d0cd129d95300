"""Counter-mode SplitMix64 generator: exact algorithm identity,
substream independence, and distribution sanity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodistill.errors import ContractError
from geodistill.rng import CounterRng, fnv1a64, mix64

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix_reference(seed, k):
    """Output k (1-based counter) of the stream, pure Python integers."""
    z = (seed + (k * GAMMA)) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class TestMix64:
    @settings(max_examples=200, deadline=None)
    @given(z=st.integers(0, MASK) | st.integers(-(1 << 130), 1 << 130))
    @example(0)
    @example(1)
    @example(0xDEADBEEF)
    @example(MASK)
    @example(1 << 63)
    @example(-1)
    @example(-(1 << 63))
    @example(-(1 << 64) - 3)
    @example(1 << 64)
    @example((0xDEADBEEF << 64) | 7)
    def test_matches_reference_finalizer(self, z):
        """Library mix64 equals a from-scratch big-int transcription on
        any integer, negative or wider than 64 bits, taken mod 2**64."""
        w = z & MASK
        w = ((w ^ (w >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & MASK
        w ^= w >> 31
        assert mix64(z) == w

    def test_fnv1a_known_vectors(self):
        """Standard FNV-1a 64-bit test vectors."""
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a64("foobar") == 0x85944171F73967E8


class TestCounterStream:
    def test_outputs_match_scalar_reference(self):
        rng = CounterRng(42)
        got = rng.next_u64(10)
        for k, val in enumerate(got, start=1):
            assert int(val) == splitmix_reference(42, k)

    def test_counter_resumes_where_it_left_off(self):
        """Draw sizes never change the sequence, only the position."""
        a = CounterRng(7)
        b = CounterRng(7)
        chunked = np.concatenate([a.next_u64(3), a.next_u64(5), a.next_u64(2)])
        assert np.array_equal(chunked, b.next_u64(10))

    def test_same_seed_same_sequence(self):
        assert np.array_equal(CounterRng(9).uniform(100), CounterRng(9).uniform(100))
        assert not np.array_equal(CounterRng(9).uniform(100), CounterRng(10).uniform(100))

    def test_seed_wraps_to_64_bits(self):
        big = CounterRng((1 << 64) + 5)
        small = CounterRng(5)
        assert np.array_equal(big.next_u64(4), small.next_u64(4))


class TestSubstreams:
    def test_label_derivation(self):
        rng = CounterRng(42)
        sub = rng.substream("boxes")
        assert sub.seed == mix64(42 ^ fnv1a64("boxes"))
        assert sub.counter == 0

    def test_does_not_advance_parent(self):
        rng = CounterRng(42)
        before = CounterRng(42).next_u64(4)
        rng.substream("a")
        rng.substream("b")
        assert np.array_equal(rng.next_u64(4), before)

    def test_distinct_labels_distinct_streams(self):
        rng = CounterRng(42)
        a = rng.substream("alpha").uniform(50)
        b = rng.substream("beta").uniform(50)
        assert not np.array_equal(a, b)

    def test_same_label_reproduces(self):
        rng = CounterRng(42)
        assert np.array_equal(rng.substream("x").uniform(20), rng.substream("x").uniform(20))

    def test_nested_substreams(self):
        rng = CounterRng(1)
        asub = rng.substream("a").substream("b")
        direct = CounterRng(mix64(mix64(1 ^ fnv1a64("a")) ^ fnv1a64("b")))
        assert np.array_equal(asub.uniform(8), direct.uniform(8))


class TestDistributions:
    def test_uniform_range_and_shape(self):
        rng = CounterRng(3)
        u = rng.uniform((10, 20), -2.0, 5.0)
        assert u.shape == (10, 20)
        assert np.all(u >= -2.0) and np.all(u < 5.0)

    def test_uniform_matches_bit_construction(self):
        """Doubles are exactly the top 53 bits scaled by 2**-53."""
        a = CounterRng(11)
        raw = a.next_u64(16)
        want = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert np.array_equal(CounterRng(11).uniform(16), want)

    def test_uniform_moments(self):
        u = CounterRng(13).uniform(200_000)
        assert abs(float(np.mean(u)) - 0.5) < 0.005
        assert abs(float(np.var(u)) - 1.0 / 12.0) < 0.002

    def test_normal_moments(self):
        z = CounterRng(17).normal(200_000, mu=1.5, sigma=2.0)
        assert abs(float(np.mean(z)) - 1.5) < 0.02
        assert abs(float(np.std(z)) - 2.0) < 0.02
        # symmetric tails: skewness near zero
        skew = float(np.mean(((z - z.mean()) / z.std()) ** 3))
        assert abs(skew) < 0.03

    def test_normal_consumes_fixed_budget(self):
        """n normals consume 2 * ceil(n / 2) raw outputs."""
        for n, budget in ((1, 2), (4, 4), (5, 6)):
            rng = CounterRng(19)
            rng.normal(n)
            assert rng.counter == budget

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 41), skip=st.integers(0, 9), seed=st.integers(0, MASK),
        mu_sigma=st.sampled_from([(0.0, 1.0), (1.5, 0.25)]),
    )
    @example(n=1, skip=0, seed=0, mu_sigma=(0.0, 1.0))
    @example(n=2, skip=3, seed=1, mu_sigma=(0.0, 1.0))
    @example(n=7, skip=1, seed=2, mu_sigma=(1.5, 0.25))
    def test_normal_is_the_documented_box_muller_draw(self, n, skip, seed, mu_sigma):
        """normal(n) is, bit for bit, the module docstring's formula on
        the raw outputs that next_u64 gives at the same counter: m =
        ceil(n / 2) radii from the first m outputs shifted into (0, 1], m
        angles from the next m, and entry j the radius j mod m times the
        cosine (j < m) or the sine of angle j mod m + m; the counter then
        advances by 2m.  Odd and even n, shifted counters."""
        mu, sigma = mu_sigma
        rng, raw = CounterRng(seed), CounterRng(seed)
        rng.next_u64(skip)
        raw.next_u64(skip)
        got = rng.normal(n, mu, sigma)
        m = (n + 1) // 2
        top = raw.next_u64(2 * m) >> np.uint64(11)
        radius = np.sqrt(-2.0 * np.log((top[:m].astype(np.float64) + 1.0) * 2.0**-53))
        angle = 2.0 * np.pi * (top[m:].astype(np.float64) * 2.0**-53)
        j = np.arange(n)
        pair = j % max(m, 1)
        z = radius[pair] * np.where(j < m, np.cos(angle[pair]), np.sin(angle[pair]))
        assert got.tobytes() == (mu + sigma * z).tobytes()
        assert rng.counter == raw.counter

    def test_normal_finite_everywhere(self):
        z = CounterRng(23).normal((100, 100))
        assert np.all(np.isfinite(z))

    def test_scalar_shape(self):
        u = CounterRng(29).uniform(1)
        assert u.shape == (1,)
        z = CounterRng(29).normal((2, 3), sigma=0.5)
        assert z.shape == (2, 3)


@st.composite
def column_draws(draw):
    """A shape of at least one axis, a starting counter and a column
    list into the shape seen as a (shape[0], -1) matrix."""
    shape = tuple(draw(st.lists(st.integers(0, 7), min_size=1, max_size=3)))
    width = int(np.prod(shape[1:]))
    columns = draw(st.lists(st.integers(0, width - 1), max_size=3 * width)) if width else []
    skip = draw(st.integers(0, 9))
    return shape, columns, skip


class TestNormalColumns:
    @settings(max_examples=300, deadline=None)
    @given(case=column_draws(), seed=st.integers(0, (1 << 64) - 1))
    @example(case=((5,), [], 3), seed=1)
    @example(case=((6, 2), [1, 0, 1], 0), seed=2)
    @example(case=((3, 3), [2, 0, 1], 1), seed=3)
    @example(case=((3, 4), [3, 0], 2), seed=4)
    def test_equals_full_draw_bitwise(self, case, seed):
        """normal_columns picks normal(shape) as a (shape[0], -1) matrix at
        the given columns bit for bit, for odd and even row counts and
        sizes, any start counter, unsorted and repeated or empty column
        sets, and leaves the counter where normal leaves it."""
        shape, columns, skip = case
        full, part = CounterRng(seed), CounterRng(seed)
        full.next_u64(skip)
        part.next_u64(skip)
        matrix = full.normal(shape).reshape(shape[0], int(np.prod(shape[1:])))
        want = matrix[:, np.array(columns, dtype=np.int64)]
        got = part.normal_columns(shape, columns)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert part.counter == full.counter
        # later draws of both streams agree
        assert np.array_equal(part.next_u64(3), full.next_u64(3))

    def test_column_shape_is_kept(self):
        columns = np.array([[0, 3], [2, 1]])
        got = CounterRng(31).normal_columns((2, 4), columns)
        assert got.shape == (2, 2, 2)
        assert np.array_equal(got, CounterRng(31).normal((2, 4))[:, columns])
        single = CounterRng(31).normal_columns((2, 4), 1)
        assert single.shape == (2,) and np.array_equal(single, CounterRng(31).normal((2, 4))[:, 1])

    def test_bad_index_rejected(self):
        for columns in ([-1], [3], [0.5], [True]):
            with pytest.raises(ContractError):
                CounterRng(37).normal_columns((2, 3), columns)
        with pytest.raises(ContractError):
            CounterRng(37).normal_columns((), [0])
