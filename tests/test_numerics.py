"""Tensor helpers, matrix kernels, finite differences, and TSR files."""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geodistill import (
    LOSS_REDUCTIONS,
    CategoricalDepthMap,
    ConfigError,
    DepthBins,
    FormatError,
    NumericError,
    ReferenceSelection,
    ShapeError,
    as_tensor,
    check_finite,
    finite_difference_gradient,
    frobenius_sq_distance,
    inner_depth_loss,
    inter_channel_loss,
    inter_keypoint_loss,
    matmul,
    read_tsr,
    softmax_rows,
    write_tsr,
)
from geodistill.numerics import _fmt, sq_sums
from geodistill.rng import CounterRng


def softmax_oracle(row):
    """Scalar exp/sum softmax for comparison."""
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


class TestAsTensor:
    def test_returns_float64(self):
        """Lists and integer arrays are converted to float64."""
        t = as_tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float64
        assert t.shape == (2, 2)

    def test_check_finite_rejects_nan_and_inf(self):
        """check_finite raises on NaN or infinity."""
        with pytest.raises(NumericError):
            check_finite(np.array([1.0, np.nan]), "x")
        with pytest.raises(NumericError):
            check_finite(np.array([np.inf]), "x")
        check_finite(np.array([1.0, -2.0]), "x")


class TestLossReductions:
    def test_every_loss_accepts_the_listed_reductions_only(self):
        """The depth and Gram losses take each of LOSS_REDUCTIONS and
        reject any other name with one message."""
        depth_map, bins = CategoricalDepthMap(np.zeros((2, 1, 1))), DepthBins(2)
        losses = (
            lambda r: inner_depth_loss([], depth_map, bins, ReferenceSelection(), r),
            lambda r: inter_channel_loss([], "none", r),
            lambda r: inter_keypoint_loss([], "none", r),
        )
        for loss in losses:
            for reduction in LOSS_REDUCTIONS:
                assert loss(reduction).empty
            with pytest.raises(ConfigError, match="unknown loss reduction 'max'"):
                loss("max")


class TestMatmul:
    def test_identity(self):
        """I2 times X returns X unchanged."""
        x = np.array([[1.5, -2.0], [0.25, 7.0]])
        assert np.array_equal(matmul(np.eye(2), x), x)

    def test_hand_example(self):
        """[[1,2],[3,4]]^T [[1,2],[3,4]] is [[10,14],[14,20]]."""
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(f.T, f), np.array([[10.0, 14.0], [14.0, 20.0]]))

    def test_zero_matrix(self):
        """A zero factor yields an all-zero product."""
        z = np.zeros((3, 4))
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(matmul(z, x), np.zeros((3, 3)))

    def test_shape_error(self):
        """Mismatched inner dimensions raise ShapeError."""
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_batched_shape_errors(self):
        """Only 2-D operands are accepted: 3-D stacks are rejected."""
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3, 4)), np.zeros((2, 4, 5)))
        with pytest.raises(ShapeError):
            matmul(np.zeros((3, 4)), np.zeros((2, 4, 5)))
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3, 4)), np.zeros((4, 5)))

    def test_random_against_numpy(self):
        """Seeded random products agree with numpy within roundoff."""
        rng = CounterRng(11)
        for i in range(20):
            sub = rng.substream(f"mm-{i}")
            a = sub.normal((5, 7))
            b = sub.normal((7, 3))
            assert np.allclose(matmul(a, b), a @ b, rtol=1e-13, atol=1e-13)


class TestFrobenius:
    def test_identical_inputs_are_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert frobenius_sq_distance(x, x) == 0.0

    def test_hand_values(self):
        """([1,2],[1,0]) -> 4 and ([0],[3]) -> 9."""
        assert frobenius_sq_distance(np.array([1.0, 2.0]), np.array([1.0, 0.0])) == 4.0
        assert frobenius_sq_distance(np.array([0.0]), np.array([3.0])) == 9.0

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            frobenius_sq_distance(np.zeros(2), np.zeros(3))

    def test_sq_sums_of_stacks(self):
        """Each matrix of a (2, 3, 4, 7) stack reduces to its own
        frobenius_sq_distance from zero, bit for bit, and within 1e-12 of
        numpy's sum of squares; ``out`` receives the sums, and a stack of
        no matrices or of empty ones gives zeros."""
        x = CounterRng(5).substream("sq").normal((2, 3, 4, 7))
        out = np.empty((2, 3))
        got = sq_sums(x, out)
        assert np.shares_memory(got, out)
        for idx in np.ndindex(2, 3):
            assert out[idx] == frobenius_sq_distance(x[idx], np.zeros((4, 7)))
            assert out[idx] == pytest.approx(np.sum(x[idx] ** 2), rel=1e-12)
        assert sq_sums(np.zeros((0, 4, 7))).shape == (0,)
        assert np.array_equal(sq_sums(np.zeros((3, 0, 7))), np.zeros(3))


class TestSoftmaxRows:
    def test_uniform_on_equal_logits(self):
        """All-zero logits give the uniform distribution."""
        out = softmax_rows(np.zeros((1, 3)))
        assert np.allclose(out, 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_saturation(self):
        """A huge logit gap saturates to (about) one-hot without overflow."""
        out = softmax_rows(np.array([[800.0, -800.0]]))
        assert out[0, 0] > 1.0 - 1e-12
        assert out[0, 1] < 1e-12

    def test_matches_scalar_oracle(self):
        """Row-wise values match a direct exp/sum evaluation."""
        rng = CounterRng(5)
        rows = rng.normal((8, 6), sigma=3.0)
        out = softmax_rows(rows)
        for i in range(8):
            assert np.allclose(out[i], softmax_oracle(list(rows[i])), rtol=1e-12, atol=0)
        assert np.allclose(np.sum(out, axis=1), 1.0, rtol=0, atol=1e-12)


class TestFiniteDifference:
    def test_known_quadratic(self):
        """Gradient of ||x||^2 at [1, 2] is about [2, 4]."""
        g = finite_difference_gradient(lambda xs: np.sum(xs * xs, axis=1), np.array([1.0, 2.0]))
        assert np.allclose(g, [2.0, 4.0], rtol=1e-8, atol=1e-8)

    def test_constant_function(self):
        g = finite_difference_gradient(lambda xs: np.full(len(xs), 3.5), np.ones((2, 2)))
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda xs: np.zeros(len(xs)), np.ones(2), h=0.0)

    def test_nonfinite_value_raises(self):
        """An overflowing objective surfaces as NumericError."""
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            finite_difference_gradient(lambda xs: np.exp(xs[:, 0] * 1e6), np.array([2000.0]))

    def test_nonfinite_error_names_the_first_overflowing_coordinate(self):
        """exp(1e6 * max(x1, x2)) is finite at x and at x +- h e_0, and
        overflows at x + h e_1 and x + h e_2: the error names coordinate 1."""
        x = np.array([0.0, 7.095e-4, 7.095e-4])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="at coordinate 1$"):
            finite_difference_gradient(lambda xs: np.exp(np.max(xs[:, 1:], axis=1) * 1e6), x)

    def test_one_call_on_the_plus_then_minus_stack(self):
        """f is called once, on x + h e_i for every flat coordinate i, then
        x - h e_i, stacked along a leading axis of length 2m."""
        x = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.5]])
        h = 1e-3
        calls = []

        def f(xs):
            calls.append(xs.copy())
            return np.sum(xs, axis=(1, 2))

        finite_difference_gradient(f, x, h)
        assert len(calls) == 1 and calls[0].shape == (12, 2, 3)
        for i in range(6):
            plus, minus = x.copy().reshape(-1), x.copy().reshape(-1)
            plus[i] += h
            minus[i] -= h
            assert np.array_equal(calls[0][i].reshape(-1), plus)
            assert np.array_equal(calls[0][6 + i].reshape(-1), minus)

    def test_wrong_value_count_rejected(self):
        """A function that does not return one value per stacked input,
        such as a scalar function of one input, is an error."""
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda xs: 1.0, np.ones(3))
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda xs: np.zeros(len(xs) + 1), np.ones(3))


class TestTsrFormat:
    def test_round_trip_path(self, tmp_path):
        """Write then read through a file path restores shape and values."""
        data = CounterRng(3).normal((2, 3, 4))
        path = tmp_path / "t.tsr"
        write_tsr(path, data)
        back = read_tsr(path)
        assert back.shape == (2, 3, 4)
        assert np.array_equal(back, data)

    def test_round_trip_file_object(self):
        data = np.array([[1.0, 0.5], [-2.25, 1e-17]])
        buf = io.StringIO()
        write_tsr(buf, data)
        buf.seek(0)
        assert np.array_equal(read_tsr(buf), data)

    def test_repr_precision_preserves_bits(self):
        """Every float64 survives the text round trip bit for bit."""
        vals = np.array([math.pi, 1.0 / 3.0, 2.0**-52, 6.02e23])
        buf = io.StringIO()
        write_tsr(buf, vals)
        buf.seek(0)
        assert np.array_equal(read_tsr(buf), vals)

    def test_text_of_numbers(self):
        """TSR and SCN files write numbers through one formatter: an
        integer, numpy's too, as is, any other number as the shortest repr
        of its float; a TSR file's extents and rows are that text."""
        assert _fmt(3, np.int64(4), 0.1, np.float64(1e-300), np.float32(0.5), -0.0) == "3 4 0.1 1e-300 0.5 -0.0"
        buf = io.StringIO()
        write_tsr(buf, np.array([[1.0, 0.1], [2.5, -0.0]]))
        assert buf.getvalue() == "TSR 1\n2 2\n1.0 0.1\n2.5 -0.0\n"

    def test_scalar_and_1d(self):
        buf = io.StringIO()
        write_tsr(buf, np.array([7.0, 8.0, 9.0]))
        buf.seek(0)
        assert np.array_equal(read_tsr(buf), [7.0, 8.0, 9.0])

    def test_rejects_bad_header(self):
        with pytest.raises(FormatError):
            read_tsr(io.StringIO("NOPE 1\n2\n1.0 2.0\n"))

    def test_rejects_wrong_count(self):
        """The value count must equal the product of the extents, counted
        exactly also where the product wraps around in int64."""
        for extents, values in (
            ("3", "1.0 2.0\n"),
            ("3037000500 3037000500", ""), ("3037000500 3037000500", "1.0 2.0\n"),
            ("4294967296 4294967296", ""), ("4294967296 4294967296", "1.0 2.0\n"),
        ):
            with pytest.raises(FormatError):
                read_tsr(io.StringIO(f"TSR 1\n{extents}\n{values}"))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(FormatError):
            write_tsr(io.StringIO(), np.array([1.0, np.nan]))
        with pytest.raises(FormatError):
            read_tsr(io.StringIO("TSR 1\n2\nnan 1.0\n"))

    @settings(max_examples=100, deadline=None)
    @given(shape=st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple))
    @example(shape=(0, 3))
    @example(shape=(0,))
    @example(shape=(2, 0))
    def test_writer_round_trips_or_refuses_every_shape(self, shape, tmp_path_factory):
        """Every shape of 1-3 extents in 0-4 either reads back bit for bit
        or is refused by the writer with ShapeError, before a file is
        made; a tensor with a zero extent is refused."""
        path = tmp_path_factory.mktemp("tsr") / "t.tsr"
        arr = CounterRng(sum(shape)).normal(shape)
        if 0 in shape:
            with pytest.raises(ShapeError):
                write_tsr(path, arr)
            assert not path.exists()
            return
        write_tsr(path, arr)
        back = read_tsr(path)
        assert back.shape == shape and back.tobytes() == arr.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        arr=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(arr=np.array([-0.0, 0.0, 5e-324, -2.2250738585072009e-308]))
    @example(arr=np.array([[np.finfo(float).max], [-np.finfo(float).max]]))
    def test_round_trip_property(self, arr):
        """write_tsr then read_tsr returns every finite array bit for bit,
        signed zeros, subnormals and the largest magnitudes included."""
        buf = io.StringIO()
        write_tsr(buf, arr)
        buf.seek(0)
        back = read_tsr(buf)
        assert back.shape == arr.shape
        assert back.tobytes() == np.ascontiguousarray(arr).tobytes()
