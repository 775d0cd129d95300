"""Tensor helpers, matrix kernels, finite differences, and TSR files."""

import io
import math

import numpy as np
import pytest

from geodistill import (
    FormatError,
    NumericError,
    ShapeError,
    as_tensor,
    check_finite,
    finite_difference_gradient,
    frobenius_sq_distance,
    matmul,
    read_tsr,
    softmax_rows,
    write_tsr,
)
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
        g = finite_difference_gradient(lambda x: float(np.sum(x * x)), np.array([1.0, 2.0]))
        assert np.allclose(g, [2.0, 4.0], rtol=1e-8, atol=1e-8)

    def test_constant_function(self):
        g = finite_difference_gradient(lambda x: 3.5, np.ones((2, 2)))
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda x: 0.0, np.ones(2), h=0.0)

    def test_nonfinite_value_raises(self):
        """An overflowing objective surfaces as NumericError."""
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            finite_difference_gradient(lambda x: float(np.exp(x[0] * 1e6)), np.array([2000.0]))


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

    def test_scalar_and_1d(self):
        buf = io.StringIO()
        write_tsr(buf, np.array([7.0, 8.0, 9.0]))
        buf.seek(0)
        assert np.array_equal(read_tsr(buf), [7.0, 8.0, 9.0])

    def test_rejects_bad_header(self):
        with pytest.raises(FormatError):
            read_tsr(io.StringIO("NOPE 1\n2\n1.0 2.0\n"))

    def test_rejects_wrong_count(self):
        with pytest.raises(FormatError):
            read_tsr(io.StringIO("TSR 1\n3\n1.0 2.0\n"))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(FormatError):
            write_tsr(io.StringIO(), np.array([1.0, np.nan]))
        with pytest.raises(FormatError):
            read_tsr(io.StringIO("TSR 1\n2\nnan 1.0\n"))