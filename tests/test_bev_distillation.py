"""Keypoint sampling, bilinear feature extraction, Gram matrices, and the
BEV feature-relation losses with their gradients."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodistill import (
    GRAM_NORMALIZATIONS,
    LOSS_REDUCTIONS,
    BevFeatureMap,
    BevGrid,
    Box3D,
    ConfigError,
    ContractError,
    KeypointSet,
    NumericError,
    TargetKeypointFeatures,
    bev_distill_loss,
    bev_distill_terms,
    bilinear_sample,
    build_distill_plan,
    enlarge_box_bev,
    finite_difference_gradient,
    inter_channel_gram,
    inter_channel_loss,
    inter_keypoint_gram,
    inter_keypoint_loss,
    points_in_box,
    sample_keypoints,
)
from geodistill.bev_distillation import _gram_losses, _interpolation, _row_canonical
from geodistill.oracles import bilinear_scalar, gram_channel_loops, gram_keypoint_loops
from geodistill.rng import CounterRng

GRID5 = BevGrid(-4.0, 4.0, -4.0, 4.0, 5, 5)


def hand_corners(pts, h, w):
    """(4, N) flat cells and weights of border-clamped bilinear
    interpolation at (N, 2) points, corners (r0, c0), (r0, c1), (r1, c0),
    (r1, c1)."""
    r = np.clip(pts[:, 0], 0.0, h - 1.0)
    q = np.clip(pts[:, 1], 0.0, w - 1.0)
    r0, q0 = np.floor(r).astype(int), np.floor(q).astype(int)
    r1, q1 = np.minimum(r0 + 1, h - 1), np.minimum(q0 + 1, w - 1)
    fr, fq = r - r0, q - q0
    cells = np.array([r0 * w + q0, r0 * w + q1, r1 * w + q0, r1 * w + q1])
    weights = np.array([(1.0 - fr) * (1.0 - fq), (1.0 - fr) * fq, fr * (1.0 - fq), fr * fq])
    return cells, weights


def add_at_scatter(shape, cells, weights, upstream):
    """(C, H, W) adjoint of (T, N, C) point gradients at (T, 4, N) corner
    cells and weights: one np.add.at over the corners in C order, from
    zero."""
    c, h, w = shape
    out = np.zeros((h * w, c))
    np.add.at(out, cells.ravel(), (weights[..., None] * upstream[:, None]).reshape(-1, c))
    return np.ascontiguousarray(out.T.reshape(c, h, w))


def corner_stack(boxes, grid, g, enlarge=1.25):
    """(T, 4, N) flat cells and weights of every box's keypoint corners,
    by the corner formula."""
    corners = [
        hand_corners(sample_keypoints(box, grid, g=g, enlarge=enlarge).points, grid.h_bev, grid.w_bev)
        for box in boxes
    ]
    return tuple(np.array(part) for part in zip(*corners))


def scatter_map(shape, points, upstream):
    """(C, H, W) adjoint of ``bilinear_sample`` at (N, 2) points: the
    transposed product of the interpolation matrix it multiplies, placed
    at the cells of that matrix's window."""
    c, h, w = shape
    live, win, mat, _, _ = _interpolation(points[None], h, w)
    out = np.zeros((c, h * w))
    out[:, live[win[0]]] = (mat[0].T @ upstream).T
    return out.reshape(c, h, w)


def assert_close(got, want, tol=1e-12):
    """Entries agree within ``tol`` of the larger of 1 and want's largest
    magnitude."""
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(np.asarray(got) - want), initial=0.0)) <= tol * scale


def random_orthogonal(rng, n):
    """Orthogonal matrix from the QR decomposition of a Gaussian draw."""
    q, r = np.linalg.qr(rng.normal((n, n)))
    return q * np.sign(np.diag(r))


def make_targets(rng, count, n, c):
    out = []
    for i in range(count):
        sub = rng.substream(f"tkf-{i}")
        out.append(
            TargetKeypointFeatures(student=sub.normal((n, c)), teacher=sub.normal((n, c)))
        )
    return out


class TestSampleKeypoints:
    def test_symmetric_hand_lattice(self):
        """A centered axis-aligned box with g=2 and no enlargement yields
        the four cell centers around the grid middle: 5x5 cells of size
        1.6 put world (+-0.8, +-0.8) at rows/cols {1.5, 2.5}."""
        box = Box3D(center=[0.0, 0.0, 0.0], size=[3.2, 3.2, 1.0], yaw=0.0)
        kp = sample_keypoints(box, GRID5, g=2, enlarge=1.0)
        got = set(map(tuple, np.round(kp.points, 12)))
        assert got == {(1.5, 1.5), (1.5, 2.5), (2.5, 1.5), (2.5, 2.5)}
        assert not kp.clipped

    def test_lattice_size_is_g_squared(self):
        box = Box3D(center=[1.0, -0.5, 0.2], size=[2.0, 1.0, 1.5], yaw=0.3)
        for g in (2, 3, 6):
            kp = sample_keypoints(box, GRID5, g=g)
            assert len(kp) == g * g
            assert kp.points.shape == (g * g, 2)

    def test_quarter_turn_of_square_footprint_same_set(self):
        """Rotating a square footprint by pi/2 permutes the lattice but
        leaves the point set unchanged."""
        box = Box3D(center=[0.5, -0.3, 0.0], size=[2.0, 2.0, 1.0], yaw=0.0)
        turned = Box3D(center=[0.5, -0.3, 0.0], size=[2.0, 2.0, 1.0], yaw=np.pi / 2)
        a = sample_keypoints(box, GRID5, g=3).points
        b = sample_keypoints(turned, GRID5, g=3).points
        set_a = set(map(tuple, np.round(a, 9)))
        set_b = set(map(tuple, np.round(b, 9)))
        assert set_a == set_b

    def test_points_interior_to_enlarged_footprint(self):
        """Every keypoint lies inside the enlarged box footprint and
        outside none; tested in world space against the half-space oracle."""
        rng = CounterRng(71)
        grid = BevGrid(-10.0, 10.0, -10.0, 10.0, 16, 16)
        for i in range(20):
            sub = rng.substream(f"kp-{i}")
            center = sub.uniform(2, -4.0, 4.0)
            size = sub.uniform(2, 0.8, 3.0)
            yaw = float(sub.uniform(1, -np.pi, np.pi)[0])
            box = Box3D(center=[center[0], center[1], 0.5], size=[size[0], size[1], 1.0], yaw=yaw)
            kp = sample_keypoints(box, grid, g=4, enlarge=1.25)
            # map rows/cols back to world and test against the enlarged box
            from geodistill import bev_to_world

            world = bev_to_world(grid, kp.points)
            pts3 = np.column_stack([world, np.full(len(world), 0.5)])
            big = enlarge_box_bev(box, 1.25)
            assert np.all(points_in_box(big, pts3))

    def test_clipped_flag(self):
        """Footprints reaching beyond the outermost cell centers by more
        than half a cell set ``clipped``."""
        small = Box3D(center=[0.0, 0.0, 0.0], size=[1.0, 1.0, 1.0], yaw=0.0)
        huge = Box3D(center=[3.9, 0.0, 0.0], size=[6.0, 1.0, 1.0], yaw=0.0)
        assert not sample_keypoints(small, GRID5, g=2, enlarge=1.0).clipped
        assert sample_keypoints(huge, GRID5, g=2, enlarge=1.0).clipped

    def test_g_below_two_rejected(self):
        box = Box3D(center=[0.0, 0.0, 0.0], size=[1.0, 1.0, 1.0], yaw=0.0)
        with pytest.raises(ValueError):
            sample_keypoints(box, GRID5, g=1)
        with pytest.raises(ContractError):
            KeypointSet(points=np.zeros((3, 2)), g=2)

    @pytest.mark.parametrize("shape", [(2, 4), (8,), (4, 1), (2, 2, 2)])
    def test_points_not_g_squared_pairs_rejected(self, shape):
        """A lattice is exactly (g*g, 2) points; an array of another shape
        is a ContractError, not a reshape into g*g points, even when it
        holds 2*g*g values."""
        assert KeypointSet(points=np.zeros((4, 2)), g=2).points.shape == (4, 2)
        with pytest.raises(ContractError, match=r"\(g\*g, 2\) points"):
            KeypointSet(points=np.zeros(shape), g=2)

    def test_plan_targets_follow_input_order(self):
        """The plan stacks one lattice per box in input order: its target j
        holds the teacher sampled at box j's keypoints, either way round,
        to 1e-12 and, in a plan of that box alone, which multiplies the
        same matrix as ``bilinear_sample``, bit for bit."""
        boxes = [
            Box3D(center=[0.0, 0.0, 0.0], size=[1.0, 1.0, 1.0], yaw=0.0),
            Box3D(center=[1.0, 1.0, 0.0], size=[1.0, 2.0, 1.0], yaw=0.4),
        ]
        teacher = BevFeatureMap(CounterRng(3).normal((2, 5, 5)), GRID5)
        for order in (boxes, boxes[::-1]):
            plan = build_distill_plan(teacher, order, 2)
            for j, box in enumerate(order):
                want = bilinear_sample(teacher, sample_keypoints(box, GRID5, g=2))
                assert_close(plan.teacher[j], want)
                assert build_distill_plan(teacher, [box], 2).teacher[0].tobytes() == want.tobytes()


class TestBilinearSample:
    def test_integer_coordinates_exact(self):
        data = CounterRng(73).normal((3, 4, 5))
        feat = BevFeatureMap(data, BevGrid(0.0, 5.0, 0.0, 4.0, 4, 5))
        pts = np.array([[0.0, 0.0], [2.0, 3.0], [3.0, 4.0]])
        out = bilinear_sample(feat, pts)
        for k, (r, c) in enumerate(pts.astype(int)):
            assert np.array_equal(out[k], data[:, r, c])

    def test_midpoint_is_mean_of_neighbors(self):
        data = np.zeros((1, 2, 2))
        data[0] = [[1.0, 3.0], [5.0, 7.0]]
        out = bilinear_sample(data, [[0.5, 0.5]])
        assert out[0, 0] == pytest.approx(4.0, abs=1e-15)

    def test_out_of_range_clamps_to_border(self):
        data = np.arange(6.0).reshape(1, 2, 3)
        out = bilinear_sample(data, [[-2.0, -2.0], [5.0, 9.0]])
        assert out[0, 0] == data[0, 0, 0]
        assert out[1, 0] == data[0, 1, 2]

    def test_matches_scalar_oracle(self):
        rng = CounterRng(79)
        data = rng.normal((4, 6, 7))
        pts = np.column_stack([rng.uniform(50, -1.0, 6.5), rng.uniform(50, -1.0, 7.5)])
        out = bilinear_sample(data, pts)
        for k in range(50):
            want = bilinear_scalar(data, float(pts[k, 0]), float(pts[k, 1]))
            assert np.allclose(out[k], want, rtol=0, atol=1e-12)

    def test_adjoint_identity(self):
        """<sample(F, P), U> equals <F, scatter(P, U)> for random draws."""
        rng = CounterRng(83)
        for i in range(30):
            sub = rng.substream(f"adj-{i}")
            data = sub.normal((3, 5, 4))
            pts = np.column_stack([sub.uniform(6, -0.8, 4.8), sub.uniform(6, -0.8, 3.8)])
            up = sub.normal((6, 3))
            lhs = float(np.sum(bilinear_sample(data, pts) * up))
            rhs = float(np.sum(data * scatter_map(data.shape, pts, up)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_backward_equals_add_at_loop(self):
        """The transposed interpolation product gives, to 1e-12, the map of
        scattering the four corners in order with np.add.at, points in
        order, from zero; repeated and border-clamped points share cells."""
        rng = CounterRng(85)
        for i in range(30):
            sub = rng.substream(f"addat-{i}")
            c, h, w = 3, 4, 5
            pts = np.column_stack([sub.uniform(9, -1.0, h + 0.5), sub.uniform(9, -1.0, w + 0.5)])
            pts[5:] = pts[:4]
            up = sub.normal((9, c))
            cells, weights = hand_corners(pts, h, w)
            want = add_at_scatter((c, h, w), cells[None], weights[None], up[None])
            assert_close(scatter_map((c, h, w), pts, up), want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), c=st.integers(1, 4), h=st.integers(1, 6), w=st.integers(1, 6),
           n=st.integers(1, 8), seed=st.integers(0, 2**31))
    def test_adjoint_identity_property(self, data, c, h, w, n, seed):
        """<sample(F, P), U> equals <F, scatter(P, U)> to 1e-12 on grids
        down to one cell per axis, with points up to one cell outside."""
        rows = st.floats(-1.0, float(h), allow_nan=False)
        cols = st.floats(-1.0, float(w), allow_nan=False)
        pts = np.array(data.draw(st.lists(st.tuples(rows, cols), min_size=n, max_size=n)))
        rng = CounterRng(seed)
        feat = rng.normal((c, h, w))
        up = rng.normal((n, c))
        lhs = float(np.sum(bilinear_sample(feat, pts) * up))
        rhs = float(np.sum(feat * scatter_map(feat.shape, pts, up)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_rejected(self, value):
        """Sampling and the interpolation matrices that plans are built on
        raise NumericError on a non-finite point rather than index with
        its integer cast."""
        pts = np.array([[0.5, 0.5], [1.0, value]])
        with pytest.raises(NumericError, match="sample points"):
            bilinear_sample(np.zeros((2, 3, 3)), pts)
        with pytest.raises(NumericError, match="sample points"):
            _interpolation(pts[None], 3, 3)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (), (4, 1), (2, 2, 3)])
    def test_points_without_a_last_axis_of_two_rejected(self, shape):
        """Points are (row, col) pairs on the last axis; any other shape is
        a ContractError, not a reshape into some other count of points."""
        with pytest.raises(ContractError, match="sample points"):
            bilinear_sample(np.zeros((2, 3, 3)), np.zeros(shape))

    def test_zero_channels_give_zero_columns(self):
        out = bilinear_sample(np.zeros((0, 2, 2)), [[0.5, 0.5], [1.0, 0.0]])
        assert out.shape == (2, 0)

    @pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0), (3, 3)])
    def test_features_without_cells_rejected(self, shape):
        with pytest.raises(ContractError, match="features must be"):
            bilinear_sample(np.zeros(shape), [[0.0, 0.0]])


class TestGramMatrices:
    def test_identity_features(self):
        assert np.array_equal(inter_channel_gram(np.eye(2)), np.eye(2))
        assert np.array_equal(inter_keypoint_gram(np.eye(2)), np.eye(2))

    def test_hand_two_by_two(self):
        """F = [[1,2],[3,4]]: FtF = [[10,14],[14,20]], FFt = [[5,11],[11,25]]."""
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(inter_channel_gram(f), [[10.0, 14.0], [14.0, 20.0]])
        assert np.array_equal(inter_keypoint_gram(f), [[5.0, 11.0], [11.0, 25.0]])

    def test_matches_loop_oracles(self):
        rng = CounterRng(89)
        for i in range(100):
            sub = rng.substream(f"gram-{i}")
            n = 2 + int(sub.uniform(1)[0] * 6)
            c = 2 + int(sub.uniform(1)[0] * 6)
            f = 2.0 * sub.normal((n, c))
            assert np.allclose(inter_channel_gram(f), gram_channel_loops(f), rtol=0, atol=1e-12)
            assert np.allclose(inter_keypoint_gram(f), gram_keypoint_loops(f), rtol=0, atol=1e-12)

    def test_symmetric_and_psd(self):
        rng = CounterRng(97)
        for i in range(30):
            f = rng.substream(f"psd-{i}").normal((5, 3))
            for gram in (inter_channel_gram(f), inter_keypoint_gram(f)):
                assert np.array_equal(gram, gram.T)
                eig = np.linalg.eigvalsh(gram)
                assert eig.min() >= -1e-9 * max(np.trace(gram), 1.0)

    def test_traces_agree_with_squared_norm(self):
        f = CounterRng(101).normal((6, 4))
        want = float(np.sum(f * f))
        assert np.trace(inter_channel_gram(f)) == pytest.approx(want, rel=1e-12)
        assert np.trace(inter_keypoint_gram(f)) == pytest.approx(want, rel=1e-12)

    def test_channel_gram_row_permutation_bitwise(self):
        """Reordering keypoint rows leaves the channel Gram bitwise equal."""
        rng = CounterRng(103)
        for i in range(100):
            sub = rng.substream(f"perm-{i}")
            n = 3 + int(sub.uniform(1)[0] * 6)
            f = sub.normal((n, 4))
            perm = np.argsort(sub.uniform(n), kind="stable")
            for norm in ("none", "count", "l2"):
                a = inter_channel_gram(f, norm)
                b = inter_channel_gram(f[perm], norm)
                assert np.array_equal(a, b)

    def test_stack_equals_each_target_bitwise(self):
        """A (T, N, C) stack gives each target's Gram bit for bit."""
        rng = CounterRng(105)
        for i in range(20):
            sub = rng.substream(f"stack-{i}")
            t, n, c = (2 + int(v * 5) for v in sub.uniform(3))
            f = sub.normal((t, n, c))
            for norm in GRAM_NORMALIZATIONS:
                ic = inter_channel_gram(f, norm)
                ik = inter_keypoint_gram(f, norm)
                assert ic.shape == (t, c, c) and ik.shape == (t, n, n)
                for j in range(t):
                    assert ic[j].tobytes() == inter_channel_gram(f[j], norm).tobytes()
                    assert ik[j].tobytes() == inter_keypoint_gram(f[j], norm).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 10), st.integers(1, 4)),
        alphabet=st.lists(st.sampled_from([-0.7, -0.0, 0.0, 0.1, 0.3, 1e8]), min_size=1, max_size=4),
        seed=st.integers(0, 2**31),
    )
    def test_channel_gram_accumulates_in_full_lexicographic_row_order(self, shape, alphabet, seed):
        """Rows that tie on leading columns (few distinct values) are
        still put in each target's full lexicographic order: each Gram
        is the product of its lexsorted rows, bit for bit."""
        pick = np.array(alphabet)[
            (CounterRng(seed).uniform(shape) * len(alphabet)).astype(int)
        ]
        grams = inter_channel_gram(pick)
        for j, f in enumerate(pick):
            rows = f[np.lexsort(f.T[::-1])]
            assert grams[j].tobytes() == (rows.T @ rows).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        lead=st.lists(st.integers(0, 4), min_size=1, max_size=2),
        n=st.integers(1, 10),
        c=st.integers(1, 4),
        alphabet=st.lists(st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1.0, 2.0]), min_size=1, max_size=4),
        seed=st.integers(0, 2**31),
    )
    @example(lead=[2, 3], n=5, c=3, alphabet=[-0.0, 0.0, 1.0], seed=1)
    def test_canonical_order_is_each_targets_full_lexsort(self, lead, n, c, alphabet, seed):
        """Integer-valued (T, N, C) and (B, T, N, C) stacks with many
        ties and both signed zeros: the per-target argsort order puts
        each target's rows in the order of a full lexsort of that
        target's rows alone, bit for bit."""
        shape = tuple(lead) + (n, c)
        f = np.array(alphabet)[(CounterRng(seed).uniform(shape) * len(alphabet)).astype(int)]
        want = [rows[np.lexsort(rows.T[::-1])] for rows in f.reshape(-1, n, c)]
        assert _row_canonical(f).tobytes() == np.array(want).reshape(shape).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 10), st.integers(1, 4)),
        alphabet=st.lists(st.sampled_from([-0.7, -0.0, 0.0, 0.1, 0.3, 1e8]), min_size=1, max_size=4),
        seed=st.integers(0, 2**31),
    )
    def test_channel_gram_permutation_invariant_bitwise(self, shape, alphabet, seed):
        """Permuting each target's keypoint rows of a tie-heavy stack
        leaves its channel Gram bitwise equal under every normalization,
        and each target's Gram has the bits of its own 2-D call."""
        rng = CounterRng(seed)
        f = np.array(alphabet)[(rng.uniform(shape) * len(alphabet)).astype(int)]
        perm = np.argsort(rng.uniform(shape[:2]), axis=1, kind="stable")
        permuted = np.take_along_axis(f, perm[:, :, None], axis=1)
        for norm in GRAM_NORMALIZATIONS:
            grams = inter_channel_gram(f, norm)
            assert grams.tobytes() == inter_channel_gram(permuted, norm).tobytes()
            for j in range(shape[0]):
                assert grams[j].tobytes() == inter_channel_gram(permuted[j], norm).tobytes()

    def test_count_normalization(self):
        f = CounterRng(107).normal((5, 3))
        assert np.allclose(
            inter_channel_gram(f, "count"), inter_channel_gram(f) / 5.0, rtol=0, atol=1e-15
        )
        assert np.allclose(
            inter_keypoint_gram(f, "count"), inter_keypoint_gram(f) / 3.0, rtol=0, atol=1e-15
        )

    def test_l2_normalization_unit_diagonal(self):
        """Row-normalized keypoint Grams are cosine matrices with unit
        diagonal and entries in [-1, 1]."""
        f = CounterRng(109).normal((5, 3)) + 0.5
        gram = inter_keypoint_gram(f, "l2")
        assert np.allclose(np.diag(gram), 1.0, rtol=0, atol=1e-12)
        assert np.all(np.abs(gram) <= 1.0 + 1e-12)

    def test_unknown_normalization(self):
        with pytest.raises(ConfigError):
            inter_channel_gram(np.eye(2), "nope")


class TestGramLosses:
    def test_identical_features_zero(self):
        """Student equal to teacher gives exactly zero value and gradient."""
        rng = CounterRng(127)
        f = rng.normal((6, 4))
        targets = [TargetKeypointFeatures(student=f.copy(), teacher=f.copy())]
        for fn in (inter_channel_loss, inter_keypoint_loss):
            for norm in ("none", "count", "l2"):
                res = fn(targets, normalization=norm)
                assert res.value == 0.0
                assert np.all(res.grad[0] == 0.0)

    def test_value_matches_direct_composition(self):
        """Loss equals mean (or sum) squared Gram difference computed from
        the loop oracles."""
        rng = CounterRng(131)
        for i in range(50):
            sub = rng.substream(f"comp-{i}")
            n = 2 + int(sub.uniform(1)[0] * 5)
            c = 2 + int(sub.uniform(1)[0] * 5)
            fs = sub.normal((n, c))
            ft = sub.normal((n, c))
            targets = [TargetKeypointFeatures(student=fs, teacher=ft)]
            for reduction in ("mean", "sum"):
                d_ic = gram_channel_loops(fs) - gram_channel_loops(ft)
                d_ik = gram_keypoint_loops(fs) - gram_keypoint_loops(ft)
                want_ic = float(np.sum(d_ic * d_ic))
                want_ik = float(np.sum(d_ik * d_ik))
                if reduction == "mean":
                    want_ic /= d_ic.size
                    want_ik /= d_ik.size
                got_ic = inter_channel_loss(targets, loss_reduction=reduction)
                got_ik = inter_keypoint_loss(targets, loss_reduction=reduction)
                assert got_ic.value == pytest.approx(want_ic, rel=1e-12)
                assert got_ik.value == pytest.approx(want_ik, rel=1e-12)

    def test_channel_loss_keypoint_permutation_exact(self):
        """Permuting a target's keypoint rows (student and teacher alike)
        changes the channel loss bitwise not at all, and permutes the
        gradient rows in lockstep."""
        rng = CounterRng(137)
        for i in range(50):
            sub = rng.substream(f"icperm-{i}")
            n = 3 + int(sub.uniform(1)[0] * 5)
            fs = sub.normal((n, 4))
            ft = sub.normal((n, 4))
            perm = np.argsort(sub.uniform(n), kind="stable")
            base = inter_channel_loss([TargetKeypointFeatures(fs, ft)])
            other = inter_channel_loss([TargetKeypointFeatures(fs[perm], ft[perm])])
            assert other.value == base.value
            assert np.array_equal(other.grad[0], base.grad[0][perm])

    def test_keypoint_loss_orthogonal_mixing_invariant(self):
        """Rotating the channel basis of both maps by the same orthogonal
        matrix moves the keypoint loss by at most 1e-9."""
        rng = CounterRng(139)
        for i in range(100):
            sub = rng.substream(f"ikorth-{i}")
            fs = sub.normal((5, 4))
            ft = sub.normal((5, 4))
            q = random_orthogonal(sub, 4)
            base = inter_keypoint_loss([TargetKeypointFeatures(fs, ft)]).value
            mixed = inter_keypoint_loss([TargetKeypointFeatures(fs @ q, ft @ q)]).value
            assert abs(mixed - base) <= 1e-9 * max(1.0, abs(base))

    def test_orthogonal_mixing_separates_the_two_losses(self):
        """A pure orthogonal channel mix of the teacher leaves the keypoint
        loss at the float floor while the channel loss stays visibly
        positive: the two terms constrain different structure."""
        rng = CounterRng(149)
        ft = rng.normal((6, 4)) + 0.3
        q = random_orthogonal(rng, 4)
        targets = [TargetKeypointFeatures(student=ft @ q, teacher=ft)]
        assert inter_keypoint_loss(targets).value <= 1e-18
        assert inter_channel_loss(targets).value > 1e-2

    def test_sum_over_targets(self):
        """A multi-target loss is the in-order sum of the one-target losses
        and each target's gradient has the bits of its own call, for
        every Gram kind, normalization and reduction."""
        rng = CounterRng(151)
        targets = make_targets(rng, 3, 4, 3)
        for fn in (inter_channel_loss, inter_keypoint_loss):
            for norm in GRAM_NORMALIZATIONS:
                for reduction in LOSS_REDUCTIONS:
                    whole = fn(targets, norm, reduction)
                    parts = [fn([t], norm, reduction) for t in targets]
                    assert whole.value == sum(part.value for part in parts)
                    assert len(whole.grad) == 3
                    for grad, part in zip(whole.grad, parts):
                        assert grad.tobytes() == part.grad[0].tobytes()

    def test_mixed_target_shapes_rejected(self):
        """One call stacks its targets, so they must share one (N, C)."""
        rng = CounterRng(152)
        for n, c in ((5, 3), (4, 2)):
            targets = make_targets(rng, 2, 4, 3) + make_targets(rng.substream("other"), 1, n, c)
            for fn in (inter_channel_loss, inter_keypoint_loss):
                with pytest.raises(ContractError):
                    fn(targets)

    def test_empty_target_list(self):
        for fn in (inter_channel_loss, inter_keypoint_loss):
            res = fn([])
            assert res.empty and res.value == 0.0 and res.grad == []

    def test_zero_target_stack(self):
        """A (0, N, C) stack against (0, K, K) teacher Grams gives (0,)
        values and (0, N, C) gradients, or none without weights, for
        either kind alone and both together, every normalization and
        reduction."""
        n, c = 9, 4
        kinds = (("channel", np.zeros((0, c, c))), ("keypoint", np.zeros((0, n, n))))
        for teacher in ((kinds[0],), (kinds[1],), kinds):
            for norm in GRAM_NORMALIZATIONS:
                for reduction in LOSS_REDUCTIONS:
                    args = (np.zeros((0, n, c)), teacher, norm, reduction)
                    values, grads = _gram_losses(*args, (1.0,) * len(teacher))
                    assert [v.shape for v in values] == [(0,)] * len(teacher) and grads.shape == (0, n, c)
                    values, grads = _gram_losses(*args)
                    assert [v.shape for v in values] == [(0,)] * len(teacher) and grads is None

    def test_gradients_match_finite_differences(self):
        """Analytic student gradients agree with central differences for
        every normalization and both Gram kinds."""
        rng = CounterRng(157)
        for norm in ("none", "count", "l2"):
            for fn in (inter_channel_loss, inter_keypoint_loss):
                sub = rng.substream(f"fd-{norm}-{fn.__name__}")
                fs = sub.normal((4, 3)) + 0.4  # keep rows away from zero norm
                ft = sub.normal((4, 3))
                res = fn([TargetKeypointFeatures(fs, ft)], normalization=norm)

                def f(xs, fn=fn, ft=ft, norm=norm):
                    return [fn([TargetKeypointFeatures(x, ft)], normalization=norm).value for x in xs]

                fd = finite_difference_gradient(f, fs)
                denom = max(float(np.max(np.abs(fd))), 1e-10)
                assert float(np.max(np.abs(res.grad[0] - fd))) / denom <= 1e-6


class TestBevDistillLoss:
    def setup_method(self):
        self.grid = BevGrid(-4.0, 4.0, -4.0, 4.0, 8, 8)
        rng = CounterRng(163)
        self.student = BevFeatureMap(rng.normal((3, 8, 8)), self.grid)
        self.teacher = BevFeatureMap(rng.normal((3, 8, 8)), self.grid)
        self.boxes = [
            Box3D(center=[-1.0, -0.5, 0.0], size=[2.0, 1.2, 1.0], yaw=0.3),
            Box3D(center=[1.5, 1.0, 0.0], size=[1.5, 1.5, 1.0], yaw=-0.8),
        ]

    def test_box_order_invariance(self):
        a = bev_distill_loss(self.student, self.teacher, self.boxes, g=3)
        b = bev_distill_loss(self.student, self.teacher, self.boxes[::-1], g=3)
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert np.allclose(a.grad, b.grad, rtol=0, atol=1e-12)

    def test_zero_boxes_empty(self):
        """No boxes: an empty 0.0 result with a zero gradient and no
        components, for every normalization and reduction."""
        for norm in GRAM_NORMALIZATIONS:
            for reduction in LOSS_REDUCTIONS:
                res = bev_distill_loss(self.student, self.teacher, [], 6, 1.25, norm, reduction)
                assert res.empty and res.value == 0.0 and res.components == {}
                assert res.grad.shape == self.student.data.shape
                assert np.all(res.grad == 0.0)

    def test_zero_boxes_without_gradient(self):
        """No boxes and no gradient asked for: the plan's stack is empty
        and both terms are 0.0 with no gradient, as a call with boxes
        gives none."""
        plan = build_distill_plan(self.teacher, [], 6, 1.25, "none")
        assert plan.mat.shape[0] == 0 and plan.live.size == 0
        ic, ik, grad = plan.terms(plan.pack(self.student.data), "mean")
        assert ic == ik == 0.0 and grad is None

    def test_identical_maps_zero(self):
        res = bev_distill_loss(self.student, self.student, self.boxes, g=3)
        assert res.value == 0.0
        assert np.all(res.grad == 0.0)

    def test_terms_compose(self):
        ic, ik = bev_distill_terms(self.student, self.teacher, self.boxes, g=3)
        combined = bev_distill_loss(self.student, self.teacher, self.boxes, g=3)
        assert combined.value == pytest.approx(ic.value + ik.value, rel=1e-12)
        assert combined.components["inter_channel"] == ic.value
        assert combined.components["inter_keypoint"] == ik.value
        assert_close(combined.grad, ic.grad + ik.grad)

    @pytest.mark.parametrize("norm", GRAM_NORMALIZATIONS)
    @pytest.mark.parametrize("reduction", LOSS_REDUCTIONS)
    def test_combined_loss_with_plan_equals_without(self, norm, reduction):
        """The unit-weight terms of a prebuilt plan, unpacked, give the
        bits of bev_distill_loss, which builds its own plan."""
        plan = build_distill_plan(self.teacher, self.boxes, 3, 1.25, norm)
        fresh = bev_distill_loss(self.student, self.teacher, self.boxes, 3, 1.25, norm, reduction)
        ic, ik, grad = plan.terms(plan.pack(self.student.data), reduction, (1.0, 1.0))
        assert fresh.value == ic + ik
        assert fresh.components == {"inter_channel": ic, "inter_keypoint": ik}
        assert fresh.grad.tobytes() == plan.unpack(grad).tobytes()

    def test_grid_mismatch_rejected(self):
        other = BevFeatureMap(
            self.teacher.data.copy(), BevGrid(-4.0, 4.0, -4.0, 4.0 + 1e-9, 8, 8)
        )
        with pytest.raises(ContractError):
            bev_distill_loss(self.student, other, self.boxes)

    def test_shape_mismatch_rejected(self):
        other = BevFeatureMap(np.zeros((2, 8, 8)), self.grid)
        with pytest.raises(ContractError):
            bev_distill_loss(self.student, other, self.boxes)

    def test_gradient_matches_finite_differences(self):
        grid = BevGrid(-4.0, 4.0, -4.0, 4.0, 5, 5)
        rng = CounterRng(167)
        student = rng.normal((2, 5, 5))
        teacher = BevFeatureMap(rng.normal((2, 5, 5)), grid)
        boxes = [Box3D(center=[0.2, -0.4, 0.0], size=[2.5, 1.5, 1.0], yaw=0.5)]
        res = bev_distill_loss(BevFeatureMap(student, grid), teacher, boxes, g=2)

        def f(xs):
            return [bev_distill_loss(BevFeatureMap(x, grid), teacher, boxes, g=2).value for x in xs]

        fd = finite_difference_gradient(f, student)
        denom = max(float(np.max(np.abs(fd))), 1e-10)
        assert float(np.max(np.abs(res.grad - fd))) / denom <= 1e-6


def _per_target_terms(student, teacher, boxes, g, enlarge, norm, reduction):
    """bev_distill_terms composed from the public per-target functions:
    sample both maps at each box's keypoints and take each Gram loss.
    Values are summed over the boxes in order; each gradient is one
    np.add.at of every box's feature gradient over the (T, 4, N) corners
    of all boxes, in C order."""
    totals = [0.0, 0.0]
    feature_grads = [[], []]
    for box in boxes:
        kp = sample_keypoints(box, student.grid, g=g, enlarge=enlarge)
        pair = [TargetKeypointFeatures(bilinear_sample(student, kp), bilinear_sample(teacher, kp))]
        for i, fn in enumerate((inter_channel_loss, inter_keypoint_loss)):
            res = fn(pair, normalization=norm, loss_reduction=reduction)
            totals[i] += res.value
            feature_grads[i].append(res.grad[0])
    cells, weights = corner_stack(boxes, student.grid, g, enlarge)
    grads = [add_at_scatter(student.data.shape, cells, weights, np.array(fg)) for fg in feature_grads]
    return totals, grads


GRID6 = BevGrid(-4.0, 4.0, -4.0, 4.0, 6, 6)


@st.composite
def overlapping_boxes(draw):
    """One to four boxes, each a jittered copy of the first, so their
    footprints share BEV cells; long boxes run off the grid and clip."""
    coord = st.floats(-3.5, 3.5)
    cx, cy = draw(coord), draw(coord)
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        jitter = st.floats(-1.0, 1.0)
        boxes.append(
            Box3D(
                center=[cx + draw(jitter), cy + draw(jitter), 0.5],
                size=[draw(st.floats(0.5, 10.0)), draw(st.floats(0.5, 4.0)), 1.0],
                yaw=draw(st.floats(-np.pi, np.pi)),
            )
        )
    return boxes


class TestBatchedDistillProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        boxes=overlapping_boxes(),
        g=st.integers(2, 4),
        enlarge=st.floats(1.0, 1.5),
        channels=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    @example(
        boxes=[
            Box3D(center=[3.0, 0.0, 0.5], size=[9.0, 2.0, 1.0], yaw=0.2),
            Box3D(center=[2.5, 0.4, 0.5], size=[2.0, 1.5, 1.0], yaw=-0.7),
        ],
        g=3, enlarge=1.25, channels=3, seed=7,
    )
    def test_equals_per_target_composition(self, boxes, g, enlarge, channels, seed):
        """Every normalization and reduction: the batched terms equal the
        per-target composition of public functions, scattered by one
        np.add.at, to 1e-12 (the plan pads each target's window to the
        widest and adds shared cells target by target), and a plan reused
        for two students gives the bits fresh plans give."""
        rng = CounterRng(seed)
        teacher = BevFeatureMap(rng.normal((channels, 6, 6)), GRID6)
        students = [BevFeatureMap(rng.normal((channels, 6, 6)), GRID6) for _ in range(2)]
        for norm in GRAM_NORMALIZATIONS:
            plan = build_distill_plan(teacher, boxes, g, enlarge, norm)
            for reduction in LOSS_REDUCTIONS:
                for student in students:
                    fresh = bev_distill_terms(student, teacher, boxes, g, enlarge, norm, reduction)
                    block = plan.pack(student.data)
                    ic, _, ic_grad = plan.terms(block, reduction, (1.0, 0.0))
                    _, ik, ik_grad = plan.terms(block, reduction, (0.0, 1.0))
                    reused = [(ic, ic_grad), (ik, ik_grad)]
                    totals, grads = _per_target_terms(student, teacher, boxes, g, enlarge, norm, reduction)
                    for got, (value, packed), total, grad in zip(fresh, reused, totals, grads):
                        assert got.value == value == pytest.approx(total, rel=1e-12, abs=1e-300)
                        assert got.grad.tobytes() == plan.unpack(packed).tobytes()
                        assert_close(got.grad, grad)

    def test_shared_cells_sum_in_target_order(self):
        """Two boxes whose corners share cells: the gradient adds the
        second target's window rows onto the first's, and agrees to 1e-12
        with per-target maps added in box order and with one np.add.at
        pass in (target, corner, point) order."""
        boxes = [
            Box3D(center=[3.0, 0.0, 0.5], size=[9.0, 2.0, 1.0], yaw=0.2),
            Box3D(center=[2.5, 0.4, 0.5], size=[2.0, 1.5, 1.0], yaw=-0.7),
        ]
        rng = CounterRng(7)
        teacher = BevFeatureMap(rng.normal((3, 6, 6)), GRID6)
        student = BevFeatureMap(rng.normal((3, 6, 6)), GRID6)
        assert build_distill_plan(teacher, boxes, 3).repeats.shape[1] > 0
        ic, ik = bev_distill_terms(student, teacher, boxes, 3, 1.25)
        _, grads = _per_target_terms(student, teacher, boxes, 3, 1.25, "none", "mean")
        staged = np.zeros_like(student.data)
        for box in boxes:
            kp = sample_keypoints(box, GRID6, g=3)
            pair = [TargetKeypointFeatures(bilinear_sample(student, kp), bilinear_sample(teacher, kp))]
            staged += scatter_map(student.data.shape, kp.points, inter_channel_loss(pair).grad[0])
        assert_close(ic.grad, staged)
        assert_close(ic.grad, grads[0])
        assert_close(ik.grad, grads[1])


def two_scatter_gradient(plan, block, reduction, weights):
    """The reference for ``DistillPlan.terms``' weighted gradient: each
    Gram kind's keypoint gradient formed from the public Grams and
    scattered on its own (2/denom on the Gram difference, 2 on the
    product, the count, the row-norm chain), then the two (C, L) blocks
    weighted and added."""
    fs = plan.sample(block)
    norm = plan.normalization
    scale = np.maximum(np.sqrt(np.sum(fs * fs, axis=-1, keepdims=True)), 1e-12) if norm == "l2" else 1.0
    f = fs / scale
    out = np.zeros_like(block)
    kinds = (
        (inter_channel_gram, plan.teacher_channel, fs.shape[-2]),
        (inter_keypoint_gram, plan.teacher_keypoint, fs.shape[-1]),
    )
    for w, (gram, gram_t, count) in zip(weights, kinds):
        diff = gram(fs, norm) - gram_t
        diff *= 2.0 / (diff.shape[-1] ** 2 if reduction == "mean" else 1.0)
        grad = 2.0 * (f @ diff if gram is inter_channel_gram else diff @ f)
        if norm == "count":
            grad /= count
        if norm == "l2":
            grad = (grad - np.sum(grad * f, axis=-1, keepdims=True) * f) / scale
        out += w * plan.scatter(grad)
    return out


WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 4.0))


class TestWeightedTerms:
    @settings(max_examples=60, deadline=None)
    @given(
        boxes=st.one_of(st.just([]), overlapping_boxes()),
        g=st.integers(2, 4),
        channels=st.integers(1, 4),
        weights=st.tuples(WEIGHT, WEIGHT),
        seed=st.integers(0, 2**31),
    )
    @example(boxes=[Box3D(center=[0.5, -0.3, 0.5], size=[3.0, 2.0, 1.0], yaw=0.4)], g=3, channels=2,
             weights=(0.3, 2.5), seed=3)
    @example(boxes=[], g=2, channels=3, weights=(1.0, 0.0), seed=5)
    def test_one_weighted_scatter_equals_two_scatter_composition(self, boxes, g, channels, weights, seed):
        """Every normalization and reduction, the zero-box plan included:
        the one weighted gradient equals w_ic * (ic alone) + w_ik * (ik
        alone), each scattered on its own, to 1e-12, and the values equal
        those of a call without weights.  The identity student gives
        exactly 0.0 and an all-zero gradient, bit for bit.  A (B, C, L)
        stack gives each block's values bit for bit and no gradient."""
        rng = CounterRng(seed)
        teacher = BevFeatureMap(rng.normal((channels, 6, 6)), GRID6)
        student = rng.normal((channels, 6, 6))
        for norm in GRAM_NORMALIZATIONS:
            plan = build_distill_plan(teacher, boxes, g, 1.25, norm)
            blocks = [plan.pack(student), plan.pack(teacher.data)]
            for reduction in LOSS_REDUCTIONS:
                ic, ik, grad = plan.terms(blocks[0], reduction, weights)
                assert (ic, ik, None) == plan.terms(blocks[0], reduction)
                assert_close(grad, two_scatter_gradient(plan, blocks[0], reduction, weights))
                ic0, ik0, grad0 = plan.terms(blocks[1], reduction, weights)
                assert ic0 == ik0 == 0.0 and grad0.tobytes() == np.zeros_like(grad0).tobytes()
                stack_ic, stack_ik, none = plan.terms(np.stack(blocks), reduction, weights)
                assert none is None and stack_ic.shape == stack_ik.shape == (2,)
                assert stack_ic.tolist() == [ic, ic0] and stack_ik.tolist() == [ik, ik0]


@st.composite
def point_stacks(draw):
    """(T, N, 2) points, T from 0, on an h x w grid down to one cell, up to
    one cell outside it, some at integers, where clamped corners coincide."""
    t, n, h, w = draw(st.integers(0, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def coord(top):
        return st.one_of(st.integers(-1, top).map(float), st.floats(-1.0, float(top)))

    pts = draw(st.lists(st.tuples(coord(h), coord(w)), min_size=t * n, max_size=t * n))
    return np.array(pts, float).reshape(t, n, 2), h, w


class TestInterpolationMatrices:
    @settings(max_examples=100, deadline=None)
    @given(boxes=overlapping_boxes(), g=st.integers(2, 4), h=st.integers(1, 6), w=st.integers(1, 6))
    def test_rows_windows_and_padding(self, boxes, g, h, w):
        """On grids down to one cell, where points clamp to the border:
        each keypoint's row holds its corner weights at its corners'
        cells, at most 4 nonzeros summing to 1 within 1e-15; each window
        is its target's distinct corner cells in order, then -1 padding
        whose columns are zero; and W <= min(4N, L)."""
        grid = BevGrid(-4.0, 4.0, -4.0, 4.0, h, w)
        plan = build_distill_plan(BevFeatureMap(np.zeros((1, h, w)), grid), boxes, g)
        t, n, width = plan.mat.shape
        assert (t, n) == (len(boxes), g * g) and width <= min(4 * n, plan.live.size)
        assert np.all(np.count_nonzero(plan.mat, axis=-1) <= 4)
        assert np.all(np.abs(plan.mat.sum(axis=-1) - 1.0) <= 1e-15)
        cells, weights = corner_stack(boxes, grid, g)
        for j in range(t):
            k = np.count_nonzero(plan.win[j] >= 0)
            assert np.all(plan.win[j, k:] == -1) and np.all(plan.mat[j, :, k:] == 0.0)
            assert np.array_equal(plan.live[plan.win[j, :k]], np.unique(cells[j]))
            dense = np.zeros((n, h * w))
            np.add.at(dense, (np.arange(n), cells[j]), weights[j])
            assert np.array_equal(dense[:, plan.live[plan.win[j, :k]]], plan.mat[j, :, :k])

    @settings(max_examples=100, deadline=None)
    @given(boxes=overlapping_boxes(), g=st.integers(2, 4), h=st.integers(1, 6), w=st.integers(1, 6),
           channels=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_scatter_is_the_adjoint_of_sample(self, boxes, g, h, w, channels, seed):
        """<sample(B), U> equals <B, scatter(U)> to 1e-12."""
        grid = BevGrid(-4.0, 4.0, -4.0, 4.0, h, w)
        rng = CounterRng(seed)
        plan = build_distill_plan(BevFeatureMap(rng.normal((channels, h, w)), grid), boxes, g)
        block = rng.normal((channels, plan.live.size))
        up = rng.normal((len(boxes), g * g, channels))
        lhs = float(np.sum(plan.sample(block) * up))
        rhs = float(np.sum(block * plan.scatter(up)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(case=point_stacks())
    @example(case=(np.zeros((2, 3, 2)), 1, 1))
    @example(case=(np.array([[[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]], [[0.0, 0.0], [2.0, 0.0]]]), 3, 3))
    @example(case=(np.zeros((0, 4, 2)), 3, 3))
    def test_firsts_and_repeats_equal_a_plain_loop(self, case):
        """Against a loop over the window's non-padding entries in
        row-major order: ``firsts`` is each live cell's first flat entry
        and ``repeats`` each later touch's (live cell, flat entry) in
        order; with integer points, a 1 x 1 grid and no targets."""
        pts, h, w = case
        live, win, _, firsts, repeats = _interpolation(pts, h, w)
        first, later = {}, []
        for pos in np.flatnonzero(win >= 0).tolist():
            cell = int(win.flat[pos])
            if cell in first:
                later.append((cell, pos))
            else:
                first[cell] = pos
        assert sorted(first) == list(range(live.size))
        assert firsts.shape == (live.size,) and firsts.dtype.kind == "i"
        assert firsts.tolist() == [first[cell] for cell in range(live.size)]
        assert repeats.shape == (2, len(later)) and repeats.dtype.kind == "i"
        assert [tuple(pair) for pair in repeats.T.tolist()] == later

    def test_zero_box_plan(self):
        """No boxes: empty matrices, an empty sample stack and zero
        gradients."""
        rng = CounterRng(13)
        plan = build_distill_plan(BevFeatureMap(rng.normal((3, 6, 6)), GRID6), [], 3)
        assert plan.mat.shape == (0, 9, 0) and plan.win.shape == (0, 0) and plan.live.size == 0
        block = plan.pack(rng.normal((3, 6, 6)))
        assert plan.sample(block).shape == (0, 9, 3)
        assert plan.scatter(np.zeros((0, 9, 3))).shape == (3, 0)
        ic, ik, grad = plan.terms(block, "sum", (1.0, 1.0))
        assert ic == ik == 0.0 and grad.shape == (3, 0)
        assert np.array_equal(plan.unpack(grad), np.zeros((3, 6, 6)))


class TestLiveCellPacking:
    @settings(max_examples=150, deadline=None)
    @given(boxes=overlapping_boxes(), g=st.integers(2, 4), h=st.integers(1, 6), w=st.integers(1, 6),
           channels=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_live_cell_scatter_expands_to_add_at(self, boxes, g, h, w, channels, seed):
        """Scattering onto the live cells, whose targets share cells, then
        placing those columns in a zero map, gives np.add.at's map over
        the whole grid to 1e-12."""
        grid = BevGrid(-4.0, 4.0, -4.0, 4.0, h, w)
        rng = CounterRng(seed)
        plan = build_distill_plan(BevFeatureMap(rng.normal((channels, h, w)), grid), boxes, g)
        up = rng.normal((len(boxes), g * g, channels))
        cells, weights = corner_stack(boxes, grid, g)
        assert_close(plan.unpack(plan.scatter(up)), add_at_scatter((channels, h, w), cells, weights, up))

    @settings(max_examples=60, deadline=None)
    @given(boxes=overlapping_boxes(), g=st.integers(2, 4), channels=st.integers(1, 5), seed=st.integers(0, 2**31))
    def test_packed_sample_equals_full_map_sample(self, boxes, g, channels, seed):
        """For odd and even channel counts, sampling a map's packed live
        columns gives each target's full-map bilinear sample to 1e-12, and
        bit for bit in a plan of the first box alone, which multiplies the
        same matrix; unpacking puts the columns back in place."""
        rng = CounterRng(seed)
        teacher = BevFeatureMap(rng.normal((channels, 6, 6)), GRID6)
        student = rng.normal((channels, 6, 6))
        plan = build_distill_plan(teacher, boxes, g, 1.25, "none")
        assert np.array_equal(plan.live, np.unique(plan.live)) and plan.win.max() < plan.live.size
        block = plan.pack(student)
        assert block.shape == (channels, plan.live.size)
        got = plan.sample(block)
        for j, box in enumerate(boxes):
            assert_close(got[j], bilinear_sample(student, sample_keypoints(box, GRID6, g=g)))
        alone = build_distill_plan(teacher, boxes[:1], g, 1.25, "none")
        want = bilinear_sample(student, sample_keypoints(boxes[0], GRID6, g=g))
        assert alone.sample(alone.pack(student))[0].tobytes() == want.tobytes()
        unpacked = plan.unpack(block)
        flat = unpacked.reshape(channels, -1)
        assert flat[:, plan.live].tobytes() == block.tobytes()
        assert np.all(np.delete(flat, plan.live, axis=1) == 0.0)

    def test_non_finite_teacher_off_the_live_cells_raises(self):
        """The plan checks the whole teacher map, not just the cells its
        keypoints read."""
        box = Box3D(center=[0.5, -0.3, 0.0], size=[2.0, 2.0, 1.0], yaw=0.0)
        teacher = BevFeatureMap(CounterRng(5).normal((3, 6, 6)), GRID6)
        off = np.setdiff1d(np.arange(36), build_distill_plan(teacher, [box], 3).live)[0]
        teacher.data.reshape(3, -1)[1, off] = np.nan
        with pytest.raises(NumericError, match="teacher BEV features"):
            build_distill_plan(teacher, [box], 3)

    def test_unpack_writes_a_base_of_any_memory_order(self):
        """``unpack`` writes the block into a (C, H, W) base in place,
        C-ordered, Fortran-ordered or a strided view, and keeps the other
        cells."""
        box = Box3D(center=[0.5, -0.3, 0.0], size=[2.0, 2.0, 1.0], yaw=0.0)
        rng = CounterRng(11)
        plan = build_distill_plan(BevFeatureMap(rng.normal((3, 6, 6)), GRID6), [box], 3)
        block = rng.normal((3, plan.live.size))
        start = rng.normal((3, 6, 6))
        want = start.copy()
        want.reshape(3, -1)[:, plan.live] = block
        strided = np.zeros((3, 6, 12))[:, :, ::2]
        strided[...] = start
        for base in (start.copy(), np.asfortranarray(start), strided):
            assert plan.unpack(block, base) is base
            assert np.ascontiguousarray(base).tobytes() == want.tobytes()

    def test_pack_rejects_a_map_of_another_shape(self):
        box = Box3D(center=[0.5, -0.3, 0.0], size=[2.0, 2.0, 1.0], yaw=0.0)
        plan = build_distill_plan(BevFeatureMap(np.zeros((3, 6, 6)), GRID6), [box], 3)
        assert plan.pack(np.zeros((3, 6, 6))).shape == (3, plan.live.size)
        for shape in ((3, 6, 5), (3, 36), (2, 6, 6), (2, 3, 6, 6), (2, 2, 6, 6), (6,)):
            with pytest.raises(ContractError, match=r"pack needs a \(3, 6, 6\) \(C, H, W\) map"):
                plan.pack(np.zeros(shape))

    def test_terms_reject_an_unknown_reduction(self):
        box = Box3D(center=[0.5, -0.3, 0.0], size=[2.0, 2.0, 1.0], yaw=0.0)
        plan = build_distill_plan(BevFeatureMap(np.zeros((3, 6, 6)), GRID6), [box], 3)
        with pytest.raises(ConfigError, match="median"):
            plan.terms(np.ones((3, plan.live.size)), "median")

    def test_unpack_rejects_a_base_of_another_shape(self):
        box = Box3D(center=[0.5, -0.3, 0.0], size=[2.0, 2.0, 1.0], yaw=0.0)
        plan = build_distill_plan(BevFeatureMap(np.zeros((3, 6, 6)), GRID6), [box], 3)
        block = np.ones((3, plan.live.size))
        for shape in ((3, 6, 5), (3, 36), (2, 6, 6)):
            with pytest.raises(ContractError, match="unpack base"):
                plan.unpack(block, np.zeros(shape))
