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
    TargetKeypointFeatures,
    bev_distill_loss,
    bev_distill_terms,
    bilinear_sample,
    bilinear_sample_backward,
    build_distill_plan,
    enlarge_box_bev,
    finite_difference_gradient,
    inter_channel_gram,
    inter_channel_loss,
    inter_keypoint_gram,
    inter_keypoint_loss,
    keypoint_sets_for_boxes,
    points_in_box,
    sample_keypoints,
)
from geodistill.bev_distillation import _gram_losses
from geodistill.oracles import bilinear_scalar, gram_channel_loops, gram_keypoint_loops
from geodistill.rng import CounterRng

GRID5 = BevGrid(-4.0, 4.0, -4.0, 4.0, 5, 5)


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
            KeypointSet(target_index=0, points=np.zeros((3, 2)), g=2)

    def test_target_indices_follow_input_order(self):
        boxes = [
            Box3D(center=[0.0, 0.0, 0.0], size=[1.0, 1.0, 1.0], yaw=0.0),
            Box3D(center=[1.0, 1.0, 0.0], size=[1.0, 2.0, 1.0], yaw=0.4),
        ]
        sets = keypoint_sets_for_boxes(boxes, GRID5, g=2)
        assert [kp.target_index for kp in sets] == [0, 1]


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
            rhs = float(np.sum(data * bilinear_sample_backward(data.shape, pts, up)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_backward_equals_add_at_loop_bitwise(self):
        """The fixed-order scatter gives the bits of scattering the four
        corners in order with np.add.at, points in order, from zero;
        repeated and border-clamped points share cells."""
        rng = CounterRng(85)
        for i in range(30):
            sub = rng.substream(f"addat-{i}")
            c, h, w = 3, 4, 5
            pts = np.column_stack([sub.uniform(9, -1.0, h + 0.5), sub.uniform(9, -1.0, w + 0.5)])
            pts[5:] = pts[:4]
            up = sub.normal((9, c))
            r = np.clip(pts[:, 0], 0.0, h - 1.0)
            q = np.clip(pts[:, 1], 0.0, w - 1.0)
            r0, q0 = np.floor(r).astype(int), np.floor(q).astype(int)
            r1, q1 = np.minimum(r0 + 1, h - 1), np.minimum(q0 + 1, w - 1)
            fr, fq = r - r0, q - q0
            want = np.zeros((h * w, c))
            for cell, wt in (
                (r0 * w + q0, (1.0 - fr) * (1.0 - fq)),
                (r0 * w + q1, (1.0 - fr) * fq),
                (r1 * w + q0, fr * (1.0 - fq)),
                (r1 * w + q1, fr * fq),
            ):
                np.add.at(want, cell, wt[:, None] * up)
            got = bilinear_sample_backward((c, h, w), pts, up)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want.T.reshape(c, h, w)).tobytes()

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
        rhs = float(np.sum(feat * bilinear_sample_backward(feat.shape, pts, up)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_backward_shape_contract(self):
        with pytest.raises(ContractError):
            bilinear_sample_backward((2, 3, 3), np.zeros((4, 2)), np.zeros((4, 3)))


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
        values and (0, N, C) gradients, or none without with_grad, for
        both kinds, every normalization and reduction."""
        n, c = 9, 4
        for kind, k in (("channel", c), ("keypoint", n)):
            for norm in GRAM_NORMALIZATIONS:
                for reduction in LOSS_REDUCTIONS:
                    args = (np.zeros((0, n, c)), np.zeros((0, k, k)), kind, norm, reduction)
                    values, grads = _gram_losses(*args)
                    assert values.shape == (0,) and grads.shape == (0, n, c)
                    values, grads = _gram_losses(*args, with_grad=False)
                    assert values.shape == (0,) and grads is None

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

                def f(x, fn=fn, ft=ft, norm=norm):
                    return fn([TargetKeypointFeatures(x, ft)], normalization=norm).value

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
        """No boxes and no gradient asked for: both terms are empty 0.0
        results with no gradient, as a call with boxes gives none."""
        for term in bev_distill_terms(self.student, self.teacher, [], with_grad=False):
            assert term.empty and term.value == 0.0 and term.grad is None

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
        assert np.allclose(combined.grad, ic.grad + ik.grad, rtol=0, atol=1e-15)

    def test_plan_from_other_arguments_rejected(self):
        """A plan only serves the teacher, boxes, lattice and normalization
        it was built from."""
        plan = build_distill_plan(self.teacher, self.boxes, 3, 1.25, "none")
        other_teacher = BevFeatureMap(self.teacher.data.copy(), self.grid)
        for teacher, boxes, g, norm in (
            (other_teacher, self.boxes, 3, "none"),
            (self.teacher, self.boxes[:1], 3, "none"),
            (self.teacher, self.boxes[::-1], 3, "none"),
            (self.teacher, self.boxes, 4, "none"),
            (self.teacher, self.boxes, 3, "l2"),
        ):
            with pytest.raises(ContractError):
                bev_distill_terms(self.student, teacher, boxes, g, 1.25, norm, plan=plan)
        ic, ik = bev_distill_terms(self.student, self.teacher, self.boxes, 3, 1.25, plan=plan)
        assert ic.value > 0.0 and ik.value > 0.0

    @pytest.mark.parametrize("norm", GRAM_NORMALIZATIONS)
    @pytest.mark.parametrize("reduction", LOSS_REDUCTIONS)
    def test_combined_loss_with_plan_equals_without(self, norm, reduction):
        """bev_distill_loss with a prebuilt plan gives the bits of the call
        that builds its own, and rejects a plan built from other arguments."""
        plan = build_distill_plan(self.teacher, self.boxes, 3, 1.25, norm)
        fresh = bev_distill_loss(self.student, self.teacher, self.boxes, 3, 1.25, norm, reduction)
        reused = bev_distill_loss(
            self.student, self.teacher, self.boxes, 3, 1.25, norm, reduction, plan=plan
        )
        assert reused.value == fresh.value
        assert reused.components == fresh.components
        assert np.array_equal(reused.grad, fresh.grad)
        other = "l2" if norm != "l2" else "none"
        with pytest.raises(ContractError):
            bev_distill_loss(
                self.student, self.teacher, self.boxes, 3, 1.25, other, reduction, plan=plan
            )
        with pytest.raises(ContractError):
            bev_distill_loss(
                self.student, self.teacher, self.boxes[::-1], 3, 1.25, norm, reduction, plan=plan
            )

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

        def f(x):
            return bev_distill_loss(BevFeatureMap(x, grid), teacher, boxes, g=2).value

        fd = finite_difference_gradient(f, student)
        denom = max(float(np.max(np.abs(fd))), 1e-10)
        assert float(np.max(np.abs(res.grad - fd))) / denom <= 1e-6


def _per_target_terms(student, teacher, boxes, g, enlarge, norm, reduction):
    """bev_distill_terms composed from the public per-target functions:
    sample both maps, take each Gram loss, scatter its gradient back, and
    sum over the boxes in order."""
    totals = [0.0, 0.0]
    grads = [np.zeros_like(student.data), np.zeros_like(student.data)]
    for box in boxes:
        kp = sample_keypoints(box, student.grid, g=g, enlarge=enlarge)
        pair = [TargetKeypointFeatures(bilinear_sample(student, kp), bilinear_sample(teacher, kp))]
        for i, fn in enumerate((inter_channel_loss, inter_keypoint_loss)):
            res = fn(pair, normalization=norm, loss_reduction=reduction)
            totals[i] += res.value
            grads[i] += bilinear_sample_backward(student.data.shape, kp, res.grad[0])
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
        per-target composition of public functions bit for bit, and a plan
        reused for two students gives what fresh plans give."""
        rng = CounterRng(seed)
        teacher = BevFeatureMap(rng.normal((channels, 6, 6)), GRID6)
        students = [BevFeatureMap(rng.normal((channels, 6, 6)), GRID6) for _ in range(2)]
        for norm in GRAM_NORMALIZATIONS:
            plan = build_distill_plan(teacher, boxes, g, enlarge, norm)
            for reduction in LOSS_REDUCTIONS:
                for student in students:
                    fresh = bev_distill_terms(student, teacher, boxes, g, enlarge, norm, reduction)
                    reused = bev_distill_terms(
                        student, teacher, boxes, g, enlarge, norm, reduction, plan=plan
                    )
                    totals, grads = _per_target_terms(student, teacher, boxes, g, enlarge, norm, reduction)
                    for got, again, total, grad in zip(fresh, reused, totals, grads):
                        assert got.value == again.value == total
                        assert got.grad.tobytes() == again.grad.tobytes() == grad.tobytes()
