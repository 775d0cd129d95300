"""Depth bins, continuous depth, reference selection, and both depth
losses with their analytic gradients."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodistill import (
    BCE_CLAMP,
    CategoricalDepthMap,
    ConfigError,
    ContractError,
    DepthBins,
    ForegroundDepthSet,
    ReferenceSelection,
    SkippedTargetError,
    assign_depth_bins,
    finite_difference_gradient,
    inner_depth_loss,
    relative_depths,
    select_reference,
)
from geodistill.depth_supervision import (
    REFERENCE_STRATEGIES,
    bce_rows,
    expected_depths,
    logit_rows,
    pack_view,
    packed_to_map,
    relative_depth_rows,
    select_references,
    target_layout,
)
from geodistill.harness import SATURATION_LOGIT
from geodistill.numerics import LOSS_REDUCTIONS, softmax_rows
from geodistill.oracles import (
    bce_scalar,
    continuous_depth_scalar,
    inner_depth_scalar,
    nearest_bin_scan,
    smallest_error_scan,
    softmax_scalar,
)
from geodistill.rng import CounterRng


def assert_close(got, want, tol=1e-12):
    """Entries agree within ``tol`` of the larger of 1 and want's largest
    magnitude."""
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(np.asarray(got) - want), initial=0.0)) <= tol * scale


def make_fds(pixels, gt, center_uv=None):
    pixels = np.asarray(pixels)
    return ForegroundDepthSet(
        target_index=0,
        pixels=pixels,
        gt_depth=np.asarray(gt, dtype=float),
        skipped=False,
        center_uv=center_uv,
    )


def map_from_rows(rows, h, w, pixels):
    """Embed per-pixel logit rows into an otherwise-zero (D, H, W) map."""
    rows = np.asarray(rows, dtype=float)
    d = rows.shape[1]
    logits = np.zeros((h * w, d))
    flat = np.asarray(pixels)[:, 1] * w + np.asarray(pixels)[:, 0]
    logits[flat] = rows
    return CategoricalDepthMap(np.moveaxis(logits.reshape(h, w, d), -1, 0))


class TestDepthBins:
    def test_uniform_centers(self):
        """count=4 on [1, 9] puts centers at cell midpoints 2, 4, 6, 8."""
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        assert np.allclose(bins.centers, [2.0, 4.0, 6.0, 8.0], rtol=0, atol=1e-15)

    def test_increasing_spacing_mode(self):
        """spacing_increasing centers grow geometrically within range."""
        bins = DepthBins(count=8, mode="spacing_increasing", d_min=1.0, d_max=60.0)
        gaps = np.diff(bins.centers)
        assert np.all(gaps > 0)
        assert np.all(np.diff(gaps) > 0)
        assert bins.centers[0] > 1.0 and bins.centers[-1] < 60.0
        ratios = bins.centers[1:] / bins.centers[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DepthBins(count=1)
        with pytest.raises(ConfigError):
            DepthBins(count=4, d_min=-1.0)
        with pytest.raises(ConfigError):
            DepthBins(count=4, d_min=5.0, d_max=2.0)
        with pytest.raises(ConfigError):
            DepthBins(count=4, mode="nope")

    def test_centers_are_derived_not_passed(self):
        """The centers follow from count, mode and range; they are no
        constructor argument and take no part in equality."""
        assert "centers" not in {f.name for f in dataclasses.fields(DepthBins) if f.init}
        with pytest.raises(TypeError):
            DepthBins(count=2, centers=np.array([1.0, 2.0]))
        assert DepthBins(4) == DepthBins(4) and DepthBins(4) != DepthBins(4, d_max=50.0)

    def test_default_range(self):
        bins = DepthBins(112)
        assert bins.count == 112
        assert bins.d_min == 1.0 and bins.d_max == 60.0


class TestContinuousDepth:
    def test_one_hot_returns_center(self):
        bins = DepthBins(count=3, d_min=0.5, d_max=3.5)
        assert expected_depths(np.array([0.0, 1.0, 0.0]), bins.centers) == bins.centers[1]

    def test_hand_weighted_sum(self):
        """centers [1,2,3] with probs [0.2,0.5,0.3] give 2.1."""
        bins = DepthBins(count=3, d_min=0.5, d_max=3.5)
        assert np.allclose(bins.centers, [1.0, 2.0, 3.0])
        assert expected_depths(np.array([0.2, 0.5, 0.3]), bins.centers) == pytest.approx(2.1, abs=1e-15)

    def test_uniform_probs_hit_center_mean(self):
        bins = DepthBins(count=5, d_min=0.0 + 1e-9, d_max=10.0)
        val = expected_depths(np.full(5, 0.2), bins.centers)
        assert val == pytest.approx(float(np.mean(bins.centers)), abs=1e-12)

    def test_map_matches_scalar(self):
        """Expected depths of softmax logit rows equal per-pixel scalar
        evaluation."""
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        logits = CounterRng(3).normal((4, 2, 3), sigma=2.0)
        dmap = expected_depths(softmax_rows(logit_rows(logits)), bins.centers).reshape(2, 3)
        for r in range(2):
            for c in range(3):
                probs = softmax_scalar(list(logits[:, r, c]))
                want = continuous_depth_scalar(probs, list(bins.centers))
                assert dmap[r, c] == pytest.approx(want, rel=1e-13)


class TestAssignDepthBins:
    def test_nearest_center(self):
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)  # centers 2 4 6 8
        assert list(assign_depth_bins([2.2, 4.9, 7.1, 100.0, 0.1], bins)) == [0, 1, 3, 3, 0]

    def test_midpoint_goes_to_lower_bin(self):
        """A value exactly between two centers takes the lower index."""
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        assert list(assign_depth_bins([3.0, 5.0, 7.0], bins)) == [0, 1, 2]

    def test_matches_scan_oracle(self):
        bins = DepthBins(count=12, d_min=1.0, d_max=10.0)
        values = CounterRng(19).uniform(300, 0.5, 11.0)
        got = assign_depth_bins(values, bins)
        for v, k in zip(values, got):
            assert int(k) == nearest_bin_scan(v, list(bins.centers))


class TestSelectReference:
    def test_smallest_error_hand_case(self):
        """gt {5.0, 6.0} vs pred {5.2, 6.05}: second pixel wins (0.05 < 0.2)."""
        fds = make_fds([[0, 0], [1, 0]], [5.0, 6.0])
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        assert select_reference(fds, [5.2, 6.05], sel) == 1

    def test_tie_takes_first_row_major(self):
        """pred equal to gt ties at zero error; the first pixel wins."""
        fds = make_fds([[0, 0], [1, 0], [0, 1]], [5.0, 6.0, 7.0])
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        assert select_reference(fds, [5.0, 6.0, 7.0], sel) == 0

    def test_signed_error_prefers_most_negative(self):
        """Signed mode takes argmin of gt - pred without absolute value."""
        fds = make_fds([[0, 0], [1, 0]], [5.0, 6.0])
        sel = ReferenceSelection("all_to_adaptive_smallest_error", signed_reference_error=True)
        # errors: 5-5.5 = -0.5, 6-6.05 = -0.05 -> first is smaller
        assert select_reference(fds, [5.5, 6.05], sel) == 0

    def test_matches_scan_oracle(self):
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        sel_signed = ReferenceSelection(
            "all_to_adaptive_smallest_error", signed_reference_error=True
        )
        rng = CounterRng(29)
        for i in range(200):
            sub = rng.substream(f"sr-{i}")
            n = 2 + int(sub.uniform(1)[0] * 8)
            order = np.sort(np.argsort(sub.uniform(64), kind="stable")[:n])
            pixels = np.stack([order % 8, order // 8], axis=1)
            gt = sub.uniform(n, 2.0, 30.0)
            pred = sub.uniform(n, 2.0, 30.0)
            fds = make_fds(pixels, gt)
            assert select_reference(fds, pred, sel) == smallest_error_scan(gt, pred)
            assert select_reference(fds, pred, sel_signed) == smallest_error_scan(
                gt, pred, signed=True
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.floats(0.5, 60.0) | st.sampled_from((1.0, 2.0))] * 2, st.floats(0.0, 1.0)),
            min_size=2,
            max_size=12,
        )
    )
    def test_adaptive_strategies_match_oracles(self, entries):
        """Smallest error picks the scan oracle's pixel, signed and
        unsigned, and highest confidence the first argmax of ``conf``;
        repeated values test that ties go to the first pixel."""
        gt, pred, conf = (np.array(column) for column in zip(*entries))
        n = len(entries)
        fds = make_fds(np.stack([np.arange(n) % 4, np.arange(n) // 4], axis=1), gt)
        for signed in (False, True):
            sel = ReferenceSelection("all_to_adaptive_smallest_error", signed_reference_error=signed)
            assert select_reference(fds, pred, sel) == smallest_error_scan(gt, pred, signed=signed)
        sel = ReferenceSelection("all_to_adaptive_highest_conf")
        assert select_reference(fds, pred, sel, conf=conf) == int(np.argmax(conf))

    def test_highest_conf(self):
        fds = make_fds([[0, 0], [1, 0], [2, 0]], [5.0, 6.0, 7.0])
        sel = ReferenceSelection("all_to_adaptive_highest_conf")
        assert select_reference(fds, [5.0, 6.0, 7.0], sel, conf=[0.3, 0.9, 0.5]) == 1
        with pytest.raises(ValueError):
            select_reference(fds, [5.0, 6.0, 7.0], sel)

    def test_center_3d_uses_pixel_centers(self):
        """Projected center (2.4, 0.6) measured against pixel centers picks
        pixel (2, 0): distance to its center (2.5, 0.5)^sub-px is smallest."""
        fds = make_fds([[0, 0], [2, 0], [3, 0]], [5.0, 6.0, 7.0], center_uv=(2.4, 0.6))
        sel = ReferenceSelection("all_to_certain_3d_center")
        assert select_reference(fds, [5.0, 6.0, 7.0], sel) == 1

    def test_center_3d_falls_back_to_centroid(self):
        """Without a projectable center the pixel centroid is used."""
        fds = make_fds([[0, 0], [4, 0], [8, 0]], [5.0, 6.0, 7.0], center_uv=None)
        sel = ReferenceSelection("all_to_certain_3d_center")
        assert select_reference(fds, [5.0, 6.0, 7.0], sel) == 1

    def test_center_2d(self):
        fds = make_fds([[0, 0], [1, 0], [5, 0]], [5.0, 6.0, 7.0])
        sel = ReferenceSelection("all_to_certain_2d_center")
        # centroid x = 2, nearest pixel is x=1
        assert select_reference(fds, [5.0, 6.0, 7.0], sel) == 1

    def test_skipped_raises(self):
        fds = ForegroundDepthSet(
            target_index=0, pixels=np.zeros((0, 2)), gt_depth=np.zeros(0), skipped=True
        )
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        with pytest.raises(SkippedTargetError):
            select_reference(fds, np.zeros(0), sel)

    def test_pairwise_has_no_reference(self):
        fds = make_fds([[0, 0], [1, 0]], [5.0, 6.0])
        with pytest.raises(ValueError):
            select_reference(fds, [5.0, 6.0], ReferenceSelection("one_to_one"))

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ReferenceSelection("nope")


class TestRelativeDepths:
    def test_reference_is_exactly_zero(self):
        fds = make_fds([[0, 0], [1, 0]], [5.0, 7.5])
        pred_rd, gt_rd = relative_depths(fds, [2.0, 3.5], 0)
        assert pred_rd[0] == 0.0 and gt_rd[0] == 0.0
        assert pred_rd[1] == 1.5 and gt_rd[1] == 2.5

    def test_reference_index_outside_the_set(self):
        fds = make_fds([[0, 0], [1, 0]], [5.0, 7.5])
        for ref in (-1, 2):
            with pytest.raises(ValueError, match="outside the pixel set"):
                relative_depths(fds, [2.0, 3.5], ref)

    def test_additive_shift_exact_invariance(self):
        """Dyadic gt depths shifted by a dyadic constant leave relative
        depths bitwise unchanged (the float sums stay exact)."""
        rng = CounterRng(37)
        for i in range(50):
            sub = rng.substream(f"shift-{i}")
            n = 2 + int(sub.uniform(1)[0] * 6)
            order = np.sort(np.argsort(sub.uniform(64), kind="stable")[:n])
            pixels = np.stack([order % 8, order // 8], axis=1)
            gt = np.floor(sub.uniform(n, 4.0, 40.0) * 64.0) / 64.0
            pred = sub.uniform(n, 2.0, 30.0)
            shift = 3.25
            a = relative_depths(make_fds(pixels, gt), pred, 0)
            b = relative_depths(make_fds(pixels, gt + shift), pred, 0)
            assert np.array_equal(a[1], b[1])
            assert np.array_equal(a[0], b[0])


class TestInnerDepthLoss:
    def test_two_pixel_hand_case(self):
        """Hand-built 2-pixel target: known residual, mean and sum forms.

        With saturated one-hot logits the depths hit bin centers 2 and 6
        while gt is 2 and 5: the non-reference residual is (6-2)-(5-2)=1,
        so the loss is 1/2 under mean and 1 under sum.
        """
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        pixels = [[0, 0], [1, 0]]
        rows = np.array([[900.0, 0.0, 0.0, 0.0], [0.0, 0.0, 900.0, 0.0]])
        dm = map_from_rows(rows, 1, 2, pixels)
        fds = make_fds(pixels, [2.0, 5.0])
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        res_mean = inner_depth_loss([fds], dm, bins, sel, "mean")
        res_sum = inner_depth_loss([fds], dm, bins, sel, "sum")
        assert res_mean.value == pytest.approx(0.5, rel=1e-12)
        assert res_sum.value == pytest.approx(1.0, rel=1e-12)

    def test_perfect_prediction_is_zero(self):
        """Predictions equal to gt give value 0 and zero gradient."""
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        pixels = [[0, 0], [1, 0]]
        rows = np.array([[900.0, 0.0, 0.0, 0.0], [0.0, 0.0, 900.0, 0.0]])
        dm = map_from_rows(rows, 1, 2, pixels)
        fds = make_fds(pixels, [2.0, 6.0])  # exactly the bin centers
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        res = inner_depth_loss([fds], dm, bins, sel)
        assert res.value == 0.0
        assert np.all(res.grad == 0.0)

    def test_matches_scalar_composition_oracle(self):
        """Random targets equal the scalar softmax/expectation/residual
        pipeline within 1e-12, for anchored and pairwise strategies."""
        bins = DepthBins(count=5, d_min=1.0, d_max=11.0)
        rng = CounterRng(41)
        for strategy in ("all_to_adaptive_smallest_error", "one_to_one"):
            sel = ReferenceSelection(strategy)
            for i in range(40):
                sub = rng.substream(f"oracle-{strategy}-{i}")
                n = 2 + int(sub.uniform(1)[0] * 5)
                order = np.sort(np.argsort(sub.uniform(24), kind="stable")[:n])
                pixels = np.stack([order % 6, order // 6], axis=1)
                rows = 2.0 * sub.normal((n, 5))
                gt = sub.uniform(n, 2.0, 10.0)
                dm = map_from_rows(rows, 4, 6, pixels)
                fds = make_fds(pixels, gt)
                res = inner_depth_loss([fds], dm, bins, sel)
                if strategy == "one_to_one":
                    ref = None
                else:
                    depths = [
                        continuous_depth_scalar(softmax_scalar(list(r)), list(bins.centers))
                        for r in rows
                    ]
                    ref = smallest_error_scan(gt, depths)
                want = inner_depth_scalar(
                    [list(r) for r in rows], list(bins.centers), list(gt), ref
                )
                assert res.value == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_sum_over_targets(self):
        """Two targets contribute the sum of their individual losses."""
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        rng = CounterRng(43)
        rows1 = rng.normal((2, 4))
        rows2 = rng.normal((3, 4))
        p1 = [[0, 0], [1, 0]]
        p2 = [[0, 1], [1, 1], [2, 1]]
        dm = map_from_rows(np.vstack([rows1, rows2]), 2, 3, p1 + p2)
        f1 = make_fds(p1, [3.0, 4.0])
        f2 = make_fds(p2, [2.0, 5.0, 6.0])
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        both = inner_depth_loss([f1, f2], dm, bins, sel)
        only1 = inner_depth_loss([f1], dm, bins, sel)
        only2 = inner_depth_loss([f2], dm, bins, sel)
        assert both.value == pytest.approx(only1.value + only2.value, rel=1e-12)
        assert np.allclose(both.grad, only1.grad + only2.grad, rtol=0, atol=1e-15)

    def test_pairwise_invariant_to_pixel_order(self):
        """one_to_one is permutation symmetric over the set's pixels."""
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        rng = CounterRng(47)
        rows = rng.normal((4, 4))
        gt = rng.uniform(4, 2.0, 8.0)
        pixels = [[0, 0], [1, 0], [0, 1], [2, 1]]
        dm = map_from_rows(rows, 2, 3, pixels)
        sel = ReferenceSelection("one_to_one")
        base = inner_depth_loss([make_fds(pixels, gt)], dm, bins, sel)
        # same pixels listed in a different order (still a valid set)
        perm = [2, 0, 3, 1]
        fds2 = make_fds([pixels[j] for j in perm], gt[perm])
        other = inner_depth_loss([fds2], dm, bins, sel)
        assert base.value == pytest.approx(other.value, rel=1e-12)

    def test_all_skipped_is_empty(self):
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        dm = CategoricalDepthMap(np.zeros((4, 2, 2)))
        skipped = ForegroundDepthSet(
            target_index=0, pixels=np.zeros((0, 2)), gt_depth=np.zeros(0), skipped=True
        )
        res = inner_depth_loss([skipped], dm, bins, ReferenceSelection())
        assert res.empty and res.value == 0.0
        assert np.all(res.grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        """Full-map gradient agrees with FD through a frozen reference."""
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        rng = CounterRng(53)
        pixels = [[0, 0], [1, 0], [2, 1]]
        rows = 1.5 * rng.normal((3, 4))
        gt = np.array([3.0, 4.5, 7.0])
        dm = map_from_rows(rows, 2, 3, pixels)
        fds = make_fds(pixels, gt)
        sel = ReferenceSelection("all_to_adaptive_smallest_error")
        res = inner_depth_loss([fds], dm, bins, sel)

        def f(xs):
            return [inner_depth_loss([fds], CategoricalDepthMap(x), bins, sel).value for x in xs]

        fd = finite_difference_gradient(f, dm.logits)
        denom = max(float(np.max(np.abs(fd))), 1e-10)
        assert float(np.max(np.abs(res.grad - fd))) / denom <= 1e-6


# a pixel past each edge of a 4x5 view (x = W, x = -1, y = H, y = -1) and
# one far outside it; the flat rows of (5, 0), (-1, 1) and (1, -1) are
# pixels of the view (the last one counted from the end)
OUTSIDE_4X5 = [(5, 0), (-1, 1), (1, 4), (1, -1), (2, 9)]


class TestPixelBounds:
    @pytest.mark.parametrize("pixel", OUTSIDE_4X5)
    def test_inner_loss_rejects_a_pixel_outside_the_map(self, pixel):
        """A target pixel outside the (D, H, W) map raises, where its flat
        row would read another pixel or none."""
        bins = DepthBins(count=8, d_min=1.0, d_max=9.0)
        dm = CategoricalDepthMap(CounterRng(71).normal((8, 4, 5)))
        with pytest.raises(ContractError, match="outside its 4x5 view"):
            inner_depth_loss([make_fds([[2, 2], pixel], [3.0, 4.0])], dm, bins, ReferenceSelection())

    @pytest.mark.parametrize("pixel", [p for p in OUTSIDE_4X5 if min(p) < 0])
    def test_select_reference_rejects_a_negative_pixel(self, pixel):
        """select_reference takes (H, W) from the pixels' maxima, so only a
        negative coordinate lies outside it."""
        fds = make_fds([[2, 2], pixel], [3.0, 4.0])
        with pytest.raises(ContractError, match="outside its"):
            select_reference(fds, [3.5, 4.5], ReferenceSelection())


def valid_mean_bce(logits, gt, valid, bins):
    """The trainer's absolute term on a (D, H, W) map with a valid pixel:
    ``bce_rows`` over the ``pack_view`` rows divided by the valid count,
    with its logit gradient placed in a zero map; (value, gradient,
    valid count)."""
    _, h, w = logits.shape
    view = pack_view(gt, valid, bins)
    n = view.rows.size
    probs = softmax_rows(logit_rows(logits)[view.rows])
    grad_rows = np.empty_like(probs)
    value = bce_rows(probs, view.gt_bins, grad_rows, 1.0 / n)
    return value / n, packed_to_map(grad_rows, view.rows, h, w), n


class TestAbsoluteDepthLoss:
    def test_single_pixel_matches_scalar_bce(self):
        """One pixel, D=2: the packed BCE equals the scalar BCE oracle."""
        bins = DepthBins(count=2, d_min=1.0, d_max=5.0)  # centers 2, 4
        logits = np.array([0.7, -0.3]).reshape(2, 1, 1)
        value, _, _ = valid_mean_bce(logits, np.array([[3.9]]), np.array([[True]]), bins)
        probs = softmax_scalar([0.7, -0.3])
        assert value == pytest.approx(bce_scalar(probs, 1), rel=1e-12)

    def test_mean_over_valid_pixels_only(self):
        """Invalid pixels are not packed and get no gradient; the mean
        uses the valid count."""
        bins = DepthBins(count=3, d_min=0.5, d_max=3.5)
        logits = CounterRng(59).normal((3, 2, 2))
        gt = np.array([[1.0, 2.0], [3.0, 1.0]])
        valid = np.array([[True, False], [True, False]])
        value, grad, n = valid_mean_bce(logits, gt, valid, bins)
        per_pixel = []
        for r, c in [(0, 0), (1, 0)]:
            probs = softmax_scalar(list(logits[:, r, c]))
            k = nearest_bin_scan(gt[r, c], list(bins.centers))
            per_pixel.append(bce_scalar(probs, k))
        assert n == 2
        assert value == pytest.approx(sum(per_pixel) / 2.0, rel=1e-12)
        assert np.all(grad[:, valid == False] == 0.0)  # noqa: E712

    def test_saturated_one_hot_hits_clamp_floor(self):
        """Saturated predictions reach the analytic clamp floor with an
        exactly zero gradient."""
        d = 5
        bins = DepthBins(count=d, d_min=1.0, d_max=11.0)
        logits = np.zeros((d, 1, 1))
        logits[2, 0, 0] = 900.0
        value, grad, _ = valid_mean_bce(logits, np.array([[bins.centers[2]]]), np.ones((1, 1), bool), bins)
        floor = -math.log(1.0 - BCE_CLAMP) - (d - 1) * math.log1p(-BCE_CLAMP)
        assert value == pytest.approx(floor, rel=1e-12)
        assert np.all(grad == 0.0)

    def test_no_valid_pixels_is_empty(self):
        """A view without valid pixels packs no rows; their sum is +0.0
        with an empty gradient."""
        bins = DepthBins(count=3, d_min=0.5, d_max=3.5)
        view = pack_view(np.ones((2, 2)), np.zeros((2, 2), bool), bins)
        assert view.rows.size == 0 and view.gt_bins.size == 0
        grad_rows = np.empty((0, 3))
        value = bce_rows(np.empty((0, 3)), view.gt_bins, grad_rows)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("gt", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_gt_that_is_not_finite_and_positive(self, gt):
        """A NaN or infinite gt depth on a valid pixel raises like a
        non-positive one; unchecked, NaN would land in the last bin."""
        bins = DepthBins(count=3, d_min=0.5, d_max=3.5)
        with pytest.raises(ContractError, match="finite and positive"):
            pack_view(np.array([[2.0, gt]]), np.ones((1, 2), bool), bins)

    @pytest.mark.parametrize("shape, pixel", [((2, 3), (1, 2)), ((5, 5), (4, 4))])
    def test_rejects_a_mask_of_another_shape(self, shape, pixel):
        """The mask must have gt's shape.  Unchecked, a (2, 3) mask whose
        valid pixel is (x, y) = (2, 1) selected flat row 5 of a (4, 5) gt,
        its pixel (0, 1), and a (5, 5) mask raised a bare IndexError."""
        valid = np.zeros(shape, bool)
        valid[pixel] = True
        with pytest.raises(ContractError, match="does not match"):
            pack_view(np.arange(1.0, 21.0).reshape(4, 5), valid, DepthBins(count=3, d_min=0.5, d_max=3.5))

    def test_gradient_matches_finite_differences(self):
        """Through packing, the scaled gradient is the mean's gradient
        with respect to the whole (D, H, W) map."""
        bins = DepthBins(count=4, d_min=1.0, d_max=9.0)
        logits = 2.0 * CounterRng(61).normal((4, 2, 3))
        gt = CounterRng(67).uniform((2, 3), 1.5, 8.5)
        valid = np.array([[True, True, False], [True, False, True]])
        _, grad, _ = valid_mean_bce(logits, gt, valid, bins)

        def f(xs):
            return [valid_mean_bce(x, gt, valid, bins)[0] for x in xs]

        fd = finite_difference_gradient(f, logits)
        denom = max(float(np.max(np.abs(fd))), 1e-10)
        assert float(np.max(np.abs(grad - fd))) / denom <= 1e-6


@st.composite
def packed_scenes(draw, bins=st.integers(2, 6)):
    """Random (D, H, W) logits, a valid mask, positive gt depths and up
    to four possibly overlapping targets drawn from the valid pixels."""
    d = draw(bins)
    h = draw(st.integers(1, 4))
    w = draw(st.integers(1, 5))
    rng = CounterRng(draw(st.integers(0, 2**32)))
    logits = 3.0 * rng.normal((d, h, w))
    valid = rng.uniform((h, w)) < draw(st.floats(0.2, 1.0))
    gt = rng.uniform((h, w), 0.5, 12.0)
    flat = np.nonzero(valid.reshape(-1))[0]
    targets = []
    for index in range(draw(st.integers(0, 4))):
        keep = np.sort(flat[rng.uniform(flat.size) < 0.6])
        center = None
        if draw(st.booleans()):
            center = (float(rng.uniform(1)[0] * w), float(rng.uniform(1)[0] * h))
        targets.append(
            ForegroundDepthSet(
                target_index=index,
                pixels=np.stack([keep % w, keep // w], axis=1),
                gt_depth=rng.uniform(keep.size, 1.0, 10.0),
                skipped=keep.size < 2,
                center_uv=center,
            )
        )
    return logits, valid, gt, targets


class TestPackedEngine:
    @settings(max_examples=150, deadline=None)
    @given(
        scene=packed_scenes(),
        strategy=st.sampled_from(REFERENCE_STRATEGIES),
        reduction=st.sampled_from(LOSS_REDUCTIONS),
        signed=st.booleans(),
    )
    def test_dense_inner_loss_equals_scattered_engine(self, scene, strategy, reduction, signed):
        """The dense inner-depth loss equals the packed engine run once
        over the view's valid rows and scattered back, value and gradient
        bit for bit; the engine's value-only calls give the same values."""
        logits, valid, gt, targets = scene
        d, h, w = logits.shape
        bins = DepthBins(count=d, d_min=0.5, d_max=12.0)
        sel = ReferenceSelection(strategy, signed_reference_error=signed)
        dm = CategoricalDepthMap(logits)
        dense_r = inner_depth_loss(targets, dm, bins, sel, reduction)

        view = pack_view(gt, valid, bins)
        layout = target_layout([(view.rows, targets, (h, w))])
        probs = softmax_rows(logit_rows(logits)[view.rows])[layout.rows]
        grad_rows = np.zeros((view.rows.size, d))
        inner = relative_depth_rows(probs, layout, bins.centers, sel, reduction, grad_rows)
        assert relative_depth_rows(probs, layout, bins.centers, sel, reduction) == inner
        assert dense_r.value == inner
        assert dense_r.empty == (not layout.counts.size)
        assert np.array_equal(dense_r.grad, packed_to_map(grad_rows, view.rows, h, w))


def loop_relative_depth(view_probs, packed, scenes, centers, sel, reduction, scale):
    """The per-target loop over a scene's views: each non-skipped target's
    rows gathered on their own, its reference from ``select_reference``
    and its residuals written out; returns the value (targets summed in
    order within a view, views in camera order), each view's gradient
    rows with overlapping targets added in target order, and every
    target's reference (None for the pairwise strategy)."""
    total, grads, refs = 0.0, [], []
    for probs, view, (logits, _, _, targets) in zip(view_probs, packed, scenes):
        grad, view_total = np.zeros_like(probs), 0.0
        for fds in (fds for fds in targets if not fds.skipped):
            pos = np.searchsorted(view.rows, fds.pixels[:, 1] * logits.shape[2] + fds.pixels[:, 0])
            p = probs[pos]
            d = np.sum(p * centers, axis=-1)
            n = d.size
            if sel.strategy == "one_to_one":
                ref = None
                e = (d[:, None] - d[None, :]) - (fds.gt_depth[:, None] - fds.gt_depth[None, :])
                denom = n * (n - 1.0) if reduction == "mean" else 1.0
                grad_d = 4.0 * np.sum(e, axis=-1) / denom
            else:
                ref = select_reference(fds, d, sel, np.max(p, axis=1))
                e = (d - d[ref]) - (fds.gt_depth - fds.gt_depth[ref])
                denom = float(n) if reduction == "mean" else 1.0
                grad_d = 2.0 * e / denom
                grad_d[ref] -= 2.0 * np.sum(e) / denom
            refs.append(ref)
            view_total += float(np.sum(e * e)) / denom
            grad[pos] += scale * (grad_d[:, None] * p * (centers - d[:, None]))
        total += view_total
        grads.append(grad)
    return total, grads, refs


class TestScenePass:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(2, 6),
        data=st.data(),
        strategy=st.sampled_from(REFERENCE_STRATEGIES),
        reduction=st.sampled_from(LOSS_REDUCTIONS),
        signed=st.booleans(),
        scale=st.sampled_from([1.0, 0.7]),
    )
    def test_equals_the_per_target_loop(self, d, data, strategy, reduction, signed, scale):
        """Over views with overlapping, skipped or no targets, and scenes
        with none, one pass over the scene's layout picks the loop's
        references, and gives its value and gradient to 1e-12; with each
        target's gt depths replaced by its own predicted depths, the
        value is exactly 0.0."""
        scenes = data.draw(st.lists(packed_scenes(st.just(d)), min_size=1, max_size=3))
        bins = DepthBins(count=d, d_min=0.5, d_max=12.0)
        sel = ReferenceSelection(strategy, signed_reference_error=signed)
        packed = [pack_view(gt, valid, bins) for _, valid, gt, _ in scenes]
        view_probs = [softmax_rows(logit_rows(s[0])[v.rows]) for s, v in zip(scenes, packed)]
        layout = target_layout([(v.rows, s[3], s[1].shape) for s, v in zip(scenes, packed)])
        rows = np.concatenate(view_probs)[layout.rows]
        grad = np.zeros((sum(v.rows.size for v in packed), d))
        value = relative_depth_rows(rows, layout, bins.centers, sel, reduction, grad, scale)

        want, want_grads, want_refs = loop_relative_depth(view_probs, packed, scenes, bins.centers, sel, reduction, scale)
        refs = select_references(layout, expected_depths(rows, bins.centers)[layout.index], rows, sel)
        assert (None if refs is None else refs.tolist()) == (None if strategy == "one_to_one" else want_refs)
        assert_close(value, want)
        assert_close(grad, np.concatenate(want_grads))
        assert value == 0.0 or layout.rows.size

        # each target's gt depths replaced by the expected depths of its own rows
        depths = expected_depths(rows, bins.centers)
        offsets = np.cumsum([0] + [v.rows.size for v in packed])
        for (logits, _, _, targets), v, offset in zip(scenes, packed, offsets):
            for i, fds in enumerate(targets):
                if not fds.skipped:
                    block = offset + np.searchsorted(v.rows, fds.pixels[:, 1] * logits.shape[2] + fds.pixels[:, 0])
                    targets[i] = dataclasses.replace(fds, gt_depth=depths[np.searchsorted(layout.rows, block)])
        layout = target_layout([(v.rows, s[3], s[1].shape) for s, v in zip(scenes, packed)])
        assert relative_depth_rows(rows, layout, bins.centers, sel, reduction) == 0.0

    def test_layout_build_leaves_out_skipped_targets_and_checks_pixels(self):
        """The layout leaves skipped targets out and places the others in
        the block, view by view; a target pixel that is no row of its view
        fails when the layout is built."""
        fds = make_fds([[0, 0], [1, 0]], [5.0, 6.0])
        skipped = ForegroundDepthSet(target_index=3, pixels=[[1, 0]], gt_depth=[5.0], skipped=True)
        with pytest.raises(ContractError, match="outside the valid mask"):
            target_layout([(np.array([1, 2]), [fds], (1, 3))])
        layout = target_layout([(np.arange(4), [], (2, 2)), (np.array([0, 1]), [skipped, fds], (1, 2)),
                                (np.zeros(0, np.int64), [], (1, 1))])
        assert layout.rows.tolist() == [4, 5] and layout.local.tolist() == [0, 1]
        assert layout.views == [(slice(0, 4), slice(0, 0), slice(0, 0)), (slice(4, 6), slice(0, 2), slice(0, 1)),
                                (slice(6, 6), slice(2, 2), slice(1, 1))]


def clip_and_mask_bce(probs, gt_bins, grad_rows, scale):
    """BCE rows as the clip-and-mask formulation: every probability
    clipped, every term negated before the sum, and the masked gradient
    added into ``grad_rows``."""
    hit = (..., np.arange(probs.shape[-2]), gt_bins)
    clamped = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    at_gt = clamped[hit]
    terms = -np.log1p(-clamped)
    terms[hit] = -np.log(at_gt)
    grad_p = 1.0 / (1.0 - clamped)
    grad_p[hit] = -1.0 / at_gt
    grad_p *= (probs > BCE_CLAMP) & (probs < 1.0 - BCE_CLAMP)
    inner = np.sum(grad_p * probs, axis=-1, keepdims=True)
    grad_rows += scale * (probs * (grad_p - inner))
    total = np.sum(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)
    return total if total.ndim else float(total)


@st.composite
def bce_row_sets(draw):
    """Softmax rows, (N, D) or a C-ordered (B, N, D) stack with N >= 0,
    from logits at scales that keep every probability inside the clamp
    or push some to exact 0 and 1; some entries are then set exactly to
    BCE_CLAMP or 1 - BCE_CLAMP and some rows to saturated one-hot rows."""
    b = draw(st.sampled_from([None, 1, 3]))
    n = draw(st.integers(0, 5))
    d = draw(st.integers(2, 5))
    rng = CounterRng(draw(st.integers(0, 2**32)))
    shape = (n, d) if b is None else (b, n, d)
    probs = softmax_rows(draw(st.sampled_from([0.01, 1.0, 20.0, 800.0])) * rng.normal(shape))
    flat = probs.reshape(-1, d)
    if flat.size:
        for value in (BCE_CLAMP, 1.0 - BCE_CLAMP):
            flat.reshape(-1)[draw(st.lists(st.integers(0, flat.size - 1), max_size=2))] = value
        for row in draw(st.lists(st.integers(0, len(flat) - 1), max_size=2)):
            flat[row] = softmax_rows(SATURATION_LOGIT * np.eye(d)[draw(st.integers(0, d - 1))])
    gt_bins = np.array(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)), dtype=np.int64)
    return probs, gt_bins


def _edge_rows():
    """Rows strictly inside the clamp, and the same rows with one entry
    at each clamp edge."""
    inside = softmax_rows(CounterRng(3).normal((4, 3)))
    edge = inside.copy()
    edge[1, 2] = BCE_CLAMP
    edge[2, 0] = 1.0 - BCE_CLAMP
    return inside, edge


class TestBceRows:
    @settings(max_examples=150, deadline=None)
    @given(rows=bce_row_sets(), scale=st.sampled_from([1.0, 0.3, 1.0 / 3.0, 0.0]))
    @example(rows=(_edge_rows()[0], np.arange(4) % 3), scale=0.5)
    @example(rows=(_edge_rows()[1], np.arange(4) % 3), scale=0.5)
    @example(rows=(np.zeros((0, 3)), np.zeros(0, dtype=np.int64)), scale=0.5)
    @example(rows=(np.zeros((2, 0, 3)), np.zeros(0, dtype=np.int64)), scale=0.5)
    def test_equals_clip_and_mask(self, rows, scale):
        """bce_rows gives the clip-and-mask formulation's value bit for
        bit and its gradient to 1e-12 of its largest term p / (1 - p),
        whether or not any probability reaches the clamp, with or without
        a work buffer; the gradient is written, so whatever ``grad_rows``
        held is gone, and it has the bits of adding it to zeros: no -0.0.
        Near p = 1 both forms cancel terms up to 1e7 to an entry of about
        1, so neither rounds closer than that term allows."""
        probs, gt_bins = rows
        want_grad = np.zeros_like(probs)
        want = clip_and_mask_bce(probs, gt_bins, want_grad, scale)
        clamped = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
        term = float(np.max(clamped / (1.0 - clamped), initial=1.0))
        for work in (None, np.empty_like(probs)):
            got_grad = np.full_like(probs, np.nan)
            got = bce_rows(probs, gt_bins, got_grad, scale, work)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert_close(got_grad, want_grad, 1e-12 * term)
            assert got_grad.tobytes() == (got_grad + 0.0).tobytes()
            value_only = bce_rows(probs, gt_bins, work=work)
            assert np.asarray(value_only).tobytes() == np.asarray(want).tobytes()
