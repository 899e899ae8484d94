import numpy as np
import pytest

from hand25d.errors import (
    BadHeadLengthError,
    ConfigError,
    EmptyThresholdsError,
    InvalidRootError,
    NoValidKeypointsError,
    ShapeMismatchError,
    TooFewPointsError,
)
from hand25d.metrics import (
    DEFAULT_THRESHOLDS_3D_MM,
    align_root,
    auc,
    epe,
    evaluate,
    pck_curve,
    pckh_curve,
)
from hand25d.types import Pose3D


class TestEpe:
    def test_exact_prediction(self):
        pts = np.random.default_rng(0).normal(size=(21, 3))
        errors, mean, median = epe(pts, pts)
        assert np.all(errors == 0) and mean == 0 and median == 0

    def test_three_four_offset(self):
        gt = np.zeros((1, 3))
        pred = np.array([[3.0, 4.0, 0.0]])
        errors, mean, median = epe(pred, gt)
        assert errors[0] == 5.0 and mean == 5.0 and median == 5.0

    def test_mean_and_median(self):
        gt = np.zeros((3, 2))
        pred = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        errors, mean, median = epe(pred, gt)
        np.testing.assert_array_equal(errors, [1.0, 2.0, 4.0])
        assert mean == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert median == 2.0

    def test_even_count_median_is_midpoint(self):
        gt = np.zeros((4, 2))
        pred = np.array([[1.0, 0], [2.0, 0], [5.0, 0], [9.0, 0]])
        _, _, median = epe(pred, gt)
        assert median == 3.5

    def test_validity_mask(self):
        gt = np.zeros((3, 3))
        pred = np.array([[100.0, 0, 0], [3.0, 4.0, 0.0], [100.0, 0, 0]])
        errors, mean, _ = epe(pred, gt, valid=np.array([False, True, False]))
        assert list(errors) == [5.0] and mean == 5.0

    def test_all_invalid(self):
        with pytest.raises(NoValidKeypointsError):
            epe(np.zeros((2, 3)), np.zeros((2, 3)), valid=np.zeros(2, dtype=bool))


class TestAlignRoot:
    def test_identity_when_aligned(self):
        pose = Pose3D(xyz=np.random.default_rng(1).normal(size=(21, 3)))
        out = align_root(pose, pose)
        np.testing.assert_array_equal(out.xyz, pose.xyz)

    def test_pure_translation_removed(self):
        rng = np.random.default_rng(2)
        gt = Pose3D(xyz=rng.normal(size=(21, 3)))
        pred = Pose3D(xyz=gt.xyz + [10.0, 0.0, 0.0])
        aligned = align_root(pred, gt)
        errors, mean, _ = epe(aligned.xyz, gt.xyz)
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_relative_distances_unchanged(self):
        rng = np.random.default_rng(3)
        gt = Pose3D(xyz=rng.normal(size=(21, 3)))
        pred = Pose3D(xyz=rng.normal(size=(21, 3)))
        aligned = align_root(pred, gt)
        before = pred.xyz - pred.xyz[0]
        after = aligned.xyz - aligned.xyz[0]
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_invalid_root(self):
        valid = np.ones(21, dtype=bool)
        valid[0] = False
        pred = Pose3D(xyz=np.zeros((21, 3)), valid=valid)
        with pytest.raises(InvalidRootError):
            align_root(pred, Pose3D(xyz=np.zeros((21, 3))))


class TestPckCurve:
    def test_counting(self):
        frac = pck_curve(np.array([5.0, 15.0, 25.0]), [20.0])
        assert frac[0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_zero_errors_are_one_everywhere(self):
        frac = pck_curve(np.zeros(10), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(frac, 1.0)

    def test_closed_inequality(self):
        frac = pck_curve(np.array([20.0]), [20.0])
        assert frac[0] == 1.0

    def test_nondecreasing(self):
        rng = np.random.default_rng(4)
        errors = rng.uniform(0, 100, 200)
        frac = pck_curve(errors, np.linspace(0, 100, 51))
        assert np.all(np.diff(frac) >= 0)

    def test_extremes(self):
        errors = np.array([3.0, 7.0, 9.0])
        assert pck_curve(errors, [9.0])[0] == 1.0
        assert pck_curve(errors, [2.9])[0] == 0.0

    def test_empty_thresholds(self):
        with pytest.raises(EmptyThresholdsError):
            pck_curve(np.array([1.0]), [])

    def test_non_increasing_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            pck_curve(np.array([1.0]), [2.0, 2.0])

    @pytest.mark.parametrize("thresholds", [
        [np.nan, 50.0], [20.0, np.inf], [20.0, np.nan], [np.nan], [-np.inf, 0.0],
    ])
    def test_non_finite_thresholds_rejected(self, thresholds):
        with pytest.raises(ConfigError, match="finite"):
            pck_curve(np.array([1.0]), thresholds)


class TestAuc:
    def test_constant_one(self):
        assert auc([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 1.0

    def test_constant_half(self):
        assert auc([10.0, 20.0], [0.5, 0.5]) == 0.5

    def test_linear_ramp(self):
        t = np.linspace(0, 1, 11)
        assert auc(t, t) == pytest.approx(0.5, rel=1e-15)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            auc([1.0], [1.0])

    def test_permutation_invariant_errors(self):
        rng = np.random.default_rng(5)
        errors = rng.uniform(0, 50, 100)
        t = np.linspace(0, 60, 31)
        a = auc(t, pck_curve(errors, t))
        b = auc(t, pck_curve(rng.permutation(errors), t))
        assert a == b


class TestPckhCurve:
    def test_error_equal_to_head_length(self):
        pred = np.array([[10.0, 0.0]])
        gt = np.zeros((1, 2))
        frac = pckh_curve(pred, gt, head_length=10.0, thresholds=[1.0])
        assert frac[0] == 1.0

    def test_doubling_head_length_never_lowers_curve(self):
        rng = np.random.default_rng(6)
        pred = rng.normal(scale=5.0, size=(50, 2))
        gt = np.zeros((50, 2))
        t = np.linspace(0.1, 2.0, 20)
        small = pckh_curve(pred, gt, 5.0, t)
        big = pckh_curve(pred, gt, 10.0, t)
        assert np.all(big >= small)

    def test_exact_prediction(self):
        gt = np.random.default_rng(7).normal(size=(21, 2))
        frac = pckh_curve(gt, gt, 3.0, np.linspace(0.05, 0.5, 10))
        np.testing.assert_array_equal(frac, 1.0)

    def test_bad_head_length(self):
        with pytest.raises(BadHeadLengthError):
            pckh_curve(np.zeros((1, 2)), np.zeros((1, 2)), 0.0, [1.0])


class TestEvaluate:
    def test_perfect_corpus_auc_one(self):
        rng = np.random.default_rng(8)
        pts = [rng.normal(size=(21, 3)) for _ in range(10)]
        report = evaluate(pts, pts, [None] * 10, "absolute_with_scale", "3d")
        assert report.auc == 1.0
        assert report.epe_mean == 0.0
        assert len(report.pck) == len(DEFAULT_THRESHOLDS_3D_MM)

    def test_pooling_counts_each_valid_keypoint(self):
        gt = [np.zeros((2, 3)), np.zeros((2, 3))]
        pred = [np.zeros((2, 3)), np.ones((2, 3))]
        masks = [np.array([True, False]), np.array([True, True])]
        report = evaluate(pred, gt, masks, "absolute_with_scale", "3d", thresholds=[1.0, 2.0])
        assert len(report.per_keypoint_errors) == 3

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            evaluate([np.zeros((1, 3))], [np.zeros((1, 3))], [None], "nearest", "3d")

    def test_mask_count_must_match_corpus(self):
        pts = [np.zeros((21, 3)), np.ones((21, 3))]
        with pytest.raises(ShapeMismatchError, match="valid masks"):
            evaluate(pts, pts, [None], "absolute_with_scale", "3d")
