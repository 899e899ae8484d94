import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    DEFAULT_THRESHOLDS_2D_PX,
    DEFAULT_THRESHOLDS_3D_MM,
    EvalReport,
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

    @pytest.mark.parametrize("valid", [[True, False], [[True] * 3], np.ones((3, 3), dtype=bool)])
    def test_mask_shape_must_match(self, valid):
        with pytest.raises(ShapeMismatchError, match="valid masks"):
            epe(np.zeros((3, 3)), np.zeros((3, 3)), valid=valid)

    @pytest.mark.parametrize("shape", [(3,), (4, 2, 3)])
    def test_pred_and_gt_must_match(self, shape):
        with pytest.raises(ShapeMismatchError):
            epe(np.zeros(shape), np.zeros((2, 3)))

    @pytest.mark.parametrize("with_mask", [False, True])
    def test_stack_equals_concatenated_poses(self, with_mask):
        rng = np.random.default_rng(9)
        pred, gt = rng.normal(size=(2, 7, 21, 3))
        valid = rng.random((7, 21)) < 0.6 if with_mask else None
        masks = valid if with_mask else [None] * 7
        pooled = np.concatenate([epe(p, g, m)[0] for p, g, m in zip(pred, gt, masks)])
        errors, mean, median = epe(pred, gt, valid)
        assert errors.tobytes() == pooled.tobytes()
        assert mean == float(pooled.mean()) and median == float(np.median(pooled))

    def test_masked_rows_never_enter_arithmetic(self):
        pred = np.array([[[3.0, 4.0], [np.inf, np.nan]], [[np.inf, -np.inf], [0.0, 1.0]]])
        gt = np.where(np.isfinite(pred), 0.0, np.inf)  # inf - inf would warn
        valid = np.array([[True, False], [False, True]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors, _, _ = epe(pred, gt, valid)
        assert list(errors) == [5.0, 1.0]


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

    def test_no_errors(self):
        with pytest.raises(NoValidKeypointsError, match="^no errors to aggregate$"):
            pck_curve(np.array([]), [1.0, 2.0])

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

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="^thresholds and fractions differ in length$"):
            auc([1.0, 2.0, 3.0], [0.5, 1.0])

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

    def test_unknown_space(self):
        with pytest.raises(ConfigError, match="^unknown space '4d'$"):
            evaluate([np.zeros((1, 3))], [np.zeros((1, 3))], [None], "root_aligned", "4d")

    def test_mask_count_must_match_corpus(self):
        pts = [np.zeros((21, 3)), np.ones((21, 3))]
        with pytest.raises(ShapeMismatchError, match="valid masks"):
            evaluate(pts, pts, [None], "absolute_with_scale", "3d")

    def test_ragged_corpus(self):
        pred = [np.zeros((21, 3)), np.zeros((20, 3))]
        with pytest.raises(ShapeMismatchError, match="share one"):
            evaluate(pred, pred, [None, None], "absolute_with_scale", "3d")

    def test_poses_must_be_two_dimensional(self):
        pts = [np.zeros(3), np.ones(3)]
        with pytest.raises(ShapeMismatchError, match=r"\(K, D\) arrays"):
            evaluate(pts, pts, [None, None], "absolute_with_scale", "3d")

    @pytest.mark.parametrize("protocol", ["root_aligned", "absolute_with_scale"])
    def test_zero_length_poses_are_not_two_dimensional(self, protocol):
        pts = [np.zeros(0), np.zeros(0)]
        with pytest.raises(ShapeMismatchError, match=r"\(K, D\) arrays"):
            evaluate(pts, pts, [None, None], protocol, "3d")

    def test_root_aligned_translates_3d_only(self):
        gt = np.random.default_rng(4).integers(-50, 50, size=(3, 21, 3)).astype(float)
        pred = gt + [5.0, -2.0, 40.0]  # integers, so the alignment is exact
        assert evaluate(pred, gt, [None] * 3, "root_aligned", "3d").epe_mean == 0.0
        shifted = evaluate(pred, gt, [None] * 3, "absolute_with_scale", "3d")
        assert shifted.epe_mean == pytest.approx(np.sqrt(5**2 + 2**2 + 40**2), rel=1e-12)
        flat = [evaluate(pred[..., :2], gt[..., :2], [None] * 3, protocol, "2d")
                for protocol in ("root_aligned", "absolute_with_scale")]
        assert dataclasses.replace(flat[0], protocol="absolute_with_scale") == flat[1]
        assert flat[0].epe_mean > 0

    def test_root_aligned_needs_a_valid_root_in_every_scored_pose(self):
        pts = [np.zeros((21, 3))] * 3
        masks = [np.ones(21, dtype=bool), np.ones(21, dtype=bool), np.zeros(21, dtype=bool)]
        masks[2][0] = False  # unscored: its root is never read
        evaluate(pts, pts, masks, "root_aligned", "3d")
        masks[1] = masks[1].copy()
        masks[1][0] = False
        with pytest.raises(InvalidRootError, match="^root keypoint 0 must be valid in both poses$"):
            evaluate(pts, pts, masks, "root_aligned", "3d")
        evaluate(pts, pts, masks, "absolute_with_scale", "3d")
        evaluate([p[:, :2] for p in pts], [p[:, :2] for p in pts], masks, "root_aligned", "2d")

    @pytest.mark.parametrize("protocol", ["root_aligned", "absolute_with_scale"])
    def test_corpus_and_mask_count_mismatch(self, protocol):
        pts = [np.zeros((21, 3)), np.ones((21, 3))]
        with pytest.raises(ShapeMismatchError, match="valid masks"):
            evaluate(pts, pts, [None] * 3, protocol, "3d")
        with pytest.raises(ShapeMismatchError, match="matching"):
            evaluate(pts, pts[:1], [None] * 2, protocol, "3d")

    @pytest.mark.parametrize("masks", [[], [np.zeros(21, dtype=bool)] * 2])
    def test_nothing_valid_in_the_corpus(self, masks):
        pts = [np.zeros((21, 3))] * len(masks)
        with pytest.raises(NoValidKeypointsError, match="^no valid keypoints in the whole corpus$"):
            evaluate(pts, pts, masks, "absolute_with_scale", "3d")


def pooled_reference(pred_points, gt_points, valid_masks, protocol, space, thresholds=None,
                     num_failed=0):
    """The per-pose pooling loop `evaluate` used to run, kept as its reference."""
    if protocol not in ("root_aligned", "absolute_with_scale"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    if space not in ("2d", "3d"):
        raise ConfigError(f"unknown space {space!r}")
    if len(pred_points) != len(gt_points):
        raise ShapeMismatchError("prediction and ground-truth corpora differ in length")
    if len(valid_masks) != len(pred_points):
        raise ShapeMismatchError("valid masks and the corpora differ in length")
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS_3D_MM if space == "3d" else DEFAULT_THRESHOLDS_2D_PX
    pooled = []
    for pred, gt, mask in zip(pred_points, gt_points, valid_masks):
        mask = np.asarray(mask, dtype=bool) if mask is not None else None
        if mask is not None and not mask.any():
            continue
        errors, _, _ = epe(pred, gt, mask)
        pooled.append(errors)
    if not pooled:
        raise NoValidKeypointsError("no valid keypoints in the whole corpus")
    errors = np.concatenate(pooled)
    fractions = pck_curve(errors, thresholds)
    thr = np.asarray(thresholds, dtype=np.float64)
    return EvalReport(
        protocol=protocol,
        space=space,
        unit="mm" if space == "3d" else "px",
        per_keypoint_errors=tuple(float(e) for e in errors),
        epe_mean=float(errors.mean()),
        epe_median=float(np.median(errors)),
        pck=tuple((float(t), float(f)) for t, f in zip(thr, fractions)),
        auc=auc(thr, fractions),
        num_samples=len(pred_points),
        num_failed=num_failed,
    )


def hexed(value):
    """A report field with every float spelled exactly, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(hexed(v) for v in value)
    return value


def outcome(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the class and message are compared
            return type(exc), str(exc)
    return {name: hexed(value) for name, value in vars(report).items()}


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 39),
    k=st.integers(1, 21),
    space=st.sampled_from(["2d", "3d"]),
    mask_kind=st.sampled_from(["none", "random", "all_false_rows", "all_false"]),
    placeholder=st.sampled_from([0.0, np.inf, -np.inf, np.nan]),
    thresholds=st.sampled_from([None, (0.0, 0.5, 1.0, 4.0), (-1.0, 2.5)]),
)
def test_evaluate_matches_per_pose_pooling(seed, n, k, space, mask_kind, placeholder, thresholds):
    rng = np.random.default_rng(seed)
    d = 3 if space == "3d" else 2
    gt = rng.normal(scale=20.0, size=(n, k, d))
    pred = gt + rng.normal(scale=rng.choice([0.0, 1.0, 30.0]), size=(n, k, d))
    pred[rng.random((n, k)) < 0.1] = gt[0, 0] if n else 0.0  # exact hits and ties
    if mask_kind == "none":
        masks = [None] * n
    else:
        valid = rng.random((n, k)) < rng.uniform(0.2, 1.0)
        if mask_kind == "all_false_rows":
            valid[rng.random(n) < 0.4] = False
        elif mask_kind == "all_false":
            valid[:] = False
        pred[~valid] = gt[~valid] = placeholder  # never read, so inf - inf never warns
        masks = [row if rng.random() < 0.7 else row.tolist() for row in valid]
        if n:
            masks[rng.integers(n)] = None if mask_kind == "random" else masks[0]
    args = (list(pred), list(gt), masks, "absolute_with_scale", space, thresholds)
    expected = outcome(pooled_reference, *args, num_failed=n // 3)
    assert outcome(evaluate, *args, num_failed=n // 3) == expected


def aligned_reference(pred_points, gt_points, valid_masks, thresholds=None, num_failed=0):
    """Root alignment as the eval stage used to do it: a per-pose `align_root`
    on every pose with a valid keypoint, then an `evaluate` that only labels."""
    aligned = []
    for pred, gt, mask in zip(pred_points, gt_points, valid_masks):
        mask = np.ones(len(pred), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if mask.any():
            pred = align_root(Pose3D(xyz=pred, valid=mask), Pose3D(xyz=gt, valid=mask)).xyz
        aligned.append(pred)
    report = evaluate(aligned, gt_points, valid_masks, "absolute_with_scale", "3d", thresholds,
                      num_failed=num_failed)
    return dataclasses.replace(report, protocol="root_aligned")


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 30),
    k=st.integers(1, 21),
    mask_kind=st.sampled_from(["none", "random", "all_false_rows", "invalid_root"]),
    placeholder=st.sampled_from([0.0, np.inf, -np.inf, np.nan]),
    thresholds=st.sampled_from([None, (0.0, 0.5, 1.0, 4.0)]),
)
def test_root_aligned_evaluate_matches_per_pose_align_root(seed, n, k, mask_kind, placeholder,
                                                           thresholds):
    rng = np.random.default_rng(seed)
    gt = rng.normal(scale=50.0, size=(n, k, 3)) + [0.0, 0.0, 600.0]
    pred = gt + rng.normal(scale=20.0, size=(n, 1, 3)) + rng.normal(scale=5.0, size=(n, k, 3))
    if mask_kind == "none":
        masks = [None] * n
    else:
        valid = rng.random((n, k)) < rng.uniform(0.2, 1.0)
        valid[:, 0] = True
        if mask_kind == "all_false_rows":
            valid[rng.random(n) < 0.4] = False  # their placeholder roots are never read
        elif mask_kind == "invalid_root" and n:
            valid[rng.integers(n), 0] = False
        pred[~valid] = gt[~valid] = placeholder
        masks = [row if rng.random() < 0.7 else row.tolist() for row in valid]
    args = (list(pred), list(gt), masks)
    expected = outcome(aligned_reference, *args, thresholds, num_failed=n // 2)
    assert outcome(evaluate, *args, "root_aligned", "3d", thresholds, num_failed=n // 2) == expected
