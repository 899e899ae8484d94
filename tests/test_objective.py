import numpy as np
import pytest

from hand25d.errors import ConfigError, NoValidKeypointsError, ShapeMismatchError
from hand25d.objective import LossConfig, SampleAnnotations, pose_loss
from hand25d.types import Pose2D, Pose25D

K = 21


def pred_pose(xy=None, zr=None):
    xy = np.zeros((K, 2)) if xy is None else xy
    zr = np.zeros(K) if zr is None else zr
    return Pose25D(xy=xy, zr=zr)


class TestPoseLoss:
    def test_default_alpha_is_twenty(self):
        cfg = LossConfig()
        assert cfg.alpha == 20.0

    def test_holistic_variant_is_a_config(self):
        # mean-normalized holistic regression maps onto alpha=1, L1
        cfg = LossConfig(alpha=1.0)
        assert cfg.alpha == 1.0

    def test_exact_prediction_is_zero(self):
        rng = np.random.default_rng(0)
        xy = rng.normal(size=(K, 2))
        zr = rng.normal(size=K)
        ann = SampleAnnotations(gt_2d=Pose2D(xy=xy), gt_zr=zr)
        total, part_xy, part_z = pose_loss(pred_pose(xy, zr), ann)
        assert (total, part_xy, part_z) == (0.0, 0.0, 0.0)

    def test_2d_only_sample_has_zero_depth_loss(self):
        rng = np.random.default_rng(1)
        ann = SampleAnnotations(gt_2d=Pose2D(xy=rng.normal(size=(K, 2))))
        pred = pred_pose(zr=rng.normal(size=K))
        total, part_xy, part_z = pose_loss(pred, ann)
        assert part_z == 0.0
        assert total == part_xy

    def test_single_keypoint_l1_hand_computed(self):
        # offset (3, 4) in xy and 0.1 in depth, alpha=20:
        # part_xy = 7, part_z = 0.1, total = 9
        xy = np.zeros((K, 2))
        xy[0] = [3.0, 4.0]
        zr = np.zeros(K)
        zr[0] = 0.1
        valid = np.zeros(K, dtype=bool)
        valid[0] = True
        ann = SampleAnnotations(
            gt_2d=Pose2D(xy=np.zeros((K, 2)), valid=valid), gt_zr=np.zeros(K)
        )
        total, part_xy, part_z = pose_loss(pred_pose(xy, zr), ann, LossConfig(alpha=20.0))
        assert part_xy == 7.0
        assert part_z == pytest.approx(0.1, abs=1e-15)
        assert total == pytest.approx(9.0, abs=1e-12)

    def test_masking_exactness(self):
        # adding a depth annotation equal to the prediction changes nothing
        rng = np.random.default_rng(2)
        xy_gt = rng.normal(size=(K, 2))
        zr = rng.normal(size=K)
        pred = pred_pose(rng.normal(size=(K, 2)), zr)
        without = pose_loss(pred, SampleAnnotations(gt_2d=Pose2D(xy=xy_gt)))
        with_zr = pose_loss(pred, SampleAnnotations(gt_2d=Pose2D(xy=xy_gt), gt_zr=zr))
        assert with_zr[0] == without[0]

    def test_alpha_affinity(self):
        rng = np.random.default_rng(3)
        ann = SampleAnnotations(
            gt_2d=Pose2D(xy=rng.normal(size=(K, 2))), gt_zr=rng.normal(size=K)
        )
        pred = pred_pose(rng.normal(size=(K, 2)), rng.normal(size=K))
        t1, xy1, z1 = pose_loss(pred, ann, LossConfig(alpha=1.0))
        t2, xy2, z2 = pose_loss(pred, ann, LossConfig(alpha=2.0))
        assert xy1 == xy2 and z1 == z2
        slope = t2 - t1
        assert abs(slope - z1) < 1e-12

    def test_depth_mask_independent_of_2d_mask(self):
        xy_valid = np.ones(K, dtype=bool)
        zr_valid = np.zeros(K, dtype=bool)
        zr_valid[4] = True
        zr = np.zeros(K)
        zr[4] = 1.0
        ann = SampleAnnotations(
            gt_2d=Pose2D(xy=np.zeros((K, 2)), valid=xy_valid),
            gt_zr=np.zeros(K),
            zr_valid=zr_valid,
        )
        total, part_xy, part_z = pose_loss(pred_pose(zr=zr), ann, LossConfig(alpha=2.0))
        assert part_xy == 0.0
        assert part_z == 1.0
        assert total == 2.0

    def test_no_valid_keypoints(self):
        ann = SampleAnnotations(
            gt_2d=Pose2D(xy=np.zeros((K, 2)), valid=np.zeros(K, dtype=bool))
        )
        with pytest.raises(NoValidKeypointsError):
            pose_loss(pred_pose(), ann)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: LossConfig(alpha=0.0), ConfigError, "alpha must be positive and finite"),
        (lambda: LossConfig(alpha=np.inf), ConfigError, "alpha must be positive and finite"),
        (lambda: SampleAnnotations(Pose2D(xy=np.zeros((K, 2))), gt_zr=np.zeros(K - 1)),
         ShapeMismatchError, "gt_zr must have one value per keypoint"),
        (lambda: SampleAnnotations(Pose2D(xy=np.zeros((K, 2))), gt_zr=np.zeros(K),
                                   zr_valid=np.ones(K + 1, dtype=bool)),
         ShapeMismatchError, "zr_valid must have one flag per keypoint"),
        (lambda: SampleAnnotations(Pose2D(xy=np.zeros((K, 2))), zr_valid=np.ones(K, dtype=bool)),
         ConfigError, "zr_valid given without gt_zr"),
        (lambda: pose_loss(Pose25D(xy=np.zeros((K - 1, 2)), zr=np.zeros(K - 1)),
                           SampleAnnotations(Pose2D(xy=np.zeros((K, 2))))),
         ShapeMismatchError, "prediction and annotation keypoint counts differ"),
    ], ids=["alpha-zero", "alpha-inf", "gt-zr-short", "zr-valid-long", "zr-valid-alone",
            "keypoint-count"])
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()

    def test_nonnegative_and_zero_iff_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            gt_xy = rng.normal(size=(K, 2))
            gt_zr = rng.normal(size=K)
            pred = pred_pose(gt_xy + rng.normal(scale=0.1, size=(K, 2)), gt_zr)
            ann = SampleAnnotations(gt_2d=Pose2D(xy=gt_xy), gt_zr=gt_zr)
            total, _, _ = pose_loss(pred, ann)
            assert total > 0.0

