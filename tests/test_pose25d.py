import numpy as np
import pytest

from hand25d.camera import CameraIntrinsics, project
from hand25d.errors import ConfigError, NoValidKeypointsError, ZeroBoneError
from hand25d.pose25d import (
    NormalizationConfig,
    normalization_scale,
    normalize_pose,
    to_25d,
)
from hand25d.types import Pose3D

CAM = CameraIntrinsics(fx=150.0, fy=150.0, cx=63.5, cy=63.5)


def hand_like_pose(seed=0):
    rng = np.random.default_rng(seed)
    xyz = rng.normal(scale=30.0, size=(21, 3)) + [0, 0, 600]
    return Pose3D(xyz=xyz)


class TestNormalizationConfig:
    def test_defaults(self):
        cfg = NormalizationConfig()
        assert cfg.pair == (5, 0)
        assert cfg.c == 1.0

    def test_any_tree_edge_accepted(self):
        NormalizationConfig(pair=(12, 11))  # middle DIP to middle PIP

    def test_non_edge_rejected(self):
        with pytest.raises(ConfigError):
            NormalizationConfig(pair=(5, 9))

    def test_non_positive_c_rejected(self):
        with pytest.raises(ConfigError):
            NormalizationConfig(c=0.0)

    @pytest.mark.parametrize("pair", [[5, 0], (np.int64(5), np.int32(0)), [np.int8(5), 0]],
                             ids=["list", "numpy-ints", "list-of-numpy-ints"])
    def test_pair_is_stored_as_a_tuple_of_ints(self, pair):
        """Any two integers give the config that (5, 0) gives: equal, with an
        equal hash, and holding Python ints."""
        cfg = NormalizationConfig(pair=pair)
        assert cfg == NormalizationConfig() and hash(cfg) == hash(NormalizationConfig())
        assert cfg.pair == (5, 0) and all(type(v) is int for v in cfg.pair)


class TestNormalizationScale:
    def test_three_four_five(self):
        xyz = np.zeros((21, 3)) + [0, 0, 500.0]
        xyz[5] = xyz[0] + [0.0, 30.0, 40.0]
        assert normalization_scale(Pose3D(xyz=xyz)) == 50.0

    def test_homogeneity(self):
        pose = hand_like_pose(1)
        s = normalization_scale(pose)
        assert abs(normalization_scale(Pose3D(xyz=3.0 * pose.xyz)) - 3.0 * s) < 1e-9 * s

    def test_coincident_pair(self):
        xyz = np.ones((21, 3))
        with pytest.raises(ZeroBoneError):
            normalization_scale(Pose3D(xyz=xyz))


class TestNormalizePose:
    def test_fixed_point(self):
        xyz = np.zeros((21, 3)) + [0, 0, 500.0]
        xyz[5] = xyz[0] + [1.0, 0.0, 0.0]
        pose = Pose3D(xyz=xyz)
        scaled, s = normalize_pose(pose)
        assert s == 1.0
        np.testing.assert_array_equal(scaled.xyz, pose.xyz)

    def test_halving(self):
        xyz = np.zeros((21, 3)) + [0, 0, 500.0]
        xyz[5] = xyz[0] + [2.0, 0.0, 0.0]
        scaled, s = normalize_pose(Pose3D(xyz=xyz))
        assert s == 2.0
        np.testing.assert_allclose(scaled.xyz, xyz / 2.0, rtol=1e-15)

    def test_pair_length_exactly_c(self):
        for seed in range(20):
            pose = hand_like_pose(seed)
            for c in (1.0, 2.5):
                scaled, _ = normalize_pose(pose, NormalizationConfig(c=c))
                length = np.linalg.norm(scaled.xyz[5] - scaled.xyz[0])
                assert abs(length - c) <= 1e-12 * c

    def test_projection_unchanged(self):
        pose = hand_like_pose(2)
        scaled, _ = normalize_pose(pose)
        a, _ = project(pose, CAM)
        b, _ = project(scaled, CAM)
        assert np.abs(a.xy - b.xy).max() < 1e-9


class TestTo25D:
    def test_root_relative_zero(self):
        p25 = to_25d(hand_like_pose(3), CAM)
        assert p25.zr[0] == 0.0

    def test_scale_invariance(self):
        pose = hand_like_pose(4)
        a = to_25d(pose, CAM)
        for lam in (0.5, 3.0, 17.0):
            b = to_25d(Pose3D(xyz=lam * pose.xyz), CAM)
            assert np.abs(a.xy - b.xy).max() < 1e-9
            assert np.abs(a.zr - b.zr).max() < 1e-9

    def test_flat_pose_zero_depths(self):
        rng = np.random.default_rng(5)
        xyz = np.zeros((21, 3))
        xyz[:, :2] = rng.normal(scale=30.0, size=(21, 2))
        xyz[:, 2] = 700.0
        p25 = to_25d(Pose3D(xyz=xyz), CAM)
        np.testing.assert_array_equal(p25.zr, np.zeros(21))

    @pytest.mark.parametrize("invalid", [5, 0])  # the index_mcp end of the pair, then the palm
    def test_invalid_pair_keypoint_raises(self, invalid):
        valid = np.ones(21, dtype=bool)
        valid[invalid] = False
        with pytest.raises(NoValidKeypointsError, match=r"^normalization pair \(5, 0\) must"):
            to_25d(Pose3D(xyz=hand_like_pose(4).xyz, valid=valid), CAM)

    def test_invalid_root_raises(self):
        valid = np.ones(21, dtype=bool)
        valid[0] = False
        cfg = NormalizationConfig(pair=(12, 11))  # a pair away from the root
        with pytest.raises(NoValidKeypointsError, match="^root keypoint 0 must be valid"):
            to_25d(Pose3D(xyz=hand_like_pose(4).xyz, valid=valid), CAM, cfg)

    def test_validity_propagates(self):
        pose = hand_like_pose(6)
        mask = np.ones(21, dtype=bool)
        mask[[2, 9]] = False
        p25 = to_25d(Pose3D(xyz=pose.xyz, valid=mask), CAM)
        np.testing.assert_array_equal(p25.valid, mask)
