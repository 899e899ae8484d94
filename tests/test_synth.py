import numpy as np
import pytest

from hand25d.errors import ConfigError
from hand25d.pose25d import normalize_pose, to_25d
from hand25d.serialize import record_to_dict
from hand25d.skeleton import BoneStats, bone_lengths, canonical_skeleton
from hand25d.synth import DEFAULT_CAMERA, SynthConfig, gen_pose, synth_bone_stats


class TestDeterminism:
    def test_same_seed_index_bit_identical(self):
        cfg = SynthConfig(seed=5)
        pose_a, p25_a, rec_a = gen_pose(cfg, 13)
        pose_b, p25_b, rec_b = gen_pose(cfg, 13)
        np.testing.assert_array_equal(pose_a.xyz, pose_b.xyz)
        np.testing.assert_array_equal(p25_a.zr, p25_b.zr)
        assert record_to_dict(rec_a) == record_to_dict(rec_b)

    def test_indices_differ(self):
        cfg = SynthConfig(seed=5)
        pose_a, _, _ = gen_pose(cfg, 0)
        pose_b, _, _ = gen_pose(cfg, 1)
        assert np.abs(pose_a.xyz - pose_b.xyz).max() > 1.0

    def test_seeds_differ(self):
        pose_a, _, _ = gen_pose(SynthConfig(seed=1), 0)
        pose_b, _, _ = gen_pose(SynthConfig(seed=2), 0)
        assert np.abs(pose_a.xyz - pose_b.xyz).max() > 1.0


class TestGeometry:
    def test_exact_bone_lengths_from_stats(self):
        stats = synth_bone_stats(SynthConfig())
        cfg = SynthConfig(seed=3, bone_stats=stats)
        skel = canonical_skeleton()
        for i in range(20):
            pose, _, _ = gen_pose(cfg, i)
            np.testing.assert_allclose(bone_lengths(pose, skel), stats.mean_length, rtol=1e-12)

    def test_depth_range_contains_all_keypoints(self):
        cfg = SynthConfig(seed=4, depth_range=(500.0, 900.0))
        for i in range(50):
            pose, _, _ = gen_pose(cfg, i)
            assert pose.xyz[:, 2].min() >= 500.0
            assert pose.xyz[:, 2].max() <= 900.0

    def test_projections_inside_grid(self):
        cfg = SynthConfig(seed=6)
        for i in range(100):
            _, p25, _ = gen_pose(cfg, i)
            assert p25.xy.min() >= 0.0
            assert p25.xy[:, 0].max() <= cfg.grid[0] - 1
            assert p25.xy[:, 1].max() <= cfg.grid[1] - 1

    def test_record_consistent_with_pose(self):
        cfg = SynthConfig(seed=7)
        pose, p25, rec = gen_pose(cfg, 2)
        np.testing.assert_array_equal(rec.xyz_mm, pose.xyz)
        np.testing.assert_array_equal(rec.px, p25.xy)
        np.testing.assert_array_equal(rec.zr_norm, p25.zr)
        assert rec.camera == cfg.camera
        assert rec.meta["frame"] == 2

    def test_views_agree_with_to_25d(self):
        cfg = SynthConfig(seed=8)
        pose, p25, _ = gen_pose(cfg, 11)
        rebuilt = to_25d(pose, cfg.camera, cfg.normalization)
        np.testing.assert_allclose(rebuilt.xy, p25.xy, atol=1e-12)
        np.testing.assert_allclose(rebuilt.zr, p25.zr, atol=1e-15)


class TestScaleFixedPoint:
    def test_recover_scale_exact_with_matching_stats(self):
        from hand25d.reconstruct import recover_scale

        stats = synth_bone_stats(SynthConfig())
        cfg = SynthConfig(seed=9, bone_stats=stats)
        skel = canonical_skeleton()
        for i in range(100):
            pose, _, _ = gen_pose(cfg, i)
            normalized, s_true = normalize_pose(pose)
            assert abs(recover_scale(normalized, stats, skel) / s_true - 1.0) < 1e-9


class TestConfigValidation:
    def test_bad_depth_range(self):
        with pytest.raises(ConfigError):
            SynthConfig(depth_range=(0.0, 100.0))

    def test_depth_range_too_narrow_for_hand(self):
        cfg = SynthConfig(depth_range=(450.0, 500.0))
        with pytest.raises(ConfigError):
            gen_pose(cfg, 0)

    def test_bad_jitter(self):
        with pytest.raises(ConfigError):
            SynthConfig(bone_jitter=1.5)

    @pytest.mark.parametrize("count", [3, 19, 21])
    def test_bone_stats_of_wrong_length(self, count):
        with pytest.raises(ConfigError, match="20 lengths"):
            SynthConfig(bone_stats=BoneStats(mean_length=np.full(count, 30.0)))

    def test_default_camera(self):
        assert SynthConfig().camera == DEFAULT_CAMERA
