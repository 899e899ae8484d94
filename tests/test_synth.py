import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hand25d import synth
from hand25d.camera import CameraIntrinsics
from hand25d.cli import _synth_records
from hand25d.errors import ConfigError
from hand25d.pose25d import NormalizationConfig, normalize_pose, to_25d
from hand25d.serialize import record_to_dict
from hand25d.skeleton import FINGERS, BoneStats, bone_lengths, canonical_skeleton
from hand25d.synth import DEFAULT_CAMERA, SynthConfig, gen_pose, synth_bone_stats


def reference_articulated_hand(rng, bone_stats):
    """The per-finger, per-joint loop that synth._articulated_hand replaces:
    separate rng.uniform calls, then one chain walk per finger."""
    xyz = np.zeros((canonical_skeleton().num_keypoints, 3))
    normal = np.array([0.0, 0.0, 1.0])
    for f, finger in enumerate(FINGERS):
        if bone_stats is not None:
            lengths = bone_stats.mean_length[4 * f : 4 * f + 4]
        else:
            base = np.array(synth.DEFAULT_BONE_MM[finger])
            lengths = base * rng.uniform(1 - 0.15, 1 + 0.15, 4)
        splay = np.deg2rad(synth.FINGER_SPLAY_DEG[finger] + rng.uniform(-12.0, 12.0))
        base_dir = np.array([np.sin(splay), np.cos(splay), 0.0])
        flex = np.deg2rad(
            [0.0, rng.uniform(0.0, 70.0), rng.uniform(0.0, 95.0), rng.uniform(0.0, 70.0)]
        )
        cumulative = np.cumsum(flex)
        position = np.zeros(3)
        for j in range(4):
            direction = np.cos(cumulative[j]) * base_dir - np.sin(cumulative[j]) * normal
            position = position + lengths[j] * direction
            xyz[1 + 4 * f + j] = position
    return xyz


class TestArticulatedHand:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 10**6),
        with_stats=st.booleans(),
        draws=st.integers(1, 4),
    )
    def test_matches_reference_loop_bit_for_bit(self, seed, index, with_stats, draws):
        stats = synth_bone_stats(SynthConfig()) if with_stats else None
        rng = np.random.default_rng([seed, index])
        ref_rng = np.random.default_rng([seed, index])
        for _ in range(draws):  # later hands start mid-stream, as on a redraw
            hand = synth._articulated_hand(rng, stats)
            assert hand.tobytes() == reference_articulated_hand(ref_rng, stats).tobytes()
        # the same doubles were consumed, so the next draw (the rotation) agrees
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("with_stats", [False, True])
    def test_gen_pose_matches_reference_records(self, monkeypatch, with_stats):
        stats = synth_bone_stats(SynthConfig()) if with_stats else None
        cfg = SynthConfig(seed=2, bone_stats=stats)
        fast = [record_to_dict(gen_pose(cfg, i)[2]) for i in range(40)]
        monkeypatch.setattr(synth, "_articulated_hand", reference_articulated_hand)
        assert [record_to_dict(gen_pose(cfg, i)[2]) for i in range(40)] == fast


def reference_rotation(q):
    """The per-pose rotation that synth._rotation_from_quaternion replaces."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def record_bits(rec):
    return (rec.valid.tobytes(), rec.px.tobytes(), rec.xyz_mm.tobytes(),
            rec.zr_norm.tobytes(), rec.side, rec.camera, rec.meta)


# fx = fy = 300 narrows the view: about a third of the first draws are
# rejected, or skip a translation draw, and so take the per-pose path
NARROW_CAMERA = CameraIntrinsics(fx=300.0, fy=300.0, cx=63.5, cy=63.5)


class TestBatchedStage:
    """The synth stage's records come from one batch of first draws
    (synth._gen_rows), with gen_pose for the rows it rejects."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 60),
        with_stats=st.booleans(),
        narrow=st.booleans(),
    )
    def test_records_equal_gen_pose_bit_for_bit(self, seed, count, with_stats, narrow):
        stats = synth_bone_stats(SynthConfig()) if with_stats else None
        camera = NARROW_CAMERA if narrow else DEFAULT_CAMERA
        cfg = SynthConfig(seed=seed, camera=camera, bone_stats=stats)
        fast = [record_bits(rec) for rec in _synth_records(cfg, count)]
        assert fast == [record_bits(gen_pose(cfg, i)[2]) for i in range(count)]

    @pytest.mark.parametrize("with_stats", [False, True])
    def test_narrow_camera_takes_both_paths(self, with_stats):
        stats = synth_bone_stats(SynthConfig()) if with_stats else None
        ok = synth._gen_rows(SynthConfig(seed=1, camera=NARROW_CAMERA, bone_stats=stats), 60)[3]
        assert 0 < ok.sum() < 60

    def test_hand_too_large_raises_gen_pose_error(self):
        stats = BoneStats(mean_length=20 * synth_bone_stats(SynthConfig()).mean_length)
        cfg = SynthConfig(bone_stats=stats)
        with pytest.raises(ConfigError, match="cannot contain a hand") as slow:
            gen_pose(cfg, 0)
        with pytest.raises(ConfigError) as fast:
            _synth_records(cfg, 3)
        assert str(fast.value) == str(slow.value)

    def test_rotation_rows_equal_per_row_calls(self):
        quats = np.random.default_rng(4).normal(size=(2000, 4))
        batch = synth._rotation_from_quaternion(quats)
        rows = np.array([synth._rotation_from_quaternion(q) for q in quats])
        assert batch.shape == (2000, 3, 3)
        assert batch.tobytes() == rows.tobytes()
        assert rows.tobytes() == np.array([reference_rotation(q) for q in quats]).tobytes()


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
        cfg = SynthConfig(seed=4)
        for i in range(50):
            pose, _, _ = gen_pose(cfg, i)
            assert pose.xyz[:, 2].min() >= 450.0
            assert pose.xyz[:, 2].max() <= 1100.0

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
        rebuilt = to_25d(pose, cfg.camera, NormalizationConfig())
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
    def test_depth_range_too_narrow_for_hand(self):
        # 20x the template bones: a hand too large for the fixed 450-1100 mm
        stats = BoneStats(mean_length=20 * synth_bone_stats(SynthConfig()).mean_length)
        with pytest.raises(ConfigError, match="cannot contain a hand"):
            gen_pose(SynthConfig(bone_stats=stats), 0)

    @pytest.mark.parametrize("count", [3, 19, 21])
    def test_bone_stats_of_wrong_length(self, count):
        with pytest.raises(ConfigError, match="20 lengths"):
            SynthConfig(bone_stats=BoneStats(mean_length=np.full(count, 30.0)))

    @pytest.mark.parametrize("seed", [-1, -2**70])
    def test_negative_seed(self, seed):
        with pytest.raises(ConfigError, match=f"seed must be 0 or more, got {seed}"):
            SynthConfig(seed=seed)

    @pytest.mark.parametrize("index", [-1, 1.5, True, "2", None, np.float64(0.0)],
                             ids=["negative", "float", "bool", "str", "None", "numpy-float"])
    def test_index_must_be_an_integer_of_0_or_more(self, index):
        message = f"index must be an integer >= 0, got {index!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            gen_pose(SynthConfig(seed=3), index)

    @pytest.mark.parametrize("index", [np.int64(4), np.uint8(4), np.int32(4)],
                             ids=["int64", "uint8", "int32"])
    def test_numpy_index_gives_the_record_of_its_int(self, index):
        """The record's meta holds a Python int, so it writes as JSON."""
        rec = gen_pose(SynthConfig(seed=3), index)[2]
        assert type(rec.meta["frame"]) is int
        assert record_to_dict(rec) == record_to_dict(gen_pose(SynthConfig(seed=3), 4)[2])

    def test_default_camera(self):
        assert SynthConfig().camera == DEFAULT_CAMERA

    def test_bone_stats_of_a_pinned_config_are_the_pin(self):
        stats = BoneStats(mean_length=np.linspace(20.0, 40.0, 20))
        assert synth_bone_stats(SynthConfig(bone_stats=stats)) is stats
