import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hand25d.camera import CameraIntrinsics, backproject, normalized_image_coords
from hand25d.errors import (
    BadScaleError,
    DegenerateProjectionError,
    NonFiniteError,
    NonPositiveDepthError,
    NoRealSolutionError,
    NoValidBonesError,
    NoValidKeypointsError,
    ShapeMismatchError,
)
from hand25d.pose25d import NormalizationConfig, normalize_pose, to_25d
from hand25d.reconstruct import (
    QuadraticCoeffs,
    absolute_pose,
    quadratic_coefficients,
    reconstruct_pose,
    recover_scale,
    solve_zroot,
)
from hand25d.skeleton import BoneStats, bone_lengths, canonical_skeleton
from hand25d.synth import SynthConfig, gen_pose, synth_bone_stats
from hand25d.types import Pose2D, Pose3D, Pose25D

CFG = SynthConfig(seed=11)


def pair_distance(pn, pm, zn, zm, z_root):
    """Distance between the pair's 3D points once the root depth is fixed:
    the independent check of the constraint the solver must satisfy."""
    z_n, z_m = z_root + zn, z_root + zm
    point_n = np.array([pn[0] * z_n, pn[1] * z_n, z_n])
    point_m = np.array([pm[0] * z_m, pm[1] * z_m, z_m])
    return float(np.linalg.norm(point_n - point_m))


class TestQuadraticCoefficients:
    def test_flat_pair(self):
        q = quadratic_coefficients((1.0, 0.0), (0.0, 0.0), 0.0, 0.0, 1.0)
        assert (q.a, q.b, q.c) == (1.0, 0.0, -1.0)

    def test_offset_depth_pair(self):
        q = quadratic_coefficients((1.0, 0.0), (0.0, 0.0), 0.5, 0.0, 1.0)
        assert (q.a, q.b, q.c) == (1.0, 0.5, -0.5)

    def test_coincident_projections(self):
        q = quadratic_coefficients((0.3, 0.2), (0.3, 0.2), 0.1, 0.1, 1.0)
        assert q.a == 0.0
        assert q.b == pytest.approx(0.1 * 0.0, abs=1e-15)
        assert q.c == pytest.approx(-1.0, abs=1e-15)


class TestSolveZroot:
    def test_unit_case(self):
        z = solve_zroot(QuadraticCoeffs(1.0, 0.0, -1.0))
        assert z == 1.0
        assert pair_distance((1, 0), (0, 0), 0.0, 0.0, z) == pytest.approx(1.0, abs=1e-12)

    def test_offset_case_satisfies_constraint(self):
        q = QuadraticCoeffs(1.0, 0.5, -0.5)
        z = solve_zroot(q)
        assert z == pytest.approx(-0.5 + np.sqrt(0.75), abs=1e-15)
        assert pair_distance((1, 0), (0, 0), 0.5, 0.0, z) == pytest.approx(1.0, abs=1e-9)

    def test_half_b_plus_full_discriminant_form_violates_constraint(self):
        # The often-quoted 0.5*(-b + sqrt(b^2 - 4ac))/a mixes conventions:
        # with these coefficient definitions it returns 0.5 here, and the
        # pair then sits at distance sqrt(1.25), not 1.
        a, b, c = 1.0, 0.5, -0.5
        wrong = 0.5 * (-b + np.sqrt(b * b - 4 * a * c)) / a
        assert wrong == pytest.approx(0.5, abs=1e-15)
        assert pair_distance((1, 0), (0, 0), 0.5, 0.0, wrong) == pytest.approx(
            np.sqrt(1.25), abs=1e-12
        )

    def test_degenerate_a(self):
        with pytest.raises(DegenerateProjectionError):
            solve_zroot(QuadraticCoeffs(0.0, 0.1, -1.0))

    def test_no_real_solution(self):
        with pytest.raises(NoRealSolutionError):
            solve_zroot(QuadraticCoeffs(1.0, 0.0, 1.0))

    def test_tiny_negative_discriminant_clamped(self):
        z = solve_zroot(QuadraticCoeffs(1.0, 1.0, 1.0 + 1e-12))
        assert z == pytest.approx(-1.0, abs=1e-6)

    def test_returns_larger_root(self):
        q = QuadraticCoeffs(2.0, -1.0, -3.0)
        z = solve_zroot(q)
        other = (-q.b - np.sqrt(q.b * q.b - q.a * q.c)) / q.a
        assert z > other
        # both satisfy a z^2 + 2 b z + c = 0
        for root in (z, other):
            assert q.a * root * root + 2 * q.b * root + q.c == pytest.approx(0.0, abs=1e-12)


class TestReconstructPose:
    def test_round_trip_100_poses(self):
        worst = 0.0
        for i in range(100):
            pose, p25, _ = gen_pose(CFG, i)
            normalized, _ = normalize_pose(pose)
            rebuilt = reconstruct_pose(p25, CFG.camera)
            worst = max(worst, float(np.abs(rebuilt.xyz - normalized.xyz).max()))
        assert worst < 1e-6

    def test_pair_distance_is_c(self):
        for i in range(50):
            _, p25, _ = gen_pose(CFG, i)
            rebuilt = reconstruct_pose(p25, CFG.camera)
            d = np.linalg.norm(rebuilt.xyz[5] - rebuilt.xyz[0])
            assert abs(d - 1.0) < 1e-6

    def test_fingertip_only_validity_preserved(self):
        pose, p25, _ = gen_pose(CFG, 3)
        mask = np.zeros(21, dtype=bool)
        mask[[0, 5, 4, 8, 12, 16, 20]] = True  # pair + fingertips
        masked = Pose25D(xy=p25.xy, zr=p25.zr, valid=mask)
        rebuilt = reconstruct_pose(masked, CFG.camera)
        np.testing.assert_array_equal(rebuilt.valid, mask)
        normalized, _ = normalize_pose(pose)
        assert np.abs(rebuilt.xyz[mask] - normalized.xyz[mask]).max() < 1e-6

    def test_invalid_pair_rejected(self):
        _, p25, _ = gen_pose(CFG, 1)
        mask = np.ones(21, dtype=bool)
        mask[5] = False
        with pytest.raises(NoValidKeypointsError):
            reconstruct_pose(Pose25D(xy=p25.xy, zr=p25.zr, valid=mask), CFG.camera)

    def test_coincident_pair_projection_degenerate(self):
        xy = np.tile([63.5, 63.5], (21, 1))
        with pytest.raises(DegenerateProjectionError):
            reconstruct_pose(Pose25D(xy=xy, zr=np.zeros(21)), CFG.camera)

    def test_negative_depth_rejected(self):
        _, p25, _ = gen_pose(CFG, 2)
        zr = p25.zr.copy()
        zr[7] = -1e9  # forces z_root + zr < 0 for keypoint 7
        with pytest.raises(NonPositiveDepthError):
            reconstruct_pose(Pose25D(xy=p25.xy, zr=zr), CFG.camera)

    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(0, 10_000),
        skew=st.floats(-20.0, 20.0).filter(lambda v: v != 0.0),
        focal=st.tuples(st.floats(80.0, 400.0), st.floats(80.0, 400.0)),
        mask=st.lists(st.booleans(), min_size=21, max_size=21),
    )
    def test_is_backproject_at_root_depth_plus_zr(self, index, skew, focal, mask):
        """The lift is `backproject` at depth zroot + zr, bit for bit, with
        exact +0.0 rows for invalid keypoints."""
        cam = CameraIntrinsics(fx=focal[0], fy=focal[1], cx=63.5, cy=63.5, skew=skew)
        _, p25, _ = gen_pose(SynthConfig(seed=3, camera=cam), index)
        valid = np.array(mask)
        valid[[5, 0]] = True  # the normalization pair
        p25 = Pose25D(xy=p25.xy, zr=p25.zr, valid=valid)
        rays = normalized_image_coords(p25.xy, cam)
        z_root = solve_zroot(
            quadratic_coefficients(tuple(rays[5]), tuple(rays[0]), p25.zr[5], p25.zr[0], 1.0)
        )
        rebuilt = reconstruct_pose(p25, cam)
        back = backproject(Pose2D(p25.xy, p25.valid), z_root + p25.zr, cam)
        assert rebuilt.xyz.tobytes() == back.xyz.tobytes()
        np.testing.assert_array_equal(rebuilt.valid, valid)
        assert not rebuilt.xyz[~valid].any() and not np.signbit(rebuilt.xyz[~valid]).any()


class TestRecoverScale:
    def test_single_bone(self):
        skel = canonical_skeleton()
        xyz = np.zeros((21, 3))
        xyz[1] = [1.0, 0.0, 0.0]
        valid = np.zeros(21, dtype=bool)
        valid[[0, 1]] = True
        stats = BoneStats(mean_length=np.full(20, 5.0))
        s = recover_scale(Pose3D(xyz=xyz, valid=valid), stats, skel)
        assert s == 5.0

    def test_fixed_point_with_matching_stats(self):
        skel = canonical_skeleton()
        stats = synth_bone_stats(CFG)
        cfg = SynthConfig(seed=23, bone_stats=stats)
        for i in range(50):
            pose, _, _ = gen_pose(cfg, i)
            normalized, s_true = normalize_pose(pose)
            s_hat = recover_scale(normalized, stats, skel)
            assert abs(s_hat / s_true - 1.0) < 1e-9
            # zero residual: every scaled bone equals its mean
            np.testing.assert_allclose(
                s_hat * bone_lengths(normalized, skel), stats.mean_length, rtol=1e-9
            )

    def test_linearity_in_stats(self):
        skel = canonical_skeleton()
        pose, _, _ = gen_pose(CFG, 5)
        normalized, _ = normalize_pose(pose)
        stats = synth_bone_stats(CFG)
        s1 = recover_scale(normalized, stats, skel)
        s2 = recover_scale(normalized, BoneStats(mean_length=3.0 * stats.mean_length), skel)
        assert s2 == pytest.approx(3.0 * s1, rel=1e-12)

    def test_is_least_squares_minimizer(self):
        skel = canonical_skeleton()
        rng = np.random.default_rng(9)
        pose, _, _ = gen_pose(CFG, 8)
        normalized, _ = normalize_pose(pose)
        stats = BoneStats(mean_length=rng.uniform(20.0, 60.0, 20))
        s_hat = recover_scale(normalized, stats, skel)
        d = bone_lengths(normalized, skel)

        def objective(s):
            return float(np.sum((s * d - stats.mean_length) ** 2))

        base = objective(s_hat)
        assert objective(s_hat + 1e-3) >= base
        assert objective(s_hat - 1e-3) >= base

    def test_no_valid_bones(self):
        skel = canonical_skeleton()
        stats = BoneStats(mean_length=np.full(20, 5.0))
        with pytest.raises(NoValidBonesError):
            recover_scale(Pose3D(xyz=np.zeros((21, 3))), stats, skel)

    def test_non_finite_valid_keypoint_rejected(self):
        skel = canonical_skeleton()
        stats = synth_bone_stats(CFG)
        pose, _, _ = gen_pose(SynthConfig(seed=1), 0)
        xyz = pose.xyz.copy()
        xyz[8, 0] = np.nan
        with pytest.raises(NonFiniteError):
            recover_scale(Pose3D(xyz=xyz), stats, skel)

    def test_keypoint_count_mismatch_rejected(self):
        stats = BoneStats(mean_length=np.full(20, 5.0))
        with pytest.raises(ShapeMismatchError):
            recover_scale(Pose3D(xyz=np.ones((22, 3))), stats, canonical_skeleton())


class TestAbsolutePose:
    def test_full_round_trip_to_metric(self):
        skel = canonical_skeleton()
        stats = synth_bone_stats(CFG)
        cfg = SynthConfig(seed=31, bone_stats=stats)
        for i in range(25):
            pose, p25, _ = gen_pose(cfg, i)
            rebuilt = reconstruct_pose(p25, cfg.camera)
            s_hat = recover_scale(rebuilt, stats, skel)
            metric = absolute_pose(rebuilt, s_hat)
            rel = np.abs(metric.xyz - pose.xyz) / np.maximum(np.abs(pose.xyz), 1.0)
            assert rel.max() < 1e-6

    def test_unit_scale_identity(self):
        pose, _, _ = gen_pose(CFG, 4)
        out = absolute_pose(pose, 1.0)
        np.testing.assert_array_equal(out.xyz, pose.xyz)

    def test_projection_preserved(self):
        from hand25d.camera import project

        _, p25, _ = gen_pose(CFG, 6)
        rebuilt = reconstruct_pose(p25, CFG.camera)
        metric = absolute_pose(rebuilt, 47.3)
        a, _ = project(rebuilt, CFG.camera)
        b, _ = project(metric, CFG.camera)
        assert np.abs(a.xy - b.xy).max() < 1e-9

    def test_general_c_divides(self):
        cfg_c2 = NormalizationConfig(c=2.0)
        pose, _, _ = gen_pose(CFG, 7)
        normalized, s = normalize_pose(pose, cfg_c2)
        metric = absolute_pose(normalized, s, c=2.0)
        np.testing.assert_allclose(metric.xyz, pose.xyz, rtol=1e-12)

    def test_general_c_full_pipeline(self):
        # recover_scale yields mm per normalized unit; the metric pair
        # length is c times that, which absolute_pose then divides out
        skel = canonical_skeleton()
        stats = synth_bone_stats(CFG)
        cfg = SynthConfig(seed=37, bone_stats=stats)
        norm_cfg = NormalizationConfig(c=2.0)
        pose, _, _ = gen_pose(cfg, 0)
        p25 = to_25d(pose, cfg.camera, norm_cfg)
        rebuilt = reconstruct_pose(p25, cfg.camera, norm_cfg)
        s_unit = recover_scale(rebuilt, stats, skel)
        metric = absolute_pose(rebuilt, norm_cfg.c * s_unit, c=norm_cfg.c)
        np.testing.assert_allclose(metric.xyz, pose.xyz, rtol=1e-6)

    def test_bad_scale(self):
        pose, _, _ = gen_pose(CFG, 9)
        with pytest.raises(BadScaleError):
            absolute_pose(pose, 0.0)
