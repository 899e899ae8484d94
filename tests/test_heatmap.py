import importlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hand25d.errors import (
    ConfigError,
    NonFiniteError,
    NotNormalizedError,
    OutOfGridError,
    ShapeMismatchError,
)
from hand25d import heatmap, serialize
from hand25d.heatmap import (
    HeatmapGrid,
    HeatmapStack,
    SpreadParams,
    decode_direct,
    decode_latent,
    depth_readout,
    encode_direct,
    softargmax,
    spatial_softmax,
)
from hand25d.types import Pose25D

GRID = HeatmapGrid(width=32, height=24)
# the package re-exports the gradcheck function under the module's name
gradcheck_module = importlib.import_module("hand25d.gradcheck")


def pose_at(points, zr):
    return Pose25D(xy=np.asarray(points, dtype=float), zr=np.asarray(zr, dtype=float))


def unique_max_map(shape, peak_yx, gap=1.0, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, shape)
    base[peak_yx] = base.max() + gap
    return base


class TestEncodeDirect:
    def test_default_sigma_is_five(self):
        import inspect

        from hand25d.heatmap import DEFAULT_SIGMA

        assert DEFAULT_SIGMA == 5.0
        assert inspect.signature(encode_direct).parameters["sigma"].default == 5.0

    def test_peak_is_one_at_integer_keypoint(self):
        stack = encode_direct(pose_at([[7.0, 3.0]], [0.4]), GRID, sigma=5.0)
        assert stack.likelihood[0, 3, 7] == 1.0
        assert stack.likelihood[0].max() == 1.0

    def test_depth_at_keypoint_equals_zr(self):
        stack = encode_direct(pose_at([[7.0, 3.0]], [-0.25]), GRID, sigma=5.0)
        assert stack.depth[0, 3, 7] == -0.25

    def test_gaussian_profile(self):
        stack = encode_direct(pose_at([[10.0, 10.0]], [0.0]), GRID, sigma=5.0)
        # one pixel to the right: exp(-1/25)
        assert stack.likelihood[0, 10, 11] == pytest.approx(np.exp(-1.0 / 25.0), rel=1e-12)

    def test_l1_exponent_variant(self):
        stack = encode_direct(pose_at([[10.0, 10.0]], [0.0]), GRID, sigma=5.0, exponent="l1")
        assert stack.likelihood[0, 10, 13] == pytest.approx(np.exp(-3.0 / 25.0), rel=1e-12)

    def test_out_of_grid_error_and_clamp(self):
        pose = pose_at([[40.0, 3.0]], [0.0])
        with pytest.raises(OutOfGridError):
            encode_direct(pose, GRID)
        stack = encode_direct(pose, GRID, out_of_grid="clamp")
        assert stack.likelihood[0, 3, 31] == 1.0

    @pytest.mark.parametrize("out_of_grid", ["error", "clamp"])
    @pytest.mark.parametrize("xy", [(np.nan, 3.0), (7.0, np.nan)])
    def test_nan_keypoint_rejected(self, out_of_grid, xy):
        pose = pose_at([[5.0, 5.0], xy], [0.0, 0.0])
        with pytest.raises(NonFiniteError, match="^keypoint 1 at .* has a NaN coordinate$"):
            encode_direct(pose, GRID, out_of_grid=out_of_grid)

    @pytest.mark.parametrize("out_of_grid", ["error", "clamp"])
    @pytest.mark.parametrize("xy", [(np.inf, 3.0), (7.0, -np.inf)])
    def test_infinite_keypoint_rejected(self, out_of_grid, xy):
        # "clamp" used to move (inf, 3) onto the edge pixel (31, 3), and
        # "error" called it outside the grid
        pose = pose_at([[5.0, 5.0], xy], [0.0, 0.0])
        with pytest.raises(NonFiniteError,
                           match="^keypoint 1 at .* has an infinite coordinate$"):
            encode_direct(pose, GRID, out_of_grid=out_of_grid)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, -np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="finite and positive"):
            encode_direct(pose_at([[7.0, 3.0]], [0.4]), GRID, sigma=sigma)

    @pytest.mark.parametrize("exponent", ["l2sq", "l1"])
    def test_valid_map_that_underflows_is_rejected(self, exponent):
        # half a pixel off the lattice the peak is exp(-0.25 / sigma^2), or
        # exp(-0.5 / sigma^2) for l1: both 0.0 at sigma 0.01
        with pytest.raises(ConfigError, match="keypoint 1's map underflows to 0"):
            encode_direct(pose_at([[3.0, 3.0], [7.5, 3.0]], [0.0, 0.0]), GRID, sigma=0.01,
                          exponent=exponent)

    def test_map_that_underflows_only_in_float32_is_rejected(self):
        # half a pixel off the lattice at sigma 0.035 the peak is
        # exp(-0.25 / 0.035^2) ~ 1e-89: a float64 but 0.0 as float32
        sigma = 0.035
        assert np.float32(np.exp(-0.25 / sigma**2)) == 0.0 < np.exp(-0.25 / sigma**2)
        with pytest.raises(ConfigError, match="keypoint 1's map underflows to 0"):
            encode_direct(pose_at([[3.0, 3.0], [7.5, 3.0]], [0.0, 0.0]), GRID, sigma=sigma)

    def test_map_whose_float32_peak_is_subnormal_survives(self, tmp_path):
        # at sigma 0.0513 the peak exp(-0.25 / sigma^2) ~ 5e-42 is a float32 subnormal
        sigma = 0.0513
        assert 0.0 < np.float32(np.exp(-0.25 / sigma**2)) < np.finfo(np.float32).tiny
        stack = encode_direct(pose_at([[3.0, 3.0], [7.5, 3.0]], [0.0, 0.0]), GRID, sigma=sigma)
        serialize.write_h25d(tmp_path / "m.h25d", stack)
        assert decode_direct(serialize.read_h25d(tmp_path / "m.h25d")).valid.all()

    def test_invalid_keypoints_zero_maps(self):
        pose = Pose25D(xy=[[5.0, 5.0], [6.0, 6.0]], zr=[0.1, 0.2], valid=[True, False])
        stack = encode_direct(pose, GRID)
        assert stack.likelihood[1].max() == 0.0
        assert stack.depth[1].max() == 0.0


class TestDecodeDirect:
    def test_single_cell(self):
        like = np.zeros((1, 24, 32))
        depth = np.zeros_like(like)
        like[0, 3, 7] = 1.0
        depth[0, 3, 7] = -0.25
        decoded = decode_direct(HeatmapStack(kind="direct", likelihood=like, depth=depth))
        np.testing.assert_array_equal(decoded.xy[0], [7.0, 3.0])
        assert decoded.zr[0] == -0.25

    def test_uniform_map_tie_breaks_to_origin(self):
        like = np.full((1, 24, 32), 0.5)
        decoded = decode_direct(HeatmapStack(kind="direct", likelihood=like, depth=0 * like))
        np.testing.assert_array_equal(decoded.xy[0], [0.0, 0.0])

    def test_integer_round_trip(self):
        rng = np.random.default_rng(1)
        xy = np.column_stack(
            [rng.integers(0, 32, 21).astype(float), rng.integers(0, 24, 21).astype(float)]
        )
        zr = rng.normal(size=21)
        pose = pose_at(xy, zr)
        decoded = decode_direct(encode_direct(pose, GRID, sigma=5.0))
        np.testing.assert_array_equal(decoded.xy, xy)
        np.testing.assert_array_equal(decoded.zr, zr)

    def test_subpixel_round_trip_within_half_pixel(self):
        rng = np.random.default_rng(2)
        xy = np.column_stack([rng.uniform(0, 31, 50), rng.uniform(0, 23, 50)])
        pose = Pose25D(xy=xy, zr=np.zeros(50))
        decoded = decode_direct(encode_direct(pose, GRID, sigma=5.0))
        err = np.linalg.norm(decoded.xy - xy, axis=1)
        assert err.max() <= 0.5 * np.sqrt(2.0)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sigma=st.floats(1.0, 8.0),
        magnitude=st.floats(1e-3, 1e3),
    )
    def test_subpixel_depth_is_exact(self, seed, sigma, magnitude):
        """decode_direct divides the depth at the argmax pixel by the
        likelihood there, so zr survives off the pixel lattice too."""
        rng = np.random.default_rng(seed)
        xy = np.column_stack([rng.uniform(0, 31, 21), rng.uniform(0, 23, 21)])
        zr = magnitude * rng.choice([-1.0, 1.0], 21) * rng.uniform(0.5, 1.0, 21)
        decoded = decode_direct(encode_direct(Pose25D(xy=xy, zr=zr), GRID, sigma=sigma))
        assert (np.abs(decoded.zr - zr) <= 1e-15 * np.abs(zr)).all()

    def test_latent_stack_rejected(self):
        stack = HeatmapStack(kind="latent", likelihood=np.zeros((1, 4, 4)), depth=np.zeros((1, 4, 4)))
        with pytest.raises(ConfigError):
            decode_direct(stack)

    @pytest.mark.parametrize("seed", range(5))
    def test_validity_round_trip_with_random_mask(self, seed):
        rng = np.random.default_rng(seed)
        valid = rng.random(21) < 0.6
        xy = np.column_stack([rng.uniform(0, 31, 21), rng.uniform(0, 23, 21)])
        pose = Pose25D(xy=xy, zr=rng.normal(size=21), valid=valid)
        decoded = decode_direct(encode_direct(pose, GRID, sigma=rng.uniform(0.5, 8.0)))
        np.testing.assert_array_equal(decoded.valid, valid)
        assert np.linalg.norm(decoded.xy[valid] - xy[valid], axis=1).max() <= 0.5 * np.sqrt(2.0)

    def test_all_zero_map_is_invalid_any_positive_value_valid(self):
        like = np.zeros((3, 4, 5))
        like[1, 2, 3] = 1e-300
        like[2, 0, 0] = 1.0
        decoded = decode_direct(HeatmapStack(kind="direct", likelihood=like, depth=0 * like))
        np.testing.assert_array_equal(decoded.valid, [False, True, True])
        np.testing.assert_array_equal(decoded.xy[1], [3.0, 2.0])


class TestSpatialSoftmax:
    def test_constant_map_uniform(self):
        prob = spatial_softmax(np.full((2, 6, 8), 3.7), SpreadParams(beta=np.array([1.0, 2.0])))
        np.testing.assert_allclose(prob, 1.0 / 48.0, rtol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        latent = rng.normal(size=(3, 10, 12))
        spread = SpreadParams(beta=rng.uniform(0.5, 2.0, 3))
        a = spatial_softmax(latent, spread)
        b = spatial_softmax(latent + 11.25, spread)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        latent = rng.normal(scale=4.0, size=(21, 16, 16))
        prob = spatial_softmax(latent, SpreadParams(beta=rng.uniform(0.2, 5.0, 21)))
        np.testing.assert_allclose(prob.sum(axis=(1, 2)), 1.0, atol=1e-6)
        assert prob.min() > 0.0 and prob.max() < 1.0

    def test_large_beta_concentrates_mass(self):
        latent = unique_max_map((9, 9), (4, 6), gap=1.0)[None]
        prob = spatial_softmax(latent, SpreadParams(beta=np.array([1e3])))
        assert prob[0, 4, 6] > 1.0 - 1e-6


class TestSoftargmax:
    def test_one_hot(self):
        prob = np.zeros((10, 10))
        prob[7, 3] = 1.0
        assert softargmax(prob) == (3.0, 7.0)

    def test_uniform_two_by_two(self):
        assert softargmax(np.full((2, 2), 0.25)) == (0.5, 0.5)

    def test_symmetric_two_hot_midpoint(self):
        prob = np.zeros((8, 8))
        prob[5, 2] = 0.5
        prob[5, 4] = 0.5
        assert softargmax(prob) == (3.0, 5.0)

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            softargmax(np.full((4, 4), 0.1))
        bad = np.full((4, 4), 1.0 / 16.0)
        bad[0, 0] = -1.0 / 16.0
        bad[1, 1] = 3.0 / 16.0
        with pytest.raises(NotNormalizedError):
            softargmax(bad)

    def test_convex_hull_containment(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            raw = rng.uniform(0, 1, (6, 9))
            prob = raw / raw.sum()
            x, y = softargmax(prob)
            assert 0.0 <= x <= 8.0
            assert 0.0 <= y <= 5.0

    def test_translation_equivariance_of_compact_bump(self):
        # integer-shifting a compactly supported probability bump moves the
        # softargmax by exactly the shift while the support stays interior
        xx, yy = np.meshgrid(np.arange(40, dtype=float), np.arange(40, dtype=float))
        bump = np.exp(-((xx - 12.3) ** 2 + (yy - 15.8) ** 2) / 4.0)
        bump[bump < 1e-9] = 0.0
        bump /= bump.sum()
        x0, y0 = softargmax(bump)
        shifted = np.roll(np.roll(bump, 7, axis=1), -3, axis=0)
        x1, y1 = softargmax(shifted)
        assert abs(x1 - x0 - 7.0) < 1e-9
        assert abs(y1 - y0 + 3.0) < 1e-9


class TestDepthReadout:
    def test_one_hot(self):
        prob = np.zeros((5, 5))
        prob[2, 3] = 1.0
        depth = np.full((5, 5), -9.0)
        depth[2, 3] = 0.7
        assert depth_readout(prob, depth) == 0.7

    def test_constant_depth(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0, 1, (7, 7))
        prob = raw / raw.sum()
        assert depth_readout(prob, np.full((7, 7), 0.31)) == pytest.approx(0.31, rel=1e-12)

    def test_weighted_mean(self):
        prob = np.zeros((3, 3))
        prob[0, 0] = 0.5
        prob[2, 2] = 0.5
        depth = np.zeros((3, 3))
        depth[0, 0] = 0.2
        depth[2, 2] = 0.4
        assert depth_readout(prob, depth) == pytest.approx(0.3, abs=1e-15)


class TestDecodeLatent:
    def test_scaled_one_hot(self):
        like = np.zeros((1, 12, 12))
        like[0, 4, 9] = 40.0  # sharp enough that softmax is ~one-hot
        depth = np.zeros_like(like)
        depth[0, 4, 9] = -0.6
        stack = HeatmapStack(kind="latent", likelihood=like, depth=depth)
        decoded = decode_latent(stack, SpreadParams.ones(1))
        np.testing.assert_allclose(decoded.xy[0], [9.0, 4.0], atol=1e-10)
        assert decoded.zr[0] == pytest.approx(-0.6, abs=1e-10)

    def test_gaussian_bump_subpixel_accuracy(self):
        # latent bump = 20 * exp(-d^2 / sigma^2); interior centers at least
        # 3 sigma from every border decode to well under 0.05 px error
        sigma = 5.0
        xx, yy = np.meshgrid(np.arange(128, dtype=float), np.arange(128, dtype=float))
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            cx = rng.uniform(3 * sigma, 127 - 3 * sigma)
            cy = rng.uniform(3 * sigma, 127 - 3 * sigma)
            like = 20.0 * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / sigma**2)
            stack = HeatmapStack(kind="latent", likelihood=like[None], depth=np.zeros((1, 128, 128)))
            decoded = decode_latent(stack, SpreadParams.ones(1))
            worst = max(worst, float(np.hypot(decoded.xy[0, 0] - cx, decoded.xy[0, 1] - cy)))
        assert worst < 0.05

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(8)
        like = rng.normal(size=(3, 14, 10))
        depth = rng.normal(size=(3, 14, 10))
        spread = SpreadParams(beta=rng.uniform(0.5, 2.0, 3))
        a = decode_latent(HeatmapStack(kind="latent", likelihood=like, depth=depth), spread)
        b = decode_latent(
            HeatmapStack(kind="latent", likelihood=like + 123.0, depth=depth), spread
        )
        assert np.abs(a.xy - b.xy).max() < 1e-9
        assert np.abs(a.zr - b.zr).max() < 1e-9

    def test_sharpness_limit_matches_argmax(self):
        like = unique_max_map((20, 20), (11, 5), gap=1.0, seed=9)[None]
        depth = np.zeros((1, 20, 20))
        latent = HeatmapStack(kind="latent", likelihood=like, depth=depth)
        direct = HeatmapStack(kind="direct", likelihood=like / like.max(), depth=depth)
        soft = decode_latent(latent, SpreadParams(beta=np.array([1e3])))
        hard = decode_direct(direct)
        assert np.abs(soft.xy - hard.xy).max() < 1e-3

    def test_direct_stack_rejected(self):
        stack = HeatmapStack(kind="direct", likelihood=np.zeros((1, 4, 4)), depth=np.zeros((1, 4, 4)))
        with pytest.raises(ConfigError):
            decode_latent(stack, SpreadParams.ones(1))


class TestStackValidation:
    def test_direct_range_enforced(self):
        with pytest.raises(ConfigError):
            HeatmapStack(kind="direct", likelihood=np.full((1, 4, 4), 1.5), depth=np.zeros((1, 4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            HeatmapStack(kind="latent", likelihood=np.zeros((1, 4, 4)), depth=np.zeros((1, 4, 5)))

    def test_beta_positive(self):
        with pytest.raises(ConfigError):
            SpreadParams(beta=np.array([1.0, 0.0]))

    MAP = np.full((2, 2), 0.25)  # a normalized probability map
    DIRECT = HeatmapStack(kind="direct", likelihood=np.zeros((1, 4, 4)), depth=np.zeros((1, 4, 4)))

    @pytest.mark.parametrize("call, error, message", [
        (lambda: HeatmapGrid(width=1, height=4), ConfigError, "grid must be at least 2x2"),
        (lambda: HeatmapStack(kind="dense", likelihood=np.zeros((1, 2, 2)),
                              depth=np.zeros((1, 2, 2))),
         ConfigError, "unknown heatmap kind 'dense'"),
        (lambda: encode_direct(pose_at([[1.0, 2.0]], [0.0]), GRID, exponent="l3"),
         ConfigError, "unknown exponent 'l3'"),
        (lambda: SpreadParams(beta=np.ones((2, 1))),
         ShapeMismatchError, "beta must be a flat per-keypoint array"),
        (lambda: spatial_softmax(np.zeros((4, 4)), SpreadParams.ones(4)),
         ShapeMismatchError, "latent maps must be (K, H, W)"),
        (lambda: depth_readout(TestStackValidation.MAP, np.zeros((2, 3))),
         ShapeMismatchError, "depth map shape must match the probability map"),
        (lambda: heatmap.vjp_depth_readout(TestStackValidation.MAP, np.zeros((2, 3)), 1.0),
         ShapeMismatchError, "depth map shape must match the probability map"),
        (lambda: heatmap.vjp_spatial_softmax(np.zeros((1, 2, 2)), SpreadParams.ones(1),
                                             np.zeros((1, 2, 3))),
         ShapeMismatchError, "upstream cotangent must match the latent maps"),
        (lambda: heatmap.vjp_decode_latent(TestStackValidation.DIRECT, SpreadParams.ones(1),
                                           np.zeros((1, 3))),
         ConfigError, "vjp_decode_latent expects a latent-kind stack"),
    ], ids=["grid-1x4", "unknown-kind", "unknown-exponent", "beta-2d", "latent-2d",
            "depth-readout-shape", "vjp-depth-readout-shape", "vjp-softmax-upstream-shape",
            "vjp-decode-direct-stack"])
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestBatchedKernels:
    """The batched kernels behind the finite-difference driver give, for
    each item of a (B, K, H, W) stack, the bits of the public per-item
    functions."""

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(1, 5),
        k=st.integers(1, 4),
        h=st.integers(2, 12),
        w=st.integers(2, 12),
        scale=st.floats(0.01, 30.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_equals_per_item(self, b, k, h, w, scale, seed):
        rng = np.random.default_rng(seed)
        like = scale * rng.normal(size=(b, k, h, w))
        depth = rng.normal(size=(b, k, h, w))
        beta = rng.uniform(0.1, 5.0, (b, k))
        soft_xy = gradcheck_module._TABLE["softargmax"][3]
        readout = gradcheck_module._TABLE["depth_readout"][3]
        prob = heatmap._softmax(like, beta)
        x, y, zr = heatmap._decode(prob, depth)
        xy = soft_xy(prob)
        z = readout(prob, depth)
        assert xy.shape == (b, k, 2) and z.shape == (b, k)
        for i in range(b):
            spread = SpreadParams(beta=beta[i])
            assert prob[i].tobytes() == spatial_softmax(like[i], spread).tobytes()
            pose = decode_latent(HeatmapStack(kind="latent", likelihood=like[i], depth=depth[i]),
                                 spread)
            assert np.stack([x[i], y[i]], axis=1).tobytes() == pose.xy.tobytes()
            assert zr[i].tobytes() == pose.zr.tobytes()
            for j in range(k):
                one_xy = np.array(softargmax(prob[i, j]))
                assert xy[i, j].tobytes() == one_xy.tobytes()
                one_z = np.float64(depth_readout(prob[i, j], depth[i, j]))
                assert z[i, j].tobytes() == one_z.tobytes()
