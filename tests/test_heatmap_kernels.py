"""The heatmap kernels and the H25D codec allocate only their outputs and a
fixed number of scratch arrays, write to none of their arguments, and give
the bits of the plain out-of-place formulas kept below as oracles."""
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hand25d import serialize, synth
from hand25d.errors import DataFormatError, ShapeMismatchError
from hand25d.heatmap import (
    HeatmapGrid,
    HeatmapStack,
    SpreadParams,
    decode_latent,
    depth_readout,
    encode_direct,
    softargmax,
    spatial_softmax,
    vjp_decode_latent,
    vjp_spatial_softmax,
)
from hand25d.types import Pose25D

# --- oracles: the out-of-place formulas, one temporary per operation --------


def oracle_softmax(maps, beta):
    s = beta[:, None, None] * maps
    s = s - s.max(axis=(1, 2), keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=(1, 2), keepdims=True)


def oracle_axes(h, w):
    return np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)[:, None]


def oracle_decode_latent(like, depth, beta):
    prob = oracle_softmax(like, beta)
    xs, ys = oracle_axes(*like.shape[1:])
    x = prob.sum(axis=-2) @ xs
    y = prob.sum(axis=-1) @ ys[:, 0]
    return np.stack([x, y], axis=1), (prob * depth).sum(axis=(1, 2))


def oracle_vjp_softmax(prob, latent, beta, weight):
    ds = prob * (weight - (prob * weight).sum(axis=(1, 2), keepdims=True))
    return beta[:, None, None] * ds, (ds * latent).sum(axis=(1, 2))


def oracle_vjp_decode_latent(like, depth, beta, upstream):
    prob = oracle_softmax(like, beta)
    xs, ys = oracle_axes(*like.shape[1:])
    gx, gy, gz = upstream.T[:, :, None, None]
    weight = gx * xs + gy * ys + gz * depth
    cot_like, cot_beta = oracle_vjp_softmax(prob, like, beta, weight)
    return cot_like, gz * prob, cot_beta


def oracle_encode_direct(p25, grid, sigma, exponent):
    """encode_direct with out_of_grid="clamp" and no underflow check."""
    xs, ys = oracle_axes(grid.height, grid.width)
    like = np.zeros((p25.num_keypoints, grid.height, grid.width))
    depth = np.zeros_like(like)
    for i in range(p25.num_keypoints):
        if not p25.valid[i]:
            continue
        x, y = p25.xy[i]
        x = min(max(x, 0.0), grid.width - 1.0)
        y = min(max(y, 0.0), grid.height - 1.0)
        d2 = (xs - x) ** 2 + (ys - y) ** 2
        arg = d2 if exponent == "l2sq" else np.sqrt(d2)
        like[i] = np.exp(-arg / (sigma * sigma))
        depth[i] = p25.zr[i] * like[i]
    return like, depth


def oracle_h25d_bytes(stack):
    k, h, w = stack.likelihood.shape
    header = struct.pack("<4sIIIIB3x", b"H25D", 1, k, h, w, ("direct", "latent").index(stack.kind))
    return header + stack.likelihood.astype("<f4").tobytes() + stack.depth.astype("<f4").tobytes()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def latent_problem(seed, k, h, w, scale):
    """Latent maps of magnitude up to `scale`, depth maps, spreads from
    0.05 to 20 and a (K, 3) upstream cotangent."""
    rng = np.random.default_rng(seed)
    like = scale * rng.normal(size=(k, h, w))
    depth = rng.normal(size=(k, h, w)) * 10.0 ** rng.uniform(-3, 3)
    beta = 10.0 ** rng.uniform(np.log10(0.05), np.log10(20.0), k)
    upstream = rng.normal(size=(k, 3)) * 10.0 ** rng.uniform(-3, 3, (k, 3))
    return like, depth, beta, upstream


problems = dict(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3, 1e6]),
)


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(**problems)
    def test_softmax_decode_and_vjps_match_oracles(self, seed, k, h, w, scale):
        like, depth, beta, upstream = latent_problem(seed, k, h, w, scale)
        spread = SpreadParams(beta=beta)
        stack = HeatmapStack(kind="latent", likelihood=like, depth=depth)
        inputs = [a.copy() for a in (like, depth, beta, upstream)]
        cot_prob = np.random.default_rng(seed + 1).normal(size=like.shape)
        cot_prob_in = cot_prob.copy()

        assert same_bits(spatial_softmax(like, spread), oracle_softmax(like, beta))
        pose = decode_latent(stack, spread)
        xy, zr = oracle_decode_latent(like, depth, beta)
        assert same_bits(pose.xy, xy) and same_bits(pose.zr, zr)
        got = vjp_decode_latent(stack, spread, upstream)
        want = oracle_vjp_decode_latent(like, depth, beta, upstream)
        assert all(same_bits(g, o) for g, o in zip(got, want))
        got = vjp_spatial_softmax(like, spread, cot_prob)
        want = oracle_vjp_softmax(oracle_softmax(like, beta), like, beta, cot_prob)
        assert all(same_bits(g, o) for g, o in zip(got, want))

        # the stack holds the caller's arrays; none of them was written to
        assert stack.likelihood is like and stack.depth is depth
        assert all(same_bits(a, b) for a, b in zip((like, depth, beta, upstream), inputs))
        assert same_bits(cot_prob, cot_prob_in)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        h=st.integers(2, 40),
        w=st.integers(2, 40),
        sigma=st.sampled_from([0.5, 1.0, 2.5, 5.0, 7.3, 40.0]),
        exponent=st.sampled_from(["l2sq", "l1"]),
    )
    def test_encode_direct_matches_oracle(self, seed, k, h, w, sigma, exponent):
        rng = np.random.default_rng(seed)
        grid = HeatmapGrid(width=w, height=h)
        # some keypoints off the grid (clamped), some invalid
        xy = rng.uniform(-3.0, 3.0, (k, 2)) + rng.uniform(0.0, 1.0, (k, 2)) * [w - 1, h - 1]
        pose = Pose25D(xy=xy, zr=rng.normal(size=k), valid=rng.uniform(size=k) < 0.8)
        stack = encode_direct(pose, grid, sigma=sigma, exponent=exponent, out_of_grid="clamp")
        like, depth = oracle_encode_direct(pose, grid, sigma, exponent)
        assert same_bits(stack.likelihood, like) and same_bits(stack.depth, depth)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), h=st.integers(1, 12),
           w=st.integers(1, 12))
    def test_h25d_bytes_and_float32_rounding(self, seed, k, h, w, tmp_path_factory):
        rng = np.random.default_rng(seed)
        maps = rng.normal(size=(2, k, h, w)) * 10.0 ** rng.uniform(-50, 37, (2, k, h, w))
        # signed zeros and float32 subnormals at random places
        special = np.array([-0.0, 0.0, 1e-40, -3e-42, 1.4e-45, -1e-45])
        pick = rng.uniform(size=maps.shape) < 0.3
        maps[pick] = rng.choice(special, size=int(pick.sum()))
        stack = HeatmapStack(kind="latent", likelihood=maps[0], depth=maps[1])
        path = tmp_path_factory.mktemp("h25d") / "s.h25d"
        serialize.write_h25d(path, stack)
        assert path.read_bytes() == oracle_h25d_bytes(stack)
        back = serialize.read_h25d(path)
        # bit equality keeps the sign of zero and every float32 subnormal
        for got, sent in ((back.likelihood, maps[0]), (back.depth, maps[1])):
            assert same_bits(got, sent.astype(np.float32).astype(np.float64))


class TestBenchmarkSize:
    def test_decode_and_vjps_match_oracles_at_21x128x128(self):
        # K = 21 lies beyond the property test's range; every map goes
        # through the same map-sized scratch in turn
        like, depth, beta, upstream = latent_problem(11, 21, 128, 128, 30.0)
        spread = SpreadParams(beta=beta)
        stack = HeatmapStack(kind="latent", likelihood=like, depth=depth)
        cot_prob = np.random.default_rng(12).normal(size=like.shape)

        pose = decode_latent(stack, spread)
        xy, zr = oracle_decode_latent(like, depth, beta)
        assert same_bits(pose.xy, xy) and same_bits(pose.zr, zr)
        got = vjp_decode_latent(stack, spread, upstream)
        want = oracle_vjp_decode_latent(like, depth, beta, upstream)
        assert all(same_bits(g, o) for g, o in zip(got, want))
        got = vjp_spatial_softmax(like, spread, cot_prob)
        want = oracle_vjp_softmax(oracle_softmax(like, beta), like, beta, cot_prob)
        assert all(same_bits(g, o) for g, o in zip(got, want))


class TestBetaCount:
    @pytest.mark.parametrize("name", ["decode_latent", "vjp_decode_latent",
                                      "vjp_spatial_softmax"])
    def test_beta_count_mismatch_rejected(self, name):
        like = np.zeros((3, 4, 5))
        stack = HeatmapStack(kind="latent", likelihood=like, depth=like)
        spread = SpreadParams.ones(2)
        calls = {
            "decode_latent": lambda: decode_latent(stack, spread),
            "vjp_decode_latent": lambda: vjp_decode_latent(stack, spread, np.zeros((3, 3))),
            "vjp_spatial_softmax": lambda: vjp_spatial_softmax(like, spread, like),
        }
        with pytest.raises(ShapeMismatchError, match="^one beta per keypoint required$"):
            calls[name]()


class TestZeroSize:
    SHAPES = [(0, 4, 4), (2, 0, 4), (2, 4, 0)]

    @pytest.mark.parametrize("kind", ["direct", "latent"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_stack_with_zero_length_axis_rejected(self, kind, shape):
        with pytest.raises(ShapeMismatchError, match="zero-length axis"):
            HeatmapStack(kind=kind, likelihood=np.zeros(shape), depth=np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_probability_map_rejected(self, shape):
        with pytest.raises(ShapeMismatchError, match="zero-length axis"):
            softargmax(np.zeros(shape))
        with pytest.raises(ShapeMismatchError, match="zero-length axis"):
            depth_readout(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 0, 4), (2, 4, 0)])
    def test_softmax_of_empty_maps_rejected(self, shape):
        with pytest.raises(ShapeMismatchError, match="zero-length spatial axis"):
            spatial_softmax(np.zeros(shape), SpreadParams.ones(2))


# one float64 (21, 128, 128) stack
STACK_BYTES = 21 * 128 * 128 * 8


def peak_stacks(fn) -> float:
    """Peak traced allocation of fn(), in float64 stacks; tracemalloc sees
    numpy array data."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / STACK_BYTES
    finally:
        tracemalloc.stop()


class TestAllocationBudget:
    """Outputs plus the scratch each formula needs, at the benchmark's
    21x128x128 size."""

    @pytest.fixture(scope="class")
    def problem(self, tmp_path_factory):
        grid = HeatmapGrid(width=128, height=128)
        pose = synth.gen_pose(synth.SynthConfig(seed=11, grid=(128, 128)), 0)[1]
        target = encode_direct(pose, grid)
        rng = np.random.default_rng(0)
        latent = HeatmapStack(kind="latent", likelihood=20.0 * target.likelihood
                              + rng.normal(0.0, 0.5, target.likelihood.shape),
                              depth=target.depth)
        path = tmp_path_factory.mktemp("budget") / "s.h25d"
        serialize.write_h25d(path, target)
        return dict(pose=pose, grid=grid, target=target, latent=latent, path=path,
                    spread=SpreadParams.ones(21), upstream=rng.normal(size=(21, 3)),
                    cot_prob=rng.normal(size=target.likelihood.shape))

    @pytest.mark.parametrize("name, budget", [
        ("encode_direct", 2.2), ("write_h25d", 0.1), ("read_h25d", 2.1),
        ("decode_latent", 0.1), ("vjp_decode_latent", 2.2), ("vjp_spatial_softmax", 1.2),
    ])
    def test_peak_within_budget(self, problem, name, budget):
        p = problem
        calls = {
            "encode_direct": lambda: encode_direct(p["pose"], p["grid"]),
            "write_h25d": lambda: serialize.write_h25d(p["path"], p["target"]),
            "read_h25d": lambda: serialize.read_h25d(p["path"]),
            "decode_latent": lambda: decode_latent(p["latent"], p["spread"]),
            "vjp_decode_latent": lambda: vjp_decode_latent(p["latent"], p["spread"],
                                                           p["upstream"]),
            "vjp_spatial_softmax": lambda: vjp_spatial_softmax(p["latent"].likelihood,
                                                               p["spread"], p["cot_prob"]),
        }
        assert peak_stacks(calls[name]) <= budget


class TestReadH25DRejections:
    def write(self, tmp_path, k=2, h=3, w=4, kind=1):
        rng = np.random.default_rng(5)
        stack = HeatmapStack(kind=("direct", "latent")[kind], likelihood=rng.uniform(size=(k, h, w)),
                             depth=rng.normal(size=(k, h, w)))
        path = tmp_path / "s.h25d"
        serialize.write_h25d(path, stack)
        return path, bytearray(path.read_bytes())

    def test_short_header(self, tmp_path):
        path = tmp_path / "s.h25d"
        path.write_bytes(b"H25D\x01\x00\x00")
        with pytest.raises(DataFormatError, match="^file too short for an H25D header$"):
            serialize.read_h25d(path)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_payload_one_byte_off(self, tmp_path, delta):
        path, raw = self.write(tmp_path)
        expected = len(raw)
        path.write_bytes(bytes(raw[:-1]) if delta < 0 else bytes(raw) + b"\x00")
        with pytest.raises(DataFormatError,
                           match=f"^expected {expected} bytes, found {expected + delta}$"):
            serialize.read_h25d(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_depth_half_only(self, tmp_path, value):
        path, raw = self.write(tmp_path)
        # the last float32 of the file is the last depth value
        raw[-4:] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="^heatmap payload contains non-finite values$"):
            serialize.read_h25d(path)

    def test_forged_header_does_not_allocate(self, tmp_path):
        path, raw = self.write(tmp_path)
        # K = H = W = 2^20 claims a 2^63-byte payload
        raw[8:20] = struct.pack("<III", 2**20, 2**20, 2**20)
        path.write_bytes(bytes(raw))
        expected = 24 + 2 * 2**60 * 4
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError,
                               match=f"^expected {expected} bytes, found {len(raw)}$"):
                serialize.read_h25d(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

