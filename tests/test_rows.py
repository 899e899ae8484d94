"""The batched kernels behind the normalize and reconstruct stages equal
the per-pose functions bit for bit, and a row is ok exactly when the
per-pose function raises nothing for it. The formula helpers both share
keep the bits of their plain numpy forms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hand25d.camera import CameraIntrinsics, _columns, _lift, normalized_image_coords
from hand25d.errors import (
    BehindCameraError,
    DegenerateProjectionError,
    Hand25DError,
    NonFiniteError,
    NonPositiveDepthError,
    NoRealSolutionError,
    NoValidKeypointsError,
    ZeroBoneError,
)
from hand25d.pose25d import NormalizationConfig, _to_25d_rows, to_25d
from hand25d.reconstruct import (
    _reconstruct_rows,
    _square,
    quadratic_coefficients,
    reconstruct_pose,
)
from hand25d.skeleton import bone_lengths, canonical_skeleton
from hand25d.synth import SynthConfig, gen_pose
from hand25d.types import Pose3D, Pose25D

PAIRS = [(5, 0), (6, 5), (1, 0), (17, 0)]
POSES = [gen_pose(SynthConfig(seed=4), i) for i in range(8)]


def _camera(rng) -> CameraIntrinsics:
    return CameraIntrinsics(fx=rng.uniform(80.0, 400.0), fy=rng.uniform(80.0, 400.0),
                            cx=rng.uniform(0.0, 128.0), cy=rng.uniform(0.0, 128.0),
                            skew=rng.choice([0.0, rng.uniform(-20.0, 20.0)]))


def _outcome(fn, *args):
    """fn's result, or the class of the library error it raises; numpy's
    overflow warnings are silenced, as the kernels silence theirs."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except Hand25DError as exc:
        return type(exc)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _noisy_3d(rng, pair):
    """A synth pose in the pose's own camera frame, with one of the ways
    to_25d fails (or none) applied."""
    pose = POSES[rng.integers(len(POSES))][0]
    xyz = pose.xyz + rng.normal(0.0, rng.choice([0.0, 5.0]), (21, 3))
    valid = rng.random(21) < 0.9
    way = rng.integers(5)
    if way == 1:  # a keypoint behind the camera, valid or not
        xyz[rng.integers(21), 2] = -rng.uniform(0.0, 100.0)
    elif way == 2:  # a zero-length pair bone
        xyz[pair[0]] = xyz[pair[1]]
    elif way == 3:  # the pair or the root invalid
        valid[rng.choice([pair[0], pair[1], 0])] = False
    elif way == 4:  # placeholders on invalid keypoints
        xyz[~valid] = rng.choice([0.0, -5.0, 1e300])
    return xyz, valid


def _noisy_25d(rng, pair):
    """A synth 2.5D pose with pixel and zr noise, with one of the ways
    reconstruct_pose fails (or none) applied."""
    p25 = POSES[rng.integers(len(POSES))][1]
    px = p25.xy + rng.normal(0.0, rng.choice([0.0, 1.0, 5.0]), (21, 2))
    zr = p25.zr + rng.normal(0.0, rng.choice([0.0, 0.05, 0.5]), 21)
    valid = rng.random(21) < 0.9
    n, m = pair
    way = rng.integers(7)
    if way == 1:  # the pair invalid
        valid[rng.choice(pair)] = False
    elif way == 2:  # the pair projects to one pixel
        px[m], zr[m] = px[n], zr[n]
    elif way == 3:  # a pair too far apart for its bone: no real root
        zr[n] += rng.uniform(1.0, 5.0)
    elif way == 4:  # a keypoint pulled behind the camera
        zr[rng.integers(21)] = -1e9
    elif way == 5:  # pixels so large that the coefficients overflow
        px[n] = rng.choice([1e200, -1e300])
    elif way == 6:  # a pair depth so large that its square overflows
        zr[n] = rng.choice([1e200, -1e200])
    return px, zr, valid


class TestTo25DRows:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 7), pair=st.sampled_from(PAIRS),
           c=st.sampled_from([1.0, 0.37]))
    def test_rows_are_to_25d(self, seed, n, pair, c):
        rng = np.random.default_rng(seed)
        cfg = NormalizationConfig(c=c, pair=pair)
        cams = [_camera(rng) for _ in range(n)]
        rows = [_noisy_3d(rng, pair) for _ in range(n)]
        xyz = np.array([r[0] for r in rows]).reshape(n, 21, 3)
        valid = np.array([r[1] for r in rows], dtype=bool).reshape(n, 21)
        px, zr, ok = _to_25d_rows(xyz, valid, _columns(cams), cfg)
        assert px.shape == (n, 21, 2) and zr.shape == (n, 21) and ok.shape == (n,)
        for i, cam in enumerate(cams):
            got = _outcome(to_25d, Pose3D(xyz[i], valid[i]), cam, cfg)
            assert ok[i] == (not isinstance(got, type))
            if ok[i]:
                assert _same_bits(px[i], got.xy) and _same_bits(zr[i], got.zr)

    def test_each_status_is_reached(self):
        cfg = NormalizationConfig()
        pose = POSES[0][0]
        rows = [(pose.xyz, pose.valid)]
        rows.append((pose.xyz, np.arange(21) != 5))  # NoValidKeypointsError
        behind = pose.xyz.copy()
        behind[9, 2] = -1.0
        rows.append((behind, pose.valid))  # BehindCameraError
        zero = pose.xyz.copy()
        zero[5] = zero[0]
        rows.append((zero, pose.valid))  # ZeroBoneError
        xyz, valid = (np.array(v) for v in zip(*rows))
        cam = SynthConfig().camera
        _, _, ok = _to_25d_rows(xyz, valid, _columns([cam] * 4), cfg)
        assert ok.tolist() == [True, False, False, False]
        raised = [_outcome(to_25d, Pose3D(xyz[i], valid[i]), cam, cfg) for i in range(1, 4)]
        assert raised == [NoValidKeypointsError, BehindCameraError, ZeroBoneError]


class TestReconstructRows:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 7), pair=st.sampled_from(PAIRS),
           c=st.sampled_from([1.0, 0.37]))
    def test_rows_are_reconstruct_pose(self, seed, n, pair, c):
        rng = np.random.default_rng(seed)
        cfg = NormalizationConfig(c=c, pair=pair)
        cams = [_camera(rng) for _ in range(n)]
        rows = [_noisy_25d(rng, pair) for _ in range(n)]
        px = np.array([r[0] for r in rows]).reshape(n, 21, 2)
        zr = np.array([r[1] for r in rows]).reshape(n, 21)
        valid = np.array([r[2] for r in rows], dtype=bool).reshape(n, 21)
        xyz, ok = _reconstruct_rows(px, zr, valid, _columns(cams), cfg)
        assert xyz.shape == (n, 21, 3) and ok.shape == (n,)
        for i, cam in enumerate(cams):
            got = _outcome(reconstruct_pose, Pose25D(px[i], zr[i], valid=valid[i]), cam, cfg)
            assert ok[i] == (not isinstance(got, type))
            if ok[i]:
                assert _same_bits(xyz[i], got.xyz)

    def test_each_status_is_reached(self):
        cfg = NormalizationConfig()
        p25 = POSES[0][1]
        px, zr = np.tile(p25.xy, (7, 1, 1)), np.tile(p25.zr, (7, 1))
        valid = np.tile(p25.valid, (7, 1))
        valid[1, 5] = False  # NoValidKeypointsError
        px[2, 5] = 1e300  # NonFiniteError
        zr[3, 5] = 1e200  # NonFiniteError: the square of the pair's zr overflows
        px[4, 0], zr[4, 0] = px[4, 5], zr[4, 5]  # DegenerateProjectionError
        zr[5, 5] += 5.0  # NoRealSolutionError
        zr[6, 9] = -1e9  # NonPositiveDepthError
        cam = SynthConfig().camera
        _, ok = _reconstruct_rows(px, zr, valid, _columns([cam] * 7), cfg)
        assert ok.tolist() == [True] + [False] * 6
        raised = [_outcome(reconstruct_pose, Pose25D(px[i], zr[i], valid=valid[i]), cam, cfg)
                  for i in range(1, 7)]
        assert raised == [NoValidKeypointsError, NonFiniteError, NonFiniteError,
                          DegenerateProjectionError, NoRealSolutionError, NonPositiveDepthError]


class TestScalarSquares:
    WITNESS = 0.08721295894391941

    def test_pow_witness(self):
        """_square gives libm's pow, as a numpy scalar's ** 2 does, for
        scalars and arrays alike; an array's ** 2 is the exact square, and
        the two differ here."""
        x = self.WITNESS
        assert np.float64(x) ** 2 == 0.007606100207753772 == math.pow(x, 2)
        assert x * x == 0.007606100207753773 == (np.array([x]) ** 2)[0]
        assert _square(x) == _square(np.float64(-x)) == math.pow(x, 2)
        assert _square(np.array([x, -x])).tolist() == [math.pow(x, 2)] * 2

    def test_kernel_keeps_the_scalar_bits(self):
        """With K = identity the pair's ray difference is the witness itself,
        so `a` and the lifted pose carry its libm square."""
        x = self.WITNESS
        px = np.zeros((1, 21, 2))
        px[0, 5, 0] = x
        zr = np.zeros((1, 21))
        zr[0, 5] = 0.01
        valid = np.ones((1, 21), dtype=bool)
        q = quadratic_coefficients((x, 0.0), (0.0, 0.0), 0.01, 0.0)
        assert q.a == np.float64(x) ** 2 != x * x
        cam = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
        xyz, ok = _reconstruct_rows(px, zr, valid, _columns([cam]))
        assert ok.tolist() == [True]
        assert _same_bits(xyz[0], reconstruct_pose(Pose25D(px[0], zr[0]), cam).xyz)


def _stacked_coords(xy, cam):
    """normalized_image_coords written with np.stack."""
    pts = np.asarray(xy, dtype=np.float64)
    v = (pts[..., 1] - cam.cy) / cam.fy
    u = (pts[..., 0] - cam.cx - cam.skew * v) / cam.fx
    return np.stack([u, v], axis=-1)


def _masked_lift(rays, z, valid):
    """_lift written with boolean-mask gathers and scatters."""
    xyz = np.zeros(z.shape + (3,))
    xyz[valid, :2] = rays[valid] * z[valid, None]
    xyz[valid, 2] = z[valid]
    return xyz


def _values(rng, shape):
    """Signed values from 1e-5 to 1e5 in magnitude, with exact 0.0 and -0.0
    mixed in, so products carry both signs of zero."""
    out = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    return np.where(rng.random(shape) < 0.15, rng.choice([0.0, -0.0], shape), out)


def _batch(rng, n, k):
    """A (K,) shape for n None, else (n, K); a mask with random density and,
    for a batch, some rows all invalid."""
    shape = (k,) if n is None else (n, k)
    valid = rng.random(shape) < rng.choice([0.0, 0.5, 0.9, 1.0])
    if n:
        valid[rng.random(n) < 0.3] = False
    return shape, valid


class TestSharedHelperBits:
    """normalized_image_coords, _lift and bone_lengths give, bit for bit,
    what np.stack, boolean-mask indexing and np.linalg.norm(v, axis=1) give."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([None, 0, 1, 3]),
           k=st.sampled_from([0, 1, 5, 21]), columns=st.booleans())
    def test_normalized_image_coords(self, seed, n, k, columns):
        rng = np.random.default_rng(seed)
        shape, valid = _batch(rng, n, k)
        cam = _camera(rng)
        if columns and n is not None:
            cam = _columns([rng.choice([None, cam, _camera(rng)]) for _ in range(n)])
        xy = _values(rng, shape + (2,))
        # pixels exactly on the principal point, and masked to 0.0 as callers do
        on_axis = rng.random(shape) < 0.1
        xy[on_axis] = np.broadcast_to(np.stack([cam.cx, cam.cy], axis=-1), shape + (2,))[on_axis]
        xy = np.where(valid[..., None], xy, 0.0)
        assert _same_bits(normalized_image_coords(xy, cam), _stacked_coords(xy, cam))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([None, 0, 1, 3]),
           k=st.sampled_from([0, 1, 5, 21]))
    def test_lift(self, seed, n, k):
        rng = np.random.default_rng(seed)
        shape, valid = _batch(rng, n, k)
        rays, z = _values(rng, shape + (2,)), _values(rng, shape)
        assert _same_bits(_lift(rays, z, valid), _masked_lift(rays, z, valid))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bone_lengths(self, seed):
        rng = np.random.default_rng(seed)
        xyz = _values(rng, (21, 3)) * 10.0 ** rng.uniform(-3.0, 3.0)
        xyz[rng.random(21) < 0.1] = xyz[0]  # zero-length bones
        children, parents = canonical_skeleton().bone_ends
        norm = np.linalg.norm(xyz[children] - xyz[parents], axis=1)
        assert _same_bits(bone_lengths(Pose3D(xyz), canonical_skeleton()), norm)

    @pytest.mark.parametrize("n", [None, 4])
    def test_lift_never_computes_an_invalid_row(self, n):
        """Invalid rows whose product would overflow are never multiplied:
        nothing raises under errstate(all="raise"), they come back +0.0 and
        the valid rows keep their bits."""
        rng = np.random.default_rng(12)
        shape, valid = _batch(rng, n, 21)
        valid.flat[0] = True
        rays, z = rng.normal(size=shape + (2,)), rng.uniform(0.1, 10.0, shape)
        rays[~valid], z[~valid] = 1e300, 1e300
        with np.errstate(all="raise"):
            xyz = _lift(rays, z, valid)
        assert xyz[~valid].tobytes() == bytes(8 * 3 * int((~valid).sum()))
        assert _same_bits(xyz[valid][:, :2], rays[valid] * z[valid, None])
        assert _same_bits(xyz[valid][:, 2], z[valid])


@pytest.mark.parametrize("cams, expected", [
    ([], np.zeros((0, 5))),
    ([None, CameraIntrinsics(2.0, 3.0, 4.0, 5.0, 6.0)], [[1, 1, 0, 0, 0], [2, 3, 4, 5, 6]]),
])
def test_camera_rows(cams, expected):
    """_columns gives each intrinsic as an (N, 1) column; None is the identity K."""
    columns = _columns(cams)
    assert [col.shape for col in columns] == [(len(cams), 1)] * 5
    np.testing.assert_array_equal(np.hstack(columns), np.reshape(expected, (-1, 5)))
