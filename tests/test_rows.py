"""The batched kernels behind the normalize and reconstruct stages equal
the per-pose functions bit for bit, and their status codes name the
exception class the per-pose function raises."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hand25d.camera import CameraIntrinsics, _rows
from hand25d.errors import Hand25DError
from hand25d.pose25d import _STATUS as TO_25D_STATUS
from hand25d.pose25d import NormalizationConfig, _to_25d_rows, to_25d
from hand25d.reconstruct import _STATUS as RECONSTRUCT_STATUS
from hand25d.reconstruct import (
    _libm_squares,
    _reconstruct_rows,
    quadratic_coefficients,
    reconstruct_pose,
)
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
    way = rng.integers(6)
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
        px, zr, status = _to_25d_rows(xyz, valid, _rows(cams), cfg)
        assert px.shape == (n, 21, 2) and zr.shape == (n, 21) and status.shape == (n,)
        for i, cam in enumerate(cams):
            got = _outcome(to_25d, Pose3D(xyz[i], valid[i]), cam, cfg)
            if isinstance(got, type):
                assert TO_25D_STATUS[status[i]] is got
            else:
                assert status[i] == 0
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
        _, _, status = _to_25d_rows(xyz, valid, _rows([cam] * 4), cfg)
        assert status.tolist() == [0, 1, 2, 3]
        for i in range(1, 4):
            assert _outcome(to_25d, Pose3D(xyz[i], valid[i]), cam, cfg) is TO_25D_STATUS[i]


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
        xyz, status = _reconstruct_rows(px, zr, valid, _rows(cams), cfg)
        assert xyz.shape == (n, 21, 3) and status.shape == (n,)
        for i, cam in enumerate(cams):
            got = _outcome(reconstruct_pose, Pose25D(px[i], zr[i], valid=valid[i]), cam, cfg)
            if isinstance(got, type):
                assert RECONSTRUCT_STATUS[status[i]] is got
            else:
                assert status[i] == 0
                assert _same_bits(xyz[i], got.xyz)

    def test_each_status_is_reached(self):
        cfg = NormalizationConfig()
        p25 = POSES[0][1]
        px, zr = np.tile(p25.xy, (6, 1, 1)), np.tile(p25.zr, (6, 1))
        valid = np.tile(p25.valid, (6, 1))
        valid[1, 5] = False  # NoValidKeypointsError
        px[2, 5] = 1e300  # NonFiniteError
        px[3, 0], zr[3, 0] = px[3, 5], zr[3, 5]  # DegenerateProjectionError
        zr[4, 5] += 5.0  # NoRealSolutionError
        zr[5, 9] = -1e9  # NonPositiveDepthError
        cam = SynthConfig().camera
        _, status = _reconstruct_rows(px, zr, valid, _rows([cam] * 6), cfg)
        assert status.tolist() == [0, 1, 2, 3, 4, 5]
        for i in range(1, 6):
            got = _outcome(reconstruct_pose, Pose25D(px[i], zr[i], valid=valid[i]), cam, cfg)
            assert got is RECONSTRUCT_STATUS[i]


class TestScalarSquares:
    WITNESS = 0.08721295894391941

    def test_pow_witness(self):
        """quadratic_coefficients squares numpy scalars, which is libm's pow;
        an array's ** 2 is the exact square, and the two differ here."""
        x = self.WITNESS
        assert np.float64(x) ** 2 == 0.007606100207753772 == math.pow(x, 2)
        assert x * x == 0.007606100207753773 == (np.array([x]) ** 2)[0]
        assert _libm_squares(np.array([x, -x]))[0] == np.float64(x) ** 2
        assert _libm_squares(np.array([x, -x]))[1] == np.float64(-x) ** 2

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
        xyz, status = _reconstruct_rows(px, zr, valid, _rows([cam]))
        assert status.tolist() == [0]
        assert _same_bits(xyz[0], reconstruct_pose(Pose25D(px[0], zr[0]), cam).xyz)


@pytest.mark.parametrize("cams, expected", [
    ([], np.zeros((0, 5))),
    ([None, CameraIntrinsics(2.0, 3.0, 4.0, 5.0, 6.0)], [[1, 1, 0, 0, 0], [2, 3, 4, 5, 6]]),
])
def test_camera_rows(cams, expected):
    np.testing.assert_array_equal(_rows(cams), np.array(expected, dtype=float).reshape(-1, 5))
