import warnings

import numpy as np
import pytest

from hand25d.camera import (
    CameraIntrinsics,
    backproject,
    normalized_image_coords,
    project,
)
from hand25d.errors import BadDepthError, BehindCameraError, NonFiniteError, ShapeMismatchError
from hand25d.types import Pose2D, Pose3D

CAM = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0)


def pose_of(points):
    pts = np.zeros((max(len(points), 1), 3))
    pts[: len(points)] = points
    return Pose3D(xyz=pts)


class TestProject:
    def test_principal_ray(self):
        p2d, z = project(pose_of([[0.0, 0.0, 500.0]]), CAM)
        np.testing.assert_array_equal(p2d.xy[0], [64.0, 64.0])
        assert z[0] == 500.0

    def test_off_axis_point(self):
        # 100 * 50 / 500 + 64 = 74
        p2d, _ = project(pose_of([[50.0, 0.0, 500.0]]), CAM)
        np.testing.assert_allclose(p2d.xy[0], [74.0, 64.0], rtol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        xyz = rng.normal(scale=40.0, size=(21, 3)) + [0, 0, 400]
        a, _ = project(Pose3D(xyz=xyz), CAM)
        b, _ = project(Pose3D(xyz=2.0 * xyz), CAM)
        np.testing.assert_allclose(a.xy, b.xy, rtol=1e-12)

    def test_behind_camera(self):
        with pytest.raises(BehindCameraError):
            project(pose_of([[0.0, 0.0, -1.0]]), CAM)

    def test_invalid_keypoints_skip_depth_check(self):
        pose = Pose3D(xyz=[[0, 0, -5.0], [0, 0, 500.0]], valid=[False, True])
        p2d, _ = project(pose, CAM)
        assert not p2d.valid[0] and p2d.valid[1]


class TestBackproject:
    def test_principal_ray_inverse(self):
        p3d = backproject(Pose2D(xy=[[64.0, 64.0]]), np.array([500.0]), CAM)
        np.testing.assert_array_equal(p3d.xyz[0], [0.0, 0.0, 500.0])

    def test_off_axis_inverse(self):
        p3d = backproject(Pose2D(xy=[[74.0, 64.0]]), np.array([500.0]), CAM)
        np.testing.assert_allclose(p3d.xyz[0], [50.0, 0.0, 500.0], rtol=1e-12)

    def test_round_trip_1000_random_poses(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            xyz = rng.normal(scale=60.0, size=(21, 3)) + [0, 0, 600]
            pose = Pose3D(xyz=xyz)
            p2d, z = project(pose, CAM)
            back = backproject(p2d, z, CAM)
            rel = np.abs(back.xyz - xyz) / np.maximum(np.abs(xyz), 1.0)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-9

    def test_round_trip_with_skew(self):
        cam = CameraIntrinsics(fx=120.0, fy=110.0, cx=60.0, cy=70.0, skew=2.5)
        rng = np.random.default_rng(2)
        xyz = rng.normal(scale=50.0, size=(21, 3)) + [0, 0, 500]
        p2d, z = project(Pose3D(xyz=xyz), cam)
        back = backproject(p2d, z, cam)
        np.testing.assert_allclose(back.xyz, xyz, rtol=1e-9)

    def test_bad_depth(self):
        with pytest.raises(BadDepthError):
            backproject(Pose2D(xy=[[64.0, 64.0]]), np.array([0.0]), CAM)

    @pytest.mark.parametrize("depths", [[500.0, 600.0], [], [[500.0]]])
    def test_one_depth_per_keypoint(self, depths):
        with pytest.raises(ShapeMismatchError, match="^one depth per keypoint required$"):
            backproject(Pose2D(xy=[[64.0, 64.0]]), depths, CAM)

    @pytest.mark.parametrize("placeholder", [np.inf, -np.inf, np.nan])
    def test_placeholders_never_enter_arithmetic(self, placeholder):
        """Invalid pixels and depths are never read: any placeholder gives
        the bytes of 0.0 placeholders, and nothing warns."""
        cam = CameraIntrinsics(fx=120.0, fy=110.0, cx=60.0, cy=70.0, skew=2.5)
        valid = [True, False, True]
        clean = backproject(Pose2D([[10, 20], [0, 0], [80, 5]], valid), [500, 0, 300], cam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            odd = Pose2D([[10, 20], [placeholder, placeholder], [80, 5]], valid)
            back = backproject(odd, [500, placeholder, 300], cam)
        assert back.xyz.tobytes() == clean.xyz.tobytes()
        assert not back.xyz[1].any() and not np.signbit(back.xyz[1]).any()


@pytest.mark.parametrize("field, value", [
    ("fx", np.inf), ("fy", np.nan), ("cx", -np.inf), ("cy", np.nan), ("skew", np.inf),
])
def test_non_finite_intrinsics_rejected(field, value):
    values = {"fx": 100.0, "fy": 100.0, "cx": 64.0, "cy": 64.0, "skew": 0.0, field: value}
    with pytest.raises(NonFiniteError, match="^intrinsics must be finite$"):
        CameraIntrinsics(**values)


class TestNormalizedImageCoords:
    def test_matches_ray_direction(self):
        rng = np.random.default_rng(3)
        xyz = rng.normal(scale=50.0, size=(21, 3)) + [0, 0, 500]
        p2d, _ = project(Pose3D(xyz=xyz), CAM)
        rays = normalized_image_coords(p2d.xy, CAM)
        np.testing.assert_allclose(rays, xyz[:, :2] / xyz[:, 2:3], rtol=1e-12)

