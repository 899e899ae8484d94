import warnings

import numpy as np
import pytest

from hand25d.camera import (
    AffineMap2D,
    CameraIntrinsics,
    backproject,
    crop_transform,
    normalized_image_coords,
    project,
)
from hand25d.errors import BadDepthError, BehindCameraError, DegenerateBoxError
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


class TestNormalizedImageCoords:
    def test_matches_ray_direction(self):
        rng = np.random.default_rng(3)
        xyz = rng.normal(scale=50.0, size=(21, 3)) + [0, 0, 500]
        p2d, _ = project(Pose3D(xyz=xyz), CAM)
        rays = normalized_image_coords(p2d.xy, CAM)
        np.testing.assert_allclose(rays, xyz[:, :2] / xyz[:, 2:3], rtol=1e-12)


class TestCropTransform:
    def test_default_fill_fraction_is_seventy_percent(self):
        import inspect

        assert inspect.signature(crop_transform).parameters["fill_fraction"].default == 0.7

    def test_centering(self):
        m = crop_transform((10.0, 20.0, 40.0, 30.0), (128, 128), fill_fraction=1.0)
        center = m.apply([[10.0 + 20.0, 20.0 + 15.0]])
        np.testing.assert_allclose(center[0], [64.0, 64.0], atol=1e-12)

    def test_diagonal_spans_fill_fraction(self):
        bbox = (5.0, 7.0, 40.0, 30.0)
        m = crop_transform(bbox, (128, 128), fill_fraction=0.7)
        corners = m.apply([[5.0, 7.0], [45.0, 37.0]])
        diag = np.linalg.norm(corners[1] - corners[0])
        np.testing.assert_allclose(diag, 0.7 * 128.0, rtol=1e-12)

    def test_apply_invert_identity(self):
        rng = np.random.default_rng(4)
        m = crop_transform((3.0, 9.0, 25.0, 55.0), (96, 128), fill_fraction=0.7)
        pts = rng.uniform(-100, 100, size=(50, 2))
        back = m.invert().apply(m.apply(pts))
        assert np.abs(back - pts).max() < 1e-10

    def test_degenerate_box(self):
        with pytest.raises(DegenerateBoxError):
            crop_transform((0.0, 0.0, 0.0, 10.0), (128, 128))


class TestAffineMap2D:
    def test_singular_map_rejected(self):
        with pytest.raises(DegenerateBoxError):
            AffineMap2D(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))

    def test_compose_associative(self):
        rng = np.random.default_rng(5)
        maps = [AffineMap2D(rng.normal(size=(2, 3)) + [[1, 0, 0], [0, 1, 0]]) for _ in range(3)]
        a, b, c = maps
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        np.testing.assert_allclose(left.m, right.m, atol=1e-12)

    def test_double_invert(self):
        m = crop_transform((2.0, 4.0, 30.0, 20.0), (128, 128), fill_fraction=0.8)
        np.testing.assert_allclose(m.invert().invert().m, m.m, atol=1e-12)

    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(6)
        a = AffineMap2D(rng.normal(size=(2, 3)) + [[2, 0, 0], [0, 2, 0]])
        b = AffineMap2D(rng.normal(size=(2, 3)) + [[2, 0, 0], [0, 2, 0]])
        pts = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            a.compose(b).apply(pts), a.apply(b.apply(pts)), rtol=1e-12
        )
