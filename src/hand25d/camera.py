"""Pinhole camera model: projection and back-projection.

Pixel convention: (0, 0) is the center of the top-left pixel and
coordinates are continuous, so sub-pixel positions are meaningful
everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDepthError,
    BehindCameraError,
    ConfigError,
    NonFiniteError,
    ShapeMismatchError,
)
from .types import Pose2D, Pose3D, _as_array


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels; skew is 0 for every dataset we model
    but kept so the full upper-triangular K is supported."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        vals = (self.fx, self.fy, self.cx, self.cy, self.skew)
        if not all(math.isfinite(v) for v in vals):  # np.isfinite costs ~1 us per scalar
            raise NonFiniteError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError("focal lengths must be positive")


def project(pose: Pose3D, cam: CameraIntrinsics) -> tuple[Pose2D, np.ndarray]:
    """Perspective projection; returns pixel coordinates and the input depths.

    Raises BehindCameraError if any valid keypoint has Z <= 0. Invalid
    keypoints are passed through as (0, 0) placeholders.
    """
    z = pose.xyz[:, 2]
    if (z[pose.valid] <= 0).any():
        raise BehindCameraError("all valid keypoints must have Z > 0")
    xy = np.zeros((pose.num_keypoints, 2))
    ok = pose.valid & (z > 0)
    x, y, zi = pose.xyz[ok].T
    xy[ok, 0], xy[ok, 1] = _pixels(x, y, zi, cam)
    return Pose2D(xy=xy, valid=pose.valid.copy()), z.copy()


def _pixels(x, y, z, cam):
    """The pinhole projection (u, v) of points (x, y, z), z != 0; cam is a
    CameraIntrinsics or `_Columns` that broadcast against the coordinates."""
    return cam.fx * x / z + cam.skew * y / z + cam.cx, cam.fy * y / z + cam.cy


def backproject(p: Pose2D, depths: np.ndarray, cam: CameraIntrinsics) -> Pose3D:
    """Exact right-inverse of `project` on the Z > 0 domain; invalid
    keypoints come back as (0, 0, 0) placeholders."""
    z = _as_array(depths, np.float64, "depths")
    if z.shape != (p.num_keypoints,):
        raise ShapeMismatchError("one depth per keypoint required")
    if (z[p.valid] <= 0).any():
        raise BadDepthError("all valid depths must be positive")
    rays = normalized_image_coords(np.where(p.valid[:, None], p.xy, 0.0), cam)
    return Pose3D(xyz=_lift(rays, z, p.valid), valid=p.valid.copy())


def normalized_image_coords(xy: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Map pixel coordinates through K^-1 onto the Z=1 plane, giving
    (X/Z, Y/Z) ray directions."""
    pts = np.asarray(xy, dtype=np.float64)
    v = (pts[..., 1] - cam.cy) / cam.fy
    u = (pts[..., 0] - cam.cx - cam.skew * v) / cam.fx
    rays = np.empty(u.shape + (2,))  # filled by slices: np.stack costs µs per call
    rays[..., 0] = u
    rays[..., 1] = v
    return rays


def _lift(rays: np.ndarray, z: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """(..., K, 3) points at depth z along the (..., K, 2) rays from
    `normalized_image_coords`; only valid rows are computed, the others are exactly 0.0."""
    xyz = np.zeros(z.shape + (3,))
    np.multiply(rays, z[..., None], out=xyz[..., :2], where=valid[..., None])
    np.copyto(xyz[..., 2], z, where=valid)
    return xyz


class _Columns(NamedTuple):
    """The intrinsics of N cameras as (N, 1) columns. They broadcast against
    (N, K) arrays, so `normalized_image_coords` and `_pixels` take them where
    they take a CameraIntrinsics."""

    fx: np.ndarray
    fy: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    skew: np.ndarray


def _columns(cams: list[CameraIntrinsics | None]) -> _Columns:
    """`_Columns` of N cameras; None reads as the identity K."""
    rows = [(1.0, 1.0, 0.0, 0.0, 0.0) if c is None else (c.fx, c.fy, c.cx, c.cy, c.skew)
            for c in cams]
    return _Columns(*np.array(rows, dtype=np.float64).reshape(len(rows), 5).T[:, :, None])
