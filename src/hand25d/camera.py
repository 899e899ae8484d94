"""Pinhole camera model and crop-window coordinate transforms.

Pixel convention: (0, 0) is the center of the top-left pixel and
coordinates are continuous, so sub-pixel positions are meaningful
everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDepthError,
    BehindCameraError,
    ConfigError,
    DegenerateBoxError,
    NonFiniteError,
    ShapeMismatchError,
)
from .types import Pose2D, Pose3D


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
        if not all(np.isfinite(v) for v in vals):
            raise NonFiniteError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError("focal lengths must be positive")


@dataclass(frozen=True)
class AffineMap2D:
    """2x3 affine map on image points, row vector convention p' = A p + t."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (2, 3):
            raise ShapeMismatchError(f"affine map must be 2x3, got {m.shape}")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) <= 1e-12:
            raise DegenerateBoxError("affine map is singular")
        object.__setattr__(self, "m", m)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts @ self.m[:, :2].T + self.m[:, 2]

    def invert(self) -> "AffineMap2D":
        a = self.m[:, :2]
        t = self.m[:, 2]
        a_inv = np.linalg.inv(a)
        return AffineMap2D(np.hstack([a_inv, (-a_inv @ t)[:, None]]))

    def compose(self, other: "AffineMap2D") -> "AffineMap2D":
        """Return the map equivalent to applying `other` first, then self."""
        a = self.m[:, :2] @ other.m[:, :2]
        t = self.m[:, :2] @ other.m[:, 2] + self.m[:, 2]
        return AffineMap2D(np.hstack([a, t[:, None]]))


def project(pose: Pose3D, cam: CameraIntrinsics) -> tuple[Pose2D, np.ndarray]:
    """Perspective projection; returns pixel coordinates and the input depths.

    Raises BehindCameraError if any valid keypoint has Z <= 0. Invalid
    keypoints are passed through as (0, 0) placeholders.
    """
    z = pose.xyz[:, 2]
    if np.any(z[pose.valid] <= 0):
        raise BehindCameraError("all valid keypoints must have Z > 0")
    xy = np.zeros((pose.num_keypoints, 2))
    ok = pose.valid & (z > 0)
    zi = z[ok]
    xy[ok, 0] = cam.fx * pose.xyz[ok, 0] / zi + cam.skew * pose.xyz[ok, 1] / zi + cam.cx
    xy[ok, 1] = cam.fy * pose.xyz[ok, 1] / zi + cam.cy
    return Pose2D(xy=xy, valid=pose.valid.copy()), z.copy()


def backproject(p: Pose2D, depths: np.ndarray, cam: CameraIntrinsics) -> Pose3D:
    """Exact right-inverse of `project` on the Z > 0 domain; invalid
    keypoints come back as (0, 0, 0) placeholders."""
    z = np.asarray(depths, dtype=np.float64)
    if z.shape != (p.num_keypoints,):
        raise ShapeMismatchError("one depth per keypoint required")
    if np.any(z[p.valid] <= 0):
        raise BadDepthError("all valid depths must be positive")
    return Pose3D(xyz=_lift(normalized_image_coords(p.xy, cam), z, p.valid), valid=p.valid.copy())


def normalized_image_coords(xy: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Map pixel coordinates through K^-1 onto the Z=1 plane, giving
    (X/Z, Y/Z) ray directions."""
    pts = np.asarray(xy, dtype=np.float64)
    v = (pts[..., 1] - cam.cy) / cam.fy
    u = (pts[..., 0] - cam.cx - cam.skew * v) / cam.fx
    return np.stack([u, v], axis=-1)


def _lift(rays: np.ndarray, z: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """(K, 3) points at depth z along the (K, 2) rays from
    `normalized_image_coords`; rows that are not valid are exactly 0.0."""
    xyz = np.empty((z.shape[0], 3))
    xyz[:, :2] = rays * z[:, None]
    xyz[:, 2] = z
    xyz[~valid] = 0.0
    return xyz


def crop_transform(
    bbox: tuple[float, float, float, float],
    out_size: tuple[int, int],
    fill_fraction: float = 0.7,
) -> AffineMap2D:
    """Similarity map from source pixels to crop pixels.

    The bbox is expanded to a square window sized so that the bbox diagonal
    spans `fill_fraction` of the shorter output side; the window center
    maps to the output center. Aspect ratio is preserved.
    """
    x0, y0, w, h = bbox
    if not (w > 0 and h > 0):
        raise DegenerateBoxError(f"bbox sides must be positive, got w={w}, h={h}")
    if not 0 < fill_fraction <= 1:
        raise ConfigError("fill_fraction must be in (0, 1]")
    out_w, out_h = out_size
    diag = float(np.hypot(w, h))
    scale = fill_fraction * min(out_w, out_h) / diag
    cx_b = x0 + w / 2.0
    cy_b = y0 + h / 2.0
    return AffineMap2D(
        np.array(
            [
                [scale, 0.0, out_w / 2.0 - scale * cx_b],
                [0.0, scale, out_h / 2.0 - scale * cy_b],
            ]
        )
    )
