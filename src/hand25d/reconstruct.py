"""Absolute pose recovery from the 2.5D representation.

The root depth is the solution of a quadratic: requiring the
normalization pair to sit at mutual distance c pins down where along the
two pixel rays the pair lies. With coordinates mapped through K^-1 the
constraint in the unknown root depth Z reads

    a Z^2 + 2 b Z + c_ = 0

with the coefficient definitions implemented in quadratic_coefficients
(b is half the linear coefficient). The root in front of the camera is
(-b + sqrt(b^2 - a c_)) / a, the larger of the two; the reconstructed
pair then has distance exactly c, which solve_zroot's callers verify.
A widely circulated form of this solution, 0.5 (-b + sqrt(b^2 - 4 a c_)) / a,
mixes the half-coefficient convention with the full-coefficient
discriminant and does not satisfy the distance constraint; see the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, _Columns, _lift, normalized_image_coords
from .errors import (
    BadScaleError,
    ConfigError,
    DegenerateProjectionError,
    NonFiniteError,
    NonPositiveDepthError,
    NoRealSolutionError,
    NoValidBonesError,
    NoValidKeypointsError,
)
from .pose25d import NormalizationConfig
from .skeleton import BoneStats, Skeleton, bone_lengths
from .types import Pose3D, Pose25D, _positive_finite

DEGENERATE_A = 1e-12
DISCRIMINANT_SLACK = -1e-9


@dataclass(frozen=True)
class QuadraticCoeffs:
    """Coefficients of a Z^2 + 2 b Z + c = 0 for the root depth."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c)):
            raise NonFiniteError("quadratic coefficients must be finite")


def quadratic_coefficients(
    pn: tuple[float, float],
    pm: tuple[float, float],
    zn: float,
    zm: float,
    c: float = 1.0,
) -> QuadraticCoeffs:
    """Build the root-depth quadratic from the pair's normalized image
    coordinates (already mapped through K^-1) and relative depths."""
    return QuadraticCoeffs(*_coefficients(*pn, *pm, zn, zm, c))


def _coefficients(xn, yn, xm, ym, zn, zm, c):
    """(a, b, c_) of the root-depth quadratic, for scalars or (N,) arrays.
    Every square is a product, which rounds alike for all of them."""
    dx, dy, dz = xn - xm, yn - ym, zn - zm
    ex, ey = xn * zn - xm * zm, yn * zn - ym * zm
    a = dx * dx + dy * dy
    b = zn * (xn * xn + yn * yn - xn * xm - yn * ym) + zm * (
        xm * xm + ym * ym - xn * xm - yn * ym
    )
    cc = ex * ex + ey * ey + dz * dz - c * c
    return a, b, cc


def _root(a, b, c):
    """The larger root (-b + sqrt(b^2 - a c)) / a and the discriminant, for
    scalars or arrays; a negative one counts as 0, and a -0.0 stays -0.0."""
    disc = b * b - a * c
    clamped = np.where(disc < 0.0, 0.0, disc) if isinstance(disc, np.ndarray) else max(disc, 0.0)
    return (-b + np.sqrt(clamped)) / a, disc


def solve_zroot(q: QuadraticCoeffs) -> float:
    """Front-of-camera root of the depth quadratic (the larger real root)."""
    if q.a <= DEGENERATE_A:
        raise DegenerateProjectionError(
            "pair projections coincide; root depth is unobservable"
        )
    root, disc = _root(q.a, q.b, q.c)
    if disc < DISCRIMINANT_SLACK:
        raise NoRealSolutionError(f"discriminant {disc:g} below tolerance")
    return root


def reconstruct_pose(
    p25: Pose25D,
    cam: CameraIntrinsics,
    cfg: NormalizationConfig = NormalizationConfig(),
) -> Pose3D:
    """Recover the scale-normalized 3D pose from 2.5D coordinates.

    Solves for the root depth using the normalization pair, then
    back-projects every keypoint at depth zroot + zr. The result is in
    normalized units (pair bone length = c).
    """
    n, m = cfg.pair
    if not (p25.valid[n] and p25.valid[m]):
        raise NoValidKeypointsError(f"normalization pair {cfg.pair} must be valid in the 2.5D pose")
    rays = normalized_image_coords(np.where(p25.valid[:, None], p25.xy, 0.0), cam)
    q = quadratic_coefficients(
        (rays[n, 0], rays[n, 1]),
        (rays[m, 0], rays[m, 1]),
        p25.zr[n],
        p25.zr[m],
        cfg.c,
    )
    z = solve_zroot(q) + np.where(p25.valid, p25.zr, 0.0)
    if (z[p25.valid] <= 0).any():
        raise NonPositiveDepthError("reconstruction placed a valid keypoint behind the camera")
    return Pose3D(xyz=_lift(rays, z, p25.valid), valid=p25.valid.copy())


def _reconstruct_rows(
    px: np.ndarray,
    zr: np.ndarray,
    valid: np.ndarray,
    cams: _Columns,
    cfg: NormalizationConfig = NormalizationConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """reconstruct_pose of N 2.5D poses at once: px (N, K, 2), zr (N, K),
    valid (N, K) and N cameras give xyz (N, K, 3) and ok (N,). ok[i] holds
    exactly when reconstruct_pose raises nothing for row i, and then the row
    is reconstruct_pose's xyz bit for bit; otherwise its values are
    meaningless. The arithmetic runs under np.errstate(all="ignore"), so an
    overflowing row does not warn as reconstruct_pose does."""
    n, m = cfg.pair
    with np.errstate(all="ignore"):
        rays = normalized_image_coords(np.where(valid[..., None], px, 0.0), cams)
        zr = np.where(valid, zr, 0.0)
        a, b, cc = _coefficients(rays[:, n, 0], rays[:, n, 1], rays[:, m, 0], rays[:, m, 1],
                                 zr[:, n], zr[:, m], cfg.c)
        zroot, disc = _root(a, b, cc)
        z = zroot[:, None] + zr
        xyz = _lift(rays, z, valid)
    ok = (valid[:, n] & valid[:, m] & np.isfinite(a) & np.isfinite(b) & np.isfinite(cc)
          & (a > DEGENERATE_A) & ~(disc < DISCRIMINANT_SLACK) & ~(valid & (z <= 0)).any(axis=1))
    return xyz, ok


def recover_scale(pose: Pose3D, stats: BoneStats, skel: Skeleton) -> float:
    """Least-squares global scale: argmin_s sum_bones (s d - mu)^2.

    Closed form s = sum(mu d) / sum(d^2) over bones whose endpoints are
    both valid and whose length is nonzero, so fingertip-only data still
    works. The lengths come from `bone_lengths`, which rejects NaN or inf
    coordinates and a pose whose keypoint count differs from the skeleton's.
    """
    if stats.mean_length.shape[0] != len(skel.bones):
        raise NoValidBonesError("bone stats do not cover the skeleton")
    d = bone_lengths(pose, skel)
    children, parents = skel.bone_ends
    usable = pose.valid[children] & pose.valid[parents] & (d > 0)
    if not usable.any():
        raise NoValidBonesError("no bone has two valid endpoints and nonzero length")
    mu = stats.mean_length[usable]
    d = d[usable]
    return float(np.dot(mu, d) / np.dot(d, d))


def absolute_pose(pose: Pose3D, s_hat: float, c: float = 1.0) -> Pose3D:
    """Scale a normalized pose back to metric units: P = (s_hat / c) * P_hat."""
    if not _positive_finite(s_hat):
        raise BadScaleError(f"scale must be positive and finite, got {s_hat}")
    if not _positive_finite(c):
        raise ConfigError("normalization constant c must be positive and finite")
    return Pose3D(xyz=(s_hat / c) * pose.xyz, valid=pose.valid.copy())
