"""Scale-normalized 2.5D pose construction.

A pose is normalized by scaling it so a chosen bone (default: index MCP
to palm) has fixed length C. The 2.5D view keeps the 2D projection,
which normalization does not move, plus root-relative normalized depths.
The representation is invariant to the metric scale of the input pose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, _Columns, _pixels, project
from .errors import ConfigError, NoValidKeypointsError, ZeroBoneError
from .skeleton import ROOT_INDEX, canonical_skeleton
from .types import Pose3D, Pose25D, _positive_finite

MIN_BONE_MM = 1e-9


@dataclass(frozen=True)
class NormalizationConfig:
    """Which bone is pinned to constant length c.

    pair is (keypoint, its parent) and must be an edge of the canonical
    tree; (5, 0) is index MCP to palm, the most stably detected bone.
    """

    c: float = 1.0
    pair: tuple[int, int] = (5, ROOT_INDEX)

    def __post_init__(self):
        if not _positive_finite(self.c):
            raise ConfigError("normalization constant c must be positive and finite")
        n, m = self.pair
        if not canonical_skeleton().is_edge(n, m):
            raise ConfigError(f"pair {self.pair} is not a (child, parent) bone of the hand tree")


def normalization_scale(pose: Pose3D, cfg: NormalizationConfig = NormalizationConfig()) -> float:
    """Length s of the configured bone, in the pose's own units."""
    s = float(_pair_length(pose.xyz, cfg.pair))
    if s < MIN_BONE_MM:
        raise ZeroBoneError(f"normalization pair {cfg.pair} is degenerate (|bone| = {s:g})")
    return s


def _pair_length(xyz: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Pair bone length of (..., K, 3) poses, with np.linalg.norm's bits for
    each vector (norm over an axis does not give them)."""
    n, m = pair
    bone = xyz[..., n, :] - xyz[..., m, :]
    return np.sqrt(np.vecdot(bone, bone))


def _relative_depths(z: np.ndarray, scale) -> np.ndarray:
    """(..., K) depths times `scale` (c / s), relative to the root keypoint."""
    z_hat = scale * z
    return z_hat - z_hat[..., ROOT_INDEX, None]


def normalize_pose(
    pose: Pose3D, cfg: NormalizationConfig = NormalizationConfig()
) -> tuple[Pose3D, float]:
    """Scale the pose by c/s so the configured bone has length exactly c."""
    s = normalization_scale(pose, cfg)
    scaled = Pose3D(xyz=(cfg.c / s) * pose.xyz, valid=pose.valid.copy())
    return scaled, s


def to_25d(
    pose: Pose3D,
    cam: CameraIntrinsics,
    cfg: NormalizationConfig = NormalizationConfig(),
) -> Pose25D:
    """Project to pixels and attach normalized depths relative to the palm (ROOT_INDEX).

    The output is identical for pose and lambda*pose (lambda > 0): the
    projection is scale invariant and the depths are normalized by the
    pair bone length. The normalization pair and the root must be valid.
    """
    if not (pose.valid[cfg.pair[0]] and pose.valid[cfg.pair[1]]):
        raise NoValidKeypointsError(f"normalization pair {cfg.pair} must be valid in the 3D pose")
    if not pose.valid[ROOT_INDEX]:
        raise NoValidKeypointsError(f"root keypoint {ROOT_INDEX} must be valid in the 3D pose")
    p2d, z = project(pose, cam)
    zr = _relative_depths(z, cfg.c / normalization_scale(pose, cfg))
    return Pose25D(xy=p2d.xy, zr=zr, root=ROOT_INDEX, valid=pose.valid.copy())


def _to_25d_rows(
    xyz: np.ndarray,
    valid: np.ndarray,
    cams: _Columns | CameraIntrinsics,
    cfg: NormalizationConfig = NormalizationConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """to_25d of N poses at once: xyz (N, K, 3), valid (N, K) and N cameras
    (or one CameraIntrinsics for all) give px (N, K, 2), zr (N, K) and ok
    (N,). ok[i] holds exactly when to_25d raises nothing for row i, and then
    the row is to_25d's xy and zr bit for bit; otherwise its values are
    meaningless. The arithmetic runs under np.errstate(all="ignore"), so an
    overflowing row does not warn as to_25d does."""
    n, m = cfg.pair
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    inside = valid & (z > 0)
    with np.errstate(all="ignore"):
        u, v = _pixels(x, y, np.where(inside, z, 1.0), cams)
        px = np.stack([np.where(inside, u, 0.0), np.where(inside, v, 0.0)], axis=-1)
        s = _pair_length(xyz, cfg.pair)
        zr = _relative_depths(z, (cfg.c / s)[:, None])
    ok = (valid[:, n] & valid[:, m] & valid[:, ROOT_INDEX]
          & ~(valid & (z <= 0)).any(axis=1) & ~(s < MIN_BONE_MM))
    return px, zr, ok
