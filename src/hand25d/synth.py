"""Synthetic hand pose generator used as the round-trip oracle.

Poses are built from exact bone lengths and per-finger planar flexion,
then rigidly placed so that every keypoint depth stays inside a fixed
450-1100 mm range and every projection lands inside the target grid. The
articulation model is deliberately simple; the generator exists for
geometric coverage, not visual realism.

Every sample is deterministic in (seed, index). Configurations whose
normalization-pair bone points almost straight down the optical axis are
redrawn: there the root-depth quadratic has two nearly coincident (or
swapped) front-of-camera solutions and no decoder could tell them apart,
so such samples would test the ambiguity of the representation rather
than the correctness of the reconstruction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics
from .errors import ConfigError
from .pose25d import NormalizationConfig, _relative_depths, normalization_scale, to_25d
from .reconstruct import _root, quadratic_coefficients, solve_zroot
from .serialize import PoseRecord
from .skeleton import FINGERS, ROOT_INDEX, BoneStats, canonical_skeleton
from .types import Pose3D, Pose25D

# palm->mcp, mcp->pip, pip->dip, dip->tip per finger, mm
DEFAULT_BONE_MM = {
    "thumb": (38.0, 45.0, 30.0, 23.0),
    "index": (50.0, 42.0, 25.0, 21.0),
    "middle": (52.0, 46.0, 28.0, 22.0),
    "ring": (48.0, 42.0, 26.0, 21.0),
    "pinky": (44.0, 31.0, 19.0, 17.0),
}
# in-plane splay of each finger's base direction, degrees from straight ahead
FINGER_SPLAY_DEG = {"thumb": -65.0, "index": -18.0, "middle": 0.0, "ring": 15.0, "pinky": 32.0}

DEFAULT_CAMERA = CameraIntrinsics(fx=150.0, fy=150.0, cx=63.5, cy=63.5)

# (lo, hi) of each finger's four angle draws: abduction, MCP, PIP and DIP flexion
_ANGLE_LO_DEG, _ANGLE_HI_DEG = np.array([(-12.0, 12.0), (0.0, 70.0), (0.0, 95.0), (0.0, 70.0)]).T
_BONE_TABLE_MM = np.array([DEFAULT_BONE_MM[f] for f in FINGERS])  # (5, 4), FINGERS order
_SPLAY_TABLE_DEG = np.array([FINGER_SPLAY_DEG[f] for f in FINGERS])
_NORMAL = np.array([0.0, 0.0, 1.0])
_DEPTH_RANGE_MM = (450.0, 1100.0)
_BONE_JITTER = 0.15
_NORMALIZATION = NormalizationConfig()

_MAX_REDRAWS = 1000
_EDGE_MARGIN_PX = 1.0
_ROOT_GAP_FRACTION = 0.05


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    camera: CameraIntrinsics = DEFAULT_CAMERA
    grid: tuple[int, int] = (128, 128)
    bone_stats: BoneStats | None = None

    def __post_init__(self):
        bones = canonical_skeleton().num_keypoints - 1
        if self.bone_stats is not None and self.bone_stats.mean_length.shape[0] != bones:
            raise ConfigError(f"bone_stats must give {bones} lengths")


def _rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _articulated_hand(rng: np.random.Generator, bone_stats: BoneStats | None) -> np.ndarray:
    """Root-centered keypoints with exact bone lengths (before rigid placement).

    One draw per hand: each row is a finger, holding its 4 bone-length
    factors (only without bone_stats), then abduction, MCP, PIP and DIP.
    Each unit draw u maps to lo + (hi - lo) * u, the formula
    Generator.uniform applies, so the doubles are those of one
    rng.uniform call per value.
    """
    if bone_stats is None:
        u = rng.random((len(FINGERS), 8))
        lo, hi = 1 - _BONE_JITTER, 1 + _BONE_JITTER
        lengths = _BONE_TABLE_MM * (lo + (hi - lo) * u[:, :4])
    else:
        u = rng.random((len(FINGERS), 4))
        lengths = bone_stats.mean_length.reshape(len(FINGERS), 4)
    angles = _ANGLE_LO_DEG + (_ANGLE_HI_DEG - _ANGLE_LO_DEG) * u[:, -4:]
    splay = np.deg2rad(_SPLAY_TABLE_DEG + angles[:, 0])
    base_dir = np.stack([np.sin(splay), np.cos(splay), np.zeros_like(splay)], axis=1)
    flex = np.deg2rad(angles)
    flex[:, 0] = 0.0  # the palm->MCP bone lies in the palm plane
    bend = np.cumsum(flex, axis=1)[..., None]
    direction = np.cos(bend) * base_dir[:, None, :] - np.sin(bend) * _NORMAL
    xyz = np.zeros((canonical_skeleton().num_keypoints, 3))
    xyz[1:] = np.cumsum(lengths[..., None] * direction, axis=1).reshape(-1, 3)
    return xyz


def _well_posed_pair(pose: Pose3D) -> bool:
    """True when the larger quadratic root is the true root depth by a
    clear margin, i.e. the sample sits inside the uniquely decodable
    regime."""
    norm_cfg = _NORMALIZATION
    n, m = norm_cfg.pair
    scale = norm_cfg.c / normalization_scale(pose, norm_cfg)
    zr = _relative_depths(pose.xyz[:, 2], scale)
    z_true_root = scale * pose.xyz[ROOT_INDEX, 2]
    rays = pose.xyz[:, :2] / pose.xyz[:, 2:3]
    q = quadratic_coefficients(
        (rays[n, 0], rays[n, 1]), (rays[m, 0], rays[m, 1]), zr[n], zr[m], norm_cfg.c
    )
    if q.a <= 1e-10:
        return False
    disc = _root(q.a, q.b, q.c)[1]
    if disc <= 0:
        return False
    z_big = solve_zroot(q)
    z_small = (-q.b - np.sqrt(disc)) / q.a
    if abs(z_big - z_true_root) > 1e-6 * max(1.0, abs(z_true_root)):
        return False
    return (z_big - z_small) >= _ROOT_GAP_FRACTION * z_true_root


def gen_pose(cfg: SynthConfig, index: int) -> tuple[Pose3D, Pose25D, PoseRecord]:
    """Deterministic synthetic sample: metric pose, its 2.5D view, and the
    serializable record."""
    rng = np.random.default_rng([cfg.seed, index])
    cam = cfg.camera
    width, height = cfg.grid
    zmin, zmax = _DEPTH_RANGE_MM
    u_lim_x = min(cam.cx - _EDGE_MARGIN_PX, width - 1 - _EDGE_MARGIN_PX - cam.cx) / cam.fx
    u_lim_y = min(cam.cy - _EDGE_MARGIN_PX, height - 1 - _EDGE_MARGIN_PX - cam.cy) / cam.fy
    if u_lim_x <= 0 or u_lim_y <= 0:
        raise ConfigError("grid too small for the camera principal point")

    for _ in range(_MAX_REDRAWS):
        local = _articulated_hand(rng, cfg.bone_stats)
        rotation = _rotation_from_quaternion(rng.normal(size=4))
        placed = local @ rotation.T
        radius = float(np.linalg.norm(placed, axis=1).max())
        z_lo, z_hi = zmin + radius, zmax - radius
        if z_lo >= z_hi:
            raise ConfigError(
                f"depth range {_DEPTH_RANGE_MM} cannot contain a hand of radius {radius:.0f} mm"
            )
        tz = rng.uniform(z_lo, z_hi)
        mx = max(0.0, (tz - radius) * u_lim_x - radius)
        my = max(0.0, (tz - radius) * u_lim_y - radius)
        tx = rng.uniform(-mx, mx) if mx > 0 else 0.0
        ty = rng.uniform(-my, my) if my > 0 else 0.0
        xyz = placed + np.array([tx, ty, tz])
        pose = Pose3D(xyz=xyz)
        if not _well_posed_pair(pose):
            continue
        p25 = to_25d(pose, cam, _NORMALIZATION)
        record = PoseRecord(
            valid=pose.valid.copy(),
            px=p25.xy.copy(),
            xyz_mm=pose.xyz.copy(),
            zr_norm=p25.zr.copy(),
            side="right",
            camera=cam,
            meta={"dataset": "synthetic", "frame": index, "seed": cfg.seed},
        )
        return pose, p25, record
    raise ConfigError(f"no well-posed sample found for (seed={cfg.seed}, index={index})")


def synth_bone_stats(cfg: SynthConfig) -> BoneStats:
    """Bone statistics matching the generator defaults (exact when the
    config pins bone_stats, the template means otherwise)."""
    if cfg.bone_stats is not None:
        return cfg.bone_stats
    lengths = np.concatenate([DEFAULT_BONE_MM[f] for f in FINGERS])
    return BoneStats(mean_length=np.asarray(lengths))
