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

gen_pose makes one sample. `_gen_rows` makes the first attempts of many
at once over (N, ...) arrays from the same per-index draws, with the same
formulas; the rows it cannot accept are left to gen_pose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics
from .errors import ConfigError
from .pose25d import (
    NormalizationConfig,
    _pair_length,
    _relative_depths,
    _to_25d_rows,
    normalization_scale,
    to_25d,
)
from .reconstruct import _coefficients, _root, quadratic_coefficients, solve_zroot
from .serialize import PoseRecord
from .skeleton import FINGERS, ROOT_INDEX, BoneStats, canonical_skeleton
from .types import Pose3D, Pose25D, _int_pair, _is_int

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
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not _int_pair(self.grid):
            raise ConfigError(f"grid must be two integers (width, height), got {self.grid!r}")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ConfigError(f"seed must be 0 or more, got {self.seed}")
        bones = canonical_skeleton().num_keypoints - 1
        if self.bone_stats is not None and self.bone_stats.mean_length.shape[0] != bones:
            raise ConfigError(f"bone_stats must give {bones} lengths")
        object.__setattr__(self, "seed", int(self.seed))  # JSON-writable in meta
        object.__setattr__(self, "grid", tuple(map(int, self.grid)))  # hashable, equal to the default


def _rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of quaternions (w, x, y, z): q (4,) gives (3, 3) and
    q (N, 4) gives (N, 3, 3), each row as its own call gives it."""
    w, x, y, z = q.T / np.sqrt(np.vecdot(q, q))
    r = np.array([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ])
    return r.T.reshape(q.shape[:-1] + (3, 3))


def _uniform(lo, hi, u):
    """The double Generator.uniform(lo, hi) returns for the unit draw u."""
    return lo + (hi - lo) * u


def _hand_draw_shape(bone_stats: BoneStats | None) -> tuple[int, int]:
    """Shape of one hand's unit draws: each row is a finger, holding its 4
    bone-length factors (only without bone_stats), then abduction, MCP, PIP
    and DIP."""
    return len(FINGERS), 8 if bone_stats is None else 4


def _hand_from_draws(u: np.ndarray, bone_stats: BoneStats | None) -> np.ndarray:
    """Root-centered keypoints (..., K, 3) with exact bone lengths, before
    rigid placement, from (..., 5, 8 | 4) unit draws (`_hand_draw_shape`). Each unit
    draw maps through `_uniform`, so the doubles are those of one
    rng.uniform call per value."""
    if bone_stats is None:
        lengths = _BONE_TABLE_MM * _uniform(1 - _BONE_JITTER, 1 + _BONE_JITTER, u[..., :4])
    else:
        lengths = bone_stats.mean_length.reshape(len(FINGERS), 4)
    angles = _uniform(_ANGLE_LO_DEG, _ANGLE_HI_DEG, u[..., -4:])
    splay = np.deg2rad(_SPLAY_TABLE_DEG + angles[..., 0])
    base_dir = np.zeros(splay.shape + (3,))  # in the palm plane; cheaper than np.stack
    base_dir[..., 0], base_dir[..., 1] = np.sin(splay), np.cos(splay)
    flex = np.deg2rad(angles)
    flex[..., 0] = 0.0  # the palm->MCP bone lies in the palm plane
    bend = np.cumsum(flex, axis=-1)[..., None]
    direction = np.cos(bend) * base_dir[..., None, :] - np.sin(bend) * _NORMAL
    xyz = np.zeros(u.shape[:-2] + (canonical_skeleton().num_keypoints, 3))
    chains = np.cumsum(lengths[..., None] * direction, axis=-2)  # (..., 5, 4, 3)
    xyz[..., 1:, :] = chains.reshape(xyz[..., 1:, :].shape)
    return xyz


def _articulated_hand(rng: np.random.Generator, bone_stats: BoneStats | None) -> np.ndarray:
    """Root-centered keypoints with exact bone lengths (before rigid placement)."""
    return _hand_from_draws(rng.random(_hand_draw_shape(bone_stats)), bone_stats)


def _placed(local: np.ndarray, rotation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., K, 3) keypoints rotated about the root, and their radius (...)
    around it: the largest np.linalg.norm(placed, axis=-1), in its bits."""
    placed = local @ rotation.mT
    return placed, np.sqrt((placed * placed).sum(axis=-1).max(axis=-1))


def _image_limits(cfg: SynthConfig) -> tuple[float, float]:
    """Largest |X/Z| and |Y/Z| that project at least _EDGE_MARGIN_PX inside the grid."""
    cam = cfg.camera
    width, height = cfg.grid
    return (min(cam.cx - _EDGE_MARGIN_PX, width - 1 - _EDGE_MARGIN_PX - cam.cx) / cam.fx,
            min(cam.cy - _EDGE_MARGIN_PX, height - 1 - _EDGE_MARGIN_PX - cam.cy) / cam.fy)


def _solvable(a, disc):
    """The pair's quadratic has two distinct real roots, for scalars or arrays."""
    return (a > 1e-10) & (disc > 0)


def _decodable(a, b, disc, z_big, z_true_root):
    """For a `_solvable` quadratic, whether its larger root z_big is the
    true root depth and the smaller one lies clearly apart from it; for
    scalars or arrays."""
    z_small = (-b - np.sqrt(disc)) / a
    return ((abs(z_big - z_true_root) <= 1e-6 * np.maximum(1.0, abs(z_true_root)))
            & ((z_big - z_small) >= _ROOT_GAP_FRACTION * z_true_root))


def _well_posed_pair(pose: Pose3D) -> bool:
    """True when the larger quadratic root is the true root depth by a
    clear margin, i.e. the sample sits inside the uniquely decodable
    regime."""
    norm_cfg = _NORMALIZATION
    n, m = norm_cfg.pair
    scale = norm_cfg.c / normalization_scale(pose, norm_cfg)
    zr = _relative_depths(pose.xyz[:, 2], scale)
    rays = pose.xyz[:, :2] / pose.xyz[:, 2:3]
    q = quadratic_coefficients(
        (rays[n, 0], rays[n, 1]), (rays[m, 0], rays[m, 1]), zr[n], zr[m], norm_cfg.c
    )
    disc = _root(q.a, q.b, q.c)[1]
    return bool(_solvable(q.a, disc) and _decodable(
        q.a, q.b, disc, solve_zroot(q), scale * pose.xyz[ROOT_INDEX, 2]))


def _record(cfg: SynthConfig, index: int, xyz: np.ndarray, px: np.ndarray,
            zr: np.ndarray) -> PoseRecord:
    """The serializable record of sample `index`, from its views."""
    return PoseRecord(
        valid=np.ones(len(xyz), dtype=bool),
        px=px,
        xyz_mm=xyz,
        zr_norm=zr,
        side="right",
        camera=cfg.camera,
        meta={"dataset": "synthetic", "frame": int(index), "seed": cfg.seed},
    )


def gen_pose(cfg: SynthConfig, index: int) -> tuple[Pose3D, Pose25D, PoseRecord]:
    """Deterministic synthetic sample: metric pose, its 2.5D view, and the
    serializable record."""
    if not (_is_int(index) and index >= 0):
        raise ConfigError(f"index must be an integer >= 0, got {index!r}")
    rng = np.random.default_rng([cfg.seed, index])
    zmin, zmax = _DEPTH_RANGE_MM
    u_lim_x, u_lim_y = _image_limits(cfg)
    if u_lim_x <= 0 or u_lim_y <= 0:
        raise ConfigError("grid too small for the camera principal point")

    for _ in range(_MAX_REDRAWS):
        local = _articulated_hand(rng, cfg.bone_stats)
        placed, radius = _placed(local, _rotation_from_quaternion(rng.normal(size=4)))
        radius = float(radius)
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
        p25 = to_25d(pose, cfg.camera, _NORMALIZATION)
        record = _record(cfg, index, pose.xyz.copy(), p25.xy.copy(), p25.zr.copy())
        return pose, p25, record
    raise ConfigError(f"no well-posed sample found for (seed={cfg.seed}, index={index})")


def _gen_rows(
    cfg: SynthConfig, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first attempts of gen_pose(cfg, i) for i < count at once: xyz
    (N, K, 3), px (N, K, 2), zr (N, K) and ok (N,). ok[i] holds exactly when
    gen_pose(cfg, i) accepts its first draw, and then the row is its record's
    xyz_mm, px and zr_norm bit for bit; otherwise the row is meaningless
    and gen_pose gives its redraws or its error. Only the draws are per
    index; the arithmetic runs under np.errstate(all="ignore")."""
    u_hand = np.empty((count, *_hand_draw_shape(cfg.bone_stats)))
    quat, u_place = np.empty((count, 4)), np.empty((count, 3))
    for i in range(count):  # gen_pose's first-attempt draws, in its order
        rng = np.random.default_rng([cfg.seed, i])
        rng.random(out=u_hand[i])
        quat[i] = rng.normal(size=4)
        rng.random(out=u_place[i])  # tz, tx and ty
    zmin, zmax = _DEPTH_RANGE_MM
    u_lim_x, u_lim_y = _image_limits(cfg)
    norm_cfg = _NORMALIZATION
    n, m = norm_cfg.pair
    with np.errstate(all="ignore"):
        placed, radius = _placed(_hand_from_draws(u_hand, cfg.bone_stats),
                                 _rotation_from_quaternion(quat))
        z_lo, z_hi = zmin + radius, zmax - radius
        tz = _uniform(z_lo, z_hi, u_place[:, 0])
        mx = (tz - radius) * u_lim_x - radius
        my = (tz - radius) * u_lim_y - radius
        shift = np.stack([_uniform(-mx, mx, u_place[:, 1]), _uniform(-my, my, u_place[:, 2]),
                          tz], axis=-1)
        xyz = placed + shift[:, None, :]
        px, zr, ok = _to_25d_rows(xyz, np.ones(xyz.shape[:-1], dtype=bool), cfg.camera, norm_cfg)
        scale = norm_cfg.c / _pair_length(xyz, norm_cfg.pair)
        rays = xyz[..., :2] / xyz[..., 2:3]
        a, b, cc = _coefficients(rays[:, n, 0], rays[:, n, 1], rays[:, m, 0], rays[:, m, 1],
                                 zr[:, n], zr[:, m], norm_cfg.c)
        z_big, disc = _root(a, b, cc)
        ok &= (np.isfinite(a) & np.isfinite(b) & np.isfinite(cc) & _solvable(a, disc)
               & _decodable(a, b, disc, z_big, scale * xyz[:, ROOT_INDEX, 2]))
    ok &= (z_lo < z_hi) & (mx > 0) & (my > 0)
    return xyz, px, zr, ok


def synth_bone_stats(cfg: SynthConfig) -> BoneStats:
    """Bone statistics matching the generator defaults (exact when the
    config pins bone_stats, the template means otherwise)."""
    if cfg.bone_stats is not None:
        return cfg.bone_stats
    return BoneStats(mean_length=_BONE_TABLE_MM.flatten())
