"""Hand kinematic model: the 21-keypoint tree, bone statistics, and the
fingertip annotation fix.

Keypoint ordering is fixed: 0 is the palm (root), then each finger
thumb/index/middle/ring/pinky contributes MCP, PIP, DIP, TIP in order.
Bone ids are dense: bone id = child index - 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import BadFactorError, EmptyInputError, NonFiniteError, ShapeMismatchError
from .types import Pose3D, _as_array

ROOT_INDEX = 0
FINGERS = ("thumb", "index", "middle", "ring", "pinky")
FINGER_JOINTS = ("mcp", "pip", "dip", "tip")
FINGERTIP_INDICES = (4, 8, 12, 16, 20)


@dataclass(frozen=True)
class Skeleton:
    """Kinematic tree over the hand keypoints.

    parent[k] is the parent joint of k; the root is self-parented, and every
    other parent precedes its child, so the tree has one root and no cycle.
    bones lists the (child, parent) edges in child order: bone id = child - 1.
    """

    names: tuple[str, ...]
    parent: tuple[int, ...]

    def __post_init__(self):
        parent = self.parent
        if len(parent) != len(self.names):
            raise ShapeMismatchError("parent must have one entry per name")
        if not (parent and parent[0] == ROOT_INDEX
                and all(0 <= p < k for k, p in enumerate(parent) if k)):
            raise ShapeMismatchError(
                f"expected parent[0] == {ROOT_INDEX} and 0 <= parent[k] < k for k >= 1")

    @property
    def num_keypoints(self) -> int:
        return len(self.names)

    @cached_property
    def bones(self) -> tuple[tuple[int, int], ...]:
        return tuple((c, self.parent[c]) for c in range(1, self.num_keypoints))

    @cached_property
    def bone_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (children, parents) keypoint index arrays, indexed by bone id."""
        ends = np.array(self.bones, dtype=np.intp).reshape(-1, 2).T.copy()
        ends.setflags(write=False)
        return ends[0], ends[1]


@dataclass(frozen=True)
class BoneStats:
    """Mean bone lengths in mm, indexed by bone id."""

    mean_length: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.mean_length, np.float64, "mean_length")
        object.__setattr__(self, "mean_length", arr)
        if arr.ndim != 1:
            raise ShapeMismatchError("mean_length must be a flat array indexed by bone id")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise NonFiniteError("bone length means must be finite and positive")


@lru_cache(maxsize=1)
def canonical_skeleton() -> Skeleton:
    """The fixed 21-keypoint hand tree (palm root, five 4-joint fingers)."""
    names = ["palm"]
    parent = [ROOT_INDEX]
    for f, finger in enumerate(FINGERS):
        base = 1 + 4 * f
        for j, joint in enumerate(FINGER_JOINTS):
            names.append(f"{finger}_{joint}")
            parent.append(ROOT_INDEX if j == 0 else base + j - 1)
    return Skeleton(names=tuple(names), parent=tuple(parent))


def bone_lengths(pose: Pose3D, skel: Skeleton) -> np.ndarray:
    """Euclidean length of every bone, indexed by bone id: the formula of
    np.linalg.norm(v, axis=1) for a real v, in its bits, without its wrapper."""
    if pose.num_keypoints != skel.num_keypoints:
        raise ShapeMismatchError("pose and skeleton keypoint counts differ")
    if not np.isfinite(pose.xyz).all():
        raise NonFiniteError("pose contains NaN or inf coordinates")
    children, parents = skel.bone_ends
    v = pose.xyz[children] - pose.xyz[parents]
    return np.sqrt(np.add.reduce(v * v, axis=1))


def mean_bone_stats(poses: Iterable[Pose3D] | Sequence[Pose3D], skel: Skeleton) -> BoneStats:
    """Arithmetic mean of bone lengths over a pose corpus."""
    lengths = [bone_lengths(p, skel) for p in poses]
    if not lengths:
        raise EmptyInputError("need at least one pose to compute bone statistics")
    return BoneStats(mean_length=np.mean(lengths, axis=0))


def shorten_fingertips(pose: Pose3D, factor: float, skel: Skeleton) -> Pose3D:
    """Move each fingertip toward its parent so the last bone length scales
    by `factor`. Used to reconcile tip-center vs nail-edge annotation
    conventions; factor 1.0 is the identity. A tip stays where it is when
    it or its parent is invalid.
    """
    if not 0.0 < factor <= 1.0:
        raise BadFactorError(f"shortening factor must be in (0, 1], got {factor}")
    if pose.num_keypoints != skel.num_keypoints:
        raise ShapeMismatchError("pose and skeleton keypoint counts differ")
    xyz = pose.xyz.copy()
    if factor == 1.0:
        return Pose3D(xyz=xyz, valid=pose.valid.copy())
    for tip in FINGERTIP_INDICES:
        par = skel.parent[tip]
        if pose.valid[tip] and pose.valid[par]:
            xyz[tip] = xyz[par] + factor * (xyz[tip] - xyz[par])
    return Pose3D(xyz=xyz, valid=pose.valid.copy())
