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
from .types import Pose3D

ROOT_INDEX = 0
FINGERS = ("thumb", "index", "middle", "ring", "pinky")
FINGER_JOINTS = ("mcp", "pip", "dip", "tip")
FINGERTIP_INDICES = (4, 8, 12, 16, 20)


@dataclass(frozen=True)
class Skeleton:
    """Kinematic tree over the hand keypoints.

    parent[k] is the parent joint of k; the root is self-parented.
    bones lists the (child, parent) edges in child order: bone id = child - 1.
    """

    num_keypoints: int
    names: tuple[str, ...]
    parent: tuple[int, ...]
    bones: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.names) != self.num_keypoints or len(self.parent) != self.num_keypoints:
            raise ShapeMismatchError("names/parent length must equal num_keypoints")
        roots = [k for k, p in enumerate(self.parent) if p == k]
        if roots != [ROOT_INDEX]:
            raise ShapeMismatchError(f"expected exactly keypoint {ROOT_INDEX} self-parented, got {roots}")
        if self.bones != tuple((c, self.parent[c]) for c in range(1, self.num_keypoints)):
            raise ShapeMismatchError("bones must list (k, parent[k]) in order k = 1..K-1")
        # every node must reach the root by following parents (no cycles)
        for k in range(self.num_keypoints):
            seen = set()
            node = k
            while node != ROOT_INDEX:
                if node in seen:
                    raise ShapeMismatchError(f"parent map has a cycle through keypoint {k}")
                seen.add(node)
                node = self.parent[node]

    @cached_property
    def bone_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (children, parents) keypoint index arrays, indexed by bone id."""
        ends = np.array(self.bones, dtype=np.intp).reshape(-1, 2).T.copy()
        ends.setflags(write=False)
        return ends[0], ends[1]

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def bone_id(self, child: int) -> int:
        if not 1 <= child < self.num_keypoints:
            raise KeyError(f"keypoint {child} is not the child of any bone")
        return child - 1

    def is_edge(self, child: int, parent: int) -> bool:
        return 0 <= child < self.num_keypoints and self.parent[child] == parent and child != parent


@dataclass(frozen=True)
class BoneStats:
    """Mean bone lengths in mm, indexed by bone id."""

    mean_length: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mean_length, dtype=np.float64)
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
    bones = tuple((child, parent[child]) for child in range(1, len(names)))
    return Skeleton(
        num_keypoints=len(names),
        names=tuple(names),
        parent=tuple(parent),
        bones=bones,
    )


def bone_lengths(pose: Pose3D, skel: Skeleton) -> np.ndarray:
    """Euclidean length of every bone, indexed by bone id."""
    if pose.num_keypoints != skel.num_keypoints:
        raise ShapeMismatchError("pose and skeleton keypoint counts differ")
    if not np.isfinite(pose.xyz).all():
        raise NonFiniteError("pose contains NaN or inf coordinates")
    children, parents = skel.bone_ends
    return np.linalg.norm(pose.xyz[children] - pose.xyz[parents], axis=1)


def mean_bone_stats(poses: Iterable[Pose3D] | Sequence[Pose3D], skel: Skeleton) -> BoneStats:
    """Arithmetic mean of bone lengths over a pose corpus."""
    lengths = [bone_lengths(p, skel) for p in poses]
    if not lengths:
        raise EmptyInputError("need at least one pose to compute bone statistics")
    return BoneStats(mean_length=np.mean(lengths, axis=0))


def shorten_fingertips(pose: Pose3D, factor: float, skel: Skeleton) -> Pose3D:
    """Move each fingertip toward its parent so the last bone length scales
    by `factor`. Used to reconcile tip-center vs nail-edge annotation
    conventions; factor 1.0 is the identity.
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
        xyz[tip] = xyz[par] + factor * (xyz[tip] - xyz[par])
    return Pose3D(xyz=xyz, valid=pose.valid.copy())
