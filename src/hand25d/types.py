"""Pose containers shared across the library.

All containers are frozen dataclasses wrapping float64 arrays; treat the
arrays as read-only. Validity masks default to all-valid. The canonical
hand has 21 keypoints, but the containers accept any count so that small
synthetic fixtures stay cheap.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError


def _as_array(value, dtype, what: str) -> np.ndarray:
    """np.asarray(value, dtype), raising ShapeMismatchError that names
    `what` where numpy raises ValueError, TypeError or OverflowError (a
    ragged nesting, a string that is not a number, an int beyond float64)."""
    try:
        return np.asarray(value, dtype=dtype)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ShapeMismatchError(f"{what} cannot be read as a {np.dtype(dtype)} array: {exc}") from exc


def _positive_finite(x) -> bool:
    """x is one real number, finite and > 0. A str, None, a complex number or
    an array that is not 0-d is not one: False, where np.isfinite raises
    TypeError or gives an array. math.isfinite takes 0.1 µs, np.isfinite ~1."""
    try:
        return math.isfinite(x) and x > 0
    except (TypeError, OverflowError):
        return False


def _is_int(x) -> bool:
    """x is a Python or numpy integer; a bool is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _int_pair(x) -> bool:
    """x holds two items, each an `_is_int` integer."""
    try:
        return len(x) == 2 and all(map(_is_int, x))
    except TypeError:  # no len()
        return False


def _as_points(a, dim: int, what: str) -> np.ndarray:
    arr = _as_array(a, np.float64, what)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ShapeMismatchError(f"expected (K, {dim}) array, got {arr.shape}")
    return arr


def _as_mask(valid, k: int) -> np.ndarray:
    if valid is None:
        return np.ones(k, dtype=bool)
    mask = _as_array(valid, bool, "validity mask")
    if mask.shape != (k,):
        raise ShapeMismatchError(f"validity mask shape {mask.shape} != ({k},)")
    return mask


@dataclass(frozen=True)
class Pose3D:
    """Keypoints (X, Y, Z) in the camera frame, millimeters (or normalized units)."""

    xyz: np.ndarray
    valid: np.ndarray | None = field(default=None)

    def __post_init__(self):
        xyz = _as_points(self.xyz, 3, "xyz")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "valid", _as_mask(self.valid, xyz.shape[0]))

    @property
    def num_keypoints(self) -> int:
        return self.xyz.shape[0]


@dataclass(frozen=True)
class Pose2D:
    """Keypoints (x, y) in image pixels."""

    xy: np.ndarray
    valid: np.ndarray | None = field(default=None)

    def __post_init__(self):
        xy = _as_points(self.xy, 2, "xy")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "valid", _as_mask(self.valid, xy.shape[0]))

    @property
    def num_keypoints(self) -> int:
        return self.xy.shape[0]


@dataclass(frozen=True)
class Pose25D:
    """Per-keypoint (x px, y px, zr) where zr is the scale-normalized depth
    relative to the root keypoint. zr at the root is 0 for exact
    representations built from a 3D pose; decoded predictions only
    approximate that.
    """

    xy: np.ndarray
    zr: np.ndarray
    root: int = 0
    valid: np.ndarray | None = field(default=None)

    def __post_init__(self):
        xy = _as_points(self.xy, 2, "xy")
        zr = _as_array(self.zr, np.float64, "zr")
        if zr.shape != (xy.shape[0],):
            raise ShapeMismatchError(f"zr shape {zr.shape} != ({xy.shape[0]},)")
        if not 0 <= self.root < xy.shape[0]:
            raise ShapeMismatchError(f"root index {self.root} out of range")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "zr", zr)
        object.__setattr__(self, "valid", _as_mask(self.valid, xy.shape[0]))

    @property
    def num_keypoints(self) -> int:
        return self.xy.shape[0]
