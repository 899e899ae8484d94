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

from .errors import ConfigError, ShapeMismatchError


def _as_array(value, dtype, what: str) -> np.ndarray:
    """np.asarray(value, dtype), raising ShapeMismatchError that names
    `what` where numpy raises ValueError, TypeError or OverflowError (a
    ragged nesting, a string that is not a number, an int beyond float64)."""
    try:
        return np.asarray(value, dtype=dtype)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ShapeMismatchError(f"{what} cannot be read as a {np.dtype(dtype)} array: {exc}") from exc


def _as_bools(value, what: str) -> np.ndarray:
    """value as a bool array. A bool array is taken as it is; anything else
    must read as integers that are all 0 or 1 (or as nothing: [] reads as
    float64), or ShapeMismatchError names `what`, where a bool cast would
    count any truthy value (2, 0.5, "no") as True."""
    if type(value) is np.ndarray and value.dtype == bool:  # not a subclass, as np.asarray
        return value
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ShapeMismatchError(f"{what} cannot be read as a bool array: {exc}") from exc
    if arr.dtype != bool:
        if arr.size and (arr.dtype.kind not in "iu" or (arr.astype(bool) != arr).any()):
            raise ShapeMismatchError(f"{what} must hold booleans or the integers 0 and 1")
        arr = arr.astype(bool)
    return arr


def _finite_real(x) -> bool:
    """x is one real number and finite. A bool (Python, numpy or 0-d
    array), a str, None, a complex number or an array that is not 0-d is
    not one: False, where math.isfinite takes a bool and np.isfinite raises
    TypeError or gives an array. math.isfinite takes 0.1 µs, np.isfinite ~1."""
    if not isinstance(x, float) and (isinstance(x, bool) or getattr(x, "dtype", None) == bool):
        return False  # a float (float64 included) is the usual case and skips the bool tests
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def _positive_finite(x) -> bool:
    """x is one `_finite_real` number > 0."""
    return _finite_real(x) and x > 0


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


def _shaped(value, dtype, what: str, shape: tuple) -> np.ndarray:
    """`_as_array` (`_as_bools` for bool), raising ShapeMismatchError unless
    the array has `shape`."""
    arr = _as_bools(value, what) if dtype is bool else _as_array(value, dtype, what)
    if arr.shape != shape:
        raise ShapeMismatchError(f"{what} shape {arr.shape} != {shape}")
    return arr


def _as_mask(valid, k: int) -> np.ndarray:
    return np.ones(k, dtype=bool) if valid is None else _shaped(valid, bool, "validity mask", (k,))


class _Keypoints:
    """Base of the containers of K keypoints, whose `valid` mask is (K,)."""

    @property
    def num_keypoints(self) -> int:
        return self.valid.shape[0]


@dataclass(frozen=True)
class Pose3D(_Keypoints):
    """Keypoints (X, Y, Z) in the camera frame, millimeters (or normalized units)."""

    xyz: np.ndarray
    valid: np.ndarray | None = field(default=None)

    def __post_init__(self):
        xyz = _as_points(self.xyz, 3, "xyz")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "valid", _as_mask(self.valid, xyz.shape[0]))


@dataclass(frozen=True)
class Pose2D(_Keypoints):
    """Keypoints (x, y) in image pixels."""

    xy: np.ndarray
    valid: np.ndarray | None = field(default=None)

    def __post_init__(self):
        xy = _as_points(self.xy, 2, "xy")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "valid", _as_mask(self.valid, xy.shape[0]))


@dataclass(frozen=True)
class Pose25D(_Keypoints):
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
        k = xy.shape[0]
        zr = _shaped(self.zr, np.float64, "zr", (k,))
        if type(self.root) is not int:  # a plain int skips the ~0.2 µs ABC test and re-store
            if not _is_int(self.root):
                raise ConfigError(f"root must be an integer, got {self.root!r}")
            object.__setattr__(self, "root", int(self.root))
        if not 0 <= self.root < k:
            raise ShapeMismatchError(f"root index {self.root} out of range")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "zr", zr)
        object.__setattr__(self, "valid", _as_mask(self.valid, k))
