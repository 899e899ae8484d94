"""2.5D heatmap codecs.

Two flavors share the K likelihood maps + K depth maps layout:

* direct: likelihood maps are Gaussian targets peaking at the keypoint,
  depth maps are zr times the likelihood; decoding is argmax plus a
  lookup.
* latent: maps are unnormalized; decoding applies a per-keypoint spatial
  softmax (spread beta_k), then softargmax for (x, y) and an expectation
  over the depth map for zr. Every step is differentiable and the exact
  vector-Jacobian products are provided alongside.

Grid coordinates are the integer pixel lattice x in [0, W), y in [0, H)
at the map's own resolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    ConfigError,
    NonFiniteError,
    NotNormalizedError,
    OutOfGridError,
    ShapeMismatchError,
)
from .types import Pose25D

DEFAULT_SIGMA = 5.0
SUM_TOLERANCE = 1e-4


@dataclass(frozen=True)
class HeatmapGrid:
    """Pixel lattice of a heatmap."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise ConfigError("grid must be at least 2x2")


def _pixel_axes(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel x as a (W,) row and y as an (H, 1) column; together they
    broadcast to the (H, W) lattice."""
    return np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)[:, None]


@dataclass(frozen=True)
class HeatmapStack:
    """K likelihood maps plus K depth maps on a common grid."""

    kind: Literal["direct", "latent"]
    likelihood: np.ndarray
    depth: np.ndarray

    def __post_init__(self):
        like = np.asarray(self.likelihood, dtype=np.float64)
        depth = np.asarray(self.depth, dtype=np.float64)
        if like.ndim != 3 or like.shape != depth.shape:
            raise ShapeMismatchError(
                f"likelihood {like.shape} and depth {depth.shape} must both be (K, H, W)"
            )
        if self.kind not in ("direct", "latent"):
            raise ConfigError(f"unknown heatmap kind {self.kind!r}")
        if not (np.isfinite(like).all() and np.isfinite(depth).all()):
            raise NonFiniteError("heatmaps must be finite")
        if self.kind == "direct" and (like.min() < 0.0 or like.max() > 1.0):
            raise ConfigError("direct likelihood values must lie in [0, 1]")
        object.__setattr__(self, "likelihood", like)
        object.__setattr__(self, "depth", depth)

    @property
    def num_keypoints(self) -> int:
        return self.likelihood.shape[0]


@dataclass(frozen=True)
class SpreadParams:
    """Per-keypoint softmax sharpness beta_k > 0."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.ndim != 1:
            raise ShapeMismatchError("beta must be a flat per-keypoint array")
        if not np.isfinite(beta).all() or (beta <= 0).any():
            raise ConfigError("every beta must be positive and finite")
        object.__setattr__(self, "beta", beta)

    @classmethod
    def ones(cls, k: int) -> "SpreadParams":
        return cls(beta=np.ones(k))


def encode_direct(
    p25: Pose25D,
    grid: HeatmapGrid,
    sigma: float = DEFAULT_SIGMA,
    exponent: Literal["l2sq", "l1"] = "l2sq",
    out_of_grid: Literal["error", "clamp"] = "error",
) -> HeatmapStack:
    """Gaussian target maps: exp(-|p - p_gt|^2 / sigma^2), peak value 1 at
    the keypoint; depth maps are zr_k times the likelihood map.

    exponent="l1" swaps in the unsquared distance for fidelity
    experiments with sharper, non-Gaussian targets. Invalid keypoints get
    all-zero maps.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"sigma must be finite and positive, got {sigma}")
    if exponent not in ("l2sq", "l1"):
        raise ConfigError(f"unknown exponent {exponent!r}")
    xs, ys = _pixel_axes(grid.height, grid.width)
    k = p25.num_keypoints
    like = np.zeros((k, grid.height, grid.width))
    depth = np.zeros_like(like)
    for i in range(k):
        if not p25.valid[i]:
            continue
        x, y = p25.xy[i]
        inside = 0.0 <= x <= grid.width - 1 and 0.0 <= y <= grid.height - 1
        if not inside:
            if out_of_grid == "error":
                raise OutOfGridError(f"keypoint {i} at ({x:g}, {y:g}) is outside the grid")
            x = min(max(x, 0.0), grid.width - 1.0)
            y = min(max(y, 0.0), grid.height - 1.0)
        d2 = (xs - x) ** 2 + (ys - y) ** 2
        arg = d2 if exponent == "l2sq" else np.sqrt(d2)
        like[i] = np.exp(-arg / (sigma * sigma))
        depth[i] = p25.zr[i] * like[i]
    return HeatmapStack(kind="direct", likelihood=like, depth=depth)


def decode_direct(stack: HeatmapStack) -> Pose25D:
    """Argmax decode: keypoint at the maximum-likelihood pixel (ties break
    to the lowest row-major index), zr read from the depth map there."""
    if stack.kind != "direct":
        raise ConfigError("decode_direct expects a direct-kind stack")
    k, h, w = stack.likelihood.shape
    flat = stack.likelihood.reshape(k, h * w)
    idx = np.argmax(flat, axis=1)
    ys, xs = np.divmod(idx, w)
    xy = np.stack([xs, ys], axis=1).astype(np.float64)
    zr = stack.depth.reshape(k, h * w)[np.arange(k), idx]
    return Pose25D(xy=xy, zr=zr)


def spatial_softmax(latent: np.ndarray, spread: SpreadParams) -> np.ndarray:
    """Per-keypoint softmax over all pixels: exp(beta_k * map) normalized
    to sum 1. Computed with max subtraction, which changes nothing
    mathematically (softmax is shift invariant) but avoids overflow."""
    maps = np.asarray(latent, dtype=np.float64)
    if maps.ndim != 3:
        raise ShapeMismatchError("latent maps must be (K, H, W)")
    if maps.shape[0] != spread.beta.shape[0]:
        raise ShapeMismatchError("one beta per keypoint required")
    s = spread.beta[:, None, None] * maps
    s = s - s.max(axis=(1, 2), keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=(1, 2), keepdims=True)


def _check_prob(prob: np.ndarray) -> np.ndarray:
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2:
        raise ShapeMismatchError("probability map must be (H, W)")
    if prob.min() < 0:
        raise NotNormalizedError("probability map has negative entries")
    total = prob.sum()
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalizedError(f"probability map sums to {total:.6g}, not 1")
    return prob


def _expected_xy(prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected pixel (x, y) under each (..., H, W) probability map."""
    xs, ys = _pixel_axes(*prob.shape[-2:])
    return prob.sum(axis=-2) @ xs, prob.sum(axis=-1) @ ys[:, 0]


def softargmax(prob: np.ndarray, validate: bool = True) -> tuple[float, float]:
    """Probability-weighted mean pixel coordinate (x, y); lies inside the
    convex hull of the lattice, so sub-pixel positions come for free."""
    prob = _check_prob(prob) if validate else np.asarray(prob, dtype=np.float64)
    x, y = _expected_xy(prob)
    return float(x), float(y)


def depth_readout(prob: np.ndarray, latent_depth: np.ndarray, validate: bool = True) -> float:
    """Expected depth under the likelihood map: sum of the elementwise
    product."""
    prob = _check_prob(prob) if validate else np.asarray(prob, dtype=np.float64)
    latent_depth = np.asarray(latent_depth, dtype=np.float64)
    if latent_depth.shape != prob.shape:
        raise ShapeMismatchError("depth map shape must match the probability map")
    return float((prob * latent_depth).sum())


def decode_latent(stack: HeatmapStack, spread: SpreadParams) -> Pose25D:
    """softmax -> (softargmax, depth readout) per keypoint."""
    if stack.kind != "latent":
        raise ConfigError("decode_latent expects a latent-kind stack")
    prob = spatial_softmax(stack.likelihood, spread)
    x, y = _expected_xy(prob)
    zr = (prob * stack.depth).sum(axis=(1, 2))
    return Pose25D(xy=np.stack([x, y], axis=1), zr=zr)


# ---------------------------------------------------------------------------
# Analytic vector-Jacobian products. Derivations hinge on the softmax
# identity d(softmax)/ds = h * (delta - h), which for any downstream
# weighting w(p) collapses to h(p) * (w(p) - E_h[w]).
# ---------------------------------------------------------------------------


def _vjp_softmax(
    prob: np.ndarray, latent: np.ndarray, spread: SpreadParams, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of (latent maps, beta) given prob = spatial_softmax(latent,
    spread) and the cotangent `weight` of prob: ds = prob * (weight - E_prob[weight])."""
    ds = prob * (weight - (prob * weight).sum(axis=(1, 2), keepdims=True))
    return spread.beta[:, None, None] * ds, (ds * latent).sum(axis=(1, 2))


def vjp_softargmax(prob: np.ndarray, upstream_xy: tuple[float, float]) -> np.ndarray:
    """Cotangent of the probability map. softargmax is linear in the map,
    so this is just gx * x(p) + gy * y(p)."""
    xs, ys = _pixel_axes(*np.shape(prob))
    gx, gy = upstream_xy
    return gx * xs + gy * ys


def vjp_depth_readout(
    prob: np.ndarray, latent_depth: np.ndarray, upstream_z: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of (probability map, latent depth map)."""
    prob = np.asarray(prob, dtype=np.float64)
    latent_depth = np.asarray(latent_depth, dtype=np.float64)
    if latent_depth.shape != prob.shape:
        raise ShapeMismatchError("depth map shape must match the probability map")
    return upstream_z * latent_depth, upstream_z * prob


def vjp_spatial_softmax(
    latent: np.ndarray, spread: SpreadParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of (latent maps, beta) given cotangents of the
    probability maps."""
    latent = np.asarray(latent, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != latent.shape:
        raise ShapeMismatchError("upstream cotangent must match the latent maps")
    return _vjp_softmax(spatial_softmax(latent, spread), latent, spread, upstream)


def vjp_decode_latent(
    stack: HeatmapStack, spread: SpreadParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact VJP of decode_latent.

    upstream holds per-keypoint cotangents of (x, y, zr) as a (K, 3)
    array; returns cotangents of (latent likelihood, latent depth, beta).
    """
    if stack.kind != "latent":
        raise ConfigError("vjp_decode_latent expects a latent-kind stack")
    upstream = np.asarray(upstream, dtype=np.float64)
    k, h, w = stack.likelihood.shape
    if upstream.shape != (k, 3):
        raise ShapeMismatchError(f"upstream must be ({k}, 3), got {upstream.shape}")
    prob = spatial_softmax(stack.likelihood, spread)
    xs, ys = _pixel_axes(h, w)
    gx, gy, gz = upstream.T[:, :, None, None]
    # w(p): how much moving probability mass onto pixel p changes the output
    weight = gx * xs + gy * ys + gz * stack.depth
    cot_likelihood, cot_beta = _vjp_softmax(prob, stack.likelihood, spread, weight)
    return cot_likelihood, gz * prob, cot_beta
