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
        if like.size == 0:
            raise ShapeMismatchError(f"heatmap stack {like.shape} has a zero-length axis")
        if self.kind not in ("direct", "latent"):
            raise ConfigError(f"unknown heatmap kind {self.kind!r}")
        # min and max propagate NaN and reach +-inf, so finite extremes mean
        # finite arrays, without a full-size boolean temporary
        lo, hi = like.min(), like.max()
        if not np.isfinite([lo, hi, depth.min(), depth.max()]).all():
            raise NonFiniteError("heatmaps must be finite")
        if self.kind == "direct" and (lo < 0.0 or hi > 1.0):
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
    experiments with sharper, non-Gaussian targets. Exactly the invalid
    keypoints get all-zero maps; a valid one whose map underflows to 0,
    in float64 or in float32 as H25D stores it, raises.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"sigma must be finite and positive, got {sigma}")
    if exponent not in ("l2sq", "l1"):
        raise ConfigError(f"unknown exponent {exponent!r}")
    xs, ys = _pixel_axes(grid.height, grid.width)
    k = p25.num_keypoints
    # every map is written below, so the outputs skip calloc's zeroing
    like = np.empty((k, grid.height, grid.width))
    depth = np.empty_like(like)
    for i in range(k):
        if not p25.valid[i]:
            like[i] = depth[i] = 0.0
            continue
        x, y = p25.xy[i]
        inside = 0.0 <= x <= grid.width - 1 and 0.0 <= y <= grid.height - 1
        if not inside:
            if out_of_grid == "error":
                raise OutOfGridError(f"keypoint {i} at ({x:g}, {y:g}) is outside the grid")
            x = min(max(x, 0.0), grid.width - 1.0)
            y = min(max(y, 0.0), grid.height - 1.0)
        # exp(-arg / sigma^2), computed in like[i] itself in the order of
        # the formula, so no map-sized temporary is made
        m = like[i]
        np.add((xs - x) ** 2, (ys - y) ** 2, out=m)
        if exponent == "l1":
            np.sqrt(m, out=m)
        # -a / b and a / -b round to the same double
        m /= -(sigma * sigma)
        np.exp(m, out=m)
        # the map peaks at the nearest pixel; H25D stores it as float32
        if np.float32(m[round(y), round(x)]) == 0.0:
            raise ConfigError(f"sigma {sigma:g} is too small: keypoint {i}'s map underflows to 0")
        np.multiply(p25.zr[i], m, out=depth[i])
    return HeatmapStack(kind="direct", likelihood=like, depth=depth)


def decode_direct(stack: HeatmapStack) -> Pose25D:
    """Argmax decode: keypoint at the maximum-likelihood pixel (ties break
    to the lowest row-major index), zr the depth over the likelihood there,
    which undoes encode_direct's depth = zr * likelihood exactly; a keypoint
    whose map is all zero (invalid in encode_direct) is invalid, with zr 0."""
    if stack.kind != "direct":
        raise ConfigError("decode_direct expects a direct-kind stack")
    k, h, w = stack.likelihood.shape
    flat = stack.likelihood.reshape(k, h * w)
    idx = np.argmax(flat, axis=1)
    ys, xs = np.divmod(idx, w)
    xy = np.stack([xs, ys], axis=1).astype(np.float64)
    peak = flat[np.arange(k), idx]
    depth = stack.depth.reshape(k, h * w)[np.arange(k), idx]
    zr = np.divide(depth, peak, out=np.zeros(k), where=peak > 0)
    return Pose25D(xy=xy, zr=zr, valid=peak > 0)


def spatial_softmax(latent: np.ndarray, spread: SpreadParams) -> np.ndarray:
    """Per-keypoint softmax over all pixels: exp(beta_k * map) normalized
    to sum 1. Computed with max subtraction, which changes nothing
    mathematically (softmax is shift invariant) but avoids overflow."""
    maps = np.asarray(latent, dtype=np.float64)
    if maps.ndim != 3:
        raise ShapeMismatchError("latent maps must be (K, H, W)")
    if 0 in maps.shape[1:]:
        raise ShapeMismatchError(f"latent maps {maps.shape} have a zero-length spatial axis")
    if maps.shape[0] != spread.beta.shape[0]:
        raise ShapeMismatchError("one beta per keypoint required")
    return _softmax(maps, spread.beta)


def _softmax(maps: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Spatial softmax of (..., K, H, W) maps with (..., K) spreads; the
    leading dims broadcast. Each map is reduced on its own, so a batched
    call gives the same bits as one call per map stack. Every step after
    the first runs in the one output array."""
    s = beta[..., None, None] * maps
    s -= s.max(axis=(-2, -1), keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=(-2, -1), keepdims=True)
    return s


def _check_prob(prob: np.ndarray) -> np.ndarray:
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2:
        raise ShapeMismatchError("probability map must be (H, W)")
    if prob.size == 0:
        raise ShapeMismatchError(f"probability map {prob.shape} has a zero-length axis")
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


def softargmax(prob: np.ndarray) -> tuple[float, float]:
    """Probability-weighted mean pixel coordinate (x, y); lies inside the
    convex hull of the lattice, so sub-pixel positions come for free."""
    prob = _check_prob(prob)
    x, y = _expected_xy(prob)
    return float(x), float(y)


def depth_readout(prob: np.ndarray, latent_depth: np.ndarray) -> float:
    """Expected depth under the likelihood map: sum of the elementwise
    product."""
    prob = _check_prob(prob)
    latent_depth = np.asarray(latent_depth, dtype=np.float64)
    if latent_depth.shape != prob.shape:
        raise ShapeMismatchError("depth map shape must match the probability map")
    return float((prob * latent_depth).sum())


def decode_latent(stack: HeatmapStack, spread: SpreadParams) -> Pose25D:
    """softmax -> (softargmax, depth readout) per keypoint."""
    if stack.kind != "latent":
        raise ConfigError("decode_latent expects a latent-kind stack")
    prob = spatial_softmax(stack.likelihood, spread)
    x, y, zr = _decode(prob, stack.depth, out=prob)
    return Pose25D(xy=np.stack([x, y], axis=1), zr=zr)


def _decode(
    prob: np.ndarray, depth: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected x, y and depth under (..., K, H, W) probability maps: x
    and y take prob's leading dims, the depth those of prob and depth
    broadcast together. The product prob * depth goes into `out`, which
    decode_latent sets to its own prob; gradcheck's batched forward leaves
    it None, since there depth may carry leading dims that prob lacks."""
    x, y = _expected_xy(prob)
    return x, y, np.multiply(prob, depth, out=out).sum(axis=(-2, -1))


# ---------------------------------------------------------------------------
# Analytic vector-Jacobian products. Derivations hinge on the softmax
# identity d(softmax)/ds = h * (delta - h), which for any downstream
# weighting w(p) collapses to h(p) * (w(p) - E_h[w]).
# ---------------------------------------------------------------------------


def _vjp_softmax(
    prob: np.ndarray,
    latent: np.ndarray,
    spread: SpreadParams,
    weight: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of (latent maps, beta) given prob = spatial_softmax(latent,
    spread) and the cotangent `weight` of prob: ds = prob * (weight - E_prob[weight]).

    The latent cotangent is built in `out` and the products go through the
    full-size scratch `tmp`; either is allocated when None. A caller that
    owns `weight` may pass it as `out`; no other argument is written to."""
    tmp = np.multiply(prob, weight, out=tmp)
    ds = np.subtract(weight, tmp.sum(axis=(1, 2), keepdims=True), out=out)
    ds *= prob
    cot_beta = np.multiply(ds, latent, out=tmp).sum(axis=(1, 2))
    ds *= spread.beta[:, None, None]
    return ds, cot_beta


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
    # w(p) = gx x + gy y + gz depth(p): how much moving probability mass
    # onto pixel p changes the output; it becomes the latent cotangent.
    # The gz * depth temporary is reused as the VJP's scratch: freeing it
    # and allocating another cost ~2 ms more per 21x128x128 stack.
    tmp = np.multiply(gz, stack.depth)
    weight = np.add(gx * xs, gy * ys)
    weight += tmp
    cot_likelihood, cot_beta = _vjp_softmax(
        prob, stack.likelihood, spread, weight, out=weight, tmp=tmp
    )
    return cot_likelihood, np.multiply(prob, gz, out=prob), cot_beta
