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

import math
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
from .types import Pose25D, _as_array, _is_int, _positive_finite

DEFAULT_SIGMA = 5.0
SUM_TOLERANCE = 1e-4


@dataclass(frozen=True)
class HeatmapGrid:
    """Pixel lattice of a heatmap."""

    width: int
    height: int

    def __post_init__(self):
        for name, value in (("width", self.width), ("height", self.height)):
            if not _is_int(value):
                raise ConfigError(f"grid {name} must be an integer, got {value!r}")
        if self.width < 2 or self.height < 2:
            raise ConfigError("grid must be at least 2x2")


def _pixel_axes(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel x as a (W,) row and y as an (H, 1) column; together they
    broadcast to the (H, W) lattice."""
    return np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)[:, None]


def _stack_pair(k: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Two unwritten (K, H, W) float64 stacks, the halves of one (2K, H, W)
    block as read_h25d reads them; one half keeps both alive. At 21x128x128
    the block passes numpy's 4 MiB huge-page threshold and takes about half
    the page faults of two separate stacks."""
    block = np.empty((2 * k, h, w))
    return block[:k], block[k:]


@dataclass(frozen=True)
class HeatmapStack:
    """K likelihood maps plus K depth maps on a common grid."""

    kind: Literal["direct", "latent"]
    likelihood: np.ndarray
    depth: np.ndarray

    def __post_init__(self):
        like = _as_array(self.likelihood, np.float64, "likelihood")
        depth = _as_array(self.depth, np.float64, "depth")
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
        beta = _as_array(self.beta, np.float64, "beta")
        if beta.ndim != 1:
            raise ShapeMismatchError("beta must be a flat per-keypoint array")
        if not np.isfinite(beta).all() or (beta <= 0).any():
            raise ConfigError("every beta must be positive and finite")
        object.__setattr__(self, "beta", beta)

    @classmethod
    def ones(cls, k: int) -> "SpreadParams":
        if not (_is_int(k) and k >= 1):
            raise ConfigError(f"k must be an integer >= 1, got {k!r}")
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
    if not _positive_finite(sigma):
        raise ConfigError(f"sigma must be finite and positive, got {sigma}")
    if exponent not in ("l2sq", "l1"):
        raise ConfigError(f"unknown exponent {exponent!r}")
    if out_of_grid not in ("error", "clamp"):
        raise ConfigError(f"unknown out_of_grid {out_of_grid!r}")
    xs, ys = _pixel_axes(grid.height, grid.width)
    k = p25.num_keypoints
    # every map is written below, so the outputs skip calloc's zeroing
    like, depth = _stack_pair(k, grid.height, grid.width)
    for i in range(k):
        if not p25.valid[i]:
            like[i] = depth[i] = 0.0
            continue
        x, y = p25.xy[i]
        # checked before the grid test: "clamp" would move an inf onto the edge
        if not (math.isfinite(x) and math.isfinite(y)):
            kind = "a NaN" if math.isnan(x) or math.isnan(y) else "an infinite"
            raise NonFiniteError(f"keypoint {i} at ({x:g}, {y:g}) has {kind} coordinate")
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
    return _softmax(_check_latent(latent, spread), spread.beta)


def _check_latent(latent: np.ndarray, spread: SpreadParams) -> np.ndarray:
    maps = np.asarray(latent, dtype=np.float64)
    if maps.ndim != 3:
        raise ShapeMismatchError("latent maps must be (K, H, W)")
    if 0 in maps.shape[1:]:
        raise ShapeMismatchError(f"latent maps {maps.shape} have a zero-length spatial axis")
    if maps.shape[0] != spread.beta.shape[0]:
        raise ShapeMismatchError("one beta per keypoint required")
    return maps


def _softmax(maps: np.ndarray, beta, out: np.ndarray | None = None) -> np.ndarray:
    """Spatial softmax of (..., K, H, W) maps with (..., K) spreads, or of
    one (H, W) map with a numpy scalar spread; the leading dims broadcast.
    Each map is reduced on its own, so a batched call gives the same bits as
    one call per map. Every step runs in `out`, allocated when None."""
    s = np.multiply(beta[..., None, None], maps, out=out)
    s -= s.max(axis=(-2, -1), keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=(-2, -1), keepdims=True)
    return s


def _check_map(prob: np.ndarray) -> np.ndarray:
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2:
        raise ShapeMismatchError("probability map must be (H, W)")
    if prob.size == 0:
        raise ShapeMismatchError(f"probability map {prob.shape} has a zero-length axis")
    return prob


def _check_prob(prob: np.ndarray) -> np.ndarray:
    prob = _check_map(prob)
    if prob.min() < 0:
        raise NotNormalizedError("probability map has negative entries")
    total = prob.sum()
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalizedError(f"probability map sums to {total:.6g}, not 1")
    return prob


def _expected_xy(cols: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected pixel (x, y) from the column sums (..., W) and row sums
    (..., H) of probability maps."""
    xs, ys = _pixel_axes(rows.shape[-1], cols.shape[-1])
    return cols @ xs, rows @ ys[:, 0]


def softargmax(prob: np.ndarray) -> tuple[float, float]:
    """Probability-weighted mean pixel coordinate (x, y); lies inside the
    convex hull of the lattice, so sub-pixel positions come for free."""
    prob = _check_prob(prob)
    x, y = _expected_xy(prob.sum(axis=0), prob.sum(axis=1))
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
    """softmax -> (softargmax, depth readout) per keypoint.

    One keypoint's map at a time goes through a single map-sized scratch
    array, which stays in cache for all K maps; the x and y reductions run
    once over the collected (K, W) column and (K, H) row sums, as in
    _decode (a per-map dot would give other bits)."""
    if stack.kind != "latent":
        raise ConfigError("decode_latent expects a latent-kind stack")
    like = _check_latent(stack.likelihood, spread)
    k, h, w = like.shape
    prob = np.empty((h, w))
    cols, rows, zr = np.empty((k, w)), np.empty((k, h)), np.empty(k)
    for i in range(k):
        _softmax(like[i], spread.beta[i], out=prob)
        prob.sum(axis=0, out=cols[i])
        prob.sum(axis=1, out=rows[i])
        zr[i] = np.multiply(prob, stack.depth[i], out=prob).sum()
    x, y = _expected_xy(cols, rows)
    return Pose25D(xy=np.stack([x, y], axis=1), zr=zr)


def _decode(prob: np.ndarray, depth: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected x, y and depth under (..., K, H, W) probability maps: x
    and y take prob's leading dims, the depth those of prob and depth
    broadcast together."""
    x, y = _expected_xy(prob.sum(axis=-2), prob.sum(axis=-1))
    return x, y, (prob * depth).sum(axis=(-2, -1))


# ---------------------------------------------------------------------------
# Analytic vector-Jacobian products. Derivations hinge on the softmax
# identity d(softmax)/ds = h * (delta - h), which for any downstream
# weighting w(p) collapses to h(p) * (w(p) - E_h[w]).
# ---------------------------------------------------------------------------


def _vjp_softmax(
    prob: np.ndarray,
    latent: np.ndarray,
    beta,
    weight: np.ndarray,
    out: np.ndarray,
    tmp: np.ndarray,
) -> np.floating | np.ndarray:
    """Cotangent of beta given prob = _softmax(latent, beta) and the
    cotangent `weight` of prob; the latent cotangent
    ds = beta * prob * (weight - E_prob[weight]) is written to `out`.
    Reduces over the last two axes, and beta broadcasts against them.

    The products go through the scratch `tmp`. A caller that owns
    `weight` may pass it as `out`; no other argument is written to."""
    np.multiply(prob, weight, out=tmp)
    ds = np.subtract(weight, tmp.sum(axis=(-2, -1), keepdims=True), out=out)
    ds *= prob
    cot_beta = np.multiply(ds, latent, out=tmp).sum(axis=(-2, -1))
    ds *= beta
    return cot_beta


def vjp_softargmax(prob: np.ndarray, upstream_xy: tuple[float, float]) -> np.ndarray:
    """Cotangent of the probability map. softargmax is linear in the map,
    so this is just gx * x(p) + gy * y(p)."""
    xs, ys = _pixel_axes(*_check_map(prob).shape)
    gx, gy = upstream_xy
    return gx * xs + gy * ys


def vjp_depth_readout(
    prob: np.ndarray, latent_depth: np.ndarray, upstream_z: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of (probability map, latent depth map)."""
    prob = _check_map(prob)
    latent_depth = np.asarray(latent_depth, dtype=np.float64)
    if latent_depth.shape != prob.shape:
        raise ShapeMismatchError("depth map shape must match the probability map")
    return upstream_z * latent_depth, upstream_z * prob


def vjp_spatial_softmax(
    latent: np.ndarray, spread: SpreadParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of (latent maps, beta) given cotangents of the
    probability maps, one keypoint's map at a time through two map-sized
    scratch arrays."""
    latent = np.asarray(latent, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != latent.shape:
        raise ShapeMismatchError("upstream cotangent must match the latent maps")
    latent = _check_latent(latent, spread)
    k, h, w = latent.shape
    prob, tmp = np.empty((h, w)), np.empty((h, w))
    cot_latent, cot_beta = np.empty((k, h, w)), np.empty(k)
    for i in range(k):
        beta = spread.beta[i]
        _softmax(latent[i], beta, out=prob)
        cot_beta[i] = _vjp_softmax(prob, latent[i], beta, upstream[i], cot_latent[i], tmp)
    return cot_latent, cot_beta


def vjp_decode_latent(
    stack: HeatmapStack, spread: SpreadParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact VJP of decode_latent.

    upstream holds per-keypoint cotangents of (x, y, zr) as a (K, 3)
    array; returns cotangents of (latent likelihood, latent depth, beta).
    Only these outputs are stack-sized: each keypoint's map goes through
    two map-sized scratch arrays.
    """
    if stack.kind != "latent":
        raise ConfigError("vjp_decode_latent expects a latent-kind stack")
    upstream = np.asarray(upstream, dtype=np.float64)
    k, h, w = stack.likelihood.shape
    if upstream.shape != (k, 3):
        raise ShapeMismatchError(f"upstream must be ({k}, 3), got {upstream.shape}")
    like = _check_latent(stack.likelihood, spread)
    xs, ys = _pixel_axes(h, w)
    prob, tmp = np.empty((h, w)), np.empty((h, w))
    (cot_like, cot_depth), cot_beta = _stack_pair(k, h, w), np.empty(k)
    for i in range(k):
        beta = spread.beta[i]
        gx, gy, gz = upstream[i]
        _softmax(like[i], beta, out=prob)
        # w(p) = gx x + gy y + gz depth(p): how much moving probability mass
        # onto pixel p changes the output; it becomes the latent cotangent
        np.multiply(gz, stack.depth[i], out=tmp)
        weight = np.add(gx * xs, gy * ys, out=cot_like[i])
        weight += tmp
        cot_beta[i] = _vjp_softmax(prob, like[i], beta, weight, weight, tmp)
        np.multiply(prob, gz, out=cot_depth[i])
    return cot_like, cot_depth, cot_beta
