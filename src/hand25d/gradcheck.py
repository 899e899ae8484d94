"""Central-difference verification of the analytic VJPs.

One table gives, per target, its inputs drawn from a seeded random
problem, the shape of an upstream cotangent, the public forward
function, a batched forward over the library's batched kernels and the
VJP. The driver checks each target the same way: the scalar
sum(upstream * forward(*inputs)) has gradient vjp(upstream, *inputs),
and central differences of that scalar are compared entrywise. The
differences run every +eps and -eps copy of one input through the
batched forward at once, after checking once per seed that it gives the
public forward's bits at the unperturbed inputs; if it does not, every
input gets an infinite error.

Error measure: |analytic - fd| / max(|analytic|, |fd|, 1e-6). The floor
keeps accidental near-zero gradient entries (where central differences
are pure rounding noise) from dominating the report.

Steps below 1e-8 are flagged as a finite-difference breakdown: there the
difference quotient is rounding-dominated in float64 no matter how good
the analytic gradient is, so a large error is reported as a warning, not
a failure. A non-finite entry in either gradient counts as an infinite
error and fails the check at any step.

seeds must be an integer >= 1, and eps and tol finite and positive;
anything else raises ConfigError.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UnknownTargetError
from .heatmap import (
    HeatmapStack,
    SpreadParams,
    _decode,
    _expected_xy,
    _softmax,
    decode_latent,
    depth_readout,
    softargmax,
    spatial_softmax,
    vjp_decode_latent,
    vjp_depth_readout,
    vjp_softargmax,
    vjp_spatial_softmax,
)
from .types import _positive_finite

TARGETS = ("spatial_softmax", "softargmax", "depth_readout", "decode_latent")

REL_ERR_FLOOR = 1e-6
FD_BREAKDOWN_EPS = 1e-8
DEFAULT_TOL = 1e-4

_K, _H, _W = 3, 9, 11
# Perturbed-input entries per batched forward call: small enough that a
# chunk stays in cache, which measured faster than larger chunks.
_FD_BATCH_ENTRIES = 1 << 14


@dataclass
class GradcheckReport:
    target: str
    seeds: int
    eps: float
    tol: float
    max_rel_err: float
    worst: tuple[int, str, int] | None  # (seed, input class, flat index)
    per_input_max: dict[str, float] = field(default_factory=dict)
    status: str = "ok"  # ok | warning | fail

    def lines(self) -> list[str]:
        out = [
            f"gradcheck {self.target}: seeds={self.seeds} eps={self.eps:g} "
            f"max_rel_err={self.max_rel_err:.3e} tol={self.tol:g} -> {self.status.upper()}"
        ]
        for name, err in self.per_input_max.items():
            out.append(f"  {name:<12} max_rel_err={err:.3e}")
        if self.worst is not None:
            seed, klass, idx = self.worst
            out.append(f"  worst entry: seed={seed} input={klass} flat_index={idx}")
        if self.status == "warning":
            out.append(
                "  warning: step below 1e-8 makes central differences rounding-"
                "dominated; result not evidence of a gradient defect"
            )
        return out


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), REL_ERR_FLOOR)
    with np.errstate(invalid="ignore"):
        err = np.abs(analytic - fd) / denom
    return np.where(np.isfinite(analytic) & np.isfinite(fd), err, np.inf)


def _fd_gradient(
    batched, upstream: np.ndarray, arrays: list[np.ndarray], eps: float
) -> list[np.ndarray]:
    """Central differences of sum(upstream * batched(*arrays)) with respect
    to every entry of every array. The +eps and -eps copies of one input
    go through `batched` along a leading axis, in chunks of about
    _FD_BATCH_ENTRIES perturbed entries; the other inputs broadcast."""
    grads = []
    for j, arr in enumerate(arrays):
        flat = arr.ravel()
        step = max(1, _FD_BATCH_ENTRIES // (2 * flat.size))
        g = np.empty(flat.size)
        for lo in range(0, flat.size, step):
            idx = np.arange(lo, min(lo + step, flat.size))
            rows = np.arange(idx.size)
            copies = np.tile(flat, (2, idx.size, 1))
            copies[0, rows, idx] = flat[idx] + eps
            copies[1, rows, idx] = flat[idx] - eps
            args = list(arrays)
            args[j] = copies.reshape((2 * idx.size,) + arr.shape)
            f = (upstream * batched(*args)).reshape(2, idx.size, -1).sum(axis=-1)
            g[idx] = (f[0] - f[1]) / (2.0 * eps)
        grads.append(g.reshape(arr.shape))
    return grads


def _first_prob(latent: np.ndarray, beta: np.ndarray) -> np.ndarray:
    return spatial_softmax(latent[:1], SpreadParams(beta=beta[:1]))[0]


def _decode_xyz(likelihood, depth, beta) -> np.ndarray:
    stack = HeatmapStack(kind="latent", likelihood=likelihood, depth=depth)
    decoded = decode_latent(stack, SpreadParams(beta=beta))
    return np.column_stack([decoded.xy, decoded.zr])


def _decode_xyz_batched(likelihood, depth, beta) -> np.ndarray:
    x, y, zr = _decode(_softmax(likelihood, beta), depth)
    return np.stack(np.broadcast_arrays(x, y, zr), axis=-1)


# target -> (inputs: the seeded (latent, depth, beta) problem -> {name: array},
#            upstream: shape of the output cotangent,
#            forward(*inputs) -> output,
#            batched(*inputs) -> output, where any input may carry extra
#                leading dims that broadcast into the output's leading dims,
#            vjp(upstream, *inputs) -> one cotangent per input).
# Library functions are looked up when called, not captured here, so a
# replaced module attribute is what gets checked: the finite differences
# run through the batched kernels only after they reproduce the public
# forward bit for bit at the seed's inputs.
_TABLE = {
    "spatial_softmax": (
        lambda latent, depth, beta: {"latent": latent, "beta": beta},
        (_K, _H, _W),
        lambda latent, beta: spatial_softmax(latent, SpreadParams(beta=beta)),
        _softmax,
        lambda g, latent, beta: vjp_spatial_softmax(latent, SpreadParams(beta=beta), g),
    ),
    "softargmax": (
        lambda latent, depth, beta: {"prob": _first_prob(latent, beta)},
        (2,),
        lambda prob: softargmax(prob),
        # a (..., 1, W) @ (W,) product per map gives the bits of the public
        # (W,) @ (W,) dot; folding the batch into one (B, W) matrix does not
        lambda prob: np.concatenate(
            _expected_xy(prob.sum(axis=-2)[..., None, :], prob.sum(axis=-1)[..., None, :]),
            axis=-1,
        ),
        lambda g, prob: (vjp_softargmax(prob, g),),
    ),
    "depth_readout": (
        lambda latent, depth, beta: {"prob": _first_prob(latent, beta), "depth": depth[0]},
        (),
        lambda prob, dmap: depth_readout(prob, dmap),
        lambda prob, dmap: (prob * dmap).sum(axis=(-2, -1)),
        lambda g, prob, dmap: vjp_depth_readout(prob, dmap, g),
    ),
    "decode_latent": (
        lambda latent, depth, beta: {"likelihood": latent, "depth": depth, "beta": beta},
        (_K, 3),
        _decode_xyz,
        _decode_xyz_batched,
        lambda g, like, depth, beta: vjp_decode_latent(
            HeatmapStack(kind="latent", likelihood=like, depth=depth), SpreadParams(beta=beta), g
        ),
    ),
}


def gradcheck(
    target: str, seeds: int = 100, eps: float = 1e-4, tol: float = DEFAULT_TOL
) -> GradcheckReport:
    """Compare the analytic VJP of `target` against central differences on
    `seeds` random problems."""
    if target not in _TABLE:
        raise UnknownTargetError(f"no gradcheck target {target!r}; choose from {TARGETS}")
    if not (isinstance(seeds, numbers.Integral) and seeds >= 1):
        raise ConfigError(f"seeds must be an integer >= 1, got {seeds!r}")
    for name, value in (("eps", eps), ("tol", tol)):
        if not _positive_finite(value):
            raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    inputs_of, upstream_shape, forward, batched, vjp = _TABLE[target]
    max_err = 0.0
    worst = None
    per_input: dict[str, float] = {}
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        latent = rng.uniform(-1.0, 1.0, (_K, _H, _W))
        depth = rng.uniform(-1.0, 1.0, (_K, _H, _W))
        beta = rng.uniform(0.5, 2.0, _K)
        inputs = inputs_of(latent, depth, beta)
        upstream = rng.normal(size=upstream_shape)
        arrays = list(inputs.values())
        analytic = vjp(upstream, *arrays)
        public_out = np.asarray(forward(*arrays), dtype=np.float64)
        batched_out = batched(*arrays)
        if public_out.shape == batched_out.shape and public_out.tobytes() == batched_out.tobytes():
            fd = _fd_gradient(batched, upstream, arrays, eps)
        else:  # the public forward is not what the batched kernels compute
            fd = [np.full(arr.shape, np.nan) for arr in arrays]
        for name, a, f in zip(inputs, analytic, fd):
            err = _rel_err(np.asarray(a), f)
            local = float(err.max())
            per_input[name] = max(per_input.get(name, 0.0), local)
            if local > max_err:
                max_err = local
                worst = (seed, name, int(err.argmax()))
    breakdown = eps < FD_BREAKDOWN_EPS and math.isfinite(max_err)
    status = "ok" if max_err <= tol else ("warning" if breakdown else "fail")
    return GradcheckReport(target, seeds, eps, tol, max_err, worst, per_input, status)
