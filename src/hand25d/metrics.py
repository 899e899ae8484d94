"""Evaluation metrics: end-point error, PCK curves and their AUC, the
head-normalized 2D variant, and root alignment.

`evaluate` applies one of two protocols: ROOT_ALIGNED translates each 3D
prediction so its root matches ground truth before the errors (the
synthetic-dataset convention), ABSOLUTE_WITH_SCALE compares poses as-is,
which scores the full absolute reconstruction including global scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BadHeadLengthError,
    ConfigError,
    EmptyThresholdsError,
    InvalidRootError,
    NoValidKeypointsError,
    ShapeMismatchError,
    TooFewPointsError,
)
from .skeleton import ROOT_INDEX
from .types import Pose3D, _is_int, _positive_finite

PROTOCOLS = ("root_aligned", "absolute_with_scale")

# default threshold grids; the exact grid is a config knob and is recorded
# in every report because AUC values are only comparable on equal grids
DEFAULT_THRESHOLDS_3D_MM = tuple(np.linspace(20.0, 50.0, 31))
DEFAULT_THRESHOLDS_2D_PX = tuple(np.linspace(0.0, 30.0, 31))


@dataclass(frozen=True)
class EvalReport:
    protocol: str
    space: str
    unit: str
    per_keypoint_errors: tuple[float, ...]
    epe_mean: float
    epe_median: float
    pck: tuple[tuple[float, float], ...]
    auc: float
    num_samples: int = 0
    num_failed: int = 0
    meta: dict = field(default_factory=dict)


def _matched(pred, gt, valid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim < 2:
        raise ShapeMismatchError("pred and gt must be matching (..., K, D) arrays")
    mask = np.ones(pred.shape[:-1], dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    if mask.shape != pred.shape[:-1]:
        raise ShapeMismatchError(f"valid masks {mask.shape} do not match pred {pred.shape}")
    return pred, gt, mask


def epe(
    pred: np.ndarray, gt: np.ndarray, valid: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """Euclidean errors over valid keypoints (row-major, so pose by pose for a stack), plus
    their mean and median. pred and gt are matching (..., K, D) arrays, valid a (..., K) mask."""
    pred, gt, mask = _matched(pred, gt, valid)
    if not np.any(mask):
        raise NoValidKeypointsError("no valid keypoint to evaluate")
    errors = np.linalg.norm(pred[mask] - gt[mask], axis=1)
    return errors, float(errors.mean()), float(np.median(errors))


def _align_root(pred: np.ndarray, gt: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Translate each (..., K, 3) pred onto its gt palm, which the (..., K) mask must mark."""
    if not valid[..., ROOT_INDEX].all():
        raise InvalidRootError(f"root keypoint {ROOT_INDEX} must be valid in both poses")
    return pred + (gt[..., ROOT_INDEX, :] - pred[..., ROOT_INDEX, :])[..., None, :]


def align_root(pred: Pose3D, gt: Pose3D) -> Pose3D:
    """Translate pred so its root (the palm) coincides with the ground-truth root."""
    xyz = _align_root(pred.xyz, gt.xyz, pred.valid & gt.valid)
    return Pose3D(xyz=xyz, valid=pred.valid.copy())


def _check_thresholds(thr: np.ndarray) -> None:
    """ConfigError unless the thresholds are finite and strictly increasing."""
    if not np.isfinite(thr).all():
        raise ConfigError("thresholds must be finite")
    if np.any(np.diff(thr) <= 0):
        raise ConfigError("thresholds must be strictly increasing")


def pck_curve(errors: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Fraction of errors <= t for each threshold t (closed inequality)."""
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.size == 0:
        raise EmptyThresholdsError("at least one threshold required")
    _check_thresholds(thr)
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise NoValidKeypointsError("no errors to aggregate")
    return (errors[None, :] <= thr[:, None]).mean(axis=1)


def auc(thresholds: Sequence[float], fractions: Sequence[float]) -> float:
    """Trapezoidal area under the PCK curve, normalized by the threshold
    range so a perfect curve scores 1."""
    thr = np.asarray(thresholds, dtype=np.float64)
    frac = np.asarray(fractions, dtype=np.float64)
    if thr.size != frac.size:
        raise ShapeMismatchError("thresholds and fractions differ in length")
    if thr.size < 2:
        raise TooFewPointsError("AUC needs at least two curve points")
    _check_thresholds(thr)
    dt = np.diff(thr)
    area = float((0.5 * (frac[1:] + frac[:-1]) * dt).sum())
    return area / float(thr[-1] - thr[0])


def pckh_curve(
    pred2d: np.ndarray,
    gt2d: np.ndarray,
    head_length: float,
    thresholds: Sequence[float],
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """PCK on 2D errors normalized by head length; thresholds are
    fractions of the head length."""
    if not _positive_finite(head_length):
        raise BadHeadLengthError(f"head length must be positive, got {head_length}")
    errors, _, _ = epe(pred2d, gt2d, valid)
    return pck_curve(errors / head_length, thresholds)


def evaluate(
    pred_points: Sequence[np.ndarray],
    gt_points: Sequence[np.ndarray],
    valid_masks: Sequence[np.ndarray | None],
    protocol: str,
    space: str,
    thresholds: Sequence[float] | None = None,
    num_failed: int = 0,
) -> EvalReport:
    """Pool per-keypoint errors over a corpus and build a report.

    Points are (K, 2) pixel or (K, 3) mm arrays of one shape, stacked and
    scored with one `epe` call; a None mask marks every keypoint valid. Under
    "root_aligned", each 3D pose with a valid keypoint is first translated onto
    its ground-truth root (keypoint 0), which must be valid; 2D is never aligned.
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    if space not in ("2d", "3d"):
        raise ConfigError(f"unknown space {space!r}")
    if not (_is_int(num_failed) and num_failed >= 0):
        raise ConfigError(f"num_failed must be an integer >= 0, got {num_failed!r}")
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS_3D_MM if space == "3d" else DEFAULT_THRESHOLDS_2D_PX
    try:
        pred, gt = (np.asarray(p, dtype=np.float64) for p in (pred_points, gt_points))
        valid = np.asarray([np.ones(pred.shape[1:-1], dtype=bool) if m is None else m
                            for m in valid_masks], dtype=bool)
    except ValueError as exc:  # numpy cannot stack a ragged corpus
        raise ShapeMismatchError("the poses of a corpus must share one (K, D) shape") from exc
    if pred.ndim != 3 and len(pred):
        raise ShapeMismatchError("the poses of a corpus must be (K, D) arrays")
    if not valid.any():  # also the empty corpus, which stacks to shape (0,)
        raise NoValidKeypointsError("no valid keypoints in the whole corpus")
    if protocol == "root_aligned" and space == "3d":
        pred, gt, valid = _matched(pred, gt, valid)  # before rows are picked by the masks
        scored = valid.any(axis=-1)
        gt, valid = gt[scored], valid[scored]
        pred = _align_root(pred[scored], gt, valid)
    errors, mean, median = epe(pred, gt, valid)
    fractions = pck_curve(errors, thresholds)
    thr = np.asarray(thresholds, dtype=np.float64)
    return EvalReport(
        protocol=protocol,
        space=space,
        unit="mm" if space == "3d" else "px",
        per_keypoint_errors=tuple(errors.tolist()),
        epe_mean=mean,
        epe_median=median,
        pck=tuple((float(t), float(f)) for t, f in zip(thr, fractions)),
        auc=auc(thr, fractions),
        num_samples=len(pred_points),
        num_failed=int(num_failed),
    )
