"""Training loss over 2.5D pose predictions.

The pose loss splits into a 2D term and a depth term weighted by alpha;
samples that carry only 2D annotations contribute exactly zero depth
loss, which is what lets in-the-wild 2D data train alongside full 3D
data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoValidKeypointsError, ShapeMismatchError
from .types import Pose2D, Pose25D, _as_array, _as_bools, _positive_finite


@dataclass(frozen=True)
class LossConfig:
    """alpha balances depth vs 2D loss magnitudes. 20 suits the latent
    heatmap pipeline (pixels vs unit-normalized depths); holistic
    regression on mean-normalized poses uses 1."""

    alpha: float = 20.0

    def __post_init__(self):
        if not _positive_finite(self.alpha):
            raise ConfigError("alpha must be positive and finite")
        object.__setattr__(self, "alpha", float(self.alpha))  # hashable, and no float32 in the loss


@dataclass(frozen=True)
class SampleAnnotations:
    """Ground truth for one sample: 2D always, normalized relative depths
    only when 3D annotation exists. zr_valid defaults to the 2D mask."""

    gt_2d: Pose2D
    gt_zr: np.ndarray | None = None
    zr_valid: np.ndarray | None = None

    def __post_init__(self):
        if self.gt_zr is not None:
            zr = _as_array(self.gt_zr, np.float64, "gt_zr")
            if zr.shape != (self.gt_2d.num_keypoints,):
                raise ShapeMismatchError("gt_zr must have one value per keypoint")
            object.__setattr__(self, "gt_zr", zr)
            mask = self.zr_valid
            mask = self.gt_2d.valid.copy() if mask is None else _as_bools(mask, "zr_valid")
            if mask.shape != (self.gt_2d.num_keypoints,):
                raise ShapeMismatchError("zr_valid must have one flag per keypoint")
            object.__setattr__(self, "zr_valid", mask)
        elif self.zr_valid is not None:
            raise ConfigError("zr_valid given without gt_zr")


def pose_loss(
    pred: Pose25D, ann: SampleAnnotations, cfg: LossConfig = LossConfig()
) -> tuple[float, float, float]:
    """(total, part_xy, part_z); total = part_xy + alpha * part_z.

    Each part is a mean L1 error over its valid keypoints: part_xy of the
    (x, y) pixels, part_z of zr. part_z is 0 when the sample has no depth
    annotation.
    """
    if pred.num_keypoints != ann.gt_2d.num_keypoints:
        raise ShapeMismatchError("prediction and annotation keypoint counts differ")
    mask_xy = pred.valid & ann.gt_2d.valid
    if not np.any(mask_xy):
        raise NoValidKeypointsError("no keypoint is valid in both prediction and annotation")
    part_xy = float(np.mean(np.abs(pred.xy[mask_xy] - ann.gt_2d.xy[mask_xy]).sum(axis=-1)))
    part_z = 0.0
    if ann.gt_zr is not None:
        mask_z = pred.valid & ann.zr_valid
        if np.any(mask_z):
            part_z = float(np.mean(np.abs(pred.zr[mask_z] - ann.gt_zr[mask_z])))
    return part_xy + cfg.alpha * part_z, part_xy, part_z
