"""Scale-normalized 2.5D hand pose toolkit.

The pipeline: a metric 3D pose is scale-normalized so one bone has fixed
length, projected to 2.5D (pixels plus root-relative normalized depths),
optionally encoded as direct or latent heatmaps, decoded back, and the
absolute 3D pose is recovered exactly up to the global scale, which a
least-squares fit against mean bone lengths supplies.
"""

from .camera import CameraIntrinsics, backproject, project
from .errors import Hand25DError
from .gradcheck import GradcheckReport, gradcheck
from .heatmap import (
    HeatmapGrid,
    HeatmapStack,
    SpreadParams,
    decode_direct,
    decode_latent,
    depth_readout,
    encode_direct,
    softargmax,
    spatial_softmax,
    vjp_decode_latent,
    vjp_depth_readout,
    vjp_softargmax,
    vjp_spatial_softmax,
)
from .metrics import (
    EvalReport,
    align_root,
    auc,
    epe,
    evaluate,
    pck_curve,
    pckh_curve,
)
from .objective import LossConfig, SampleAnnotations, pose_loss
from .pose25d import NormalizationConfig, normalization_scale, normalize_pose, to_25d
from .reconstruct import (
    QuadraticCoeffs,
    absolute_pose,
    quadratic_coefficients,
    reconstruct_pose,
    recover_scale,
    solve_zroot,
)
from .skeleton import (
    BoneStats,
    Skeleton,
    bone_lengths,
    canonical_skeleton,
    mean_bone_stats,
    shorten_fingertips,
)
from .synth import SynthConfig, gen_pose, synth_bone_stats
from .types import Pose2D, Pose3D, Pose25D

__version__ = "0.1.0"

__all__ = [
    "BoneStats",
    "CameraIntrinsics",
    "EvalReport",
    "GradcheckReport",
    "Hand25DError",
    "HeatmapGrid",
    "HeatmapStack",
    "LossConfig",
    "NormalizationConfig",
    "Pose25D",
    "Pose2D",
    "Pose3D",
    "QuadraticCoeffs",
    "SampleAnnotations",
    "Skeleton",
    "SpreadParams",
    "SynthConfig",
    "absolute_pose",
    "align_root",
    "auc",
    "backproject",
    "bone_lengths",
    "canonical_skeleton",
    "decode_direct",
    "decode_latent",
    "depth_readout",
    "encode_direct",
    "epe",
    "evaluate",
    "gen_pose",
    "gradcheck",
    "mean_bone_stats",
    "normalization_scale",
    "normalize_pose",
    "pck_curve",
    "pckh_curve",
    "pose_loss",
    "project",
    "quadratic_coefficients",
    "reconstruct_pose",
    "recover_scale",
    "shorten_fingertips",
    "softargmax",
    "solve_zroot",
    "spatial_softmax",
    "synth_bone_stats",
    "to_25d",
    "vjp_decode_latent",
    "vjp_depth_readout",
    "vjp_softargmax",
    "vjp_spatial_softmax",
]
