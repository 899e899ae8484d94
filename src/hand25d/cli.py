"""Command-line pipeline over pose-record streams.

Exit codes: 0 success, 2 usage error, 3 data or validation error,
4 numerical failure (reconstruction failures under --strict, or a failed
gradient check).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import serialize
from .camera import CameraIntrinsics, project
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateProjectionError,
    Hand25DError,
    NonPositiveDepthError,
    NoRealSolutionError,
    ZeroBoneError,
)
from .gradcheck import TARGETS, gradcheck
from .heatmap import (
    DEFAULT_SIGMA,
    HeatmapGrid,
    HeatmapStack,
    SpreadParams,
    decode_direct,
    decode_latent,
    encode_direct,
)
from .metrics import PROTOCOLS, align_root, evaluate
from .pose25d import NormalizationConfig, to_25d
from .reconstruct import absolute_pose, reconstruct_pose, recover_scale
from .skeleton import canonical_skeleton, shorten_fingertips
from .synth import SynthConfig, gen_pose
from .types import Pose25D

NUMERICAL_ERRORS = (
    NoRealSolutionError,
    NonPositiveDepthError,
    DegenerateProjectionError,
    ZeroBoneError,
)

DEFAULT_LATENT_AMPLITUDE = 20.0


def _parse_pair(text: str) -> tuple[int, int]:
    skel = canonical_skeleton()
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"pair must look like 'index_mcp:palm', got {text!r}")
    idx = []
    for part in parts:
        part = part.strip()
        if part.isdigit():
            idx.append(int(part))
        else:
            try:
                idx.append(skel.index_of(part))
            except ValueError:
                raise ConfigError(f"unknown keypoint name {part!r}") from None
    return idx[0], idx[1]


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise ConfigError(f"grid must look like 128x128, got {text!r}") from None


def _parse_thresholds(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ConfigError("thresholds must be finite")
        return np.linspace(lo, hi, count)
    except ValueError:
        raise ConfigError(f"thresholds must look like 20:50:31, got {text!r}") from None


def _norm_config(args) -> NormalizationConfig:
    return NormalizationConfig(c=args.c, pair=_parse_pair(args.pair))


def _records(path) -> list[serialize.PoseRecord]:
    """All records of a file, left-hand ones that carry a camera mirrored to right-hand."""
    records = serialize.read_pose_records(path)  # a malformed line fails before any flip
    return [rec if rec.camera is None else serialize.flip_record_to_right(rec) for rec in records]


def _camera(
    i: int, rec: serialize.PoseRecord, override: CameraIntrinsics | None
) -> CameraIntrinsics:
    cam = override or rec.camera
    if cam is None:
        raise DataFormatError(f"record {i}: no camera available; pass --camera")
    return cam


def _cmd_synth(args) -> int:
    stats = serialize.read_bone_stats_json(args.bone_stats) if args.bone_stats else None
    cfg = SynthConfig(seed=args.seed, bone_stats=stats)
    records = [gen_pose(cfg, index)[2] for index in range(args.count)]
    serialize.write_pose_records(args.out, records)
    if args.camera_out:
        serialize.write_camera_json(args.camera_out, cfg.camera)
    return 0


def _cmd_normalize(args) -> int:
    cfg = _norm_config(args)
    override = serialize.read_camera_json(args.camera) if args.camera else None
    out = []
    for i, rec in enumerate(_records(args.infile)):
        cam = _camera(i, rec, override)
        p25 = to_25d(rec.pose3d(), cam, cfg)
        out.append(serialize.PoseRecord(rec.valid, px=p25.xy, zr_norm=p25.zr, side=rec.side,
                                        camera=cam, meta=rec.meta))
    serialize.write_pose_records(args.out, out)
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _norm_config(args)
    override = serialize.read_camera_json(args.camera) if args.camera else None
    stats = serialize.read_bone_stats_json(args.bone_stats) if args.bone_stats else None
    skel = canonical_skeleton()
    records = _records(args.infile)
    out = []
    failures = 0
    for i, rec in enumerate(records):
        cam = _camera(i, rec, override)
        try:
            pose = reconstruct_pose(rec.pose25d(), cam, cfg)
            if stats is not None:
                # recover_scale returns mm per normalized unit; absolute_pose
                # expects the metric pair-bone length, i.e. c times that
                pose = absolute_pose(pose, cfg.c * recover_scale(pose, stats, skel), cfg.c)
            valid, xyz = pose.valid, pose.xyz
        except NUMERICAL_ERRORS as exc:
            failures += 1
            print(f"record {i}: reconstruction failed: {exc}", file=sys.stderr)
            valid, xyz = np.zeros(rec.num_keypoints, dtype=bool), None
        out.append(serialize.PoseRecord(valid, xyz_mm=xyz, side=rec.side, camera=cam,
                                        meta=rec.meta))
    serialize.write_pose_records(args.out, out)
    if failures:
        print(f"{failures}/{len(records)} records failed to reconstruct", file=sys.stderr)
        if args.strict:
            return 4
    return 0


def _cmd_encode(args) -> int:
    records = _records(args.infile)
    if not records:
        raise DataFormatError("no records to encode")
    if not 0 <= args.index < len(records):
        raise DataFormatError(f"--index {args.index} out of range for {len(records)} records")
    p25 = records[args.index].pose25d()
    width, height = _parse_grid(args.grid)
    grid = HeatmapGrid(width=width, height=height)
    if args.kind == "direct":
        stack = encode_direct(
            p25, grid, sigma=args.sigma, exponent=args.exponent, out_of_grid=args.out_of_grid
        )
    else:
        stack = _encode_latent(p25, grid, args.sigma, args.amplitude)
    serialize.write_h25d(args.out, stack)
    return 0


def _encode_latent(
    p25: Pose25D, grid: HeatmapGrid, sigma: float, amplitude: float
) -> HeatmapStack:
    """Synthetic latent maps: a scaled Gaussian bump in the likelihood
    channel (sharp enough under softmax that the bump, not the flat
    background, carries the probability mass) and a constant depth map,
    whose expectation is exact."""
    direct = encode_direct(p25, grid, sigma=sigma, out_of_grid="clamp")
    like = amplitude * direct.likelihood
    depth = np.broadcast_to(
        np.asarray(p25.zr)[:, None, None], direct.likelihood.shape
    ).copy()
    depth[~p25.valid] = 0.0
    return HeatmapStack(kind="latent", likelihood=like, depth=depth)


def _cmd_decode(args) -> int:
    stack = serialize.read_h25d(args.infile)
    if stack.kind == "direct":
        p25 = decode_direct(stack)
    else:
        beta = (
            serialize.read_beta_json(args.beta)
            if args.beta
            else np.ones(stack.num_keypoints)
        )
        if beta.shape[0] != stack.num_keypoints:
            raise DataFormatError(
                f"beta has {beta.shape[0]} entries but the stack has {stack.num_keypoints}"
            )
        p25 = decode_latent(stack, SpreadParams(beta=beta))
    record = serialize.PoseRecord(
        valid=np.ones(p25.num_keypoints, dtype=bool), px=p25.xy, zr_norm=p25.zr
    )
    serialize.write_pose_records(args.out, [record])
    return 0


def _cmd_eval(args) -> int:
    preds = _records(args.pred)
    gts = _records(args.gt)
    if len(preds) != len(gts):
        raise DataFormatError(f"{len(preds)} predictions vs {len(gts)} ground-truth records")
    pred_pts, gt_pts, masks = [], [], []
    failed = 0
    for i, (pr, gt) in enumerate(zip(preds, gts)):
        mask = pr.valid & gt.valid
        if not mask.any():
            failed += 1
            continue
        if args.space == "3d":
            pred_pose, gt_pose = pr.pose3d(), gt.pose3d()
            if args.protocol == "root_aligned":
                pred_pose = align_root(pred_pose, gt_pose, root_index=0)
            pred_pts.append(pred_pose.xyz)
            gt_pts.append(gt_pose.xyz)
        else:
            pred_pts.append(pr.pose2d().xy)
            gt_pts.append(gt.pose2d().xy)
        masks.append(mask)
    thresholds = _parse_thresholds(args.thresholds) if args.thresholds else None
    report = evaluate(
        pred_pts, gt_pts, masks, args.protocol, args.space, thresholds, num_failed=failed
    )
    serialize.write_report_json(args.out, report)
    return 0


def _cmd_pck_curve(args) -> int:
    report = serialize.read_report_json(args.report)
    serialize.write_curve_csv(args.out, report.pck)
    return 0


def _cmd_gradcheck(args) -> int:
    report = gradcheck(args.op, seeds=args.seeds, eps=args.eps, tol=args.tol)
    for line in report.lines():
        print(line)
    return 4 if report.status == "fail" else 0


def _cmd_shorten_tips(args) -> int:
    skel = canonical_skeleton()
    cfg = _norm_config(args)
    out = []
    for i, rec in enumerate(_records(args.infile)):
        if rec.xyz_mm is None:
            raise DataFormatError(f"record {i}: shorten-tips needs xyz_mm")
        pose = shorten_fingertips(rec.pose3d(), args.factor, skel)
        px = rec.px
        zr = rec.zr_norm
        if rec.camera is not None:
            if px is not None:
                px = project(pose, rec.camera)[0].xy
            if zr is not None:
                zr = to_25d(pose, rec.camera, cfg).zr
        elif px is not None or zr is not None:
            print(
                f"record {i}: no camera; px/zr_norm left unchanged and may now be inconsistent",
                file=sys.stderr,
            )
        out.append(serialize.PoseRecord(rec.valid, px=px, xyz_mm=pose.xyz, zr_norm=zr,
                                        side=rec.side, camera=rec.camera, meta=rec.meta))
    serialize.write_pose_records(args.out, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hand25d", description="2.5D hand pose pipeline tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_args(p):
        p.add_argument("--pair", default="index_mcp:palm", help="normalization bone child:parent")
        p.add_argument("--c", type=float, default=1.0, help="normalized pair bone length")

    p = sub.add_parser("synth", help="generate synthetic pose records")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--bone-stats", help="bone stats JSON fixing exact bone lengths")
    p.add_argument("--camera-out", help="also write the generator camera JSON here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("normalize", help="3D records -> scale-normalized 2.5D records")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--camera", help="camera JSON overriding per-record cameras")
    add_pair_args(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("reconstruct", help="2.5D records -> 3D poses (absolute with --bone-stats)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--camera", help="camera JSON overriding per-record cameras")
    p.add_argument("--bone-stats", help="bone stats JSON; enables metric scale recovery")
    p.add_argument("--strict", action="store_true", help="exit 4 if any record fails")
    add_pair_args(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("encode", help="one 2.5D record -> heatmap stack")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default="128x128")
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--kind", choices=["direct", "latent"], default="direct")
    p.add_argument("--exponent", choices=["l2sq", "l1"], default="l2sq")
    p.add_argument("--out-of-grid", choices=["error", "clamp"], default="error")
    p.add_argument("--amplitude", type=float, default=DEFAULT_LATENT_AMPLITUDE,
                   help="latent likelihood peak height")
    p.add_argument("--index", type=int, default=0, help="which record to encode")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="heatmap stack -> 2.5D record")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beta", help="beta JSON for latent stacks (default: all ones)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval", help="compare prediction and ground-truth records")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--protocol", choices=list(PROTOCOLS), required=True)
    p.add_argument("--space", choices=["2d", "3d"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--thresholds", help="lo:hi:count threshold grid override")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pck-curve", help="report JSON -> threshold,fraction CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pck_curve)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--op", choices=list(TARGETS), default="decode_latent")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("shorten-tips", help="scale the last bone of each finger")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--factor", type=float, default=1.0)
    add_pair_args(p)
    p.set_defaults(func=_cmd_shorten_tips)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (Hand25DError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
