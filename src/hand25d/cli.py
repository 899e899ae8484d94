"""Command-line pipeline over pose-record streams.

Exit codes: 0 success, 2 usage error, 3 data or validation error,
4 numerical failure (reconstruction failures under --strict, or a failed
gradient check).
"""
from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import serialize
from .camera import CameraIntrinsics, _columns as _camera_columns, project
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateProjectionError,
    Hand25DError,
    NonPositiveDepthError,
    NoValidKeypointsError,
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
from .metrics import PROTOCOLS, evaluate
from .pose25d import NormalizationConfig, _to_25d_rows, to_25d
from .reconstruct import _reconstruct_rows, absolute_pose, reconstruct_pose, recover_scale
from .skeleton import canonical_skeleton, shorten_fingertips
from .synth import SynthConfig, _gen_rows, _record, gen_pose
from .types import Pose3D, Pose25D

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
        if part.isdecimal():  # exactly the digits int() reads; "²".isdigit() is true
            idx.append(int(part))
        else:
            try:
                idx.append(skel.names.index(part))
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


def _records(path, override: CameraIntrinsics | None = None) -> list[serialize.PoseRecord]:
    """All records of a file, each with its camera resolved: `override` (a
    stage's --camera) when given, its own otherwise. A left-hand record with
    a camera is mirrored to right-hand with that camera, the one the stage
    then lifts with."""
    records = serialize.read_pose_records(path)  # a malformed line fails before any flip
    for rec in records:
        rec.camera = override or rec.camera
    return [rec if rec.camera is None else serialize.flip_record_to_right(rec) for rec in records]


def _synth_records(cfg: SynthConfig, count: int) -> list[serialize.PoseRecord]:
    """[gen_pose(cfg, i)[2] for i in range(count)], from one batch of first
    draws: a row whose first draw gen_pose rejects takes the per-pose path,
    which gives its redraws or raises its error."""
    xyz, px, zr, ok = _gen_rows(cfg, count)
    return [_record(cfg, i, xyz[i], px[i], zr[i]) if ok[i] else gen_pose(cfg, i)[2]
            for i in range(count)]


def _cmd_synth(args) -> int:
    if args.count < 0:
        raise ConfigError(f"--count must be 0 or more, got {args.count}")
    stats = serialize.read_bone_stats_json(args.bone_stats) if args.bone_stats else None
    cfg = SynthConfig(seed=args.seed, bone_stats=stats)
    serialize.write_pose_records(args.out, _synth_records(cfg, args.count))
    if args.camera_out:
        serialize.write_camera_json(args.camera_out, cfg.camera)
    return 0


def _stacked(records: list[serialize.PoseRecord], key: str, *shape: int, dtype=np.float64):
    """One view of every record as an (N, K, *shape) array, zeros where a record lacks it."""
    shape = (canonical_skeleton().num_keypoints, *shape)
    blank = np.zeros(shape, dtype)
    rows = [blank if (v := getattr(rec, key)) is None else v for rec in records]
    return np.array(rows, dtype).reshape(len(rows), *shape)


def _rewrite(path, records, rows, redo, emit, soft=(), noun="", verb="") -> int:
    """Write each record with the views emit(rec, row) to `path`, all after
    the last one, and return how many failed. row is rows[i], the stage
    kernel's, or if None redo(rec), the per-pose function, run after the
    camera check as quietly as the kernel. A `soft` error fails the record:
    stderr gets a line and it is written all-invalid. Any other library error
    names the record, keeps its class (so its exit code) and writes nothing."""
    out, failures = [], 0
    for i, (rec, row) in enumerate(zip(records, rows)):
        valid = rec.valid
        try:
            if row is None:
                if rec.camera is None:
                    raise DataFormatError("no camera available; pass --camera")
                with np.errstate(all="ignore"):
                    row = redo(rec)
            views = emit(rec, row)
        except soft as exc:
            failures += 1
            print(f"record {i}: {noun} failed: {exc}", file=sys.stderr)
            valid, views = np.zeros(rec.num_keypoints, dtype=bool), {}
        except Hand25DError as exc:
            raise type(exc)(f"record {i}: {exc}") from exc
        out.append(serialize.PoseRecord(valid, **views, side=rec.side, camera=rec.camera,
                                        meta=rec.meta))
    if failures:
        print(f"{failures}/{len(records)} records failed to {verb}", file=sys.stderr)
    serialize.write_pose_records(path, out)
    return failures


def _cmd_normalize(args) -> int:
    cfg = _norm_config(args)
    override = serialize.read_camera_json(args.camera) if args.camera else None
    records = _records(args.infile, override)
    px, zr, ok = _to_25d_rows(
        _stacked(records, "xyz_mm", 3), _stacked(records, "valid", dtype=bool),
        _camera_columns([rec.camera for rec in records]), cfg)
    rows = [(px[i], zr[i]) if ok[i] and rec.camera is not None and rec.xyz_mm is not None
            else None for i, rec in enumerate(records)]
    _rewrite(args.out, records, rows,
             lambda rec: ((p25 := to_25d(rec.pose3d(), rec.camera, cfg)).xy, p25.zr),
             lambda rec, row: {"px": row[0], "zr_norm": row[1]},
             NoValidKeypointsError, "normalization", "normalize")
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _norm_config(args)
    override = serialize.read_camera_json(args.camera) if args.camera else None
    stats = serialize.read_bone_stats_json(args.bone_stats) if args.bone_stats else None
    skel = canonical_skeleton()
    records = _records(args.infile, override)
    xyz, ok = _reconstruct_rows(
        _stacked(records, "px", 2), _stacked(records, "zr_norm"),
        _stacked(records, "valid", dtype=bool),
        _camera_columns([rec.camera for rec in records]), cfg)
    rows = [xyz[i] if ok[i] and rec.camera is not None and rec.px is not None
            and rec.zr_norm is not None else None for i, rec in enumerate(records)]

    def redo(rec):
        if not rec.valid.any():  # e.g. a record normalize failed, which has no views
            raise NoValidKeypointsError("record has no valid keypoint")
        return reconstruct_pose(rec.pose25d(), rec.camera, cfg).xyz

    def emit(rec, row):
        pose = Pose3D(row, rec.valid)
        if stats is not None:
            # recover_scale returns mm per normalized unit; absolute_pose
            # expects the metric pair-bone length, i.e. c times that
            pose = absolute_pose(pose, cfg.c * recover_scale(pose, stats, skel), cfg.c)
        return {"xyz_mm": pose.xyz}

    failures = _rewrite(args.out, records, rows, redo, emit,
                        (*NUMERICAL_ERRORS, NoValidKeypointsError), "reconstruction",
                        "reconstruct")
    return 4 if failures and args.strict else 0


def _cmd_encode(args) -> int:
    if not (np.isfinite(args.amplitude) and args.amplitude > 0):
        raise ConfigError(f"--amplitude must be finite and positive, got {args.amplitude}")
    records = _records(args.infile)
    if not records:
        raise DataFormatError("no records to encode")
    if not 0 <= args.index < len(records):
        raise DataFormatError(f"--index {args.index} out of range for {len(records)} records")
    p25 = records[args.index].pose25d()
    width, height = _parse_grid(args.grid)
    grid = HeatmapGrid(width=width, height=height)
    stack = encode_direct(
        p25, grid, sigma=args.sigma, exponent=args.exponent, out_of_grid=args.out_of_grid
    )
    if args.kind == "latent":
        stack = _encode_latent(p25, stack, args.amplitude)
    serialize.write_h25d(args.out, stack)
    return 0


def _encode_latent(p25: Pose25D, direct: HeatmapStack, amplitude: float) -> HeatmapStack:
    """Synthetic latent maps from the direct maps of the same pose: a
    scaled bump in the likelihood channel (sharp enough under softmax
    that the bump, not the flat background, carries the probability
    mass) and a constant depth map, whose expectation is exact."""
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
    record = serialize.PoseRecord(valid=p25.valid, px=p25.xy, zr_norm=p25.zr)
    serialize.write_pose_records(args.out, [record])
    return 0


def _cmd_eval(args) -> int:
    preds = _records(args.pred)
    gts = _records(args.gt)
    if len(preds) != len(gts):
        raise DataFormatError(f"{len(preds)} predictions vs {len(gts)} ground-truth records")
    for i, (pr, gt) in enumerate(zip(preds, gts)):
        if pr.side != gt.side:  # a left-hand record without a camera is not mirrored
            raise DataFormatError(f"record {i}: a {pr.side}-hand prediction against a "
                                  f"{gt.side}-hand ground truth; mirroring needs a camera")
    masks = [pr.valid & gt.valid for pr, gt in zip(preds, gts)]
    scored = [i for i, mask in enumerate(masks) if mask.any()]  # the other pairs failed
    view, what = ("xyz_mm", "3D") if args.space == "3d" else ("px", "pixel")
    points = [[getattr(recs[i], view) for i in scored] for recs in (preds, gts)]
    if any(p is None for pts in points for p in pts):
        raise DataFormatError(f"record carries no {what} coordinates")
    thresholds = _parse_thresholds(args.thresholds) if args.thresholds else None
    report = evaluate(*points, [masks[i] for i in scored], args.protocol, args.space,
                      thresholds, num_failed=len(preds) - len(scored))
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
    records = _records(args.infile)
    if not 0.0 < args.factor <= 1.0:  # the flag's error, not record 0's
        raise ConfigError(f"shortening factor must be in (0, 1], got {args.factor}")

    def emit(rec, i):  # no kernel: a record's row is its index
        if rec.xyz_mm is None:
            raise DataFormatError("shorten-tips needs xyz_mm")
        pose = shorten_fingertips(rec.pose3d(), args.factor, skel)
        views = {"px": rec.px, "xyz_mm": pose.xyz, "zr_norm": rec.zr_norm}
        if rec.camera is not None:
            with np.errstate(all="ignore"):  # as quiet as the other stages' per-pose re-run
                if rec.px is not None:
                    views["px"] = project(pose, rec.camera)[0].xy
                if rec.zr_norm is not None:
                    views["zr_norm"] = to_25d(pose, rec.camera, cfg).zr
        elif rec.px is not None or rec.zr_norm is not None:
            print(
                f"record {i}: no camera; px/zr_norm left unchanged and may now be inconsistent",
                file=sys.stderr,
            )
        return views

    _rewrite(args.out, records, range(len(records)), None, emit)
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


def _join_negative_grid(argv: list[str]) -> list[str]:
    """`--thresholds -5:30:31` -> `--thresholds=-5:30:31`: argparse reads a
    separate value that starts with '-' (and is not a plain number) as an
    option, so a grid with a negative lower bound needs the joined form."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--thresholds" and re.match(r"-[\d.]", arg):
            out[-1] = f"--thresholds={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_grid(sys.argv[1:] if argv is None else list(argv)))
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
