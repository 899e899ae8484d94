"""File formats: pose-record JSONL, small JSON sidecars (camera, bone
stats, skeleton, beta), the H25D binary heatmap container, report JSON
and curve CSV.

All JSON is UTF-8 with keys emitted in a fixed order and floats in
Python's shortest round-trip form, so write -> read -> write is
byte-identical. NaN and infinity are rejected on both ends.
"""
from __future__ import annotations

import csv
import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .camera import CameraIntrinsics, project
from .errors import ConfigError, DataFormatError
from .heatmap import HeatmapStack
from .metrics import EvalReport
from .skeleton import BoneStats, Skeleton, canonical_skeleton
from .types import Pose2D, Pose3D, Pose25D

SCHEMA_VERSION = 1
H25D_MAGIC = b"H25D"
H25D_VERSION = 1
_H25D_HEADER = struct.Struct("<4sIIIIB3x")
_KINDS = ("direct", "latent")


def _reject_constant(token: str):
    raise DataFormatError(f"non-finite JSON number {token!r}")


def _loads(line: str):
    try:
        return json.loads(line, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from exc


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _finite(value, what: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{what} is not a number: {value!r}") from exc
    if not np.isfinite(out):
        raise DataFormatError(f"{what} must be finite, got {out}")
    return out


@dataclass
class PoseRecord:
    """One sample: whichever of pixel / metric / normalized-depth views
    exist, plus validity, optional camera and free-form metadata."""

    valid: np.ndarray
    px: np.ndarray | None = None
    xyz_mm: np.ndarray | None = None
    zr_norm: np.ndarray | None = None
    side: str = "right"
    camera: CameraIntrinsics | None = None
    meta: dict | None = None

    def __post_init__(self):
        self.valid = np.asarray(self.valid, dtype=bool)
        k = self.valid.shape[0]
        if self.px is not None:
            self.px = np.asarray(self.px, dtype=np.float64).reshape(k, 2)
        if self.xyz_mm is not None:
            self.xyz_mm = np.asarray(self.xyz_mm, dtype=np.float64).reshape(k, 3)
        if self.zr_norm is not None:
            self.zr_norm = np.asarray(self.zr_norm, dtype=np.float64).reshape(k)
        if self.side not in ("left", "right"):
            raise DataFormatError(f"side must be 'left' or 'right', got {self.side!r}")

    @property
    def num_keypoints(self) -> int:
        return self.valid.shape[0]

    def pose2d(self) -> Pose2D:
        if self.px is None:
            raise DataFormatError("record carries no pixel coordinates")
        return Pose2D(xy=self.px.copy(), valid=self.valid.copy())

    def pose3d(self) -> Pose3D:
        if self.xyz_mm is None:
            raise DataFormatError("record carries no 3D coordinates")
        return Pose3D(xyz=self.xyz_mm.copy(), valid=self.valid.copy())

    def pose25d(self) -> Pose25D:
        if self.px is None or self.zr_norm is None:
            raise DataFormatError("record carries no complete 2.5D view")
        return Pose25D(xy=self.px.copy(), zr=self.zr_norm.copy(), valid=self.valid.copy())


def record_to_dict(rec: PoseRecord, skel: Skeleton | None = None) -> dict:
    skel = skel or canonical_skeleton()
    if rec.num_keypoints != skel.num_keypoints:
        raise DataFormatError("record keypoint count does not match the skeleton")
    kps = []
    for i in range(rec.num_keypoints):
        entry: dict = {"id": i, "name": skel.names[i], "valid": bool(rec.valid[i])}
        if rec.valid[i]:
            if rec.px is not None:
                entry["px"] = [float(rec.px[i, 0]), float(rec.px[i, 1])]
            if rec.xyz_mm is not None:
                entry["xyz_mm"] = [float(v) for v in rec.xyz_mm[i]]
            if rec.zr_norm is not None:
                entry["zr_norm"] = float(rec.zr_norm[i])
        kps.append(entry)
    out: dict = {"schema_version": SCHEMA_VERSION, "side": rec.side, "keypoints": kps}
    if rec.camera is not None:
        out["camera"] = camera_to_dict(rec.camera)
    if rec.meta is not None:
        out["meta"] = rec.meta
    return out


def record_from_dict(obj: dict) -> PoseRecord:
    if not isinstance(obj, dict):
        raise DataFormatError("pose record must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise DataFormatError(f"unsupported schema_version {obj.get('schema_version')!r}")
    kps = obj.get("keypoints")
    if not isinstance(kps, list) or not kps:
        raise DataFormatError("record has no keypoints array")
    k = len(kps)
    expected = canonical_skeleton().num_keypoints
    if k != expected:
        raise DataFormatError(f"record has {k} keypoints, expected {expected}")
    if not all(isinstance(e, dict) and isinstance(e.get("id"), int) for e in kps):
        raise DataFormatError("every keypoint entry needs an integer id")
    if sorted(e["id"] for e in kps) != list(range(k)):
        raise DataFormatError("keypoint ids must be 0..K-1, each exactly once")
    by_id = sorted(kps, key=lambda e: e["id"])
    valid = np.zeros(k, dtype=bool)
    has_px = any("px" in e for e in by_id)
    has_xyz = any("xyz_mm" in e for e in by_id)
    has_zr = any("zr_norm" in e for e in by_id)
    px = np.zeros((k, 2)) if has_px else None
    xyz = np.zeros((k, 3)) if has_xyz else None
    zr = np.zeros(k) if has_zr else None
    for i, entry in enumerate(by_id):
        valid[i] = bool(entry.get("valid", False))
        if "px" in entry:
            vals = entry["px"]
            if not (isinstance(vals, list) and len(vals) == 2):
                raise DataFormatError(f"keypoint {i}: px must be [x, y]")
            px[i] = [_finite(v, f"keypoint {i} px") for v in vals]
        elif valid[i] and has_px:
            raise DataFormatError(f"keypoint {i} is valid but lacks px")
        if "xyz_mm" in entry:
            vals = entry["xyz_mm"]
            if not (isinstance(vals, list) and len(vals) == 3):
                raise DataFormatError(f"keypoint {i}: xyz_mm must be [X, Y, Z]")
            xyz[i] = [_finite(v, f"keypoint {i} xyz_mm") for v in vals]
        elif valid[i] and has_xyz:
            raise DataFormatError(f"keypoint {i} is valid but lacks xyz_mm")
        if "zr_norm" in entry:
            zr[i] = _finite(entry["zr_norm"], f"keypoint {i} zr_norm")
        elif valid[i] and has_zr:
            raise DataFormatError(f"keypoint {i} is valid but lacks zr_norm")
    camera = camera_from_dict(obj["camera"]) if "camera" in obj else None
    return PoseRecord(
        valid=valid,
        px=px,
        xyz_mm=xyz,
        zr_norm=zr,
        side=obj.get("side", "right"),
        camera=camera,
        meta=obj.get("meta"),
    )


def write_pose_records(path: str | Path, records: Iterable[PoseRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(_dumps(record_to_dict(rec)))
            fh.write("\n")


def read_pose_records(path: str | Path) -> list[PoseRecord]:
    return list(iter_pose_records(path))


def iter_pose_records(path: str | Path) -> Iterator[PoseRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    yield record_from_dict(_loads(line))
                except DataFormatError as exc:
                    raise DataFormatError(f"{path}:{lineno}: {exc}") from exc


def flip_record_to_right(rec: PoseRecord) -> PoseRecord:
    """Mirror a left-hand record into the right-hand convention: X is
    negated about the camera axis and pixels reflect about cx. Right-hand
    records pass through untouched."""
    if rec.side == "right":
        return rec
    if rec.camera is None:
        raise ConfigError("flipping a left-hand record requires camera intrinsics")
    xyz = None
    px = None
    if rec.xyz_mm is not None:
        xyz = rec.xyz_mm.copy()
        xyz[:, 0] = -xyz[:, 0]
    if rec.px is not None:
        if xyz is not None and np.all(xyz[rec.valid, 2] > 0):
            p2d, _ = project(Pose3D(xyz=xyz, valid=rec.valid.copy()), rec.camera)
            px = p2d.xy
        else:
            if rec.camera.skew != 0:
                raise ConfigError("pixel-only flip requires zero skew")
            px = rec.px.copy()
            px[:, 0] = 2.0 * rec.camera.cx - px[:, 0]
    return PoseRecord(
        valid=rec.valid.copy(),
        px=px,
        xyz_mm=xyz,
        zr_norm=None if rec.zr_norm is None else rec.zr_norm.copy(),
        side="right",
        camera=rec.camera,
        meta=rec.meta,
    )


# --- small JSON sidecars ---------------------------------------------------


def camera_to_dict(cam: CameraIntrinsics) -> dict:
    return {"fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy, "skew": cam.skew}


def camera_from_dict(obj: dict) -> CameraIntrinsics:
    if not isinstance(obj, dict):
        raise DataFormatError("camera must be a JSON object")
    try:
        return CameraIntrinsics(
            fx=_finite(obj["fx"], "fx"),
            fy=_finite(obj["fy"], "fy"),
            cx=_finite(obj["cx"], "cx"),
            cy=_finite(obj["cy"], "cy"),
            skew=_finite(obj.get("skew", 0.0), "skew"),
        )
    except KeyError as exc:
        raise DataFormatError(f"camera JSON missing field {exc}") from exc
    except ConfigError as exc:
        raise DataFormatError(str(exc)) from exc


def write_camera_json(path: str | Path, cam: CameraIntrinsics) -> None:
    Path(path).write_text(_dumps(camera_to_dict(cam)) + "\n", encoding="utf-8")


def read_camera_json(path: str | Path) -> CameraIntrinsics:
    return camera_from_dict(_loads(Path(path).read_text(encoding="utf-8")))


def write_bone_stats_json(path: str | Path, stats: BoneStats) -> None:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "mean_length_mm": [float(v) for v in stats.mean_length],
    }
    Path(path).write_text(_dumps(obj) + "\n", encoding="utf-8")


def read_bone_stats_json(path: str | Path) -> BoneStats:
    obj = _loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict) or "mean_length_mm" not in obj:
        raise DataFormatError("bone stats JSON must carry mean_length_mm")
    values = [_finite(v, "bone length") for v in obj["mean_length_mm"]]
    if any(v <= 0 for v in values):
        raise DataFormatError("bone lengths must be positive")
    return BoneStats(mean_length=np.array(values))


def skeleton_to_dict(skel: Skeleton) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "num_keypoints": skel.num_keypoints,
        "names": list(skel.names),
        "parent": list(skel.parent),
        "bones": [[c, p] for c, p in skel.bones],
    }


def write_skeleton_json(path: str | Path, skel: Skeleton) -> None:
    Path(path).write_text(_dumps(skeleton_to_dict(skel)) + "\n", encoding="utf-8")


def read_skeleton_json(path: str | Path) -> Skeleton:
    obj = _loads(Path(path).read_text(encoding="utf-8"))
    try:
        return Skeleton(
            num_keypoints=int(obj["num_keypoints"]),
            names=tuple(obj["names"]),
            parent=tuple(int(p) for p in obj["parent"]),
            bones=tuple((int(c), int(p)) for c, p in obj["bones"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid skeleton JSON: {exc}") from exc


def write_beta_json(path: str | Path, beta: np.ndarray) -> None:
    Path(path).write_text(_dumps([float(b) for b in beta]) + "\n", encoding="utf-8")


def read_beta_json(path: str | Path) -> np.ndarray:
    obj = _loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, list) or not obj:
        raise DataFormatError("beta JSON must be a non-empty array")
    values = [_finite(v, "beta") for v in obj]
    if any(v <= 0 for v in values):
        raise DataFormatError("beta values must be positive")
    return np.array(values)


# --- H25D binary heatmaps ---------------------------------------------------


def write_h25d(path: str | Path, stack: HeatmapStack) -> None:
    k, h, w = stack.likelihood.shape
    kind = _KINDS.index(stack.kind)
    header = _H25D_HEADER.pack(H25D_MAGIC, H25D_VERSION, k, h, w, kind)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(stack.likelihood, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(stack.depth, dtype="<f4").tobytes())


def read_h25d(path: str | Path) -> HeatmapStack:
    raw = Path(path).read_bytes()
    if len(raw) < _H25D_HEADER.size:
        raise DataFormatError("file too short for an H25D header")
    magic, version, k, h, w, kind_idx = _H25D_HEADER.unpack_from(raw)
    if magic != H25D_MAGIC:
        raise DataFormatError(f"bad magic {magic!r}")
    if version != H25D_VERSION:
        raise DataFormatError(f"unsupported H25D version {version}")
    if kind_idx >= len(_KINDS):
        raise DataFormatError(f"unknown heatmap kind byte {kind_idx}")
    if 0 in (k, h, w):
        raise DataFormatError(f"empty heatmap stack: K={k}, H={h}, W={w}")
    count = k * h * w
    expected = _H25D_HEADER.size + 2 * count * 4
    if len(raw) != expected:
        raise DataFormatError(f"expected {expected} bytes, found {len(raw)}")
    body = np.frombuffer(raw, dtype="<f4", offset=_H25D_HEADER.size)
    like = body[:count].reshape(k, h, w)
    depth = body[count:].reshape(k, h, w)
    if not (np.all(np.isfinite(like)) and np.all(np.isfinite(depth))):
        raise DataFormatError("heatmap payload contains non-finite values")
    return HeatmapStack(kind=_KINDS[kind_idx], likelihood=like, depth=depth)


# --- evaluation outputs -----------------------------------------------------


def report_to_dict(report: EvalReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "protocol": report.protocol,
        "space": report.space,
        "unit": report.unit,
        "epe_mean": report.epe_mean,
        "epe_median": report.epe_median,
        "auc": report.auc,
        "pck": [[t, f] for t, f in report.pck],
        "num_samples": report.num_samples,
        "num_failed": report.num_failed,
        "per_keypoint_errors": list(report.per_keypoint_errors),
        "meta": report.meta,
    }


def write_report_json(path: str | Path, report: EvalReport) -> None:
    Path(path).write_text(_dumps(report_to_dict(report)) + "\n", encoding="utf-8")


def read_report_json(path: str | Path) -> EvalReport:
    obj = _loads(Path(path).read_text(encoding="utf-8"))
    try:
        return EvalReport(
            protocol=obj["protocol"],
            space=obj["space"],
            unit=obj["unit"],
            per_keypoint_errors=tuple(_finite(v, "error") for v in obj["per_keypoint_errors"]),
            epe_mean=_finite(obj["epe_mean"], "epe_mean"),
            epe_median=_finite(obj["epe_median"], "epe_median"),
            pck=tuple((_finite(t, "threshold"), _finite(f, "fraction")) for t, f in obj["pck"]),
            auc=_finite(obj["auc"], "auc"),
            num_samples=int(obj.get("num_samples", 0)),
            num_failed=int(obj.get("num_failed", 0)),
            meta=obj.get("meta", {}) or {},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid report JSON: {exc}") from exc


def write_curve_csv(path: str | Path, pck: Iterable[tuple[float, float]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["threshold", "fraction"])
    for t, f in pck:
        writer.writerow([repr(float(t)), repr(float(f))])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")
