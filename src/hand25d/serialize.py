"""File formats: pose-record JSONL, small JSON sidecars (camera, bone
stats, beta), the H25D binary heatmap container, report JSON
and curve CSV.

All JSON is UTF-8 with keys emitted in a fixed order and floats in
Python's shortest round-trip form, so write -> read -> write is
byte-identical. NaN and infinity are rejected on both ends.
"""
from __future__ import annotations

import json
import os
import struct
import sys
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .camera import CameraIntrinsics
from .errors import ConfigError, DataFormatError, NonFiniteError, ShapeMismatchError
from .heatmap import HeatmapStack
from .metrics import EvalReport
from .skeleton import BoneStats, canonical_skeleton
from .types import Pose3D, Pose25D, _Keypoints, _as_bools, _shaped

SCHEMA_VERSION = 1
H25D_MAGIC = b"H25D"
H25D_VERSION = 1
_H25D_HEADER = struct.Struct("<4sIIIIB3x")
_KINDS = ("direct", "latent")


def _reject_constant(token: str):
    raise DataFormatError(f"non-finite JSON number {token!r}")


# One decoder and one encoder for every line: json.loads and json.dumps build
# a new one per call when given options.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _loads(text: str):
    try:
        if text.startswith("\ufeff"):  # json.loads' BOM check, which JSONDecoder.decode lacks
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from exc


def _dumps(obj) -> str:
    return _ENCODER.encode(obj)


def _lines(path: str | Path):
    """The lines of a text file as they are read; DataFormatError if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_json(path: str | Path):
    return _loads("".join(_lines(path)))


_NUMBER = {int, float}  # the types json.loads gives a number; bool is not one
_CHUNK_RECORDS = 256  # records whose numbers read_pose_records converts at once
# Pose-record views: key (= PoseRecord field), values per keypoint (0: scalar), error text
_VIEWS = (("px", 2, "[x, y]"), ("xyz_mm", 3, "[X, Y, Z]"), ("zr_norm", 0, "a number"))


def _finite(value, what: str) -> float:
    if type(value) not in _NUMBER:
        raise DataFormatError(f"{what} is not a number: {value!r}")
    # exact int/float comparison: rejects inf, NaN and ints beyond the float range
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise DataFormatError(f"{what} must be finite, got {value!r}")
    return float(value)


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise DataFormatError(f"{what} is not an integer: {value!r}")
    return value


def _side(side) -> str:
    if side not in ("left", "right"):
        raise DataFormatError(f"side must be 'left' or 'right', got {side!r}")
    return side


@dataclass
class PoseRecord(_Keypoints):
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
        self.valid = _as_bools(self.valid, "valid")
        if self.valid.ndim != 1:
            raise ShapeMismatchError(f"validity mask shape {self.valid.shape} is not (K,)")
        k = self.valid.shape[0]
        for key, width, _ in _VIEWS:
            if (value := getattr(self, key)) is not None:
                setattr(self, key, _shaped(value, np.float64, key, (k, width) if width else (k,)))
        _side(self.side)

    def pose3d(self) -> Pose3D:
        if self.xyz_mm is None:
            raise DataFormatError("record carries no 3D coordinates")
        return Pose3D(xyz=self.xyz_mm.copy(), valid=self.valid.copy())

    def pose25d(self) -> Pose25D:
        if self.px is None or self.zr_norm is None:
            raise DataFormatError("record carries no complete 2.5D view")
        return Pose25D(xy=self.px.copy(), zr=self.zr_norm.copy(), valid=self.valid.copy())


def record_to_dict(rec: PoseRecord) -> dict:
    skel = canonical_skeleton()
    if rec.num_keypoints != skel.num_keypoints:
        raise DataFormatError("record keypoint count does not match the skeleton")
    # .tolist() yields Python floats, whose repr is that of float(arr[i, j])
    views = [(key, getattr(rec, key).tolist()) for key, _, _ in _VIEWS
             if getattr(rec, key) is not None]
    kps = []
    for i, (name, ok) in enumerate(zip(skel.names, rec.valid.tolist())):
        entry: dict = {"id": i, "name": name, "valid": ok}
        if ok:
            for key, values in views:
                entry[key] = values[i]
        kps.append(entry)
    out: dict = {"schema_version": SCHEMA_VERSION, "side": rec.side, "keypoints": kps}
    if rec.camera is not None:
        out["camera"] = camera_to_dict(rec.camera)
    if rec.meta is not None:
        out["meta"] = rec.meta
    return out


def _view_values(kps: list, valid: list, key: str, width: int, form: str) -> list | None:
    """One view of all keypoints as one flat list of JSON values, or None if
    no keypoint has it; an invalid keypoint without it reads as 0.0. Checks
    the structure only, not that the values are numbers."""
    if not any(key in e for e in kps):
        return None
    pad = [0.0] * max(width, 1)
    flat: list = []
    for i, entry in enumerate(kps):
        value = entry.get(key, pad)
        if value is pad and valid[i]:
            raise DataFormatError(f"keypoint {i} is valid but lacks {key}")
        if value is pad or (width and type(value) is list and len(value) == width):
            flat += value
        elif width:
            raise DataFormatError(f"keypoint {i}: {key} must be {form}")
        else:
            flat.append(value)
    return flat


def _floats(flat: list) -> np.ndarray | None:
    """flat as a float64 array, or None unless every value is a finite int or float."""
    try:
        arr = np.array(flat, dtype=np.float64) if set(map(type, flat)) <= _NUMBER else None
    except OverflowError:  # an integer beyond the float range
        return None
    return arr if arr is not None and np.isfinite(arr).all() else None


def _record_fields(obj) -> tuple:
    """record_from_dict's checks of everything but the numbers, in its
    order: the valid flags (a list), the three views as flat lists of JSON
    values (None if absent), side, camera and meta."""
    if not isinstance(obj, dict):
        raise DataFormatError("pose record must be a JSON object")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise DataFormatError(f"unsupported schema_version {version!r}")
    kps = obj.get("keypoints")
    if not isinstance(kps, list) or not kps:
        raise DataFormatError("record has no keypoints array")
    skel = canonical_skeleton()
    expected = skel.num_keypoints
    if len(kps) != expected:
        raise DataFormatError(f"record has {len(kps)} keypoints, expected {expected}")
    if not all(isinstance(e, dict) and type(e.get("id")) is int for e in kps):
        raise DataFormatError("every keypoint entry needs an integer id")
    ids = [e["id"] for e in kps]
    if ids != list(range(expected)):  # files this library writes are in id order
        if sorted(ids) != list(range(expected)):
            raise DataFormatError("keypoint ids must be 0..K-1, each exactly once")
        kps = sorted(kps, key=lambda e: e["id"])
    valid = [e.get("valid", False) for e in kps]
    for i, flag in enumerate(valid):
        if type(flag) is not bool:
            raise DataFormatError(f"keypoint {i}: valid must be true or false, got {flag!r}")
    views = [_view_values(kps, valid, key, width, form) for key, width, form in _VIEWS]
    for i, (entry, name) in enumerate(zip(kps, skel.names)):
        if entry.get("name", name) != name:
            raise DataFormatError(f"keypoint {i}: name {entry['name']!r}, expected {name!r}")
    camera = camera_from_dict(obj["camera"]) if "camera" in obj else None
    return valid, *views, _side(obj.get("side", "right")), camera, obj.get("meta")


def _records(fields: list[tuple], where: Callable[[int], str]) -> list[PoseRecord]:
    """PoseRecords of `_record_fields` results, with one conversion and one
    finiteness check per view for all of them; each record gets rows of those
    arrays. A value that is not a finite number raises DataFormatError for
    the first one in record order, prefixed by where(i) for record i."""
    if not fields:
        return []
    k = canonical_skeleton().num_keypoints
    columns = [list(col) for col in zip(*fields)]
    columns[0] = np.array(columns[0], dtype=bool)
    for v, (key, width, _) in enumerate(_VIEWS, start=1):
        have = [i for i, flat in enumerate(columns[v]) if flat is not None]
        if have:
            arr = _floats(list(chain.from_iterable(columns[v][i] for i in have)))
            if arr is None:  # _finite raises for the first bad value
                for i, row in enumerate(fields):
                    for (name, size, _), flat in zip(_VIEWS, row[1:]):
                        for j, value in enumerate(flat or ()):
                            _finite(value, f"{where(i)}keypoint {j // max(size, 1)} {name}")
            shape = (len(have), k, width) if width else (len(have), k)
            for i, row in zip(have, arr.reshape(shape)):
                columns[v][i] = row
    return [PoseRecord(*row) for row in zip(*columns)]


def record_from_dict(obj: dict) -> PoseRecord:
    return _records([_record_fields(obj)], lambda i: "")[0]


def write_pose_records(path: str | Path, records: Iterable[PoseRecord]) -> None:
    """One JSONL line per record, written as it is made. A record holding NaN
    or infinity, or a meta value JSON has no type for, raises DataFormatError
    naming its index; the lines before it stay written."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, rec in enumerate(records):
            obj = record_to_dict(rec)
            try:
                fh.write(_dumps(obj) + "\n")
            except (TypeError, ValueError) as exc:  # e.g. a numpy scalar or a cycle in meta
                text = str(exc)
                if text.startswith("Out of range float"):  # the encoder's NaN/infinity error
                    text = "values must be finite; JSON has no NaN or infinity"
                raise DataFormatError(f"record {i}: {text}") from None


def read_pose_records(path: str | Path) -> list[PoseRecord]:
    """Every record of a JSONL file. Each line is parsed once, and all of it
    but its numbers is checked as it is read; the numbers of up to
    _CHUNK_RECORDS records are converted at once. An error names the first
    bad line in file order: `path:lineno: ` and record_from_dict's message."""
    records: list[PoseRecord] = []
    fields: list[tuple] = []  # _record_fields of the open chunk's lines
    linenos: list[int] = []  # and their line numbers
    def where(i: int) -> str:
        return f"{path}:{linenos[i]}: "
    for lineno, line in enumerate(_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            fields.append(_record_fields(_loads(line)))
        except DataFormatError as exc:
            _records(fields, where)  # a bad number on an earlier line comes first
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        linenos.append(lineno)
        if len(fields) == _CHUNK_RECORDS:
            records += _records(fields, where)
            fields, linenos = [], []
    return records + _records(fields, where)


def flip_record_to_right(rec: PoseRecord) -> PoseRecord:
    """Mirror a left-hand record into the right-hand convention: X is
    negated about the camera axis, and each valid pixel moves to the image
    of the mirrored point, x' = 2 (cx + skew (y - cy) / fy) - x, which
    needs no depth. Invalid pixel rows are left as they are, and arrays
    that do not change are shared. Right-hand records pass through untouched."""
    if rec.side == "right":
        return rec
    cam = rec.camera
    if cam is None:
        raise ConfigError("flipping a left-hand record requires camera intrinsics")
    xyz = px = None
    if rec.xyz_mm is not None:
        xyz = rec.xyz_mm.copy()
        xyz[:, 0] = -xyz[:, 0]
    if rec.px is not None:
        px = rec.px.copy()
        x, y = px[rec.valid].T
        px[rec.valid, 0] = 2.0 * (cam.cx + cam.skew * (y - cam.cy) / cam.fy) - x
    return replace(rec, px=px, xyz_mm=xyz, side="right")


# --- small JSON sidecars ---------------------------------------------------


def camera_to_dict(cam: CameraIntrinsics) -> dict:
    return {"fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy, "skew": cam.skew}


def camera_from_dict(obj: dict) -> CameraIntrinsics:
    if not isinstance(obj, dict):
        raise DataFormatError("camera must be a JSON object")
    try:
        fields = {name: _finite(obj[name], name) for name in ("fx", "fy", "cx", "cy")}
        return CameraIntrinsics(**fields, skew=_finite(obj.get("skew", 0.0), "skew"))
    except KeyError as exc:
        raise DataFormatError(f"camera JSON missing field {exc}") from exc
    except ConfigError as exc:
        raise DataFormatError(str(exc)) from exc


def write_camera_json(path: str | Path, cam: CameraIntrinsics) -> None:
    Path(path).write_text(_dumps(camera_to_dict(cam)) + "\n", encoding="utf-8")


def read_camera_json(path: str | Path) -> CameraIntrinsics:
    return camera_from_dict(_read_json(path))


def write_bone_stats_json(path: str | Path, stats: BoneStats) -> None:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "mean_length_mm": [float(v) for v in stats.mean_length],
    }
    Path(path).write_text(_dumps(obj) + "\n", encoding="utf-8")


def read_bone_stats_json(path: str | Path) -> BoneStats:
    obj = _read_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("mean_length_mm"), list):
        raise DataFormatError("bone stats JSON must carry a mean_length_mm array")
    values = [_finite(v, "bone length") for v in obj["mean_length_mm"]]
    if any(v <= 0 for v in values):
        raise DataFormatError("bone lengths must be positive")
    expected = canonical_skeleton().num_keypoints - 1
    if len(values) != expected:
        raise DataFormatError(f"bone stats have {len(values)} lengths, expected {expected}")
    return BoneStats(mean_length=np.array(values))


def write_beta_json(path: str | Path, beta: np.ndarray) -> None:
    Path(path).write_text(_dumps([float(b) for b in beta]) + "\n", encoding="utf-8")


def read_beta_json(path: str | Path) -> np.ndarray:
    obj = _read_json(path)
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
        # one (H, W) map at a time, so the float32 copy stays map-sized
        for maps in (stack.likelihood, stack.depth):
            for m in maps:
                fh.write(np.ascontiguousarray(m, dtype="<f4"))


def read_h25d(path: str | Path) -> HeatmapStack:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _H25D_HEADER.size:
            raise DataFormatError("file too short for an H25D header")
        magic, version, k, h, w, kind_idx = _H25D_HEADER.unpack(fh.read(_H25D_HEADER.size))
        if magic != H25D_MAGIC:
            raise DataFormatError(f"bad magic {magic!r}")
        if version != H25D_VERSION:
            raise DataFormatError(f"unsupported H25D version {version}")
        if kind_idx >= len(_KINDS):
            raise DataFormatError(f"unknown heatmap kind byte {kind_idx}")
        if 0 in (k, h, w):
            raise DataFormatError(f"empty heatmap stack: K={k}, H={h}, W={w}")
        expected = _H25D_HEADER.size + 2 * k * h * w * 4
        if size != expected:
            raise DataFormatError(f"expected {expected} bytes, found {size}")
        # read map by map through one float32 buffer into the float64 stack
        maps = np.empty((2 * k, h, w))
        buf = np.empty((h, w), dtype="<f4")
        for m in maps:
            if fh.readinto(buf) != buf.nbytes:
                raise DataFormatError(f"file shrank below {expected} bytes while reading")
            m[...] = buf
    try:
        return HeatmapStack(kind=_KINDS[kind_idx], likelihood=maps[:k], depth=maps[k:])
    except NonFiniteError:
        raise DataFormatError("heatmap payload contains non-finite values") from None


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
    """One JSON line; a value JSON cannot hold raises DataFormatError and writes nothing."""
    try:
        text = _dumps(report_to_dict(report))
    except (TypeError, ValueError) as exc:  # the encoder's errors, as in write_pose_records
        raise DataFormatError(f"report: {exc}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_report_json(path: str | Path) -> EvalReport:
    obj = _read_json(path)
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
            num_samples=_int(obj.get("num_samples", 0), "num_samples"),
            num_failed=_int(obj.get("num_failed", 0), "num_failed"),
            meta=obj.get("meta", {}) or {},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid report JSON: {exc}") from exc


def write_curve_csv(path: str | Path, pck: Iterable[tuple[float, float]]) -> None:
    rows = "".join(f"{float(t)!r},{float(f)!r}\n" for t, f in pck)
    Path(path).write_text("threshold,fraction\n" + rows, encoding="utf-8")
