import json
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hand25d import serialize
from hand25d.camera import CameraIntrinsics, backproject, project
from hand25d.errors import ConfigError, DataFormatError, Hand25DError, ShapeMismatchError
from hand25d.heatmap import HeatmapGrid, HeatmapStack, SpreadParams, encode_direct
from hand25d.metrics import evaluate
from hand25d.objective import SampleAnnotations
from hand25d.skeleton import BoneStats, canonical_skeleton
from hand25d.synth import SynthConfig, gen_pose
from hand25d.types import Pose2D, Pose3D, Pose25D


def synth_records(count, seed=0, **kwargs):
    cfg = SynthConfig(seed=seed, **kwargs)
    return [gen_pose(cfg, i)[2] for i in range(count)]


class TestPoseRecordJsonl:
    def test_write_read_write_byte_identical(self, tmp_path):
        records = synth_records(50)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        serialize.write_pose_records(first, records)
        serialize.write_pose_records(second, serialize.read_pose_records(first))
        assert first.read_bytes() == second.read_bytes()

    def test_partial_validity_round_trip(self, tmp_path):
        rec = synth_records(1)[0]
        rec.valid[3] = False
        rec.valid[17] = False
        path = tmp_path / "p.jsonl"
        serialize.write_pose_records(path, [rec])
        back = serialize.read_pose_records(path)[0]
        np.testing.assert_array_equal(back.valid, rec.valid)
        np.testing.assert_array_equal(back.px[rec.valid], rec.px[rec.valid])
        # invalid keypoints come back as placeholders
        assert back.px[3, 0] == 0.0

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        line = (
            '{"schema_version":1,"side":"right","keypoints":['
            + ",".join(
                f'{{"id":{i},"name":"k{i}","valid":true,"px":[NaN,0.0]}}' for i in range(21)
            )
            + "]}"
        )
        path.write_text(line + "\n")
        with pytest.raises(DataFormatError):
            serialize.read_pose_records(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        kps = ",".join(f'{{"id":0,"name":"x","valid":false}}' for _ in range(21))
        path.write_text(f'{{"schema_version":1,"side":"right","keypoints":[{kps}]}}\n')
        with pytest.raises(DataFormatError):
            serialize.read_pose_records(path)

    def test_valid_without_coordinates_rejected(self, tmp_path):
        path = tmp_path / "incons.jsonl"
        kps = ['{"id":0,"name":"palm","valid":true,"px":[1.0,2.0]}']
        kps += [f'{{"id":{i},"name":"k","valid":true}}' for i in range(1, 21)]
        path.write_text(
            '{"schema_version":1,"side":"right","keypoints":[' + ",".join(kps) + "]}\n"
        )
        with pytest.raises(DataFormatError):
            serialize.read_pose_records(path)

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        records = synth_records(2)
        path = tmp_path / "r.jsonl"
        serialize.write_pose_records(path, records)
        first, second = path.read_text().splitlines()
        path.write_text(f"\n{first}\n  \n{second}\n\n")
        back = serialize.read_pose_records(path)
        assert [serialize.record_to_dict(r) for r in back] == [
            serialize.record_to_dict(r) for r in records]
        path.write_text(f"{first}\n\n{{}}\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:3: "):
            serialize.read_pose_records(path)

    def test_record_without_21_keypoints_is_not_written(self):
        rec = serialize.PoseRecord(valid=np.ones(20, dtype=bool), px=np.zeros((20, 2)))
        with pytest.raises(DataFormatError,
                           match="^record keypoint count does not match the skeleton$"):
            serialize.record_to_dict(rec)

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        path.write_text('{"schema_version":9,"side":"right","keypoints":[]}\n')
        with pytest.raises(DataFormatError):
            serialize.read_pose_records(path)


def record_json(seed=0):
    """One synthetic record as json.loads gives it back from a file."""
    return json.loads(json.dumps(serialize.record_to_dict(synth_records(1, seed=seed)[0])))


def _set(path, value):
    def mutate(obj):
        *head, last = path
        for step in head:
            obj = obj[step]
        obj[last] = value
    return mutate


# One fault each: (mutate, the start of record_from_dict's message)
SINGLE_FAULTS = [
    (_set(["keypoints", 3, "valid"], "false"), "keypoint 3: valid must be true or false"),
    (_set(["keypoints", 3, "valid"], 1), "keypoint 3: valid must be true or false"),
    (_set(["keypoints", 3, "px"], [True, 2.0]), "keypoint 3 px is not a number"),
    (_set(["keypoints", 3, "px"], ["1.5", 2.0]), "keypoint 3 px is not a number"),
    (_set(["keypoints", 3, "xyz_mm"], [1.0, None, 2.0]), "keypoint 3 xyz_mm is not a number"),
    (_set(["keypoints", 3, "zr_norm"], False), "keypoint 3 zr_norm is not a number"),
    (_set(["keypoints", 3, "zr_norm"], [0.5]), "keypoint 3 zr_norm is not a number"),
    (_set(["keypoints", 3, "px"], None), "keypoint 3: px must be [x, y]"),
    (_set(["keypoints", 3, "px"], [1.0]), "keypoint 3: px must be [x, y]"),
    (_set(["keypoints", 3, "xyz_mm"], 10**400), "keypoint 3: xyz_mm must be [X, Y, Z]"),
    (_set(["keypoints", 3, "xyz_mm"], [1.0, 10**400, 2.0]), "keypoint 3 xyz_mm must be finite"),
    (_set(["keypoints", 3, "zr_norm"], float("inf")), "keypoint 3 zr_norm must be finite"),
    (_set(["keypoints", 1, "id"], True), "integer id"),
    (_set(["keypoints", 1, "id"], 1.0), "integer id"),
    (_set(["schema_version"], True), "schema_version"),
    (_set(["schema_version"], 1.0), "schema_version"),
    (_set(["camera", "fx"], True), "fx is not a number"),
    (_set(["camera", "fy"], "100"), "fy is not a number"),
    (_set(["camera", "skew"], 10**400), "skew must be finite"),
    (_set(["side"], "up"), "side must be 'left' or 'right', got 'up'"),
]
SINGLE_FAULT_IDS = [
    "valid-str", "valid-int", "px-bool", "px-str", "xyz-null", "zr-bool", "zr-list",
    "px-null", "px-short", "xyz-scalar", "xyz-huge-int", "zr-inf", "id-bool", "id-float",
    "version-bool", "version-float", "camera-fx-bool", "camera-fy-str", "camera-skew-huge",
    "side-up",
]


class TestStrictJsonTypes:
    """JSON types are checked, never coerced: bool is not a number, a
    string is not a bool or a number."""

    @pytest.mark.parametrize("mutate, message", SINGLE_FAULTS, ids=SINGLE_FAULT_IDS)
    def test_rejected(self, mutate, message):
        obj = record_json()
        mutate(obj)
        with pytest.raises(DataFormatError, match=re.escape(message)):
            serialize.record_from_dict(obj)

    def test_integer_coordinates_are_numbers(self):
        obj = record_json()
        obj["keypoints"][3]["px"] = [12, -7]
        obj["keypoints"][3]["zr_norm"] = 0
        obj["camera"]["fx"] = 150
        rec = serialize.record_from_dict(obj)
        assert rec.px[3].tolist() == [12.0, -7.0] and rec.px.dtype == np.float64
        assert rec.zr_norm[3] == 0.0
        assert rec.camera.fx == 150.0

    def test_first_bad_keypoint_is_named(self):
        obj = record_json()
        obj["keypoints"][17]["px"] = [float("inf"), 0.0]
        obj["keypoints"][5]["px"] = [0.0, float("-inf")]
        with pytest.raises(DataFormatError, match="keypoint 5 px must be finite"):
            serialize.record_from_dict(obj)


_VIEW_WIDTHS = {"px": 2, "xyz_mm": 3, "zr_norm": 0}
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                sys.float_info.max, -sys.float_info.max]
_coords = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS))
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def pose_records(draw):
    k = canonical_skeleton().num_keypoints
    views = {}
    for key in draw(st.sets(st.sampled_from(sorted(_VIEW_WIDTHS)))):
        width = _VIEW_WIDTHS[key]
        values = draw(st.lists(_coords, min_size=k * max(width, 1), max_size=k * max(width, 1)))
        views[key] = np.array(values).reshape((k, width) if width else k)
    camera = draw(st.none() | st.builds(
        CameraIntrinsics,
        fx=st.floats(1e-3, 1e6), fy=st.floats(1e-3, 1e6),
        cx=_coords, cy=_coords, skew=st.floats(-1e3, 1e3),
    ))
    meta = draw(st.none() | st.dictionaries(st.text(max_size=6), _json_scalars, max_size=4))
    return serialize.PoseRecord(
        valid=np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k))),
        side=draw(st.sampled_from(["left", "right"])),
        camera=camera,
        meta=meta,
        **views,
    )


def _bits(rec):
    views = [None if a is None else (a.dtype.str, a.shape, a.tobytes())
             for a in (rec.valid, rec.px, rec.xyz_mm, rec.zr_norm)]
    return views, rec.side, rec.camera, rec.meta


class TestCodecProperties:
    @settings(deadline=None)
    @given(rec=pose_records(), order=st.permutations(range(21)))
    def test_round_trip(self, rec, order):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
            serialize.write_pose_records(first, [rec])
            (back,) = serialize.read_pose_records(first)
            serialize.write_pose_records(second, [back])
            assert first.read_bytes() == second.read_bytes()
            obj = json.loads(first.read_text(encoding="utf-8"))
        np.testing.assert_array_equal(back.valid, rec.valid)
        for key in _VIEW_WIDTHS:
            sent, got = getattr(rec, key), getattr(back, key)
            if sent is None or not rec.valid.any():
                assert got is None  # a view no valid keypoint carries is not written
                continue
            assert got.dtype == np.float64 and got.shape == sent.shape
            assert got[rec.valid].tobytes() == sent[rec.valid].tobytes()
            assert got[~rec.valid].tobytes() == bytes(got[~rec.valid].nbytes)  # +0.0
        assert (back.side, back.camera, back.meta) == (rec.side, rec.camera, rec.meta)
        obj["keypoints"] = [obj["keypoints"][i] for i in order]
        assert _bits(serialize.record_from_dict(obj)) == _bits(back)



def _varied_records(count):
    """Synth records that differ in which views, camera, side, meta and
    valid keypoints they carry, so a chunk mixes every kind."""
    records = synth_records(count, seed=2)
    for i, rec in enumerate(records):
        if i % 3 == 1:
            rec.px = None
        if i % 7 == 2:
            rec.xyz_mm = None
        if i % 5 == 3:
            rec.side = "left"
        if i % 11 == 4:
            rec.camera = None
        if i % 4 == 0:
            rec.meta = {"i": i}
        rec.valid[i % 21] = i % 2 == 0
    return records


def _line_by_line(path):
    """The records of a file as record_from_dict reads each line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [serialize.record_from_dict(json.loads(line)) for line in lines if line.strip()]


class TestChunkedReader:
    """read_pose_records converts the numbers of up to 256 records at once;
    every record still reads as record_from_dict reads its line, and an error
    names the first bad line in file order with record_from_dict's message."""

    @pytest.mark.parametrize("count", [255, 256, 257])
    def test_chunk_boundaries(self, tmp_path, count):
        path, again = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        serialize.write_pose_records(path, _varied_records(count))
        back = serialize.read_pose_records(path)
        assert [_bits(r) for r in back] == [_bits(r) for r in _line_by_line(path)]
        serialize.write_pose_records(again, back)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(pose_records(), max_size=7), chunk=st.integers(1, 4))
    def test_any_chunk_size(self, records, chunk):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(serialize, "_CHUNK_RECORDS", chunk):
            path = Path(tmp, "a.jsonl")
            serialize.write_pose_records(path, records)
            back = serialize.read_pose_records(path)
            assert [_bits(r) for r in back] == [_bits(r) for r in _line_by_line(path)]

    NOT_FINITE = "keypoint 0 px must be finite, got inf"
    NO_KEYPOINTS = "record has no keypoints array"

    @pytest.mark.parametrize("bad_number, bad_structure", [
        (2, 4), (4, 2), (3, 258), (258, 3), (257, 300), (300, 257),
    ])
    def test_first_bad_line_in_file_order(self, tmp_path, bad_number, bad_structure):
        """A number that fails only at the chunk's conversion and a line whose
        structure fails as it is read: the earlier line is the one reported."""
        obj = serialize.record_to_dict(synth_records(1)[0])
        good = json.dumps(obj)
        lines = [good] * 300
        # 1e400 parses to inf, which only the conversion of the numbers rejects
        lines[bad_number - 1] = good.replace(json.dumps(obj["keypoints"][0]["px"]),
                                             "[1e400, 0.0]", 1)
        lines[bad_structure - 1] = json.dumps({**obj, "keypoints": {}})
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        first = min(bad_number, bad_structure)
        message = self.NOT_FINITE if first == bad_number else self.NO_KEYPOINTS
        with pytest.raises(DataFormatError) as exc:
            serialize.read_pose_records(path)
        assert str(exc.value) == f"{path}:{first}: {message}"

    @pytest.mark.parametrize("mutate, message", SINGLE_FAULTS, ids=SINGLE_FAULT_IDS)
    def test_one_fault_reads_as_record_from_dict(self, tmp_path, mutate, message):
        """One reader: a fault on line k of a 300-line file, before, at and
        after the chunk boundary, gives `path:k: ` and record_from_dict's
        message for the object that line holds."""
        good = json.dumps(record_json())
        obj = record_json()
        mutate(obj)
        # 1e400 is a JSON number that parses to inf; the reader rejects Infinity
        bad = json.dumps(obj).replace("Infinity", "1e400")
        with pytest.raises(DataFormatError, match=re.escape(message)) as reference:
            serialize.record_from_dict(json.loads(bad))
        path = tmp_path / "one.jsonl"
        for k in (1, 256, 257, 300):
            path.write_text("\n".join([good] * (k - 1) + [bad] + [good] * (300 - k)) + "\n")
            with pytest.raises(DataFormatError) as exc:
                serialize.read_pose_records(path)
            assert str(exc.value) == f"{path}:{k}: {reference.value}"

    def test_structure_is_checked_before_numbers(self, tmp_path):
        """A record with a non-finite px and a foreign name reports the name,
        from either entry point."""
        obj = record_json()
        obj["keypoints"][0]["px"] = [float("inf"), 0.0]
        obj["keypoints"][3]["name"] = "not_a_joint"
        message = "keypoint 3: name 'not_a_joint', expected 'thumb_dip'"
        with pytest.raises(DataFormatError) as exc:
            serialize.record_from_dict(obj)
        assert str(exc.value) == message
        path = tmp_path / "two.jsonl"
        path.write_text(json.dumps(obj).replace("Infinity", "1e400") + "\n")
        with pytest.raises(DataFormatError) as exc:
            serialize.read_pose_records(path)
        assert str(exc.value) == f"{path}:1: {message}"

    def test_first_bad_number_in_record_order(self, tmp_path):
        """Line 2's bad zr_norm comes before line 3's bad px, although px is
        the view converted first."""
        lines = [record_json() for _ in range(4)]
        lines[1]["keypoints"][4]["zr_norm"] = float("inf")
        lines[2]["keypoints"][0]["px"] = [0.0, float("inf")]
        path = tmp_path / "order.jsonl"
        path.write_text("".join(json.dumps(obj).replace("Infinity", "1e400") + "\n"
                                for obj in lines))
        with pytest.raises(DataFormatError) as exc:
            serialize.read_pose_records(path)
        assert str(exc.value) == f"{path}:2: keypoint 4 zr_norm must be finite, got inf"

    def test_bom_on_the_first_line(self, tmp_path):
        """json.loads' BOM message, which a reused JSONDecoder lacks."""
        line = "\ufeff" + json.dumps(serialize.record_to_dict(synth_records(1)[0]))
        path = tmp_path / "bom.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as reference:
            json.loads(line)
        assert "BOM" in str(reference.value)
        with pytest.raises(DataFormatError) as exc:
            serialize.read_pose_records(path)
        assert str(exc.value) == f"{path}:1: invalid JSON: {reference.value}"


class TestSidecars:
    def test_camera_round_trip(self, tmp_path):
        cam = CameraIntrinsics(fx=151.25, fy=149.75, cx=63.5, cy=64.5, skew=0.125)
        path = tmp_path / "cam.json"
        serialize.write_camera_json(path, cam)
        assert serialize.read_camera_json(path) == cam
        serialize.write_camera_json(tmp_path / "cam2.json", serialize.read_camera_json(path))
        assert path.read_bytes() == (tmp_path / "cam2.json").read_bytes()

    def test_camera_missing_field(self, tmp_path):
        path = tmp_path / "cam.json"
        path.write_text('{"fx": 100.0}')
        with pytest.raises(DataFormatError):
            serialize.read_camera_json(path)

    def test_bone_stats_round_trip(self, tmp_path):
        stats = BoneStats(mean_length=np.linspace(10.0, 60.0, 20))
        path = tmp_path / "stats.json"
        serialize.write_bone_stats_json(path, stats)
        np.testing.assert_array_equal(
            serialize.read_bone_stats_json(path).mean_length, stats.mean_length
        )

    def test_bone_stats_negative_rejected(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text('{"schema_version":1,"mean_length_mm":[-1.0]}')
        with pytest.raises(DataFormatError):
            serialize.read_bone_stats_json(path)

    @pytest.mark.parametrize("lengths, message", [
        ([30.0] * 3, "3 lengths, expected 20"),
        ([30.0] * 21, "21 lengths, expected 20"),
        ([], "0 lengths, expected 20"),
        (30.0, "mean_length_mm array"),
        ({"0": 30.0}, "mean_length_mm array"),
    ], ids=["three", "twenty-one", "empty", "scalar", "object"])
    def test_bone_stats_count_is_the_bone_count(self, tmp_path, lengths, message):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps({"schema_version": 1, "mean_length_mm": lengths}))
        with pytest.raises(DataFormatError, match=re.escape(message)):
            serialize.read_bone_stats_json(path)

    def test_beta_round_trip(self, tmp_path):
        beta = np.linspace(0.5, 2.0, 21)
        path = tmp_path / "beta.json"
        serialize.write_beta_json(path, beta)
        np.testing.assert_array_equal(serialize.read_beta_json(path), beta)

    def test_beta_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "beta.json"
        path.write_text("[1.0, 0.0]")
        with pytest.raises(DataFormatError):
            serialize.read_beta_json(path)


class TestH25D:
    def stack(self):
        rng = np.random.default_rng(0)
        pose = Pose25D(xy=rng.uniform(2, 29, (21, 2)), zr=rng.normal(size=21))
        return encode_direct(pose, HeatmapGrid(width=32, height=32))

    def test_write_read_write_byte_identical(self, tmp_path):
        first = tmp_path / "a.h25d"
        second = tmp_path / "b.h25d"
        serialize.write_h25d(first, self.stack())
        serialize.write_h25d(second, serialize.read_h25d(first))
        assert first.read_bytes() == second.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.h25d"
        serialize.write_h25d(path, self.stack())
        raw = path.read_bytes()
        assert raw[:4] == b"H25D"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 21
        assert int.from_bytes(raw[12:16], "little") == 32
        assert int.from_bytes(raw[16:20], "little") == 32
        assert raw[20] == 0  # direct
        assert len(raw) == 24 + 2 * 21 * 32 * 32 * 4

    def test_latent_kind_byte(self, tmp_path):
        stack = HeatmapStack(
            kind="latent", likelihood=np.zeros((2, 4, 4)), depth=np.zeros((2, 4, 4))
        )
        path = tmp_path / "l.h25d"
        serialize.write_h25d(path, stack)
        assert path.read_bytes()[20] == 1
        assert serialize.read_h25d(path).kind == "latent"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.h25d"
        serialize.write_h25d(path, self.stack())
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            serialize.read_h25d(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.h25d"
        serialize.write_h25d(path, self.stack())
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DataFormatError):
            serialize.read_h25d(path)


class TestReportAndCurve:
    def report(self):
        rng = np.random.default_rng(1)
        pts = [rng.normal(size=(21, 3)) for _ in range(4)]
        noisy = [p + rng.normal(scale=10.0, size=p.shape) for p in pts]
        return evaluate(noisy, pts, [None] * 4, "absolute_with_scale", "3d")

    def test_report_round_trip(self, tmp_path):
        report = self.report()
        first = tmp_path / "r.json"
        second = tmp_path / "r2.json"
        serialize.write_report_json(first, report)
        serialize.write_report_json(second, serialize.read_report_json(first))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("change, cause", [
        ({"auc": None}, "'auc'"),
        ({"pck": [[20.0]]}, "not enough values to unpack"),
        ({"per_keypoint_errors": 3.5}, "'float' object is not iterable"),
    ], ids=["auc-missing", "pck-short-pair", "errors-scalar"])
    def test_invalid_report_json(self, tmp_path, change, cause):
        obj = serialize.report_to_dict(self.report())
        obj.update(change)
        obj = {k: v for k, v in obj.items() if v is not None}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataFormatError, match=f"^invalid report JSON: {re.escape(cause)}"):
            serialize.read_report_json(path)

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        serialize.write_curve_csv(path, [(20.0, 0.5), (21.0, 0.75)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "threshold,fraction"
        assert lines[1] == "20.0,0.5"
        assert lines[2] == "21.0,0.75"


class TestFlip:
    def test_right_record_untouched(self):
        rec = synth_records(1)[0]
        assert serialize.flip_record_to_right(rec) is rec

    def test_left_record_mirrors_consistently(self):
        rec = synth_records(1, seed=3)[0]
        rec.side = "left"
        flipped = serialize.flip_record_to_right(rec)
        assert flipped.side == "right"
        np.testing.assert_allclose(flipped.xyz_mm[:, 0], -rec.xyz_mm[:, 0], rtol=1e-12)
        np.testing.assert_array_equal(flipped.xyz_mm[:, 1:], rec.xyz_mm[:, 1:])
        # pixel view stays consistent with the mirrored 3D pose
        reproj, _ = project(flipped.pose3d(), flipped.camera)
        np.testing.assert_allclose(flipped.px, reproj.xy, atol=1e-9)
        np.testing.assert_allclose(flipped.px[:, 0], 2 * rec.camera.cx - rec.px[:, 0], atol=1e-9)

    def test_pixel_only_flip(self):
        rec = synth_records(1, seed=4)[0]
        rec = serialize.PoseRecord(
            valid=rec.valid, px=rec.px, side="left", camera=rec.camera
        )
        flipped = serialize.flip_record_to_right(rec)
        np.testing.assert_allclose(flipped.px[:, 0], 2 * rec.camera.cx - rec.px[:, 0], atol=1e-12)

    @settings(deadline=None)
    @given(
        cam=st.builds(CameraIntrinsics, fx=st.floats(1.0, 2000.0), fy=st.floats(1.0, 2000.0),
                      cx=st.floats(-1e3, 1e3), cy=st.floats(-1e3, 1e3), skew=st.floats(-1.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        with_xyz=st.booleans(),
    )
    def test_mirrored_pixels_are_the_image_of_the_mirrored_pose(self, cam, seed, with_xyz):
        rng = np.random.default_rng(seed)
        valid = rng.random(21) < 0.7
        xyz = np.column_stack([rng.uniform(-200, 200, (21, 2)), rng.uniform(100, 1000, 21)])
        px = project(Pose3D(xyz=xyz, valid=valid), cam)[0].xy
        px[~valid] = rng.normal(scale=1e3, size=(int((~valid).sum()), 2))  # placeholders
        rec = serialize.PoseRecord(valid=valid, px=px, xyz_mm=xyz if with_xyz else None,
                                   zr_norm=rng.normal(size=21), side="left", camera=cam)
        flipped = serialize.flip_record_to_right(rec)
        mirrored = Pose3D(xyz=xyz * [-1.0, 1.0, 1.0], valid=valid)
        assert np.abs(flipped.px - project(mirrored, cam)[0].xy)[valid].max(initial=0.0) <= 1e-9
        assert flipped.px[~valid].tobytes() == px[~valid].tobytes()
        assert flipped.zr_norm.tobytes() == rec.zr_norm.tobytes()
        assert (flipped.side, flipped.camera) == ("right", cam)
        if with_xyz:
            assert flipped.xyz_mm[:, 0].tobytes() == (-xyz[:, 0]).tobytes()
            assert flipped.xyz_mm[:, 1:].tobytes() == xyz[:, 1:].tobytes()
        else:
            assert flipped.xyz_mm is None

    def test_left_without_camera_rejected(self):
        rec = synth_records(1, seed=5)[0]
        bare = serialize.PoseRecord(valid=rec.valid, px=rec.px, side="left")
        with pytest.raises(ConfigError):
            serialize.flip_record_to_right(bare)


class TestKeypointNames:
    def test_foreign_name_rejected(self):
        obj = record_json()
        obj["keypoints"][3]["name"] = "not_a_joint"
        with pytest.raises(DataFormatError, match="keypoint 3: name 'not_a_joint', expected"):
            serialize.record_from_dict(obj)

    def test_non_string_name_rejected(self):
        obj = record_json()
        obj["keypoints"][0]["name"] = 0
        with pytest.raises(DataFormatError, match="keypoint 0: name 0, expected 'palm'"):
            serialize.record_from_dict(obj)

    def test_names_checked_after_the_id_sort(self):
        obj = record_json()
        reference = serialize.record_from_dict(json.loads(json.dumps(obj)))
        obj["keypoints"].reverse()
        rec = serialize.record_from_dict(obj)
        np.testing.assert_array_equal(rec.xyz_mm, reference.xyz_mm)
        obj["keypoints"][0]["name"], obj["keypoints"][1]["name"] = (
            obj["keypoints"][1]["name"], obj["keypoints"][0]["name"])
        with pytest.raises(DataFormatError, match="keypoint 19: name"):
            serialize.record_from_dict(obj)

    def test_name_is_optional(self):
        obj = record_json()
        for entry in obj["keypoints"]:
            del entry["name"]
        rec = serialize.record_from_dict(obj)
        assert serialize.record_to_dict(rec) == record_json()


def _report_json(**changes):
    obj = serialize.report_to_dict(TestReportAndCurve().report())
    obj.update(changes)
    return obj


class TestStrictSidecarInts:
    """Report integers must be JSON ints: never a float, a string or a bool."""

    @pytest.mark.parametrize("obj, message", [
        (_report_json(num_samples="250"), "num_samples is not an integer: '250'"),
        (_report_json(num_samples=4.0), "num_samples is not an integer: 4.0"),
        (_report_json(num_failed=2.9), "num_failed is not an integer: 2.9"),
        (_report_json(num_failed=True), "num_failed is not an integer: True"),
    ], ids=["samples-str", "samples-float", "failed-float", "failed-bool"])
    def test_rejected(self, tmp_path, obj, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataFormatError, match=re.escape(message)):
            serialize.read_report_json(path)


class TestPoseRecordShapes:
    """Views must come in their (K, ...) shape; nothing is reshaped."""

    def test_transposed_px_is_rejected_not_scrambled(self):
        # a reshape would read this (2, 21) array's row 1 as [2, 3]
        with pytest.raises(ShapeMismatchError, match=re.escape("px shape (2, 21) != (21, 2)")):
            serialize.PoseRecord(valid=np.ones(21, bool), px=np.arange(42.0).reshape(2, 21))

    def test_wrong_size_is_a_library_error(self):
        with pytest.raises(Hand25DError, match=re.escape("px shape (10,) != (21, 2)")):
            serialize.PoseRecord(valid=np.ones(21, bool), px=np.zeros(10))

    @pytest.mark.parametrize("field, value, message", [
        ("valid", np.ones((21, 1), bool), "validity mask shape (21, 1) is not (K,)"),
        ("valid", True, "validity mask shape () is not (K,)"),
        ("px", np.zeros(42), "px shape (42,) != (21, 2)"),
        ("px", np.zeros((21, 3)), "px shape (21, 3) != (21, 2)"),
        ("xyz_mm", np.zeros(63), "xyz_mm shape (63,) != (21, 3)"),
        ("xyz_mm", np.zeros((3, 21)), "xyz_mm shape (3, 21) != (21, 3)"),
        ("zr_norm", np.zeros((21, 1)), "zr_norm shape (21, 1) != (21,)"),
        ("zr_norm", np.zeros(20), "zr_norm shape (20,) != (21,)"),
    ])
    def test_each_view_shape_is_checked(self, field, value, message):
        views = {"valid": np.ones(21, bool), "px": np.zeros((21, 2)),
                 "xyz_mm": np.zeros((21, 3)), "zr_norm": np.zeros(21)}
        views[field] = value
        with pytest.raises(ShapeMismatchError, match=re.escape(message)):
            serialize.PoseRecord(**views)

    @pytest.mark.parametrize("build, message", [
        (lambda: Pose3D(xyz=np.zeros((21, 2))), "expected (K, 3) array, got (21, 2)"),
        (lambda: Pose2D(xy=np.zeros(42)), "expected (K, 2) array, got (42,)"),
        (lambda: Pose2D(xy=np.zeros((21, 2)), valid=np.ones(20, dtype=bool)),
         "validity mask shape (20,) != (21,)"),
        (lambda: Pose3D(xyz=np.zeros((21, 3)), valid=np.ones((21, 1), dtype=bool)),
         "validity mask shape (21, 1) != (21,)"),
        (lambda: Pose25D(xy=np.zeros((21, 2)), zr=np.zeros(20)), "zr shape (20,) != (21,)"),
        (lambda: Pose25D(xy=np.zeros((21, 2)), zr=np.zeros((21, 1))),
         "zr shape (21, 1) != (21,)"),
        (lambda: Pose25D(xy=np.zeros((21, 2)), zr=np.zeros(21), root=21),
         "root index 21 out of range"),
        (lambda: Pose25D(xy=np.zeros((21, 2)), zr=np.zeros(21), root=-1),
         "root index -1 out of range"),
    ], ids=["xyz-2-wide", "xy-flat", "mask-short", "mask-2d", "zr-short", "zr-2d",
            "root-past-end", "root-negative"])
    def test_pose_container_shapes(self, build, message):
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
            build()


class TestRaggedViews:
    """A ragged, non-numeric or out-of-range nesting raises
    ShapeMismatchError naming the field, from PoseRecord, the pose
    containers and every other array argument alike."""

    CASES = [
        ("px", {"px": [[1.0, 2.0], [3.0]]}, "inhomogeneous shape"),
        ("px", {"px": [["a", 2.0], [3.0, 1.0]]}, "could not convert string to float"),
        ("px", {"px": [[10**400, 2.0], [3.0, 4.0]]}, "int too large to convert to float"),
        ("valid", {"valid": [[True], [True, False]]}, "inhomogeneous shape"),
    ]
    IDS = ["ragged-px", "string-px", "huge-int-px", "ragged-valid"]

    @pytest.mark.parametrize("field, change, cause", CASES, ids=IDS)
    def test_pose_record(self, field, change, cause):
        views = {"valid": [True, True], "px": [[1.0, 2.0], [3.0, 4.0]], **change}
        with pytest.raises(ShapeMismatchError, match=f"^{field} cannot be read as a .* array: .*{cause}"):
            serialize.PoseRecord(**views)

    @pytest.mark.parametrize("field, change, cause", CASES, ids=IDS)
    def test_pose2d(self, field, change, cause):
        views = {"valid": [True, True], "px": [[1.0, 2.0], [3.0, 4.0]], **change}
        name = {"px": "xy", "valid": "validity mask"}[field]
        with pytest.raises(ShapeMismatchError, match=f"^{name} cannot be read as a .* array: .*{cause}"):
            Pose2D(xy=views["px"], valid=views["valid"])

    @pytest.mark.parametrize("build, field, cause", [
        (lambda: BoneStats(mean_length=[[1.0, 2.0], [3.0]]), "mean_length", "inhomogeneous shape"),
        (lambda: SpreadParams(beta=["x"]), "beta", "could not convert string to float"),
        (lambda: HeatmapStack(kind="latent", likelihood=[np.zeros((2, 2)), np.zeros((3, 2))],
                              depth=np.zeros((2, 2, 2))),
         "likelihood", "inhomogeneous shape"),
        (lambda: HeatmapStack(kind="latent", likelihood=np.zeros((1, 2, 2)), depth=[[["a"]]]),
         "depth", "could not convert string to float"),
        (lambda: SampleAnnotations(Pose2D(xy=np.zeros((2, 2))), gt_zr=["a", "b"]),
         "gt_zr", "could not convert string to float"),
        (lambda: SampleAnnotations(Pose2D(xy=np.zeros((2, 2))), gt_zr=[0.0, 0.0],
                                   zr_valid=[[True], [True, False]]),
         "zr_valid", "inhomogeneous shape"),
        (lambda: backproject(Pose2D(xy=np.zeros((2, 2))), ["a", "b"],
                             CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0)),
         "depths", "could not convert string to float"),
    ], ids=["bone-stats", "beta", "likelihood", "depth", "gt-zr", "zr-valid", "backproject"])
    def test_other_array_arguments(self, build, field, cause):
        with pytest.raises(ShapeMismatchError, match=f"^{field} cannot be read as a .* array: .*{cause}"):
            build()
