import json
import struct

import numpy as np
import pytest

from hand25d import serialize
from hand25d.cli import main
from hand25d.metrics import epe
from hand25d.skeleton import bone_lengths, canonical_skeleton
from hand25d.synth import SynthConfig, synth_bone_stats


@pytest.fixture
def workdir(tmp_path):
    stats = synth_bone_stats(SynthConfig())
    serialize.write_bone_stats_json(tmp_path / "stats.json", stats)
    rc = main(
        [
            "synth",
            "--seed",
            "5",
            "--count",
            "20",
            "--out",
            str(tmp_path / "gt.jsonl"),
            "--bone-stats",
            str(tmp_path / "stats.json"),
            "--camera-out",
            str(tmp_path / "cam.json"),
        ]
    )
    assert rc == 0
    return tmp_path


class TestPipeline:
    def test_synth_normalize_reconstruct_eval(self, workdir):
        assert (
            main(
                [
                    "normalize",
                    "--in", str(workdir / "gt.jsonl"),
                    "--pair", "index_mcp:palm",
                    "--c", "1.0",
                    "--out", str(workdir / "norm.jsonl"),
                ]
            )
            == 0
        )
        norm = serialize.read_pose_records(workdir / "norm.jsonl")
        assert norm[0].xyz_mm is None and norm[0].zr_norm is not None

        assert (
            main(
                [
                    "reconstruct",
                    "--in", str(workdir / "norm.jsonl"),
                    "--camera", str(workdir / "cam.json"),
                    "--bone-stats", str(workdir / "stats.json"),
                    "--out", str(workdir / "rec.jsonl"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "eval",
                    "--pred", str(workdir / "rec.jsonl"),
                    "--gt", str(workdir / "gt.jsonl"),
                    "--protocol", "absolute_with_scale",
                    "--space", "3d",
                    "--out", str(workdir / "report.json"),
                ]
            )
            == 0
        )
        report = serialize.read_report_json(workdir / "report.json")
        assert report.auc == 1.0
        assert report.epe_mean < 1e-6

    def test_root_aligned_2d_eval(self, workdir):
        assert (
            main(
                [
                    "eval",
                    "--pred", str(workdir / "gt.jsonl"),
                    "--gt", str(workdir / "gt.jsonl"),
                    "--protocol", "root_aligned",
                    "--space", "2d",
                    "--out", str(workdir / "r2d.json"),
                ]
            )
            == 0
        )
        report = serialize.read_report_json(workdir / "r2d.json")
        assert report.auc == 1.0 and report.unit == "px"

    def test_pck_curve_csv(self, workdir):
        self.test_synth_normalize_reconstruct_eval(workdir)
        assert (
            main(
                [
                    "pck-curve",
                    "--report", str(workdir / "report.json"),
                    "--out", str(workdir / "curve.csv"),
                ]
            )
            == 0
        )
        lines = (workdir / "curve.csv").read_text().strip().split("\n")
        assert lines[0] == "threshold,fraction"
        assert len(lines) == 32
        assert lines[1].split(",") == ["20.0", "1.0"]

    def test_left_hand_corpus_round_trip(self, workdir):
        """Left-hand records that carry a camera are mirrored to the
        right-hand convention by every stage, so a corpus whose every other
        record is left-handed still reconstructs exactly."""
        from hand25d.camera import project
        from hand25d.types import Pose3D

        mixed = []
        for i, rec in enumerate(serialize.read_pose_records(workdir / "gt.jsonl")):
            if i % 2:
                xyz = rec.xyz_mm * [-1.0, 1.0, 1.0]
                px = project(Pose3D(xyz=xyz, valid=rec.valid), rec.camera)[0].xy
                rec = serialize.PoseRecord(valid=rec.valid, px=px, xyz_mm=xyz, zr_norm=rec.zr_norm,
                                           side="left", camera=rec.camera, meta=rec.meta)
            mixed.append(rec)
        serialize.write_pose_records(workdir / "mixed.jsonl", mixed)
        steps = [
            ["normalize", "--in", str(workdir / "mixed.jsonl"), "--out", str(workdir / "n.jsonl")],
            ["reconstruct", "--in", str(workdir / "n.jsonl"), "--bone-stats",
             str(workdir / "stats.json"), "--out", str(workdir / "r.jsonl")],
            ["eval", "--pred", str(workdir / "r.jsonl"), "--gt", str(workdir / "mixed.jsonl"),
             "--protocol", "root_aligned", "--space", "3d", "--out", str(workdir / "rep.json")],
        ]
        for argv in steps:
            assert main(argv) == 0
        assert {rec.side for rec in serialize.read_pose_records(workdir / "r.jsonl")} == {"right"}
        report = serialize.read_report_json(workdir / "rep.json")
        assert report.auc == 1.0 and report.num_samples == 20
        assert report.epe_mean < 1e-6

    def test_stages_read_through_read_pose_records(self, workdir, monkeypatch):
        """One reader for every stage, so wrapping it sees all pose input."""
        read = serialize.read_pose_records
        paths = []
        monkeypatch.setattr(serialize, "read_pose_records", lambda p: paths.append(p) or read(p))
        gt = str(workdir / "gt.jsonl")
        assert main(["normalize", "--in", gt, "--out", str(workdir / "n.jsonl")]) == 0
        assert main(["eval", "--pred", gt, "--gt", gt, "--protocol", "root_aligned",
                     "--space", "3d", "--out", str(workdir / "rep.json")]) == 0
        assert paths == [gt, gt, gt]


class TestEncodeDecode:
    def test_direct_round_trip_bound(self, workdir):
        worst = 0.0
        for index in range(5):
            maps = workdir / f"m{index}.h25d"
            decoded = workdir / f"d{index}.jsonl"
            assert (
                main(
                    [
                        "encode",
                        "--in", str(workdir / "gt.jsonl"),
                        "--index", str(index),
                        "--grid", "128x128",
                        "--sigma", "5",
                        "--kind", "direct",
                        "--out", str(maps),
                    ]
                )
                == 0
            )
            assert main(["decode", "--in", str(maps), "--out", str(decoded)]) == 0
            original = serialize.read_pose_records(workdir / "gt.jsonl")[index]
            back = serialize.read_pose_records(decoded)[0]
            errors, _, _ = epe(back.px, original.px)
            worst = max(worst, errors.max())
            # depth error bounded by the Gaussian attenuation at <= half a
            # pixel offset: |zr| * (1 - exp(-0.5 / sigma^2))
            assert np.abs(back.zr_norm - original.zr_norm).max() <= (
                np.abs(original.zr_norm).max() * (1 - np.exp(-0.5 / 25.0)) + 1e-12
            )
        assert worst <= 0.5 * np.sqrt(2.0)

    def test_latent_round_trip(self, workdir):
        maps = workdir / "latent.h25d"
        decoded = workdir / "latent.jsonl"
        assert (
            main(
                [
                    "encode",
                    "--in", str(workdir / "gt.jsonl"),
                    "--kind", "latent",
                    "--out", str(maps),
                ]
            )
            == 0
        )
        serialize.write_beta_json(workdir / "beta.json", np.ones(21))
        assert (
            main(
                ["decode", "--in", str(maps), "--beta", str(workdir / "beta.json"), "--out", str(decoded)]
            )
            == 0
        )
        original = serialize.read_pose_records(workdir / "gt.jsonl")[0]
        back = serialize.read_pose_records(decoded)[0]
        errors, _, _ = epe(back.px, original.px)
        assert errors.max() < 0.05
        np.testing.assert_allclose(back.zr_norm, original.zr_norm, atol=1e-9)


class TestShortenTips:
    def test_factor_applied_and_views_reprojected(self, workdir):
        out = workdir / "fixed.jsonl"
        assert (
            main(
                [
                    "shorten-tips",
                    "--in", str(workdir / "gt.jsonl"),
                    "--factor", "0.9",
                    "--out", str(out),
                ]
            )
            == 0
        )
        skel = canonical_skeleton()
        before = serialize.read_pose_records(workdir / "gt.jsonl")[0]
        after = serialize.read_pose_records(out)[0]
        lb = bone_lengths(before.pose3d(), skel)
        la = bone_lengths(after.pose3d(), skel)
        tips = [3, 7, 11, 15, 19]
        for bone_id in range(20):
            expected = 0.9 if bone_id in tips else 1.0
            assert la[bone_id] / lb[bone_id] == pytest.approx(expected, rel=1e-9)
        # px and zr were recomputed against the camera
        from hand25d.camera import project
        from hand25d.pose25d import to_25d

        reproj, _ = project(after.pose3d(), after.camera)
        np.testing.assert_allclose(after.px, reproj.xy, atol=1e-9)
        np.testing.assert_allclose(
            after.zr_norm, to_25d(after.pose3d(), after.camera).zr, atol=1e-12
        )


class TestGradcheckCommand:
    def test_ok_run(self, capsys):
        assert main(["gradcheck", "--op", "decode_latent", "--seeds", "5", "--eps", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "decode_latent" in out

    def test_fd_breakdown_warns_but_passes(self, capsys):
        assert main(["gradcheck", "--op", "softargmax", "--seeds", "2", "--eps", "1e-12"]) == 0

    @pytest.mark.parametrize(
        "flag", [["--eps", "0"], ["--eps", "nan"], ["--seeds", "0"], ["--seeds", "-3"]]
    )
    def test_bad_argument_is_3(self, flag, capsys):
        assert main(["gradcheck", "--op", "softargmax", *flag]) == 3
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--unknown-flag"])
        assert exc.value.code == 2

    def test_missing_file_is_3(self, tmp_path):
        assert (
            main(
                [
                    "normalize",
                    "--in", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "o.jsonl"),
                ]
            )
            == 3
        )

    def test_malformed_record_is_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema_version":1}\n')
        assert (
            main(["normalize", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 3
        )

    @pytest.mark.parametrize("khw", [(0, 4, 4), (2, 0, 4), (2, 4, 0)])
    def test_empty_h25d_stack_is_3(self, tmp_path, khw, capsys):
        maps = tmp_path / "empty.h25d"
        maps.write_bytes(struct.pack("<4sIIIIB3x", b"H25D", 1, *khw, 1))
        assert main(["decode", "--in", str(maps), "--out", str(tmp_path / "o.jsonl")]) == 3
        assert "empty heatmap stack" in capsys.readouterr().err

    def test_wrong_keypoint_count_is_3(self, tmp_path, capsys):
        kps = ",".join(
            f'{{"id":{i},"name":"k{i}","valid":true,"xyz_mm":[{i}.0,1.0,400.0]}}' for i in range(3)
        )
        bad = tmp_path / "three.jsonl"
        bad.write_text(f'{{"schema_version":1,"side":"right","keypoints":[{kps}]}}\n')
        assert main(["normalize", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 3
        assert "3 keypoints, expected 21" in capsys.readouterr().err

    def test_non_bool_valid_is_3(self, workdir, capsys):
        line = (workdir / "gt.jsonl").read_text().splitlines()[0]
        obj = json.loads(line)
        obj["keypoints"][7]["valid"] = "false"
        bad = workdir / "stringly.jsonl"
        bad.write_text(json.dumps(obj) + "\n")
        assert main(["normalize", "--in", str(bad), "--out", str(workdir / "o.jsonl")]) == 3
        assert "stringly.jsonl:1: keypoint 7: valid must be true or false" in capsys.readouterr().err

    def test_strict_reconstruct_numerical_failure_is_4(self, workdir, capsys):
        records = serialize.read_pose_records(workdir / "gt.jsonl")[:2]
        degenerate = serialize.PoseRecord(
            valid=np.ones(21, dtype=bool),
            px=np.tile([63.5, 63.5], (21, 1)),
            zr_norm=np.zeros(21),
            camera=records[0].camera,
        )
        path = workdir / "degenerate.jsonl"
        serialize.write_pose_records(path, [degenerate])
        out = workdir / "rec_fail.jsonl"
        assert (
            main(
                [
                    "reconstruct",
                    "--in", str(path),
                    "--strict",
                    "--out", str(out),
                ]
            )
            == 4
        )
        # non-strict: same input exits 0 and emits an all-invalid record
        assert (
            main(["reconstruct", "--in", str(path), "--out", str(out)]) == 0
        )
        rec = serialize.read_pose_records(out)[0]
        assert not rec.valid.any()

    def test_eval_length_mismatch_is_3(self, workdir, tmp_path):
        short = tmp_path / "short.jsonl"
        serialize.write_pose_records(short, serialize.read_pose_records(workdir / "gt.jsonl")[:3])
        assert (
            main(
                [
                    "eval",
                    "--pred", str(short),
                    "--gt", str(workdir / "gt.jsonl"),
                    "--protocol", "absolute_with_scale",
                    "--space", "3d",
                    "--out", str(tmp_path / "r.json"),
                ]
            )
            == 3
        )

    @pytest.mark.parametrize("stage", ["normalize", "reconstruct"])
    def test_record_without_camera_is_3(self, workdir, stage, capsys):
        records = serialize.read_pose_records(workdir / "gt.jsonl")[:4]
        records[2].camera = None
        path = workdir / "nocam.jsonl"
        serialize.write_pose_records(path, records)
        out = workdir / "o.jsonl"
        assert main([stage, "--in", str(path), "--out", str(out)]) == 3
        assert "error: record 2: no camera available; pass --camera" in capsys.readouterr().err
        assert not out.exists()
        argv = [stage, "--in", str(path), "--camera", str(workdir / "cam.json"), "--out", str(out)]
        assert main(argv) == 0

    @pytest.mark.filterwarnings("error")  # rejected before numpy builds the grid
    @pytest.mark.parametrize("grid", ["nan:50:31", "20:inf:31"])
    def test_non_finite_thresholds_are_3(self, workdir, grid, capsys):
        argv = ["eval", "--pred", str(workdir / "gt.jsonl"), "--gt", str(workdir / "gt.jsonl"),
                "--protocol", "root_aligned", "--space", "3d", "--thresholds", grid,
                "--out", str(workdir / "r.json")]
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == ["error: thresholds must be finite"]
        assert not (workdir / "r.json").exists()

    @pytest.mark.parametrize("count", [3, 21])
    def test_bone_stats_of_wrong_count_is_3(self, workdir, count, capsys):
        stats = workdir / "short_stats.json"
        stats.write_text(json.dumps({"schema_version": 1, "mean_length_mm": [30.0] * count}))
        assert main(["synth", "--count", "2", "--bone-stats", str(stats),
                     "--out", str(workdir / "s.jsonl")]) == 3
        assert main(["normalize", "--in", str(workdir / "gt.jsonl"),
                     "--out", str(workdir / "n.jsonl")]) == 0
        assert main(["reconstruct", "--in", str(workdir / "n.jsonl"), "--bone-stats", str(stats),
                     "--out", str(workdir / "r.jsonl")]) == 3
        err = capsys.readouterr().err
        assert err.count(f"error: bone stats have {count} lengths, expected 20") == 2

    @pytest.mark.parametrize("sigma", ["inf", "nan", "0"])
    def test_bad_sigma_is_3(self, workdir, sigma, capsys):
        argv = ["encode", "--in", str(workdir / "gt.jsonl"), "--sigma", sigma,
                "--out", str(workdir / "m.h25d")]
        assert main(argv) == 3
        assert "error: sigma must be finite and positive" in capsys.readouterr().err
        assert not (workdir / "m.h25d").exists()

    def test_foreign_keypoint_name_is_3(self, workdir, capsys):
        obj = json.loads((workdir / "gt.jsonl").read_text().splitlines()[0])
        obj["keypoints"][3]["name"] = "not_a_joint"
        bad = workdir / "renamed.jsonl"
        bad.write_text(json.dumps(obj) + "\n")
        assert main(["normalize", "--in", str(bad), "--out", str(workdir / "o.jsonl")]) == 3
        assert ("renamed.jsonl:1: keypoint 3: name 'not_a_joint', expected 'thumb_dip'"
                in capsys.readouterr().err)


class TestThousandPosePipeline:
    def test_lossless_round_trip_every_threshold(self, tmp_path):
        stats = synth_bone_stats(SynthConfig())
        serialize.write_bone_stats_json(tmp_path / "stats.json", stats)
        steps = [
            ["synth", "--seed", "5", "--count", "1000", "--out", str(tmp_path / "gt.jsonl"),
             "--bone-stats", str(tmp_path / "stats.json"), "--camera-out", str(tmp_path / "cam.json")],
            ["normalize", "--in", str(tmp_path / "gt.jsonl"), "--out", str(tmp_path / "norm.jsonl")],
            ["reconstruct", "--in", str(tmp_path / "norm.jsonl"), "--camera", str(tmp_path / "cam.json"),
             "--bone-stats", str(tmp_path / "stats.json"), "--out", str(tmp_path / "rec.jsonl")],
            ["eval", "--pred", str(tmp_path / "rec.jsonl"), "--gt", str(tmp_path / "gt.jsonl"),
             "--protocol", "absolute_with_scale", "--space", "3d",
             "--out", str(tmp_path / "report.json")],
        ]
        for argv in steps:
            assert main(argv) == 0
        report = serialize.read_report_json(tmp_path / "report.json")
        assert report.auc == 1.0
        assert all(fraction == 1.0 for _, fraction in report.pck)
        assert report.num_samples == 1000


class TestDeterminism:
    def test_synth_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["synth", "--seed", "9", "--count", "10", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_report_key_order_fixed(self, workdir):
        out1, out2 = workdir / "r1.json", workdir / "r2.json"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "eval",
                        "--pred", str(workdir / "gt.jsonl"),
                        "--gt", str(workdir / "gt.jsonl"),
                        "--protocol", "absolute_with_scale",
                        "--space", "3d",
                        "--out", str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()
        keys = list(json.loads(out1.read_text()).keys())
        assert keys[0] == "schema_version"
