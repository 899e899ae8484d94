import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

from hand25d import serialize
from hand25d.cli import DEFAULT_LATENT_AMPLITUDE, main
from hand25d.errors import (
    DataFormatError,
    DegenerateProjectionError,
    Hand25DError,
    NonPositiveDepthError,
    NoRealSolutionError,
    NoValidKeypointsError,
    ZeroBoneError,
)
from hand25d.heatmap import HeatmapGrid, HeatmapStack, encode_direct
from hand25d.metrics import align_root, epe, evaluate
from hand25d.pose25d import NormalizationConfig, to_25d
from hand25d.reconstruct import absolute_pose, reconstruct_pose, recover_scale
from hand25d.skeleton import bone_lengths, canonical_skeleton
from hand25d.synth import SynthConfig, gen_pose, synth_bone_stats


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

    def test_left_hands_mirror_with_the_stage_camera(self, workdir, capsys):
        """A left-hand corpus without cameras, given --camera, normalizes and
        reconstructs to the bytes of the same corpus carrying that camera; its
        camera-less ground truth stays unmirrored, so eval refuses the pair."""
        cam = serialize.read_camera_json(workdir / "cam.json")
        stats = str(workdir / "stats.json")
        runs = {"bare": ["--camera", str(workdir / "cam.json")], "carried": []}
        for name, flags in runs.items():
            src = _left_hands(workdir, None if flags else cam, f"{name}.jsonl")
            norm = str(workdir / f"n_{name}")
            assert main(["normalize", "--in", src, *flags, "--out", norm]) == 0
            assert main(["reconstruct", "--in", norm, *flags,
                         "--bone-stats", stats, "--out", str(workdir / f"r_{name}")]) == 0
        for stage in "nr":
            bare, carried = (workdir / f"{stage}_{name}" for name in runs)
            assert bare.read_bytes() == carried.read_bytes()
        argv = ["eval", "--pred", str(workdir / "r_bare"), "--protocol", "absolute_with_scale",
                "--space", "3d", "--out", str(workdir / "rep.json")]
        assert main(argv + ["--gt", str(workdir / "carried.jsonl")]) == 0
        report = serialize.read_report_json(workdir / "rep.json")
        assert report.auc == 1.0 and report.epe_mean < 1e-6
        capsys.readouterr()
        assert main(argv + ["--gt", str(workdir / "bare.jsonl")]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: {SIDES_DIFFER}"]

    def test_reconstruct_mirrors_with_its_camera(self, workdir):
        """Left-hand records carrying camera A, reconstructed with --camera B,
        give the bytes of the same records carrying B: the pixels are
        mirrored about B, the camera they are then lifted with."""
        cam_a = serialize.read_camera_json(workdir / "cam.json")
        cam_b = dataclasses.replace(cam_a, cx=70.0)
        serialize.write_camera_json(workdir / "b.json", cam_b)
        out_a, out_b = workdir / "r_a.jsonl", workdir / "r_b.jsonl"
        assert main(["reconstruct", "--in", _left_hands(workdir, cam_a, "a.jsonl"),
                     "--camera", str(workdir / "b.json"), "--out", str(out_a)]) == 0
        assert main(["reconstruct", "--in", _left_hands(workdir, cam_b, "b.jsonl"),
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

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


def eval_reference(preds, gts, protocol, space):
    """The per-record loop the eval stage used to run: per-pose `align_root`
    for root-aligned 3D, then an `evaluate` that only labels the protocol."""
    if len(preds) != len(gts):
        raise DataFormatError(f"{len(preds)} predictions vs {len(gts)} ground-truth records")
    pred_pts, gt_pts, masks = [], [], []
    failed = 0
    for pr, gt in zip(preds, gts):
        mask = pr.valid & gt.valid
        if not mask.any():
            failed += 1
            continue
        if space == "3d":
            pred_pose, gt_pose = pr.pose3d(), gt.pose3d()
            if protocol == "root_aligned":
                pred_pose = align_root(pred_pose, gt_pose)
            pred_pts.append(pred_pose.xyz)
            gt_pts.append(gt_pose.xyz)
        else:
            if pr.px is None or gt.px is None:
                raise DataFormatError("record carries no pixel coordinates")
            pred_pts.append(pr.px.copy())
            gt_pts.append(gt.px.copy())
        masks.append(mask)
    report = evaluate(pred_pts, gt_pts, masks, "absolute_with_scale", space, num_failed=failed)
    return dataclasses.replace(report, protocol=protocol)


def eval_outcome(tmp, preds, gts, protocol, space, capsys):
    """(report bytes, "") or (exit code, last stderr line) of the eval stage,
    and the same for `eval_reference`."""
    serialize.write_pose_records(tmp / "p.jsonl", preds)
    serialize.write_pose_records(tmp / "g.jsonl", gts)
    capsys.readouterr()
    rc = main(["eval", "--pred", str(tmp / "p.jsonl"), "--gt", str(tmp / "g.jsonl"),
               "--protocol", protocol, "--space", space, "--out", str(tmp / "r.json")])
    err = capsys.readouterr().err.splitlines()
    got = (tmp / "r.json").read_bytes() if rc == 0 else (rc, err[-1])
    (tmp / "r.json").unlink(missing_ok=True)
    reread = [serialize.read_pose_records(tmp / name) for name in ("p.jsonl", "g.jsonl")]
    try:
        serialize.write_report_json(tmp / "ref.json", eval_reference(*reread, protocol, space))
    except Hand25DError as exc:
        return got, (3, f"error: {exc}")
    return got, (tmp / "ref.json").read_bytes()


@pytest.fixture
def noisy_corpus(workdir):
    """Predictions with a global offset, noise and invalid keypoints against
    a ground truth with invalid keypoints; pairs 3, 10 and 17 share no valid keypoint."""
    rng = np.random.default_rng(11)
    gts = serialize.read_pose_records(workdir / "gt.jsonl")
    preds = []
    for i, gt in enumerate(gts):
        gt.valid = rng.random(21) < 0.9
        valid = rng.random(21) < 0.8
        gt.valid[0] = valid[0] = True
        if i % 7 == 3:
            (valid if i < 15 else gt.valid)[:] = False
        preds.append(serialize.PoseRecord(
            valid, px=gt.px + rng.normal(scale=2.0, size=(21, 2)),
            xyz_mm=gt.xyz_mm + rng.normal(scale=15.0, size=3) + rng.normal(size=(21, 3)) * 5.0,
            camera=gt.camera))
    return preds, gts


class TestEvalStage:
    @pytest.mark.parametrize("space", ["2d", "3d"])
    @pytest.mark.parametrize("protocol", ["root_aligned", "absolute_with_scale"])
    @pytest.mark.parametrize("root_valid", [True, False])
    def test_matches_the_per_record_loop(self, workdir, noisy_corpus, protocol, space, root_valid,
                                         capsys):
        preds, gts = noisy_corpus
        preds[5].valid[0] = root_valid
        got, expected = eval_outcome(workdir, preds, gts, protocol, space, capsys)
        assert got == expected
        if protocol == "root_aligned" and space == "3d" and not root_valid:
            assert got == (3, "error: root keypoint 0 must be valid in both poses")
        else:
            report = json.loads(got)
            assert report["num_samples"] == 17 and report["num_failed"] == 3

    @pytest.mark.parametrize("space, view, text", [("3d", "xyz_mm", "3D"), ("2d", "px", "pixel")])
    def test_a_scored_record_without_the_view(self, workdir, noisy_corpus, space, view, text,
                                              capsys):
        preds, gts = noisy_corpus
        setattr(preds[10], view, None)  # a failed pair: never scored, so never read
        got, expected = eval_outcome(workdir, preds, gts, "root_aligned", space, capsys)
        assert got == expected and isinstance(got, bytes)
        setattr(gts[12], view, None)
        got, expected = eval_outcome(workdir, preds, gts, "root_aligned", space, capsys)
        assert got == expected == (3, f"error: record carries no {text} coordinates")

    def test_length_mismatch_and_an_all_failed_corpus(self, workdir, noisy_corpus, capsys):
        preds, gts = noisy_corpus
        got, expected = eval_outcome(workdir, preds[:4], gts, "absolute_with_scale", "3d", capsys)
        assert got == expected == (3, "error: 4 predictions vs 20 ground-truth records")
        for rec in preds:
            rec.valid[:] = False
        got, expected = eval_outcome(workdir, preds, gts, "root_aligned", "3d", capsys)
        assert got == expected == (3, "error: no valid keypoints in the whole corpus")


NUMERICAL = (NoRealSolutionError, NonPositiveDepthError, DegenerateProjectionError, ZeroBoneError)


def rewrite_reference(stage, records, cfg, stats):
    """The per-record loop that normalize and reconstruct ran before they were
    batched, over records as the stage reads them: (exit code, stderr lines,
    records written or None)."""
    skel = canonical_skeleton()
    noun, verb, soft = (("normalization", "normalize", NoValidKeypointsError)
                        if stage == "normalize" else
                        ("reconstruction", "reconstruct", (NoValidKeypointsError, *NUMERICAL)))
    out, err = [], []
    for i, rec in enumerate(records):
        keep = dict(side=rec.side, camera=rec.camera, meta=rec.meta)
        try:
            if rec.camera is None:
                raise DataFormatError("no camera available; pass --camera")
            if stage == "normalize":
                p25 = to_25d(rec.pose3d(), rec.camera, cfg)
                out.append(serialize.PoseRecord(rec.valid, px=p25.xy, zr_norm=p25.zr, **keep))
                continue
            if not rec.valid.any():
                raise NoValidKeypointsError("record has no valid keypoint")
            pose = reconstruct_pose(rec.pose25d(), rec.camera, cfg)
            if stats is not None:
                pose = absolute_pose(pose, cfg.c * recover_scale(pose, stats, skel), cfg.c)
            out.append(serialize.PoseRecord(pose.valid, xyz_mm=pose.xyz, **keep))
        except soft as exc:
            err.append(f"record {i}: {noun} failed: {exc}")
            out.append(serialize.PoseRecord(np.zeros(rec.num_keypoints, dtype=bool), **keep))
        except NUMERICAL as exc:
            return 4, err + [f"numerical failure: record {i}: {exc}"], None
        except Hand25DError as exc:
            return 3, err + [f"error: record {i}: {exc}"], None
    if err:
        err.append(f"{len(err)}/{len(records)} records failed to {verb}")
    return 0, err, out


@pytest.fixture
def mixed_corpus(workdir):
    """The 20 gt records, with all three views: records 2 and 4 lack the pair
    and the root, record 6 has noisy depths that leave no real root, record 8
    a keypoint far behind the root, 9 and 10 are left hands with a camera, and
    record 12 has no meta."""
    records = serialize.read_pose_records(workdir / "gt.jsonl")
    records[2].valid[5] = False
    records[4].valid[0] = False
    records[6].zr_norm = records[6].zr_norm + np.random.default_rng(6).normal(scale=0.5,
                                                                                size=21)
    records[6].zr_norm[5] += 0.5
    records[8].zr_norm[12] -= 1e3
    for rec in records[9:11]:
        rec.side = "left"
    records[12].meta = None
    return records


class TestRewriteStages:
    @pytest.mark.parametrize("fault", [None, "view", "camera", "zero-bone"])
    @pytest.mark.parametrize("stage, flags", [
        ("normalize", []), ("normalize", ["--camera", "--pair"]), ("reconstruct", []),
        ("reconstruct", ["--bone-stats"]), ("reconstruct", ["--camera", "--bone-stats"])])
    def test_matches_the_per_record_loop(self, workdir, mixed_corpus, stage, flags, fault,
                                         capsys):
        """Line for line the file and the stderr of the per-record loop, on
        soft failures, numerical failures, left hands and, with `fault`, a
        record 15 that lacks the stage's view, its camera or a pair bone
        (index MCP to palm, a pair bone under the default pair only)."""
        records = mixed_corpus
        if fault == "view":
            setattr(records[15], "xyz_mm" if stage == "normalize" else "zr_norm", None)
        elif fault == "camera":
            records[15].camera = None
        elif fault == "zero-bone":
            records[15].xyz_mm[5] = records[15].xyz_mm[0]
        path, out, ref = (workdir / name for name in ("mixed.jsonl", "out.jsonl", "ref.jsonl"))
        serialize.write_pose_records(path, records)
        values = {"--camera": workdir / "cam.json", "--bone-stats": workdir / "stats.json",
                  "--pair": "index_pip:index_mcp"}
        argv = [stage, "--in", str(path), "--out", str(out)]
        for flag in flags:
            argv += [flag, str(values[flag])]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err.splitlines()

        override = serialize.read_camera_json(values["--camera"]) if "--camera" in flags else None
        read = serialize.read_pose_records(path)
        for rec in read:
            rec.camera = override or rec.camera
        read = [rec if rec.camera is None else serialize.flip_record_to_right(rec)
                for rec in read]
        stats = (serialize.read_bone_stats_json(values["--bone-stats"])
                 if "--bone-stats" in flags else None)
        cfg = NormalizationConfig(pair=(6, 5) if "--pair" in flags else (5, 0))
        expected = rewrite_reference(stage, read, cfg, stats)
        assert (code, err) == expected[:2]
        if expected[2] is None:
            assert not out.exists()
        else:
            serialize.write_pose_records(ref, expected[2])
            assert out.read_text().splitlines() == ref.read_text().splitlines()
        failed = {"normalize": [2, 4], "reconstruct": [2, 4, 6, 8]}[stage]
        assert [line.split(":")[0] for line in err[:len(failed)]] == [
            f"record {i}" for i in failed]


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

    def test_invalid_keypoints_stay_invalid_through_direct_maps(self, workdir):
        norm = workdir / "norm.jsonl"
        assert main(["normalize", "--in", str(workdir / "gt.jsonl"), "--out", str(norm)]) == 0
        rec = serialize.read_pose_records(norm)[0]
        rec.valid[[8, 12]] = False
        serialize.write_pose_records(workdir / "partial.jsonl", [rec])
        maps, direct, latent = workdir / "m.h25d", workdir / "d.jsonl", workdir / "l.jsonl"
        encode = ["encode", "--in", str(workdir / "partial.jsonl"), "--out", str(maps)]
        assert main(encode) == 0
        assert main(["decode", "--in", str(maps), "--out", str(direct)]) == 0
        back = serialize.read_pose_records(direct)[0]
        np.testing.assert_array_equal(back.valid, rec.valid)
        assert epe(back.px, rec.px, valid=rec.valid)[0].max() <= 0.5 * np.sqrt(2.0)
        # a flat softmax is a prediction, so latent stacks decode all-valid
        assert main(encode + ["--kind", "latent"]) == 0
        assert main(["decode", "--in", str(maps), "--out", str(latent)]) == 0
        assert serialize.read_pose_records(latent)[0].valid.all()

    @pytest.mark.parametrize("flags", [
        ["--exponent", "l1"],
        ["--grid", "64x64", "--out-of-grid", "clamp"],
        ["--kind", "latent", "--amplitude", "5"],
    ], ids=["l1", "clamp", "latent-amplitude"])
    def test_encode_flags_match_the_library(self, workdir, flags):
        p25 = serialize.read_pose_records(workdir / "gt.jsonl")[0].pose25d()
        grid = HeatmapGrid(width=128, height=128)
        if flags[0] == "--exponent":
            stack = encode_direct(p25, grid, exponent="l1")
        elif flags[0] == "--grid":
            grid = HeatmapGrid(width=64, height=64)
            assert (p25.xy > 63).any()  # the default, out_of_grid="error", would exit 3
            stack = encode_direct(p25, grid, out_of_grid="clamp")
        else:
            like = 5.0 * encode_direct(p25, grid, out_of_grid="clamp").likelihood
            depth = np.broadcast_to(p25.zr[:, None, None], like.shape)
            stack = HeatmapStack(kind="latent", likelihood=like, depth=depth)
        expected, out = workdir / "expected.h25d", workdir / "out.h25d"
        serialize.write_h25d(expected, stack)
        assert main(["encode", "--in", str(workdir / "gt.jsonl"), *flags, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_latent_encode_follows_exponent(self, workdir):
        p25 = serialize.read_pose_records(workdir / "gt.jsonl")[0].pose25d()
        direct = encode_direct(p25, HeatmapGrid(width=128, height=128), exponent="l1")
        like = DEFAULT_LATENT_AMPLITUDE * direct.likelihood
        depth = np.broadcast_to(p25.zr[:, None, None], like.shape)
        expected, out = workdir / "expected.h25d", workdir / "out.h25d"
        serialize.write_h25d(expected, HeatmapStack(kind="latent", likelihood=like, depth=depth))
        assert main(["encode", "--in", str(workdir / "gt.jsonl"), "--kind", "latent",
                     "--exponent", "l1", "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_latent_encode_follows_out_of_grid(self, workdir, capsys):
        argv = ["encode", "--in", str(workdir / "gt.jsonl"), "--kind", "latent",
                "--grid", "32x32", "--out", str(workdir / "m.h25d")]
        assert main(argv) == 3
        assert "is outside the grid" in capsys.readouterr().err
        assert not (workdir / "m.h25d").exists()
        assert main(argv + ["--out-of-grid", "clamp"]) == 0

    def test_sigma_whose_maps_underflow_in_the_file_is_3(self, workdir, capsys):
        # at --sigma 0.045 some valid map peaks above 0 in float64 but is 0.0 in float32
        maps, decoded = workdir / "m.h25d", workdir / "d.jsonl"
        encode = ["encode", "--in", str(workdir / "gt.jsonl"), "--out", str(maps)]
        assert main(encode + ["--sigma", "0.045"]) == 3
        assert "map underflows to 0" in capsys.readouterr().err
        assert not maps.exists()
        assert main(encode + ["--sigma", "0.2"]) == 0
        assert main(["decode", "--in", str(maps), "--out", str(decoded)]) == 0
        assert serialize.read_pose_records(decoded)[0].valid.all()


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

    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 4)])
    def test_reconstruct_record_with_invalid_pair_fails_alone(self, workdir, capsys, strict,
                                                              code):
        """A record missing a normalization-pair keypoint is one failed
        record, written all-invalid; the other records are unchanged."""
        assert main(["normalize", "--in", str(workdir / "gt.jsonl"),
                     "--out", str(workdir / "n.jsonl")]) == 0
        records = serialize.read_pose_records(workdir / "n.jsonl")[:6]
        serialize.write_pose_records(workdir / "six.jsonl", records)
        records[3] = dataclasses.replace(records[3], valid=np.arange(21) != 5)
        serialize.write_pose_records(workdir / "hole.jsonl", records)
        flags = ["--strict"] if strict else []
        assert main(["reconstruct", "--in", str(workdir / "six.jsonl"),
                     "--out", str(workdir / "ok.jsonl")]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--in", str(workdir / "hole.jsonl"), *flags,
                     "--out", str(workdir / "rec.jsonl")]) == code
        assert capsys.readouterr().err.splitlines() == [
            "record 3: reconstruction failed: normalization pair (5, 0) must be valid in the "
            "2.5D pose",
            "1/6 records failed to reconstruct",
        ]
        ok = (workdir / "ok.jsonl").read_text().splitlines()
        rec = (workdir / "rec.jsonl").read_text().splitlines()
        assert len(rec) == 6
        assert rec[:3] + rec[4:] == ok[:3] + ok[4:]
        assert not serialize.read_pose_records(workdir / "rec.jsonl")[3].valid.any()

    def test_normalize_failure_lines_come_before_a_later_record_error(self, workdir, capsys):
        records = serialize.read_pose_records(workdir / "gt.jsonl")[:4]
        records[1] = dataclasses.replace(records[1], valid=np.arange(21) != 5)
        records[2] = dataclasses.replace(records[2], camera=None, xyz_mm=None)
        serialize.write_pose_records(workdir / "mixed.jsonl", records)
        out = workdir / "n.jsonl"
        assert main(["normalize", "--in", str(workdir / "mixed.jsonl"), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "record 1: normalization failed: normalization pair (5, 0) must be valid in the "
            "3D pose",
            "error: record 2: no camera available; pass --camera"]
        assert not out.exists()

    @pytest.mark.parametrize("keypoint, pair, cause", [
        (5, "index_mcp:palm", "normalization pair (5, 0) must be valid in the 3D pose"),
        (0, "index_pip:index_mcp", "root keypoint 0 must be valid in the 3D pose"),
    ], ids=["pair", "root"])
    def test_normalize_record_with_invalid_pair_or_root_fails_alone(self, workdir, capsys,
                                                                    keypoint, pair, cause):
        """normalize writes such a record all-invalid and exits 0; reconstruct
        then counts it as one failed record, and eval as one failed pair."""
        records = serialize.read_pose_records(workdir / "gt.jsonl")[:4]
        serialize.write_pose_records(workdir / "four.jsonl", records)
        records[3] = dataclasses.replace(records[3], valid=np.arange(21) != keypoint)
        serialize.write_pose_records(workdir / "hole.jsonl", records)
        assert main(["normalize", "--in", str(workdir / "four.jsonl"), "--pair", pair,
                     "--out", str(workdir / "ok.jsonl")]) == 0
        capsys.readouterr()
        assert main(["normalize", "--in", str(workdir / "hole.jsonl"), "--pair", pair,
                     "--out", str(workdir / "n.jsonl")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"record 3: normalization failed: {cause}", "1/4 records failed to normalize"]
        ok = (workdir / "ok.jsonl").read_text().splitlines()
        norm = (workdir / "n.jsonl").read_text().splitlines()
        assert norm[:3] == ok[:3]
        failed = serialize.read_pose_records(workdir / "n.jsonl")[3]
        assert not failed.valid.any() and failed.px is None and failed.zr_norm is None
        assert failed.camera == records[3].camera

        rec = str(workdir / "rec.jsonl")
        assert main(["reconstruct", "--in", str(workdir / "n.jsonl"), "--strict", "--pair", pair,
                     "--bone-stats", str(workdir / "stats.json"), "--out", rec]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "record 3: reconstruction failed: record has no valid keypoint",
            "1/4 records failed to reconstruct"]
        report = workdir / "report.json"
        assert main(["eval", "--pred", rec, "--gt", str(workdir / "hole.jsonl"),
                     "--protocol", "absolute_with_scale", "--space", "3d",
                     "--out", str(report)]) == 0
        assert serialize.read_report_json(report).num_failed == 1

    @pytest.mark.parametrize("stage, view, keypoint, values, message, written", [
        ("reconstruct", "zr_norm", 5, 1e200, "quadratic coefficients must be finite", 0),
        ("normalize", "xyz_mm", 7, [1e307, 0.0, 1e-300],
         "values must be finite; JSON has no NaN or infinity", 3),
        ("shorten-tips", "xyz_mm", 7, [1e307, 0.0, 1e-300],
         "values must be finite; JSON has no NaN or infinity", 3),
    ], ids=["reconstruct-pair-depth-overflows", "normalize-pixel-overflows",
            "shorten-tips-pixel-overflows"])
    def test_overflowing_record_is_3_without_a_warning(self, workdir, capsys, stage, view,
                                                       keypoint, values, message, written):
        """A record whose arithmetic overflows ends the stage with its error
        and exit 3, and numpy warns nothing: the zr of 1e200 overflows the
        quadratic's coefficients, and X = 1e307 at Z = 1e-300 projects to an
        infinite pixel (in normalize, and in shorten-tips's re-projection),
        which the writer rejects after the records before it."""
        records = serialize.read_pose_records(workdir / "gt.jsonl")[:4]
        changed = getattr(records[3], view).copy()
        changed[keypoint] = values
        records[3] = dataclasses.replace(records[3], **{view: changed})
        serialize.write_pose_records(workdir / "big.jsonl", records)
        out = workdir / "out.jsonl"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([stage, "--in", str(workdir / "big.jsonl"), "--out", str(out)]) == 3
        assert not caught
        assert capsys.readouterr().err.splitlines() == [f"error: record 3: {message}"]
        lines = out.read_text().splitlines() if out.exists() else []
        assert len(lines) == written

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage, record, view, changes, message", [
        (["reconstruct", "--bone-stats", "stats.json"], 3, "zr_norm", {20: 1e160},
         "scale must be positive and finite, got nan"),
        (["shorten-tips", "--factor", "0.9"], 2, "xyz_mm",
         {19: [1e308, 1e308, 500.0], 20: [-1e308, -1e308, 500.0]},
         "values must be finite; JSON has no NaN or infinity"),
    ], ids=["reconstruct-scale-overflows", "shorten-tips-tip-bone-overflows"])
    def test_per_record_work_after_the_kernel_warns_nothing(self, workdir, capsys, monkeypatch,
                                                            stage, record, view, changes,
                                                            message):
        """Under warnings as errors, a record that overflows outside the
        stage kernels still ends the stage with its error line and exit 3:
        the zr of 1e160 gives a finite kernel row whose bone lengths overflow
        in recover_scale, and tips at +-1e308 overflow shorten_fingertips's
        tip bone."""
        records = serialize.read_pose_records(workdir / "gt.jsonl")[:6]
        changed = getattr(records[record], view).copy()
        for keypoint, value in changes.items():
            changed[keypoint] = value
        records[record] = dataclasses.replace(records[record], **{view: changed})
        serialize.write_pose_records(workdir / "big.jsonl", records)
        capsys.readouterr()
        monkeypatch.chdir(workdir)
        assert main([*stage, "--in", "big.jsonl", "--out", "out.jsonl"]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: record {record}: {message}"]

    def test_eval_of_an_all_failed_reconstruction_is_3(self, workdir, capsys):
        gts = serialize.read_pose_records(workdir / "gt.jsonl")[:2]
        degenerate = serialize.PoseRecord(
            valid=np.ones(21, dtype=bool),
            px=np.tile([63.5, 63.5], (21, 1)),
            zr_norm=np.zeros(21),
            camera=gts[0].camera,
        )
        serialize.write_pose_records(workdir / "degenerate.jsonl", [degenerate] * 2)
        serialize.write_pose_records(workdir / "gt2.jsonl", gts)
        failed = workdir / "failed.jsonl"
        assert main(["reconstruct", "--in", str(workdir / "degenerate.jsonl"),
                     "--out", str(failed)]) == 0
        assert not any(rec.valid.any() for rec in serialize.read_pose_records(failed))
        capsys.readouterr()
        assert (
            main(
                [
                    "eval",
                    "--pred", str(failed),
                    "--gt", str(workdir / "gt2.jsonl"),
                    "--protocol", "absolute_with_scale",
                    "--space", "3d",
                    "--out", str(workdir / "r.json"),
                ]
            )
            == 3
        )
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: no valid keypoints in the whole corpus"
        )
        assert not (workdir / "r.json").exists()

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

    def test_negative_threshold_grid_in_either_spelling(self, workdir):
        base = ["eval", "--pred", str(workdir / "gt.jsonl"), "--gt", str(workdir / "gt.jsonl"),
                "--protocol", "root_aligned", "--space", "3d"]
        split, joined = workdir / "split.json", workdir / "joined.json"
        assert main(base + ["--thresholds", "-5:30:31", "--out", str(split)]) == 0
        assert main(base + ["--thresholds=-5:30:31", "--out", str(joined)]) == 0
        assert split.read_bytes() == joined.read_bytes()
        assert serialize.read_report_json(split).pck[0][0] == -5.0

    def test_negative_count_is_3(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--count", "-3", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: --count must be 0 or more, got -3\n"
        assert not out.exists()

    def test_negative_seed_is_3(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--seed", "-1", "--count", "5", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: seed must be 0 or more, got -1\n"
        assert not out.exists()

    def test_zero_count_writes_an_empty_file(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--count", "0", "--out", str(out)]) == 0
        assert out.read_bytes() == b""

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

    @pytest.mark.parametrize("amplitude", ["-20", "0", "nan"])
    def test_bad_amplitude_is_3(self, workdir, amplitude, capsys):
        """-20 decoded 29 px off and 0 wrote flat maps; nan failed naming
        the heatmaps, not the flag."""
        argv = ["encode", "--in", str(workdir / "gt.jsonl"), "--kind", "latent",
                "--amplitude", amplitude, "--out", str(workdir / "m.h25d")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: --amplitude must be finite and positive, got {float(amplitude)}\n")
        assert not (workdir / "m.h25d").exists()

    def test_foreign_keypoint_name_is_3(self, workdir, capsys):
        obj = json.loads((workdir / "gt.jsonl").read_text().splitlines()[0])
        obj["keypoints"][3]["name"] = "not_a_joint"
        bad = workdir / "renamed.jsonl"
        bad.write_text(json.dumps(obj) + "\n")
        assert main(["normalize", "--in", str(bad), "--out", str(workdir / "o.jsonl")]) == 3
        assert ("renamed.jsonl:1: keypoint 3: name 'not_a_joint', expected 'thumb_dip'"
                in capsys.readouterr().err)


class TestRarelyTakenBranches:
    def test_numerical_failure_outside_a_stage_loop_is_4(self, workdir, capsys):
        rec = serialize.read_pose_records(workdir / "gt.jsonl")[0]
        rec.xyz_mm[5] = rec.xyz_mm[0]  # zero-length index_mcp:palm bone
        serialize.write_pose_records(workdir / "zero.jsonl", [rec])
        out = workdir / "n.jsonl"
        assert main(["normalize", "--in", str(workdir / "zero.jsonl"), "--out", str(out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: record 0: normalization pair (5, 0) is degenerate (|bone| = 0)"]
        assert not out.exists()

    def test_decode_latent_without_beta_uses_ones(self, workdir):
        maps = workdir / "latent.h25d"
        assert main(["encode", "--in", str(workdir / "gt.jsonl"), "--kind", "latent",
                     "--out", str(maps)]) == 0
        serialize.write_beta_json(workdir / "beta.json", np.ones(21))
        default, ones = workdir / "default.jsonl", workdir / "ones.jsonl"
        assert main(["decode", "--in", str(maps), "--out", str(default)]) == 0
        assert main(["decode", "--in", str(maps), "--beta", str(workdir / "beta.json"),
                     "--out", str(ones)]) == 0
        assert default.read_bytes() == ones.read_bytes()

    def test_shorten_tips_warns_when_views_cannot_follow(self, workdir, capsys):
        records = serialize.read_pose_records(workdir / "gt.jsonl")[:3]
        records[1].camera = None
        serialize.write_pose_records(workdir / "nocam.jsonl", records)
        out = workdir / "s.jsonl"
        assert main(["shorten-tips", "--in", str(workdir / "nocam.jsonl"), "--factor", "0.9",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "record 1: no camera; px/zr_norm left unchanged and may now be inconsistent"]
        after = serialize.read_pose_records(out)[1]
        np.testing.assert_array_equal(after.px, records[1].px)
        assert not np.array_equal(after.xyz_mm, records[1].xyz_mm)

    def test_shorten_tips_bad_factor_names_no_record(self, workdir, capsys):
        out = workdir / "s.jsonl"
        assert main(["shorten-tips", "--in", str(workdir / "gt.jsonl"), "--factor", "2",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: shortening factor must be in (0, 1], got 2.0"]
        assert not out.exists()

    def test_pair_by_number_or_unknown_name(self, workdir, capsys):
        by_name, by_number = workdir / "name.jsonl", workdir / "number.jsonl"
        base = ["normalize", "--in", str(workdir / "gt.jsonl")]
        assert main(base + ["--pair", "index_mcp:palm", "--out", str(by_name)]) == 0
        assert main(base + ["--pair", "5:0", "--out", str(by_number)]) == 0
        assert by_name.read_bytes() == by_number.read_bytes()
        for pair, name in [("index_mcp:wrist", "wrist"), ("\u00b2:0", "\u00b2")]:  # "²" is no int
            assert main(base + ["--pair", pair, "--out", str(workdir / "o.jsonl")]) == 3
            assert capsys.readouterr().err.splitlines() == [f"error: unknown keypoint name {name!r}"]

    @pytest.mark.parametrize("flags, message", [
        (["--grid", "128by128"], "grid must look like 128x128, got '128by128'"),
        (["--index", "20"], "--index 20 out of range for 20 records"),
        (["--index", "-1"], "--index -1 out of range for 20 records"),
    ])
    def test_encode_bad_grid_or_index_is_3(self, workdir, flags, message, capsys):
        out = workdir / "m.h25d"
        assert main(["encode", "--in", str(workdir / "gt.jsonl"), *flags, "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()


def _decode_bad_h25d(workdir, offset, data):
    """decode of a valid 21x4x4 direct stack whose bytes from offset on
    are replaced by data (b"" cuts the file there)."""
    path = workdir / "bad.h25d"
    serialize.write_h25d(path, HeatmapStack(kind="direct", likelihood=np.zeros((21, 4, 4)),
                                            depth=np.zeros((21, 4, 4))))
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(data) if data else None] = data
    path.write_bytes(bytes(raw))
    return ["decode", "--in", str(path)]


def _normalize_changed_record(workdir, change):
    obj = json.loads((workdir / "gt.jsonl").read_text().splitlines()[0])
    change(obj)
    path = workdir / "changed.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    return ["normalize", "--in", str(path)]


def _pixels_only(workdir, **changes):
    """A file of gt record 0 without its xyz_mm view, with the given field changes."""
    rec = serialize.read_pose_records(workdir / "gt.jsonl")[0]
    fields = dict(px=rec.px, zr_norm=rec.zr_norm, camera=rec.camera)
    path = workdir / "pixels.jsonl"
    serialize.write_pose_records(path, [serialize.PoseRecord(rec.valid, **fields | changes)])
    return path


def _left_hands(workdir, camera, name):
    """The gt records as left hands carrying camera (None: none), written to
    name in the workdir; returns the path as a string."""
    records = serialize.read_pose_records(workdir / "gt.jsonl")
    for rec in records:
        rec.side, rec.camera = "left", camera
    serialize.write_pose_records(workdir / name, records)
    return str(workdir / name)


SIDES_DIFFER = ("record 0: a right-hand prediction against a left-hand ground truth; "
                "mirroring needs a camera")


def _eval_against_left_hands_without_camera(workdir):
    left = _left_hands(workdir, None, "left.jsonl")
    return ["eval", "--pred", str(workdir / "gt.jsonl"), "--gt", left,
            "--protocol", "root_aligned", "--space", "3d"]


def _shorten_tips_without_xyz(workdir):
    return ["shorten-tips", "--in", str(_pixels_only(workdir))]


def _record_3_changed(stage, **changes):
    """stage over the first 4 gt records, record 3 with the given field changes."""
    def build(workdir):
        records = serialize.read_pose_records(workdir / "gt.jsonl")[:4]
        records[3] = dataclasses.replace(records[3], **changes)
        serialize.write_pose_records(workdir / "four.jsonl", records)
        return [stage, "--in", str(workdir / "four.jsonl")]
    return build


def _normalize_array_line(workdir):
    path = workdir / "array.jsonl"
    path.write_text("[1, 2]\n")
    return ["normalize", "--in", str(path)]


def _decode_latent_with_beta(workdir, beta):
    maps = workdir / "latent.h25d"
    assert main(["encode", "--in", str(workdir / "gt.jsonl"), "--kind", "latent",
                 "--out", str(maps)]) == 0
    path = workdir / "beta.json"
    path.write_text(json.dumps(beta))
    return ["decode", "--in", str(maps), "--beta", str(path)]


def _encode_empty_file(workdir):
    (workdir / "empty.jsonl").write_text("")
    return ["encode", "--in", str(workdir / "empty.jsonl")]


def _not_utf8(workdir, name, data):
    """A file of the given bytes, which are not UTF-8; returns its path as a string."""
    (workdir / name).write_bytes(data)
    return str(workdir / name)


def _shorten_tips_record_7_without_index_mcp(workdir):
    records = serialize.read_pose_records(workdir / "gt.jsonl")
    records[7].valid[5] = False
    serialize.write_pose_records(workdir / "hole.jsonl", records)
    return ["shorten-tips", "--in", str(workdir / "hole.jsonl")]


def _set_camera(obj):
    obj["camera"] = [150.0, 150.0]


def _set_negative_fx(obj):
    obj["camera"]["fx"] = -1


# case -> (argv without --out, built in the workdir; the end of the one stderr line)
REJECTIONS = {
    "h25d-shorter-than-header": (lambda w: _decode_bad_h25d(w, 10, b""),
                                 "file too short for an H25D header"),
    "h25d-version-2": (lambda w: _decode_bad_h25d(w, 4, struct.pack("<I", 2)),
                       "unsupported H25D version 2"),
    "h25d-kind-byte-2": (lambda w: _decode_bad_h25d(w, 20, b"\x02"),
                         "unknown heatmap kind byte 2"),
    "h25d-nan-payload": (lambda w: _decode_bad_h25d(w, 24 + 4 * 100, struct.pack("<f", np.nan)),
                         "heatmap payload contains non-finite values"),
    "eval-sides-differ": (_eval_against_left_hands_without_camera, SIDES_DIFFER),
    "jsonl-line-is-an-array": (_normalize_array_line,
                               "array.jsonl:1: pose record must be a JSON object"),
    "camera-not-an-object": (lambda w: _normalize_changed_record(w, _set_camera),
                             "changed.jsonl:1: camera must be a JSON object"),
    "camera-negative-fx": (lambda w: _normalize_changed_record(w, _set_negative_fx),
                           "changed.jsonl:1: focal lengths must be positive"),
    "beta-empty": (lambda w: _decode_latent_with_beta(w, []),
                   "beta JSON must be a non-empty array"),
    "beta-wrong-count": (lambda w: _decode_latent_with_beta(w, [1.0, 1.0, 1.0]),
                         "beta has 3 entries but the stack has 21"),
    "pair-without-colon": (lambda w: ["normalize", "--in", str(w / "gt.jsonl"), "--pair", "palm"],
                           "pair must look like 'index_mcp:palm', got 'palm'"),
    "thresholds-without-count": (
        lambda w: ["eval", "--pred", str(w / "gt.jsonl"), "--gt", str(w / "gt.jsonl"),
                   "--protocol", "root_aligned", "--space", "3d", "--thresholds", "20:50"],
        "thresholds must look like 20:50:31, got '20:50'"),
    "encode-empty-file": (_encode_empty_file, "no records to encode"),
    "shorten-tips-without-xyz": (_shorten_tips_without_xyz, "record 0: shorten-tips needs xyz_mm"),
    "normalize-record-without-xyz": (_record_3_changed("normalize", xyz_mm=None),
                                     "record 3: record carries no 3D coordinates"),
    "reconstruct-record-without-zr": (_record_3_changed("reconstruct", zr_norm=None),
                                      "record 3: record carries no complete 2.5D view"),
    "shorten-tips-record-without-pair": (
        _shorten_tips_record_7_without_index_mcp,
        "record 7: normalization pair (5, 0) must be valid in the 3D pose"),
    "jsonl-not-utf8": (
        lambda w: ["normalize", "--in", _not_utf8(w, "latin.jsonl", b"\xff\xfe{}\n")],
        "latin.jsonl: not UTF-8 text (invalid start byte)"),
    "camera-json-not-utf8": (
        lambda w: ["normalize", "--in", str(w / "gt.jsonl"),
                   "--camera", _not_utf8(w, "latin.json", b"\xff\n")],
        "latin.json: not UTF-8 text (invalid start byte)"),
    "bone-stats-json-not-utf8": (
        lambda w: ["reconstruct", "--in", str(w / "gt.jsonl"),
                   "--bone-stats", _not_utf8(w, "latin.json", b"\xff\n")],
        "latin.json: not UTF-8 text (invalid start byte)"),
    "beta-json-not-utf8": (
        lambda w: _decode_latent_with_beta(w, [])[:-1] + [_not_utf8(w, "latin.json", b"\xff\n")],
        "latin.json: not UTF-8 text (invalid start byte)"),
    "report-json-not-utf8": (
        lambda w: ["pck-curve", "--report", _not_utf8(w, "latin.json", b"{\"auc\": \xe9}\n")],
        "latin.json: not UTF-8 text (invalid continuation byte)"),
}


class TestRejectionsReachedFromTheCli:
    @pytest.mark.parametrize("case", list(REJECTIONS))
    def test_exits_3_with_its_message(self, workdir, case, capsys):
        build, message = REJECTIONS[case]
        out = workdir / "out.file"
        argv = build(workdir) + ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message)
        assert not out.exists()


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

    def test_synth_file_is_that_of_gen_pose_records(self, workdir):
        # the stage builds its records in one batch; gen_pose is the reference
        cfg = SynthConfig(seed=5, bone_stats=synth_bone_stats(SynthConfig()))
        serialize.write_pose_records(workdir / "ref.jsonl",
                                     [gen_pose(cfg, i)[2] for i in range(20)])
        assert (workdir / "gt.jsonl").read_bytes() == (workdir / "ref.jsonl").read_bytes()

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
