"""The four benchmark workloads.

Each workload draws its inputs from the benchmark seed in ``setup``, warms
up, and then runs closed-loop chunks: one caller, the next chunk only after
the previous one finished. ``run_chunk`` does the timed work and
``check`` verifies its outputs afterwards, outside the timed region.
Calls go through module attributes (``reconstruct.reconstruct_pose``,
``serialize.read_h25d``), so a traced run sees them.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

cli = importlib.import_module("hand25d.cli")
errors = importlib.import_module("hand25d.errors")
gradcheck = importlib.import_module("hand25d.gradcheck")
heatmap = importlib.import_module("hand25d.heatmap")
metrics = importlib.import_module("hand25d.metrics")
objective = importlib.import_module("hand25d.objective")
pose25d = importlib.import_module("hand25d.pose25d")
reconstruct = importlib.import_module("hand25d.reconstruct")
serialize = importlib.import_module("hand25d.serialize")
skeleton = importlib.import_module("hand25d.skeleton")
synth = importlib.import_module("hand25d.synth")
types = importlib.import_module("hand25d.types")

perf = time.perf_counter


@dataclass
class Chunk:
    """One closed-loop chunk: its timed work and what its checks found."""

    items: int
    wall_s: float
    latencies_s: list[float] | np.ndarray = field(default_factory=list)
    parts_s: dict[str, float] = field(default_factory=dict)
    rejected: dict[str, int] = field(default_factory=dict)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    reference_rate: float = 0.0  # host speed right after the chunk, see calibrate.py


class Workload:
    name = ""
    item = ""  # what one item is, for the output
    has_latency = False
    reference = "interpreter"  # the calibrate.py kernel that tracks this workload

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def set_item(self, item: int) -> None:
        if self.tracer is not None:
            self.tracer.item = item

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_chunk(self) -> Chunk:
        raise NotImplementedError

    def check(self, chunk: Chunk) -> None:
        raise NotImplementedError

    def final_chunk(self) -> Chunk | None:
        """Untimed work after the timed loop, checked like the rest."""
        return None

    def pins(self) -> dict:
        """Values that must repeat exactly in every run of this seed."""
        return {}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CorpusPipeline(Workload):
    """The four CLI stages, in process, on a synthetic corpus.

    Timed passes are short, so that a run has many of them to take the
    fastest from; one full-size pass after them sets peak RSS, which the
    in-memory record lists then dominate."""

    name = "corpus-pipeline"
    item = "record through synth, normalize, reconstruct and eval"
    PASS_RECORDS = 250
    FULL_RECORDS = 4000
    WARMUP_RECORDS = 50
    STAGES = ("synth", "normalize", "reconstruct", "eval")
    MAX_EPE_MM = 1e-6

    def params(self) -> dict:
        return {"records_per_timed_pass": self.PASS_RECORDS,
                "records_in_full_pass": self.FULL_RECORDS,
                "warmup_records": self.WARMUP_RECORDS, "synth_seed": self.seed,
                "noise": "none", "protocol": "absolute_with_scale", "space": "3d"}

    def _pass(self, count: int, prefix: str) -> dict[str, list[str]]:
        files = {s: self.workdir / f"{prefix}{s}.{'json' if s == 'eval' else 'jsonl'}"
                 for s in self.STAGES}
        stats = str(self.stats_path)
        argv = {
            "synth": ["synth", "--seed", str(self.seed), "--count", str(count),
                      "--out", str(files["synth"]), "--bone-stats", stats],
            "normalize": ["normalize", "--in", str(files["synth"]),
                          "--out", str(files["normalize"])],
            "reconstruct": ["reconstruct", "--in", str(files["normalize"]),
                            "--out", str(files["reconstruct"]), "--bone-stats", stats,
                            "--strict"],
            "eval": ["eval", "--pred", str(files["reconstruct"]), "--gt", str(files["synth"]),
                     "--protocol", "absolute_with_scale", "--space", "3d",
                     "--out", str(files["eval"])],
        }
        return {"count": count, "files": files, "argv": argv}

    def setup(self) -> None:
        self.stats_path = self.workdir / "bone_stats.json"
        serialize.write_bone_stats_json(
            self.stats_path, synth.synth_bone_stats(synth.SynthConfig()))
        self.timed = self._pass(self.PASS_RECORDS, "pass_")
        self.full = self._pass(self.FULL_RECORDS, "full_")
        self.hashes = {}
        self.passes = 0

    def warm_up(self) -> None:
        for stage, argv in self._pass(self.WARMUP_RECORDS, "warmup_")["argv"].items():
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up stage {stage} failed")

    def _run(self, spec: dict) -> Chunk:
        self.set_item(self.passes)
        self.passes += 1
        parts, codes = {}, {}
        for stage in self.STAGES:
            t0 = perf()
            with self.span(f"cli.{stage}"):
                codes[stage] = cli.main(spec["argv"][stage])
            parts[stage] = perf() - t0
        return Chunk(items=spec["count"], wall_s=sum(parts.values()), parts_s=parts,
                     outputs={"codes": codes, "spec": spec})

    def run_chunk(self) -> Chunk:
        return self._run(self.timed)

    def final_chunk(self) -> Chunk:
        return self._run(self.full)

    def check(self, chunk: Chunk) -> None:
        spec = chunk.outputs.pop("spec")
        problems = [f"{s} exited {c}" for s, c in chunk.outputs["codes"].items() if c != 0]
        if not problems:
            report = json.loads(spec["files"]["eval"].read_text(encoding="utf-8"))
            chunk.outputs.update(auc=report["auc"], epe_mean=report["epe_mean"])
            if report["auc"] != 1.0:
                problems.append(f"auc {report['auc']!r} != 1.0")
            if not report["epe_mean"] <= self.MAX_EPE_MM:
                problems.append(f"epe_mean {report['epe_mean']!r} mm > {self.MAX_EPE_MM}")
            if report["num_samples"] != spec["count"] or report["num_failed"] != 0:
                problems.append("report does not cover every record")
            for stage, path in spec["files"].items():
                key = f"sha256.{spec['count']}_records.{stage}"
                digest = _sha256(path)
                if self.hashes.setdefault(key, digest) != digest:
                    problems.append(f"{stage} output differs between passes of one seed")
        chunk.problems = problems
        chunk.failed = chunk.items if problems else 0

    def pins(self) -> dict:
        return dict(self.hashes)


class NoisyGeometry(Workload):
    """Per-pose reconstruct_pose -> recover_scale -> absolute_pose on noisy
    2.5D views, then one evaluate over the corpus."""

    name = "noisy-geometry"
    item = "pose through reconstruct_pose, recover_scale and absolute_pose"
    has_latency = True
    POSES = 1000
    PX_SIGMA = 1.0
    ZR_SIGMA = 0.02
    PAIR_TOL = 1e-6

    def params(self) -> dict:
        return {"poses": self.POSES, "px_sigma": self.PX_SIGMA, "zr_sigma": self.ZR_SIGMA,
                "zr_noise_on": "every keypoint but the root", "synth_seed": self.seed,
                "noise_seed": [self.seed, 1], "protocol": "absolute_with_scale"}

    def setup(self) -> None:
        self.stats = synth.synth_bone_stats(synth.SynthConfig())
        cfg = synth.SynthConfig(seed=self.seed, bone_stats=self.stats)
        self.cam = cfg.camera
        self.norm = pose25d.NormalizationConfig()
        self.skel = skeleton.canonical_skeleton()
        rng = np.random.default_rng([self.seed, 1])
        self.gt, self.inputs = [], []
        for i in range(self.POSES):
            pose, p25, _ = synth.gen_pose(cfg, i)
            zr_noise = rng.normal(0.0, self.ZR_SIGMA, p25.num_keypoints)
            zr_noise[p25.root] = 0.0
            self.gt.append(pose)
            self.inputs.append(types.Pose25D(
                xy=p25.xy + rng.normal(0.0, self.PX_SIGMA, p25.xy.shape),
                zr=p25.zr + zr_noise, root=p25.root, valid=p25.valid))
        self.first_rejected = None

    def warm_up(self) -> None:
        self._run(self.inputs[:100], self.gt[:100])

    def _run(self, inputs, gts):
        norm, cam, stats, skel = self.norm, self.cam, self.stats, self.skel
        numerical = cli.NUMERICAL_ERRORS
        latencies, normalized, rejected = [], [], {}
        preds, gt_pts, masks = [], [], []
        failed, problems = 0, []
        t_start = perf()
        for i, (p25, gt) in enumerate(zip(inputs, gts)):
            self.set_item(i)
            t0 = perf()
            try:
                rec = reconstruct.reconstruct_pose(p25, cam, norm)
                scale = reconstruct.recover_scale(rec, stats, skel)
                pose = reconstruct.absolute_pose(rec, norm.c * scale, norm.c)
            except errors.Hand25DError as exc:
                latencies.append(perf() - t0)
                kind = type(exc).__name__
                rejected[kind] = rejected.get(kind, 0) + 1
                if not isinstance(exc, numerical):
                    failed += 1
                    problems.append(f"pose {i}: {kind} is not a numerical failure")
                continue
            latencies.append(perf() - t0)
            normalized.append(rec)
            preds.append(pose.xyz)
            gt_pts.append(gt.xyz)
            masks.append(pose.valid & gt.valid)
        t0 = perf()
        report = metrics.evaluate(preds, gt_pts, masks, "absolute_with_scale", "3d",
                                  num_failed=sum(rejected.values()))
        t_end = perf()
        return Chunk(items=len(inputs), wall_s=t_end - t_start, latencies_s=np.array(latencies),
                     parts_s={"evaluate": t_end - t0}, rejected=rejected, failed=failed,
                     problems=problems,
                     outputs={"normalized": normalized, "auc": report.auc,
                              "epe_mean": report.epe_mean})

    def run_chunk(self) -> Chunk:
        return self._run(self.inputs, self.gt)

    def check(self, chunk: Chunk) -> None:
        n, m = self.norm.pair
        bad = 0
        for rec in chunk.outputs.pop("normalized"):
            bone = float(np.linalg.norm(rec.xyz[n] - rec.xyz[m]))
            if abs(bone - self.norm.c) > self.PAIR_TOL or np.any(rec.xyz[rec.valid, 2] <= 0):
                bad += 1
        if bad:
            chunk.problems.append(f"{bad} reconstructions break the pair length or depth sign")
        if self.first_rejected is None:
            self.first_rejected = dict(chunk.rejected)
        elif chunk.rejected != self.first_rejected:
            chunk.problems.append("failure counts differ between passes of one seed")
            bad = chunk.items
        chunk.failed = min(chunk.items, chunk.failed + bad)

    def pins(self) -> dict:
        return {f"failures.{k}": v for k, v in sorted((self.first_rejected or {}).items())}


class HeatmapRoundtrip(Workload):
    """encode_direct -> H25D write/read -> latent stack -> decode_latent ->
    pose_loss -> vjp_decode_latent, one 21x128x128 stack at a time."""

    name = "heatmap-roundtrip"
    item = "21x128x128 stack through encode, H25D write/read, decode, loss and VJP"
    has_latency = True
    reference = "arrays"
    GRID = (128, 128)
    POSES = 16
    NOISE_FIELDS = 5
    NOISE_SIGMA = 0.5
    ITEMS_PER_CHUNK = 4
    XY_TOL_PX = 1.0
    STEPS = ("encode", "write_h25d", "read_h25d", "latent", "decode", "loss", "vjp")

    def params(self) -> dict:
        return {"keypoints": 21, "grid": list(self.GRID), "poses": self.POSES,
                "noise_fields": self.NOISE_FIELDS, "noise_sigma": self.NOISE_SIGMA,
                "amplitude": cli.DEFAULT_LATENT_AMPLITUDE, "sigma_px": heatmap.DEFAULT_SIGMA,
                "items_per_chunk": self.ITEMS_PER_CHUNK, "synth_seed": self.seed,
                "noise_seed": [self.seed, 2], "xy_tolerance_px": self.XY_TOL_PX}

    def setup(self) -> None:
        cfg = synth.SynthConfig(seed=self.seed, grid=self.GRID)
        self.grid = heatmap.HeatmapGrid(width=self.GRID[0], height=self.GRID[1])
        self.poses = [synth.gen_pose(cfg, i)[1] for i in range(self.POSES)]
        self.annotations = [
            objective.SampleAnnotations(gt_2d=types.Pose2D(xy=p.xy, valid=p.valid), gt_zr=p.zr)
            for p in self.poses]
        k = self.poses[0].num_keypoints
        self.spread = heatmap.SpreadParams.ones(k)
        self.loss_cfg = objective.LossConfig()
        rng = np.random.default_rng([self.seed, 2])
        self.noise = rng.normal(0.0, self.NOISE_SIGMA,
                                (self.NOISE_FIELDS, k, self.GRID[1], self.GRID[0]))
        self.path = self.workdir / "stack.h25d"
        self.next_item = 0

    def warm_up(self) -> None:
        chunk = Chunk(items=0, wall_s=0.0)
        self._item(0, chunk)
        self.next_item = 0

    def _item(self, j: int, chunk: Chunk) -> None:
        """One stack; its timed steps go into chunk, its checks run after."""
        p25 = self.poses[j % self.POSES]
        ann = self.annotations[j % self.POSES]
        noise = self.noise[j % self.NOISE_FIELDS]
        self.set_item(j)
        t = [perf()]
        target = heatmap.encode_direct(p25, self.grid)
        t.append(perf())
        serialize.write_h25d(self.path, target)
        t.append(perf())
        back = serialize.read_h25d(self.path)
        t.append(perf())
        latent = heatmap.HeatmapStack(
            kind="latent", likelihood=cli.DEFAULT_LATENT_AMPLITUDE * back.likelihood + noise,
            depth=back.depth)
        t.append(perf())
        decoded = heatmap.decode_latent(latent, self.spread)
        t.append(perf())
        objective.pose_loss(decoded, ann, self.loss_cfg)
        # gradient of the L1 pose loss with respect to the decoded (x, y, zr)
        k = decoded.num_keypoints
        upstream = np.column_stack([np.sign(decoded.xy - p25.xy),
                                    self.loss_cfg.alpha * np.sign(decoded.zr - p25.zr)]) / k
        t.append(perf())
        cot = heatmap.vjp_decode_latent(latent, self.spread, upstream)
        t.append(perf())
        chunk.latencies_s.append(t[-1] - t[0])
        for step, a, b in zip(self.STEPS, t, t[1:]):
            chunk.parts_s[step] = chunk.parts_s.get(step, 0.0) + (b - a)
        chunk.items += 1
        chunk.wall_s += t[-1] - t[0]

        problems = []
        for part in ("likelihood", "depth"):
            if not np.array_equal(getattr(back, part),
                                  getattr(target, part).astype(np.float32)):
                problems.append(f"read_h25d {part} is not the float32 rounding of what was written")
        err = float(np.abs(decoded.xy - p25.xy).max())
        if not err <= self.XY_TOL_PX:
            problems.append(f"decoded (x, y) off by {err:.3g} px")
        shape = latent.likelihood.shape
        expected = (shape, shape, (shape[0],))
        if tuple(c.shape for c in cot) != expected or not all(np.all(np.isfinite(c)) for c in cot):
            problems.append("VJP outputs are not finite arrays of the input shapes")
        if problems:
            chunk.failed += 1
            chunk.problems.extend(f"stack {j}: {p}" for p in problems)

    def run_chunk(self) -> Chunk:
        chunk = Chunk(items=0, wall_s=0.0)
        for _ in range(self.ITEMS_PER_CHUNK):
            self._item(self.next_item, chunk)
            self.next_item += 1
        return chunk

    def check(self, chunk: Chunk) -> None:
        """Checked per stack inside run_chunk, outside each stack's timing."""


class GradcheckSweep(Workload):
    """gradcheck(target, seeds=S) for every target, in a seeded order."""

    name = "gradcheck-sweep"
    item = "one (target, seed) gradient check on 3x9x11 maps"
    SEEDS = 1

    def params(self) -> dict:
        return {"targets": list(gradcheck.TARGETS), "seeds_per_call": self.SEEDS,
                "problem_seeds": list(range(self.SEEDS)),
                "order_seed": self.seed, "eps": 1e-4, "tol": gradcheck.DEFAULT_TOL}

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.calls = 0

    def warm_up(self) -> None:
        for target in gradcheck.TARGETS:
            gradcheck.gradcheck(target, seeds=self.SEEDS)

    def run_chunk(self) -> Chunk:
        parts, reports = {}, []
        for target in self.rng.permutation(gradcheck.TARGETS):
            target = str(target)
            self.set_item(self.calls)
            self.calls += 1
            t0 = perf()
            with self.span(f"gradcheck.{target}"):
                reports.append(gradcheck.gradcheck(target, seeds=self.SEEDS))
            parts[target] = perf() - t0
        return Chunk(items=len(reports) * self.SEEDS, wall_s=sum(parts.values()),
                     parts_s=parts, outputs={"reports": reports})

    def check(self, chunk: Chunk) -> None:
        for rep in chunk.outputs.pop("reports"):
            if rep.status != "ok" or not rep.max_rel_err < gradcheck.DEFAULT_TOL:
                chunk.failed += rep.seeds
                chunk.problems.append(
                    f"gradcheck {rep.target}: status {rep.status}, "
                    f"max_rel_err {rep.max_rel_err:.3e}")


WORKLOADS = {w.name: w for w in (CorpusPipeline, NoisyGeometry, HeatmapRoundtrip, GradcheckSweep)}
