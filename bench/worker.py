"""One workload in one process: set up, warm up, measure, check.

Started by run.py, which times it from spawn to the ``ready`` line this
process prints when set-up and warm-up are done, and which reads its
peak RSS once it has exited. The result goes to the JSON file named by
``--result``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from calibrate import NOMINAL_RATE, reference_rate, reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LATENCY_SAMPLES = 20_000
# Fixed here, not read from the library, so that the per-layer metric
# names stay those listed in BENCHMARK.json.
GRADCHECK_TARGETS = ("spatial_softmax", "softargmax", "depth_readout", "decode_latent")
RECONSTRUCT_FAILURES = ("NoRealSolutionError", "NonPositiveDepthError",
                        "DegenerateProjectionError")


def measure(workload, seconds: float, tracer) -> dict[bool, list]:
    """Closed loop of chunks for about `seconds`. With a tracer, untraced
    and traced chunks alternate, so both see the same machine state; each
    mode gets at least one chunk. A chunk starts only if one like the last
    of its mode still fits in the time left. Item latencies are kept for
    the first LATENCY_SAMPLES items only, so that memory does not grow
    with the number of chunks a run manages."""
    modes = (False, True) if tracer is not None else (False,)
    done: dict[bool, list] = {mode: [] for mode in modes}
    start = time.perf_counter()
    k = kept = 0
    while True:
        traced = modes[k % len(modes)]
        k += 1
        if traced:
            tracer.install()
            workload.tracer = tracer
        try:
            chunk = workload.run_chunk()
        finally:
            if traced:
                tracer.uninstall()
                workload.tracer = None
        workload.check(chunk)
        chunk.reference_rate = 1.0 / reference_seconds(workload.reference)
        if kept + len(chunk.latencies_s) > LATENCY_SAMPLES:
            chunk.latencies_s = []
        kept += len(chunk.latencies_s)
        done[traced].append(chunk)
        following = done[modes[k % len(modes)]]
        if all(done.values()) and (
            time.perf_counter() - start + following[-1].wall_s > seconds
        ):
            return done


def _rate(chunks, part=None) -> float:
    """Throughput scaled to the nominal host: the median over chunks of
    the chunk's rate (of one part of it, if `part` is given) divided by
    the reference rate measured right after it, times NOMINAL_RATE."""
    return NOMINAL_RATE * statistics.median(
        c.items / (c.wall_s if part is None else c.parts_s[part]) / c.reference_rate
        for c in chunks)


def end_to_end(workload, chunks) -> dict:
    """Every end-to-end metric this workload has, from untraced chunks.
    set-up time and peak RSS are taken by the parent process."""
    raw = statistics.median(c.items / c.wall_s for c in chunks)
    out = {"items_per_s": (_rate(chunks), "items/s",
                           f"host-scaled median of {len(chunks)} chunks ({raw:.6g} unscaled); "
                           f"item = {workload.item}")}
    if workload.has_latency:
        lat_ms = sorted(1e3 * np.concatenate([c.latencies_s for c in chunks]))
        p50, p90 = statistics.quantiles(lat_ms, n=100)[49], statistics.quantiles(lat_ms, n=10)[8]
        beyond = sum(1 for x in lat_ms if x > p90)
        out["item_p50_ms"] = (p50, "ms", f"{len(lat_ms)} samples, raw wall clock")
        out["item_p90_ms"] = (p90, "ms",
                              f"{len(lat_ms)} samples, {beyond} beyond it"
                              + ("" if beyond >= 10 else " (too few to trust)")
                              + ", raw wall clock")
    if workload.name == "corpus-pipeline":
        for stage in workload.STAGES:
            out[f"{stage}_records_per_s"] = (_rate(chunks, stage), "records/s",
                                             "host-scaled median over passes")
    attempted = sum(c.items for c in chunks)
    rejected = sum(sum(c.rejected.values()) for c in chunks)
    out["fail_ratio"] = (rejected / attempted, "failed/attempted",
                         f"{rejected} numerical failures in {attempted} items")
    if "auc" in chunks[-1].outputs:
        out["auc"] = (chunks[-1].outputs["auc"], "1", f"epe_mean {chunks[-1].outputs['epe_mean']:.6g} mm")
    return out


def breakdown(workload, chunks) -> dict:
    """Per-step milliseconds per item, median over chunks, from the
    harness's own clock."""
    out = {}
    if workload.name in ("heatmap-roundtrip", "noisy-geometry"):
        for part in chunks[0].parts_s:
            out[f"step.{part}.ms_per_item"] = (
                statistics.median(1e3 * c.parts_s[part] / c.items for c in chunks),
                "ms/item", "raw wall clock")
    elif workload.name == "gradcheck-sweep":
        for target in chunks[0].parts_s:
            out[f"step.{target}.ms_per_seed"] = (
                statistics.median(1e3 * c.parts_s[target] / workload.SEEDS for c in chunks),
                "ms/seed", "raw wall clock")
    return out


def layer_metrics(workload, tracer, untraced, traced) -> tuple[dict, dict, list[str]]:
    """(per-layer metrics every workload reports, the layer's own timings
    where this workload calls it, names of the exact counts)."""
    from spans import COMPUTED_BYTES_SPANS, LAYERS

    wall = sum(c.wall_s for c in traced)
    items = sum(c.items for c in traced)
    passes = len(traced)
    analysis = tracer.analyse(wall)
    by_name = analysis["by_name"]
    counts = tracer.counts

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def incl(name):
        return by_name.get(name, {}).get("incl_s", 0.0)

    # Untraced and traced chunks alternate; each traced chunk is compared
    # with the untraced one just before it, unscaled, so that both see the
    # same state of the host.
    pairs = list(zip(untraced, traced))
    slowdown = statistics.median((u.items / u.wall_s) / (t.items / t.wall_s) for u, t in pairs)
    per_layer = {
        "trace.overhead_pct": (100.0 * (slowdown - 1.0), "%",
                               f"median over {len(pairs)} adjacent untraced/traced chunk pairs"),
    }
    for layer in LAYERS:
        per_layer[f"{layer}.share"] = (
            100.0 * analysis["layer_self_s"][layer] / wall, "%", "self time / traced wall")
    for layer in LAYERS[:-1]:
        n = sum(e["calls"] for name, e in by_name.items() if name.split(".", 1)[0] == layer)
        per_layer[f"{layer}.calls_per_item"] = (n / items, "count", "spans per item")
    exact = []

    def count(name, value, unit, note=""):
        per_layer[name] = (value, unit, note)
        exact.append(name)

    quad = tracer.calls_at("reconstruct.quadratic_coefficients", "synth")
    count("synth.accept_ratio",
          tracer.calls_at("pose25d.to_25d", "synth") / quad if quad else 0.0, "1",
          "synth.to_25d calls / synth.quadratic_coefficients calls")
    count("heatmap.spatial_softmax.calls_per_item", calls("heatmap.spatial_softmax") / items, "count")
    count("heatmap.HeatmapStack.calls_per_item", calls("heatmap.HeatmapStack") / items, "count")
    seeds = getattr(workload, "SEEDS", 0)
    for target in GRADCHECK_TARGETS:
        checks = calls(f"gradcheck.{target}") * seeds
        evals = tracer.calls_under(f"heatmap.{target}", "gradcheck", f"gradcheck.{target}")
        count(f"gradcheck.{target}.forward_evals_per_seed", evals / checks if checks else 0.0,
              "count")
    for kind in RECONSTRUCT_FAILURES:
        count(f"reconstruct.failures.{kind}", counts[f"reconstruct.failures.{kind}"] / passes,
              "count/pass")
    for direction in ("read", "written"):
        count(f"serialize.jsonl.bytes_{direction}",
              counts[f"serialize.jsonl.bytes_{direction}"] / items, "B/item")
    for op in COMPUTED_BYTES_SPANS:
        count(f"{op}.computed_bytes", counts[f"{op}.computed_bytes"] / items, "B/item",
              "computed from array shapes")
    count("metrics.epe.calls", calls("metrics.epe") / items, "count/item")

    detail = {}

    def timing(name, span, scale, unit, per=None):
        n = calls(span) if per is None else per
        if calls(span) and n:
            detail[name] = (scale * incl(span) / n, unit, f"{calls(span)} calls")

    timing("serialize.read_pose_records.us_per_record", "serialize.read_pose_records", 1e6,
           "us/record", counts["serialize.jsonl.records_read"])
    timing("serialize.write_pose_records.us_per_record", "serialize.write_pose_records", 1e6,
           "us/record", counts["serialize.jsonl.records_written"])
    for fn in ("record_from_dict", "record_to_dict"):
        timing(f"serialize.{fn}.us_per_call", f"serialize.{fn}", 1e6, "us/call")
    for fn in ("read_h25d", "write_h25d"):
        timing(f"serialize.{fn}.ms_per_call", f"serialize.{fn}", 1e3, "ms/call")
    for stage in getattr(workload, "STAGES", ()):
        span = f"cli.{stage}"
        if calls(span):
            detail[f"cli.{stage}.self_s"] = (by_name[span]["self_s"] / passes, "s/pass",
                                             f"{workload.PASS_RECORDS} records per pass")
    for name in ("synth.gen_pose", "pose25d.to_25d", "camera.project",
                 "camera.normalized_image_coords", "reconstruct.reconstruct_pose",
                 "reconstruct.recover_scale", "reconstruct.absolute_pose",
                 "heatmap.HeatmapStack", "objective.pose_loss"):
        timing(f"{name}.us_per_call", name, 1e6, "us/call")
    timing("metrics.evaluate.ms_per_call", "metrics.evaluate", 1e3, "ms/call")
    timing("metrics.evaluate.us_per_pose", "metrics.evaluate", 1e6, "us/pose",
           counts["metrics.evaluate.poses"])
    for fn in ("encode_direct", "decode_latent", "vjp_decode_latent", "spatial_softmax"):
        timing(f"heatmap.{fn}.ms_per_call", f"heatmap.{fn}", 1e3, "ms/call")
    for target in GRADCHECK_TARGETS:
        timing(f"gradcheck.{target}.ms_per_seed", f"gradcheck.{target}", 1e3, "ms/seed",
               calls(f"gradcheck.{target}") * seeds)
    return per_layer, detail, exact


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import hand25d

    if Path(hand25d.__file__).resolve().parent != (SRC / "hand25d").resolve():
        print(f"hand25d imported from {hand25d.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    workload.warm_up()
    print("ready", flush=True)
    print(f"host_scale {NOMINAL_RATE / reference_rate(workload.reference, 5)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    done = measure(workload, args.seconds, tracer)
    untraced = done[False]
    chunks = [c for mode in done.values() for c in mode]
    if not args.trace:
        final = workload.final_chunk()
        if final is not None:
            workload.check(final)
            chunks.append(final)
    result = {
        "workload": workload.name,
        "params": workload.params(),
        "versions": {"hand25d": hand25d.__version__, "numpy": np.__version__},
        "attempted": sum(c.items for c in chunks),
        "failed": sum(c.failed for c in chunks),
        "problems": [p for c in chunks for p in c.problems][:20],
        "chunks": {"untraced": len(untraced), "traced": len(done.get(True, []))},
        "pins": workload.pins(),
        "end_to_end": _as_json(end_to_end(workload, untraced)),
        "breakdown": _as_json(breakdown(workload, untraced)),
    }
    if tracer is not None:
        per_layer, detail, exact = layer_metrics(workload, tracer, untraced, done[True])
        result.update(per_layer=_as_json(per_layer), layer_detail=_as_json(detail),
                      exact_counts=exact)
        spans_path = workdir / f"spans-{workload.name}.npz"
        tracer.write(str(spans_path))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
