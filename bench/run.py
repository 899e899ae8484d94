"""hand25d benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them, one after the other) from the root
of a source checkout, against the package in ``src/``. Each workload runs
in its own single-threaded child process; ``--trace 1`` adds a traced run
of the same workload that reports per-layer metrics. Human-readable
metrics come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Outputs, spans and pinned values go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("corpus-pipeline", "noisy-geometry", "heatmap-roundtrip", "gradcheck-sweep")
# Set-ups per untraced run (one of them is the measuring child's own);
# setup_s is their median.
SETUP_REPEATS = 7
# Children still running by then are killed, so a run ends within 180 s.
RUN_DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The end-to-end and per-layer metrics printed on the last line; the
# other end-to-end metrics are printed above it for the workloads that
# have them.
E2E_KEYS = ("setup_s", "items_per_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Run a child to completion; return (seconds from spawn to its
    'ready' line, everything it printed after that)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    ready = None
    try:
        for line in iter(proc.stdout.readline, ""):
            if line.strip() == "ready":
                ready = time.perf_counter() - t0
                break
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"{' '.join(cmd[1:3])} ... exited with code {code}"
                         + ("" if ready else " before it was ready"))
    return ready, rest


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    workdir = OUT / f"work-{name}"
    result_path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--result", str(result_path),
           "--workdir", str(workdir)]
    setups, raw = [], []
    # traced runs report per-layer metrics only, so one set-up is enough
    for setup_only in [True] * (SETUP_REPEATS - 1 if not trace else 0) + [False]:
        seconds_to_ready, rest = spawn(cmd + ["--setup-only"] * setup_only, deadline)
        # the child measures the host's speed right after its set-up
        scale = float(rest.split("host_scale ", 1)[1].split()[0])
        raw.append(seconds_to_ready)
        setups.append(seconds_to_ready / scale)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["end_to_end"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s",
        "note": f"median of {len(setups)} host-scaled set-ups; raw "
                + ", ".join(f"{s:.3f}" for s in raw)}
    result["end_to_end"]["peak_rss_mb"] = {
        "value": peak_rss_mb, "unit": "MB",
        "note": "max ru_maxrss of the workload's children"
                + ("; includes the spans a traced run keeps" if trace else "")}
    return result


def check_pins(name: str, seed: int, result: dict) -> None:
    """Values that must repeat in every run of one seed (output digests,
    failure counts) are kept in .bench_out/pins.json. A value already
    pinned must come out the same; new ones are added."""
    path = OUT / "pins.json"
    pins = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    key = f"{name}:seed={seed}:" + hashlib.sha256(
        json.dumps(result["params"], sort_keys=True).encode()).hexdigest()[:12]
    stored = pins.setdefault(key, {})
    changed = sorted(k for k, v in result["pins"].items() if stored.get(k, v) != v)
    if changed:
        result["problems"].append(
            f"{', '.join(changed)} differ from an earlier run of seed {seed}")
        result["failed"] = result["attempted"]
    elif result["pins"].keys() - stored.keys():
        stored.update(result["pins"])
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(pins, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hand25d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def provenance(seed: int, seconds: int, result: dict) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": result["versions"]["numpy"],
        "hand25d": result["versions"]["hand25d"],
        "blas_threads": THREAD_ENV,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
        "seconds": seconds,
        "workload": result["workload"],
        "inputs": result["params"],
        "chunks": result["chunks"],
    }


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<16} {m['note']}")


def main_one(args) -> int:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
    check_pins(args.workload, args.seed, result)
    prov = provenance(args.seed, args.seconds, result)

    print(f"# hand25d benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    e2e = result["end_to_end"]
    ordered = {k: e2e[k] for k in E2E_KEYS}
    ordered.update((k, v) for k, v in e2e.items() if k not in E2E_KEYS)
    _print_metrics("end-to-end metrics (untraced chunks):", ordered)
    if result["breakdown"]:
        _print_metrics("harness breakdown (untraced chunks):", result["breakdown"])
    if args.trace:
        overhead = result["per_layer"]["trace.overhead_pct"]
        print(f"tracing overhead: {overhead['value']:.3g}% ({overhead['note']})")
        _print_metrics("per-layer timings (traced chunks, only layers this workload calls):",
                       result["layer_detail"])
        exact = set(result["exact_counts"])
        _print_metrics("per-layer shares and calls (traced chunks):",
                       {k: v for k, v in result["per_layer"].items() if k not in exact})
        _print_metrics("exact counts (repeat exactly for one seed):",
                       {k: result["per_layer"][k] for k in result["exact_counts"]})
        print(f"spans written to {result['spans_file']}")
    print(f"pinned: {json.dumps(result['pins'], sort_keys=True)}")
    correct = result["failed"] == 0 and not result["problems"]
    print(f"correctness: attempted={result['attempted']} failed={result['failed']} "
          f"-> {'ok' if correct else 'FAILED'}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")

    source = result["per_layer"] if args.trace else {k: e2e[k] for k in E2E_KEYS}
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in source.items()},
    }
    print(json.dumps(line))
    return 0 if correct else 1


def main_all(args) -> int:
    """Every workload, each through its own run of this script, so that
    each one's peak RSS covers only its own children."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S + 10)
        print(proc.stdout, end="", flush=True)
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for key, metric in line["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hand25d" / "__init__.py").is_file():
        print(f"error: no hand25d package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        return main_all(args) if args.workload == "all" else main_one(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
