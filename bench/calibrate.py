"""Host-speed reference for the time-based metrics.

Other tenants of a shared host slow every process on it by 20-40% for
minutes at a time, and no choice of timer sees it: CPU time grows with
wall time. A fixed reference kernel, timed right after the measured
work, slows down with them. Time-based metrics are therefore reported
scaled to a nominal host, one that runs the kernel NOMINAL_RATE times a
second:

    scaled rate = measured rate * NOMINAL_RATE / reference rate

The kernels never call hand25d, so a change to the library moves only
the measured rate. Two kernels follow what dominates a workload: the
interpreter kernel mixes JSON encoding and decoding of a
pose-record-like object, small-array numpy calls, an interpreter loop
and one pass over a 21x128x128 array; the arrays kernel runs softmax-
and readout-like passes and a float32 round trip over 21x128x128 arrays.
On the 2-vCPU host, the interpreter kernel tracked the slowdown of the
Python-bound workloads, and the arrays kernel tracked heatmap-roundtrip
several times more closely than the interpreter kernel did.
"""
from __future__ import annotations

import json
import time

import numpy as np

# Kernels per second, about what one thread of the 2-vCPU Xeon VM the
# baseline was measured on reaches when it is not slowed down; both
# kernels take about 10 ms there.
NOMINAL_RATE = 100.0

_RECORD = {
    "keypoints": [
        {"id": i, "name": f"kp{i}", "valid": True, "px": [1.37 * i, 2.71 * i],
         "xyz_mm": [0.1 * i, 0.2 * i, 500.0 + i], "zr_norm": 0.01 * i}
        for i in range(21)
    ]
}
_POINTS = np.linspace(0.0, 1.0, 63).reshape(21, 3)
_MAPS = np.linspace(-1.0, 1.0, 21 * 128 * 128).reshape(21, 128, 128)
_COLUMNS = np.arange(128.0)


def _interpreter() -> None:
    for _ in range(40):
        json.loads(json.dumps(_RECORD))
        x = _POINTS
        for _ in range(10):
            x = np.linalg.norm(x - _POINTS.mean(axis=0), axis=1)[:, None] * _POINTS
    acc = 0
    for i in range(20000):
        acc += i % 7
    np.exp(_MAPS).sum()


def _arrays() -> None:
    for _ in range(2):
        e = np.exp(_MAPS - _MAPS.max(axis=(1, 2), keepdims=True))
        p = e / e.sum(axis=(1, 2), keepdims=True)
        (p.sum(axis=1) @ _COLUMNS).sum()
        (p * _MAPS).sum(axis=(1, 2))
        raw = _MAPS.astype(np.float32).tobytes()
        np.frombuffer(raw, dtype=np.float32).astype(np.float64)


KERNELS = {"interpreter": _interpreter, "arrays": _arrays}


def reference_seconds(kernel: str) -> float:
    """Wall time of one run of the named reference kernel."""
    t0 = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - t0


def reference_rate(kernel: str, repeats: int) -> float:
    """Kernels per second over `repeats` back-to-back runs."""
    return repeats / sum(reference_seconds(kernel) for _ in range(repeats))
