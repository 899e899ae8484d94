"""Span tracing of hand25d's public functions, installed from outside.

The library imports names directly (``from .reconstruct import
reconstruct_pose`` in ``cli``, ``from .heatmap import decode_latent`` in
``gradcheck``, ...), so a function is wrapped at every module where it is
looked up, not only where it is defined. Each wrapper records one span:
name, start, end, parent span and item id. The span name is
``<defining module>.<function>``, so a layer is the module that owns the
code; the lookup site is kept beside it, because some counts (the synth
accept ratio, gradcheck forward evaluations) are defined per site.

Spans are kept in flat arrays while the workload runs and analysed, and
written out, only when the run ends.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (lookup module, attributes wrapped there): each public function a
# workload reaches, at each module that looks it up, where the call
# crosses into another layer or is a function the per-layer metrics name.
SITES = {
    "cli": ("gen_pose", "to_25d", "reconstruct_pose", "recover_scale", "absolute_pose",
            "evaluate"),
    "synth": ("to_25d", "normalization_scale", "quadratic_coefficients", "solve_zroot"),
    "pose25d": ("project",),
    "serialize": ("read_pose_records", "write_pose_records", "record_from_dict",
                  "record_to_dict", "read_bone_stats_json", "write_report_json",
                  "read_h25d", "write_h25d"),
    "reconstruct": ("reconstruct_pose", "recover_scale", "absolute_pose",
                    "normalized_image_coords"),
    "metrics": ("evaluate", "epe"),
    "heatmap": ("encode_direct", "decode_latent", "vjp_decode_latent", "spatial_softmax"),
    "gradcheck": ("decode_latent", "vjp_decode_latent", "spatial_softmax",
                  "vjp_spatial_softmax", "softargmax", "vjp_softargmax", "depth_readout",
                  "vjp_depth_readout"),
    "objective": ("pose_loss",),
}
# Validating constructors run at every construction site; their
# __post_init__ is wrapped on the class itself.
CLASS_SITES = (("heatmap", "HeatmapStack"), ("heatmap", "SpreadParams"))

# Every layer a workload can reach; "harness" is the benchmark's own code
# between calls into the library.
LAYERS = (
    "cli", "serialize", "synth", "pose25d", "camera", "reconstruct",
    "metrics", "heatmap", "objective", "gradcheck", "harness",
)
# The per-pose reconstruction API: an exception leaving one of these is
# a reconstruction failure, counted by class.
FAILURE_SPANS = ("reconstruct.reconstruct_pose", "reconstruct.recover_scale",
                 "reconstruct.absolute_pose")
# Heatmap kernels whose bytes are reported as computed from array shapes.
COMPUTED_BYTES_SPANS = ("heatmap.encode_direct", "heatmap.decode_latent",
                        "heatmap.vjp_decode_latent", "heatmap.spatial_softmax")
_MODULE_PREFIX = "hand25d."


def array_bytes(value) -> int:
    """Bytes of every ndarray reachable from a call argument or result:
    arrays, tuples/lists of them, and the library's array containers."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(array_bytes(v) for v in value)
    fields = getattr(value, "__dataclass_fields__", None)
    if fields:
        return sum(array_bytes(getattr(value, f)) for f in fields)
    return 0


class Tracer:
    """Records spans around calls into hand25d while installed."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.items = array("q")
        self.names: list[tuple[str, str]] = []  # (span name, lookup site)
        self._name_index: dict[tuple[str, str], int] = {}
        self._stack = [-1]
        self.item = 0
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, site: str) -> int:
        key = (name, site)
        if key not in self._name_index:
            self._name_index[key] = len(self.names)
            self.names.append(key)
        return self._name_index[key]

    @contextmanager
    def span(self, name: str, site: str = "bench"):
        """A span opened by the benchmark's own code around a call."""
        idx = self._open(self._name_id(name, site))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name_id: int) -> int:
        idx = len(self.ends)
        self.ends.append(0.0)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.items.append(self.item)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, site: str):
        name_id = self._name_id(name, site)
        counts = self.counts
        open_, close = self._open, self._close
        count_failures = name in FAILURE_SPANS
        count_bytes = name in COMPUTED_BYTES_SPANS
        count_poses = name == "metrics.evaluate"

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if count_failures:
                    counts[f"reconstruct.failures.{type(exc).__name__}"] += 1
                raise
            finally:
                close(idx)
            if count_bytes:
                counts[f"{name}.computed_bytes"] += (
                    array_bytes(args) + array_bytes(tuple(kwargs.values())) + array_bytes(out)
                )
            elif count_poses:
                counts["metrics.evaluate.poses"] += len(args[0])
            return out

        return traced

    def _wrap_jsonl(self, fn, direction: str):
        """Byte and record counters for the JSONL reader and writer, taken
        after the call so that the span covers only the library's work."""
        counts = self.counts

        def counted(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            records = out if direction == "read" else (args[0] if args else kwargs["records"])
            counts[f"serialize.jsonl.bytes_{direction}"] += os.path.getsize(path)
            counts[f"serialize.jsonl.records_{direction}"] += len(records)
            return out

        return counted

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for site, attrs in SITES.items():
            module = importlib.import_module(_MODULE_PREFIX + site)
            for attr in attrs:
                fn = getattr(module, attr)
                defining = fn.__module__.removeprefix(_MODULE_PREFIX)
                wrapped = self._wrap(fn, f"{defining}.{fn.__name__}", site)
                if site == "serialize" and attr == "read_pose_records":
                    wrapped = self._wrap_jsonl(wrapped, "read")
                elif site == "serialize" and attr == "write_pose_records":
                    wrapped = self._wrap_jsonl(wrapped, "written")
                self._patch(module, attr, wrapped)
        for site, cls_name in CLASS_SITES:
            cls = getattr(importlib.import_module(_MODULE_PREFIX + site), cls_name)
            self._patch(cls, "__post_init__",
                        self._wrap(cls.__post_init__, f"{site}.{cls_name}", site))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis, after the run

    def arrays(self):
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        return starts, ends, names, parents

    def analyse(self, traced_wall_s: float) -> dict:
        """Per span name: calls, inclusive and self seconds; per layer:
        self seconds, with the benchmark's own time as 'harness'.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans plus the harness time add
        up to the traced wall time."""
        starts, ends, names, parents = self.arrays()
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_t = dur - child
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        incl = np.bincount(names, weights=dur, minlength=n_names)
        own = np.bincount(names, weights=self_t, minlength=n_names)
        by_name: dict[str, dict] = {}
        for nid, (name, _site) in enumerate(self.names):
            entry = by_name.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += int(calls[nid])
            entry["incl_s"] += float(incl[nid])
            entry["self_s"] += float(own[nid])
        layers = {layer: 0.0 for layer in LAYERS}
        for name, entry in by_name.items():
            layers[name.split(".", 1)[0]] += entry["self_s"]
        layers["harness"] = traced_wall_s - float(dur[~has_parent].sum())
        return {"by_name": by_name, "layer_self_s": layers}

    def calls_at(self, name: str, site: str) -> int:
        nid = self._name_index.get((name, site))
        if nid is None:
            return 0
        return int(np.count_nonzero(np.frombuffer(self.name_ids, dtype=np.int32) == nid))

    def calls_under(self, name: str, site: str, root_name: str) -> int:
        """Calls of `name` looked up at `site` whose outermost enclosing span
        is named `root_name`."""
        nid = self._name_index.get((name, site))
        if nid is None:
            return 0
        _, _, names, parents = self.arrays()
        root = np.where(parents < 0, np.arange(parents.size), parents)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        root_ids = {i for i, (n, _s) in enumerate(self.names) if n == root_name}
        hits = root[names == nid]
        return int(np.isin(names[hits], list(root_ids)).sum())

    def write(self, path: str) -> None:
        """Dump every span (name, site, start, end, parent, item)."""
        starts, ends, names, parents = self.arrays()
        np.savez(
            path,
            start=starts,
            end=ends,
            name_id=names,
            parent=parents,
            item=np.frombuffer(self.items, dtype=np.int64),
            names=np.array(json.dumps(self.names)),
        )
