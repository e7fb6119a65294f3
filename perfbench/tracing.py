"""Span tracing around the public functions of each voxdet module.

Wrappers are installed on the module attribute that the *caller* looks the
function up by (``voxdet.pipeline.decode``, not ``voxdet.decoder.decode``,
because the pipeline imported it by name), so nothing under ``src/`` changes.
Spans are kept in memory and reduced to per-op metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

MB = float(1 << 20)

# (metric prefix, module the caller resolves the name in, attribute, extra)
# extra: "bytes" records the bytes of the input and output arrays, "tape" the
# tape handed to backward, "read" the bytes of the scene directory, "kept"
# the boxes into and out of NMS.
NUMERIC_OPS = ("conv", "trilinear_sample", "affine", "matmul", "softmax",
               "layer_norm", "concat", "getitem")
SPAN_TARGETS = (
    *((f"numerics.{op}", "voxdet.numerics", op, "bytes") for op in NUMERIC_OPS),
    ("numerics.backward", "voxdet.numerics", "backward", "tape"),
    ("scene.read", "voxdet.scene.io", "read_scene", "read"),
    ("modality.depth", "voxdet.pipeline", "predict_depth_distribution", None),
    ("modality.lift", "voxdet.pipeline", "lift_image_to_voxels", None),
    ("modality.sweep_fuse", "voxdet.pipeline", "fuse_sweeps_image", None),
    ("modality.voxelize", "voxdet.pipeline", "voxelize_points", None),
    ("modality.heads", "voxdet.pipeline", "multi_scale_heads", None),
    ("modality.encoder", "voxdet.pipeline", "voxel_encoder", None),
    ("cross_modality.fuse", "voxdet.pipeline", "modality_switch_fuse", None),
    # training.compute_scene_loss imports it inside the function body
    ("cross_modality.kt", "voxdet.cross_modality", "knowledge_transfer_loss", None),
    ("decoder.decode", "voxdet.pipeline", "decode", None),
    ("decoder.block", "voxdet.decoder", "decoder_block", None),
    ("decoder.self_attn", "voxdet.decoder", "self_attention", None),
    ("decoder.cross_attn", "voxdet.decoder", "deformable_cross_attention", None),
    ("training.cost_matrix", "voxdet.training", "cost_matrix", None),
    ("training.match", "voxdet.training", "hungarian_match", None),
    ("training.loss", "voxdet.training", "detection_loss", None),
    ("training.optimizer", "voxdet.training:SGDOptimizer", "step", None),
    ("postprocess.filter_nms", "voxdet.pipeline", "run_postprocess", "kept"),
    ("postprocess.track", "voxdet.postprocess", "greedy_track_step", None),
)
# counted, not timed: one scipy solve per call inside hungarian_match
COUNT_TARGETS = (("training.lap_solves", "voxdet.training", "linear_sum_assignment"),)

SPAN_METRICS = {
    "numerics": [f"{op}.{k}" for op in NUMERIC_OPS for k in ("ms", "calls", "mb")],
    "modality": [f"{s}.{k}" for s in ("depth", "lift", "sweep_fuse", "voxelize",
                                      "heads", "encoder") for k in ("ms", "calls")],
    "cross_modality": [f"{s}.{k}" for s in ("fuse", "kt") for k in ("ms", "calls")],
    "decoder": [f"{s}.{k}" for s in ("decode", "block", "self_attn", "cross_attn")
                for k in ("ms", "calls")],
    "training": [f"{s}.{k}" for s in ("cost_matrix", "match", "loss", "optimizer")
                 for k in ("ms", "calls")],
}
# every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    **{f"{mod}.{m}": {"ms": "ms", "calls": "count", "mb": "MB"}[m.rsplit(".", 1)[1]]
       for mod, ms in SPAN_METRICS.items() for m in ms},
    "numerics.backward.ms": "ms",
    "numerics.tape_nodes": "count",
    "numerics.tape_mb": "MB",
    "scene.read.ms": "ms",
    "scene.read.mb": "MB",
    "training.lap_solves": "count",
    "postprocess.filter_nms.ms": "ms",
    "postprocess.track.ms": "ms",
    "postprocess.kept_ratio": "ratio",
    "pipeline.lift_overlap": "ratio",
    "pipeline.serial_frame_ms": "ms",
    "trace.op_ms_p50": "ms",
    "trace.untraced_op_ms_p50": "ms",
    "trace.overhead_ratio": "ratio",
}


def resolve(path: str):
    """``pkg.mod`` or ``pkg.mod:Class`` -> the object holding the attribute."""
    mod_name, _, cls = path.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls) if cls else obj


def _nbytes(value) -> int:
    data = getattr(value, "data", value)
    if hasattr(data, "nbytes"):
        return int(data.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Patches:
    """Module attributes replaced for the length of a ``with`` block."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, holder, attr: str, value) -> None:
        self._saved.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, value in reversed(self._saved):
            setattr(holder, attr, value)
        self._saved.clear()


class Tracer:
    """In-memory spans: [id, name, start, end, parent id, op id, thread id, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, int | None]] = []
        self.op: int | None = None  # set by the workload around each op
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if extra == "tape":  # the tape as backward receives it
                nodes = args[0]._nodes
                info = (len(nodes), sum(n.data.nbytes for n in nodes))
            elif extra == "read":
                info = _dir_bytes(args[0])
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            op = tracer.op
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if extra == "bytes":
                info = _nbytes(args) + _nbytes(out)
            elif extra == "kept":
                info = (len(args[0]), len(out))
            tracer.spans.append([sid, name, start, end, parent, op,
                                 threading.get_ident(), info])
            return out

        return traced

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts.append((name, tracer.op))
            return fn(*args, **kwargs)

        return counted

    def install(self, patches: Patches) -> None:
        for name, path, attr, extra in SPAN_TARGETS:
            holder = resolve(path)
            patches.set(holder, attr, self._span(name, getattr(holder, attr), extra))
        for name, path, attr in COUNT_TARGETS:
            holder = resolve(path)
            patches.set(holder, attr, self._counter(name, getattr(holder, attr)))

    def dump(self) -> dict:
        keys = ["id", "name", "start", "end", "parent", "op", "thread", "info"]
        return {"fields": keys, "spans": self.spans, "counts": self.counts}

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op self times, call counts and bytes of the spans inside ops."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        lifts: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, name, start, end, _, op, _, info in self.spans:
            if op is None:
                continue
            total[f"{name}.ms"] += 1e3 * (end - start - child_time[sid])
            if name in ("modality.depth", "modality.lift"):  # one camera's lift work
                lifts[op].append((start, end))
            total[f"{name}.calls"] += 1
            if name == "numerics.backward":
                total["numerics.tape_nodes"] += info[0]
                total["numerics.tape_mb"] += info[1] / MB
            elif name == "postprocess.filter_nms":
                total["kept.in"] += info[0]
                total["kept.out"] += info[1]
            elif info is not None:  # numerics ops and scene.read
                total[f"{name}.mb"] += info / MB
        for name, op in self.counts:
            if op is not None:
                total[name] += 1
        out = {name: total[name] / n_ops for name in PER_LAYER_UNITS}
        out["postprocess.kept_ratio"] = (
            total["kept.out"] / total["kept.in"] if total["kept.in"] else 0.0)
        # summed depth+lift span time over the wall time from the first start to
        # the last end: above 1 only when cameras are lifted concurrently
        overlaps = [sum(e - s for s, e in spans)
                    / (max(e for _, e in spans) - min(s for s, _ in spans))
                    for spans in lifts.values()]
        out["pipeline.lift_overlap"] = statistics.fmean(overlaps) if overlaps else 0.0
        return out
