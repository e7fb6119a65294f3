"""The four benchmark workloads, driven through voxdet's public API.

Each workload runs a closed loop with one caller: the next op starts only
after the previous one returned.  An op is one training step on ``*-train``
and one frame on ``*-detect``/``*-track``.  The scene seed is the benchmark's
``--seed``; every other setting is fixed here.  Output checks run after the
timed phase, on records the ops kept.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import voxdet.pipeline as pipeline
import voxdet.postprocess as vpost
import voxdet.scene.io as scene_io
import voxdet.training as training
from voxdet import numerics as nm
from voxdet.decoder import DecoderConfig
from voxdet.geometry import VoxelGridSpec
from voxdet.modality import DepthSpec
from voxdet.scene import SceneConfig, generate_scene, generate_sequence

from tracing import Patches, Tracer


@dataclass
class Phase:
    """One timed closed-loop phase; ops run until ``seconds`` have passed."""

    seconds: float
    tracer: Tracer | None = None
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    records: dict[int, object] = field(default_factory=dict)  # op id -> check input
    outputs: dict[int, bytes] = field(default_factory=dict)  # op id -> output bytes
    wall_s: float = 0.0
    _start: float = 0.0
    _op_start: float | None = None

    def __enter__(self) -> "Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start

    @property
    def expired(self) -> bool:
        return time.perf_counter() - self._start >= self.seconds

    def begin(self) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self._op_start = time.perf_counter()

    def end(self, ok: bool = True) -> None:
        self.op_ms.append(1e3 * (time.perf_counter() - self._op_start))
        self._op_start = None
        if self.tracer is not None:
            self.tracer.op = None
        if not ok:
            self.failed += 1

    def abort(self, what: str) -> None:
        """Record a raised exception against the open op (or a new one)."""
        traceback.print_exc(file=sys.stderr)
        self.problems.append(f"op raised: {what}")
        if self._op_start is None:
            self.begin()
        self.end(ok=False)

    @contextmanager
    def op(self):
        self.begin()
        try:
            yield self.attempted
        except Exception as exc:  # the loop must go on; the failure is counted
            self.abort(repr(exc))
        else:
            self.end()

    def fail_check(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def detection_bytes(dets) -> bytes:
    rows = [(*d.center, *d.size, d.yaw, *d.velocity, d.class_id, d.score) for d in dets]
    return np.asarray(rows, dtype=np.float64).tobytes()


class Workload:
    name = ""
    threads = 1  # detection worker threads; >1 adds a serial baseline phase when traced
    # per-layer metrics that must be non-zero on this workload when traced
    most_work: tuple[str, ...] = ()

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def run(self, state, phase: Phase, threads: int) -> None:
        raise NotImplementedError

    def check(self, state, phase: Phase) -> None:
        """Fold failed output checks into ``phase.failed``."""


# ---------------------------------------------------------------------------


@dataclass
class State:
    config: pipeline.PipelineConfig
    scene: object = None
    params: pipeline.ModelParams | None = None
    frames: list[Path] = field(default_factory=list)  # rig-track's frame directories
    frame_dt: float = 0.5


class DeskTrain(Workload):
    """Acceptance criterion 5's micro-fit, through ``training.micro_fit``."""

    name = "desk-train"
    model_seed = 3
    learning_rate = 0.02
    # each fit restarts from the seeded model; at 25 steps a loss spike can leave
    # the last loss above the first (scene seed 0), at 50 it is below on seeds 0-99
    steps_per_fit = 50
    most_work = ("numerics.conv.ms", "numerics.conv.calls", "numerics.conv.mb",
                 "numerics.backward.ms", "numerics.tape_nodes", "numerics.tape_mb",
                 "modality.heads.ms", "modality.heads.calls",
                 "modality.encoder.ms", "modality.encoder.calls")

    def setup(self, seed, workdir):
        scene = generate_scene(SceneConfig(n_objects=2, channels=32), seed=seed)
        config = pipeline.PipelineConfig(use_camera=False)
        pipeline.build_model(config, self.model_seed)  # timed only: micro_fit builds its own
        return State(config, scene)

    def run(self, state, phase, threads):
        optimizer = training.SGDOptimizer
        reset, step = optimizer.reset_gradients, optimizer.step

        def begin_step(opt):  # micro_fit resets gradients first in every step
            phase.begin()
            reset(opt)

        def end_step(opt):
            step(opt)
            phase.end()

        with Patches() as patches:
            patches.set(optimizer, "reset_gradients", begin_step)
            patches.set(optimizer, "step", end_step)
            while True:
                first_op = phase.attempted + 1
                try:
                    result = training.micro_fit(state.scene, state.config,
                                                steps=self.steps_per_fit,
                                                learning_rate=self.learning_rate,
                                                seed=self.model_seed)
                except Exception as exc:  # counted against the step that raised
                    phase.abort(repr(exc))
                else:
                    totals = [h.total for h in result.history]
                    phase.records[first_op] = totals
                    phase.outputs[first_op] = repr(totals).encode()
                if phase.expired:
                    break

    def check(self, state, phase):
        for op, totals in phase.records.items():
            if not all(math.isfinite(t) for t in totals):
                phase.fail_check(f"fit from op {op}: non-finite loss")
            elif not totals[-1] < totals[0]:
                phase.fail_check(f"fit from op {op}: loss {totals[0]} -> {totals[-1]}")


class CrowdTrain(Workload):
    """Training steps on 20 objects: the matcher's share of a step is large."""

    name = "crowd-train"
    model_seed = 3
    learning_rate = 0.02
    most_work = ("numerics.backward.ms", "numerics.tape_nodes", "numerics.tape_mb",
                 "cross_modality.kt.ms", "cross_modality.kt.calls",
                 *(f"training.{s}.{k}" for s in ("cost_matrix", "match", "loss", "optimizer")
                   for k in ("ms", "calls")),
                 "training.lap_solves")

    def setup(self, seed, workdir):
        scene = generate_scene(
            SceneConfig(n_objects=20, placement_range=22.0, n_cameras=2, channels=32,
                        ground_extent=25.6), seed=seed)
        grid = VoxelGridSpec((-25.6, 25.6), (-25.6, 25.6), (-2.0, 2.0), (32, 32, 4), 32)
        config = pipeline.PipelineConfig(
            grid=grid, use_camera=False, use_lidar=True, kt_enabled=True,
            kt_teacher="lidar", decoder=DecoderConfig(num_queries=300))
        pipeline.build_model(config, self.model_seed, n_camera_sweeps=1)  # rebuilt per phase
        return State(config, scene)

    def run(self, state, phase, threads):
        # a fresh model per phase, so traced and untraced phases see equal weights
        params = pipeline.build_model(state.config, self.model_seed, n_camera_sweeps=1)
        optimizer = training.SGDOptimizer(params.trainable(), self.learning_rate)
        matches: list[tuple[np.ndarray, object]] = []
        match = training.hungarian_match

        def keep_match(cost):
            assignment = match(cost)
            matches.append((cost, assignment))
            return assignment

        with Patches() as patches:
            patches.set(training, "hungarian_match", keep_match)
            while True:
                matches.clear()
                with phase.op() as op:
                    optimizer.reset_gradients()
                    with nm.Tape() as tape:
                        total, breakdown, _ = training.compute_scene_loss(
                            state.scene, state.config, params)
                    nm.backward(tape, total)
                    optimizer.step()
                    phase.records[op] = list(matches)
                    phase.outputs[op] = repr(breakdown).encode()
                if phase.expired:
                    break

    def check(self, state, phase):
        for op, matches in phase.records.items():
            for block, (cost, assignment) in enumerate(matches):
                rows = [i for i, _ in assignment.pairs]
                cols = [j for _, j in assignment.pairs]
                one_to_one = (len(set(rows)) == len(rows) == min(cost.shape)
                              and len(set(cols)) == len(cols))
                r, c = linear_sum_assignment(cost)
                gap = abs(float(cost[rows, cols].sum()) - float(cost[r, c].sum()))
                if not one_to_one or gap > 1e-9:
                    phase.fail_check(f"op {op} block {block}: one-to-one {one_to_one}, "
                                     f"|total - optimum| {gap:.3e}")
                    break


class PaperDetect(Workload):
    """One camera-only forward at acceptance criterion 11's paper shapes."""

    name = "paper-detect"
    most_work = (*(f"numerics.{op}.{k}" for op in ("trilinear_sample", "affine", "matmul",
                                                  "softmax", "layer_norm", "concat", "getitem")
                   for k in ("ms", "calls", "mb")),
                 "cross_modality.fuse.ms", "cross_modality.fuse.calls",
                 *(f"decoder.{s}.{k}" for s in ("decode", "block", "self_attn", "cross_attn")
                   for k in ("ms", "calls")))

    def setup(self, seed, workdir):
        grid = VoxelGridSpec((-51.2, 51.2), (-51.2, 51.2), (-5.0, 3.0), (128, 128, 11), 256)
        decoder = DecoderConfig(num_queries=900, num_blocks=6, num_heads=8, num_points=4,
                                channels=256, num_classes=10, ffn_dim=512)
        config = pipeline.PipelineConfig(grid=grid, depth=DepthSpec(64, 64.0), use_camera=True,
                                         use_lidar=False, encoder_op="none", decoder=decoder,
                                         seed=0)
        scene = generate_scene(
            SceneConfig(n_objects=3, n_cameras=1, channels=256, placement_range=20.0,
                        ground_extent=30.0), seed=seed)
        params = pipeline.build_model(config, n_camera_sweeps=1)
        return State(config, scene, params)

    def run(self, state, phase, threads):
        while True:
            with phase.op() as op:
                result = pipeline.run_detection(state.scene, state.config, state.params,
                                                threads=threads)
                dets = detection_bytes(result.detections)
                phase.records[op] = (
                    [(b.class_logits.shape, b.box_params.shape, b.reference_out.shape)
                     for b in result.raw.decode.blocks],
                    bool(np.isfinite(np.frombuffer(dets)).all()),
                )
                phase.outputs[op] = dets
            result = None  # free the volume before the next forward
            if phase.expired:
                break

    def check(self, state, phase):
        want = [((900, 10), (900, 10), (900, 3))] * 6
        for op, (shapes, finite) in phase.records.items():
            if shapes != want or not finite:
                phase.fail_check(f"op {op}: block shapes {shapes}, finite boxes {finite}")


class RigTrack(Workload):
    """A 4-frame, 6-camera sequence read from disk, detected and tracked."""

    name = "rig-track"
    threads = 2
    n_frames = 4
    most_work = ("scene.read.ms", "scene.read.mb", "modality.lift.ms", "modality.lift.calls",
                 "modality.depth.ms", "modality.depth.calls", "postprocess.filter_nms.ms",
                 "postprocess.track.ms", "postprocess.kept_ratio", "pipeline.lift_overlap",
                 "pipeline.serial_frame_ms")

    def setup(self, seed, workdir):
        scene_config = SceneConfig(n_cameras=6, image_height=96, image_width=128,
                                   n_camera_sweeps=2, n_lidar_sweeps=2, ego_speed=2.0)
        frame_dt = 0.5
        frames = []
        for i, frame in enumerate(generate_sequence(scene_config, seed, self.n_frames,
                                                    frame_dt)):
            frames.append(workdir / f"frame_{i:03d}")
            scene_io.write_scene(frame, frames[-1])
        (workdir / "sequence.json").write_text(json.dumps(
            {"frames": [f.name for f in frames], "frame_dt": frame_dt, "seed": seed}))
        config = pipeline.PipelineConfig()
        params = pipeline.build_model(config, n_camera_sweeps=scene_config.n_camera_sweeps)
        return State(config, params=params, frames=frames, frame_dt=frame_dt)

    def run(self, state, phase, threads):
        tracks = None
        for k in itertools.count():
            if k % len(state.frames) == 0:
                tracks = vpost.TrackerState()
            with phase.op() as op:
                scene = scene_io.read_scene(state.frames[k % len(state.frames)])
                result = pipeline.run_detection(scene, state.config, state.params,
                                                threads=threads)
                tracks = vpost.greedy_track_step(tracks, result.detections, state.frame_dt,
                                                 state.config.tracker)
                phase.records[op] = [t.track_id for t in tracks.tracks]
                phase.outputs[op] = detection_bytes(result.detections)
            if phase.expired:
                break

    def check(self, state, phase):
        for op, ids in phase.records.items():
            if len(set(ids)) != len(ids):
                phase.fail_check(f"op {op}: duplicate track ids {ids}")
        first = phase.outputs.get(1)
        serial = pipeline.run_detection(scene_io.read_scene(state.frames[0]), state.config,
                                        state.params, threads=1)
        if first != detection_bytes(serial.detections):
            phase.fail_check(f"frame 0 differs between threads=1 and threads={self.threads}")


WORKLOADS = {w.name: w for w in (DeskTrain(), CrowdTrain(), PaperDetect(), RigTrack())}
