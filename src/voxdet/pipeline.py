"""End-to-end orchestration: scene -> modality spaces -> fusion -> decoder ->
postprocess, for single-modality and fused settings.

Model parameters are created from per-component child seeds, so a fused run
and a LiDAR-only run with the same seed share bit-identical LiDAR, fusion,
and decoder weights.  The camera branch stays on rows: each lift returns the
rows of the voxels its camera sees, and those rows are put onto the union of
the cameras' voxels and summed per sweep.  When a conv encoder, the sum with
the LiDAR space or knowledge transfer follows, sweep fusion runs on that
union's rows and ``_camera_branch`` places the fused rows into the grid
once, every other voxel holding the fusion bias.  When the decoder is the
space's only reader, it keeps the space as a row table of the un-fused
rows, the sweeps side by side, with a cell-to-row lookup in which every
other voxel is an empty cell; sweep fusion is linear, so ``_camera_branch``
composes it with the per-voxel fusion map and hands the decoder that one
map to apply to its samples.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .cross_modality import FusionParams, modality_switch_fuse
from .decoder import DecodeResult, DecoderConfig, DecoderParams, decode, decode_boxes
from .geometry import VoxelGridSpec
from .modality import (
    DepthHeadParams,
    DepthSpec,
    EncoderParams,
    EncoderTap,
    MultiScaleHeadParams,
    SweepFusionParams,
    VoxelGrid,
    fuse_sweeps_image,
    lift_footprint,
    lift_image_to_voxels,
    multi_scale_heads,
    predict_depth_distribution,
    sweep_fusion_map,
    voxel_encoder,
    voxelize_points,
)
from .numerics import Parameter, Tensor
from .postprocess import PostprocessConfig, TrackerConfig, TrackerState, greedy_track_step, run_postprocess
from .scene.generate import child_rng
from .scene.types import Box3D, Scene
from .serialize import from_dict, to_dict

__all__ = [
    "PipelineConfig",
    "PipelineError",
    "ModelParams",
    "ForwardResult",
    "DetectionResult",
    "build_model",
    "forward_scene",
    "run_detection",
    "run_sequence",
]


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage label."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


def _default_grid() -> VoxelGridSpec:
    return VoxelGridSpec((-8.0, 8.0), (-8.0, 8.0), (-2.0, 2.0), (16, 16, 4), 32)


@dataclass
class PipelineConfig:
    grid: VoxelGridSpec = field(default_factory=_default_grid)
    depth: DepthSpec = field(default_factory=DepthSpec)
    use_camera: bool = True
    use_lidar: bool = True
    encoder_op: str = "conv3d"  # none | conv2d | conv3d
    head_strides: tuple[int, ...] = (1, 2)
    kt_enabled: bool = False
    kt_teacher: str = "lidar"  # lidar | fused
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    seed: int = 0

    def __post_init__(self):
        if self.encoder_op not in ("none", "conv2d", "conv3d"):
            raise ValueError(f"encoder_op: unknown value {self.encoder_op!r}")
        if self.kt_teacher not in ("lidar", "fused"):
            raise ValueError(f"kt_teacher: unknown value {self.kt_teacher!r}")
        if not self.head_strides or any(s < 1 for s in self.head_strides):
            raise ValueError(f"head_strides: need one or more strides >= 1, got {self.head_strides}")
        if not (self.use_camera or self.use_lidar):
            raise ValueError("use_camera/use_lidar: at least one modality required")
        if self.grid.channels != self.decoder.channels:
            raise ValueError(
                f"grid.channels: {self.grid.channels} must equal decoder channels "
                f"{self.decoder.channels}"
            )

    def to_dict(self) -> dict:
        return to_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "PipelineConfig":
        return from_dict(PipelineConfig, data)


@dataclass
class ModelParams:
    depth_head: DepthHeadParams | None
    sweep_fusion: SweepFusionParams | None
    heads: MultiScaleHeadParams | None
    encoder_img: EncoderParams | None
    encoder_pts: EncoderParams | None
    fusion: FusionParams
    decoder: DecoderParams

    def trainable(self) -> list[Parameter]:
        return nm.parameters_of(self)

    def student_parameters(self) -> list[Parameter]:
        """Camera-branch parameters: the knowledge-transfer student side."""
        return nm.parameters_of([self.depth_head, self.sweep_fusion, self.encoder_img])


def _needs_camera(config: PipelineConfig) -> bool:
    return config.use_camera or config.kt_enabled


def _needs_lidar(config: PipelineConfig) -> bool:
    return config.use_lidar or config.kt_enabled


def build_model(config: PipelineConfig, seed: int | None = None,
                n_camera_sweeps: int = 1) -> ModelParams:
    """Instantiate all parameters from per-component child seeds."""
    seed = config.seed if seed is None else seed
    c = config.grid.channels
    depth_head = sweep_fusion = heads = encoder_img = encoder_pts = None
    if _needs_camera(config):
        depth_head = DepthHeadParams.create(
            child_rng(seed, "depth_head"), c, config.depth.bins
        )
        sweep_fusion = SweepFusionParams.create(
            child_rng(seed, "sweep_fusion"), c, n_camera_sweeps
        )
        encoder_img = EncoderParams.create(
            child_rng(seed, "encoder_img"), c, config.encoder_op, prefix="encoder_img"
        )
    if _needs_lidar(config):
        heads = MultiScaleHeadParams.create(
            child_rng(seed, "heads"), c, config.head_strides
        )
        encoder_pts = EncoderParams.create(
            child_rng(seed, "encoder_pts"), c, config.encoder_op, prefix="encoder_pts"
        )
    fusion = FusionParams.create(child_rng(seed, "fusion"), c)
    decoder = DecoderParams.create(config.decoder, seed)
    return ModelParams(
        depth_head=depth_head,
        sweep_fusion=sweep_fusion,
        heads=heads,
        encoder_img=encoder_img,
        encoder_pts=encoder_pts,
        fusion=fusion,
        decoder=decoder,
    )


@dataclass
class ForwardResult:
    """One forward pass.  ``vu`` holds the summed modality spaces before the
    per-voxel fusion map, which the decoder applies to its samples.  In a
    camera-only run with encoder ``none`` and no knowledge transfer it is the
    camera space before sweep fusion as a row table: (V, n*C) rows of the V
    lifted voxels, the n sweeps side by side, and a lookup in which every
    other voxel is an empty cell (-1); the decoder applies sweep fusion and
    the fusion map as one composed map."""

    vu: VoxelGrid
    decode: DecodeResult
    teacher_tap: EncoderTap | None = None
    student_tap: EncoderTap | None = None


@dataclass
class DetectionResult:
    detections: list[Box3D]
    raw: ForwardResult


@contextmanager
def _stage(name):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _lift_camera(cam, scene, config, params):
    # one cached projection per calibration; only the pixels the lift reads are
    # gathered and widened to float64 for the depth head and the lift, which
    # returns the rows of the voxels it fills
    h, w, c = cam.features.shape
    calib = scene.initial_frame_calibration(cam)
    footprint = lift_footprint(calib, config.grid, config.depth, (h, w))
    feats = Tensor(cam.features.reshape(h * w, c)[footprint.read])
    dist = predict_depth_distribution(feats, params.depth_head, config.depth)
    rows = lift_image_to_voxels(feats, dist, calib, config.grid, config.depth, footprint)
    return rows, footprint.voxels


def _camera_branch(scene, config, params):
    """The camera space, its encoder tap and the per-voxel map the decoder
    applies to it: ``params.fusion``, or, when the space is a row table of
    un-fused rows, the fusion map composed after sweep fusion."""
    lifted = [_lift_camera(cam, scene, config, params) for cam in scene.cameras]
    # every camera's rows go onto the union of the lifted voxels, unless they
    # already cover it.  ``seen`` is sorted, as ``searchsorted`` needs.
    seen = np.unique(np.concatenate([voxels for _, voxels in lifted]))
    c = config.grid.channels

    def on_seen(rows, voxels):
        if voxels.size == seen.size:
            return rows
        return nm.place_rows(rows, np.searchsorted(seen, voxels), np.zeros(c), (seen.size, c))

    offsets = scene.sweep_offsets
    per_sweep = [
        functools.reduce(nm.add, [on_seen(*pair) for pair, cam in zip(lifted, scene.cameras)
                                  if cam.time_offset == t])
        for t in offsets
    ]
    if config.use_lidar or config.kt_enabled or config.encoder_op != "none":
        # a conv, the sum with the LiDAR space or KT reads the dense grid:
        # sweep fusion runs on the lifted rows and every other voxel is its bias
        rows, bias = fuse_sweeps_image(per_sweep, offsets, params.sweep_fusion)
        grid = VoxelGrid(spec=config.grid,
                         features=nm.place_rows(rows, seen, bias, config.grid.counts + (c,)))
        fusion = params.fusion
    else:
        # only the decoder reads the space: the lifted rows of the sweeps side
        # by side, and every unseen voxel an empty cell.  Sweep fusion is
        # linear, so the decoder applies it to its samples, its bias through
        # the trilinear mass, as one map with the fusion map after it: the
        # (n*C, C) weight ``W @ W_f`` and the bias ``b' @ W_f + b_f``.  Off
        # the tape nothing else holds the per-camera rows summed into the
        # sweeps, so they go before the decoder runs.
        weight, bias = sweep_fusion_map(offsets, params.sweep_fusion, c)
        fusion = FusionParams(weight=nm.matmul(weight, params.fusion.weight),
                              bias=nm.affine(bias, params.fusion.weight, params.fusion.bias))
        table = per_sweep[0] if len(per_sweep) == 1 else nm.concat(per_sweep, axis=1)
        del lifted, per_sweep
        lookup = np.full(config.grid.counts, -1, dtype=np.int32)
        lookup.reshape(-1)[seen] = np.arange(seen.size, dtype=np.int32)
        grid = VoxelGrid(spec=replace(config.grid, channels=table.shape[1]), features=table,
                         lookup=lookup)
    return (*voxel_encoder(grid, params.encoder_img), fusion)


def forward_scene(scene: Scene, config: PipelineConfig, params: ModelParams) -> ForwardResult:
    """Run lifting/voxelization, encoders, fusion, and the decoder."""
    vi = vp = None
    student = teacher = None
    fusion = params.fusion
    if _needs_camera(config):
        if not scene.cameras:
            raise PipelineError("camera", ValueError("scene has no cameras"))
        with _stage("camera"):
            vi, student, fusion = _camera_branch(scene, config, params)
    if _needs_lidar(config):
        with _stage("lidar"):
            raw = voxelize_points(scene.cloud, config.grid)
            vp_features = multi_scale_heads(raw, params.heads)
            vp, pts_tap = voxel_encoder(
                VoxelGrid(spec=config.grid, features=vp_features), params.encoder_pts
            )
            teacher = pts_tap
    with _stage("fusion"):
        selected = [v for v, on in ((vi, config.use_camera), (vp, config.use_lidar)) if on]
        vu = modality_switch_fuse(selected)
    if config.kt_enabled and config.kt_teacher == "fused":
        # KT reads the teacher as data, so the dense fused volume stays off the tape
        teacher = EncoderTap(features=nm.affine(
            vu.features.data, params.fusion.weight.data, params.fusion.bias.data))
    with _stage("decode"):
        result = decode(params.decoder, vu, fusion)
    expose_taps = teacher is not None and student is not None
    return ForwardResult(
        vu=vu,
        decode=result,
        teacher_tap=teacher if expose_taps else None,
        student_tap=student if expose_taps else None,
    )


def run_detection(
    scene: Scene,
    config: PipelineConfig,
    params: ModelParams | None = None,
    threads: int = 1,
) -> DetectionResult:
    """Full inference: forward pass, the last block's boxes, range filter and circle NMS.

    ``threads`` is accepted and changes nothing: every forward runs on the
    calling thread.
    """
    if params is None:
        params = build_model(config, n_camera_sweeps=len(scene.sweep_offsets) or 1)
    fw = forward_scene(scene, config, params)
    with _stage("postprocess"):
        detections = run_postprocess(decode_boxes(fw.decode.blocks[-1], config.grid), config)
    return DetectionResult(detections=detections, raw=fw)


def run_sequence(
    scenes: list[Scene],
    config: PipelineConfig,
    params: ModelParams | None = None,
    frame_dt: float = 0.5,
) -> list[TrackerState]:
    """Detect every frame and chain the greedy tracker; frames must be time-ordered."""
    if params is None and scenes:
        params = build_model(config, n_camera_sweeps=len(scenes[0].sweep_offsets) or 1)
    state = TrackerState()
    states = []
    for scene in scenes:
        result = run_detection(scene, config, params)
        with _stage("tracking"):
            state = greedy_track_step(state, result.detections, frame_dt, config.tracker)
        states.append(state)
    return states
