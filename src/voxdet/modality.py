"""Modality-specific voxel spaces.

Camera branch: every voxel center is projected into a view once per
calibration, and the footprint of that projection is cached; it names the
pixels the lift reads.  A per-pixel depth head turns the image features of
those pixels (or of every pixel of an (H, W, C) map) into a categorical depth
distribution, and each in-view voxel is filled with its pixel feature weighted
by its interpolated occupancy probability.  Given its footprint, a lift takes
the (P, C) rows of the read pixels and returns only those (V, C) voxel rows;
without one it takes the whole image and returns the dense grid, zero at
every other voxel.  Sweeps are fused at the space level by
one affine map with the time offsets folded into its bias.  The pipeline
runs it on (V, C) tables of the rows some camera lifts and places the fused
rows and the bias into the grid, or, when only the decoder reads the space,
keeps the un-fused lifted rows as a row table and hands the map on to the
decoder, which composes it into its value projection.
LiDAR branch: points are binned into the grid's cells as six hand-crafted
per-cell statistics, and parallel strided heads map those six channels to the
grid's C.  A small convolutional encoder then interacts neighboring voxels;
its pre-ReLU block-3 activation is exposed as the transfer tap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .geometry import VoxelGridSpec, project_points, voxel_centers
from .numerics import Parameter, Tensor
from .scene.types import PointCloud

__all__ = [
    "DepthSpec",
    "VoxelGrid",
    "EncoderTap",
    "DepthHeadParams",
    "SweepFusionParams",
    "MultiScaleHeadParams",
    "EncoderParams",
    "LiftFootprint",
    "lift_footprint",
    "predict_depth_distribution",
    "lift_image_to_voxels",
    "sweep_fusion_map",
    "fuse_sweeps_image",
    "voxelize_points",
    "multi_scale_heads",
    "voxel_encoder",
]

POINT_FEATURE_CHANNELS = 6  # mean xyz offsets, mean intensity, mean time, log count
# lift footprints kept by ``lift_footprint``; a rig of n cameras over s sweeps uses n * s
FOOTPRINT_CACHE_SIZE = 16


@dataclass(frozen=True)
class DepthSpec:
    """Categorical depth bins out to a metric perception limit."""

    bins: int = 64
    depth_limit: float = 64.0

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        # NaN fails every ``d < depth_limit`` and +inf makes every bin infinitely wide
        if not (math.isfinite(self.depth_limit) and self.depth_limit > 0):
            raise ValueError(f"depth_limit must be finite and positive, got {self.depth_limit}")

    @property
    def bin_width(self) -> float:
        return self.depth_limit / self.bins


@dataclass
class VoxelGrid:
    """A feature volume tied to its metric grid specification.

    Dense, ``features`` is (X, Y, Z, C).  As a row table, ``features`` is
    (R, C) and ``lookup`` the integer (X, Y, Z) array of each cell's row, or
    -1 for an empty cell, which reads zeros: the dense volume is
    ``concat([features, zeros])[lookup]``.  Only a sampler that maps cells
    through ``lookup`` reads it, and :meth:`dense` rejects it.
    """

    spec: VoxelGridSpec
    features: Tensor
    lookup: np.ndarray | None = None

    def __post_init__(self):
        c = self.spec.channels
        if self.lookup is None:
            expected = self.spec.counts + (c,)
            if tuple(self.features.shape) != expected:
                raise ValueError(
                    f"voxel features shape {self.features.shape} != spec {expected}"
                )
            return
        lookup, n_rows = self.lookup, self.features.shape[0]
        if tuple(self.features.shape) != (n_rows, c):
            raise ValueError(f"row-table features shape {self.features.shape} != (R, {c})")
        if not (isinstance(lookup, np.ndarray) and np.issubdtype(lookup.dtype, np.integer)
                and lookup.shape == self.spec.counts):
            got = (f"{lookup.dtype} {lookup.shape}" if isinstance(lookup, np.ndarray)
                   else type(lookup).__name__)
            raise ValueError(f"lookup must be an integer array of shape {self.spec.counts}, "
                             f"got {got}")
        if lookup.min() < -1 or lookup.max() >= n_rows:
            raise ValueError(f"lookup rows must lie in [0, {n_rows}), or be -1 for an empty cell")

    def dense(self, consumer: str) -> Tensor:
        """The (X, Y, Z, C) features for ``consumer``; a row table raises, naming ``lookup``."""
        if self.lookup is not None:
            raise ValueError(f"lookup: {consumer} needs a dense grid, got a row table")
        return self.features


@dataclass
class EncoderTap:
    """Pre-ReLU block-3 activation of a voxel encoder (teacher/student feature)."""

    features: Tensor


# ---------------------------------------------------------------------------
# parameters


@dataclass
class DepthHeadParams:
    weight: Parameter  # (C, D)
    bias: Parameter  # (D,)

    @staticmethod
    def create(rng: np.random.Generator, channels: int, bins: int):
        return DepthHeadParams(
            weight=Parameter("depth.weight", 0.02 * rng.standard_normal((channels, bins))),
            bias=Parameter("depth.bias", np.zeros(bins)),
        )


@dataclass
class SweepFusionParams:
    # A shared per-voxel merge of each sweep and its time offset, then a
    # per-voxel fuse across sweeps.  With no nonlinearity between them they
    # are stored apart but applied as one composed linear map, with the
    # offset rows folded into its bias (see ``sweep_fusion_map``).
    merge_weight: Parameter  # (C + 1, C), shared across sweeps
    merge_bias: Parameter  # (C,)
    fuse_weight: Parameter  # (n * C, C), row block s reads sweep s
    fuse_bias: Parameter  # (C,)

    @staticmethod
    def create(rng: np.random.Generator, channels: int, sweeps: int):
        # Identity-on-features start: merging leaves features intact and the
        # fusion averages the sweeps, so a fresh model is sweep-count sane.
        merge = np.zeros((channels + 1, channels))
        merge[:channels] = np.eye(channels)
        merge[channels] = 0.02 * rng.standard_normal(channels)
        fuse = np.concatenate([np.eye(channels) / sweeps] * sweeps, axis=0)
        return SweepFusionParams(
            merge_weight=Parameter("sweeps.merge_weight", merge),
            merge_bias=Parameter("sweeps.merge_bias", np.zeros(channels)),
            fuse_weight=Parameter("sweeps.fuse_weight", fuse),
            fuse_bias=Parameter("sweeps.fuse_bias", np.zeros(channels)),
        )


@dataclass
class MultiScaleHeadParams:
    strides: tuple[int, ...]
    weights: list[Parameter]  # each (3, 3, 3, 6, C): the point features to C channels
    biases: list[Parameter]

    @staticmethod
    def create(rng: np.random.Generator, channels: int, strides=(1, 2)):
        weights, biases = [], []
        k = POINT_FEATURE_CHANNELS
        for s in strides:
            # the first k input rows of a square (3, 3, 3, C, C) draw when C >= k
            w = 0.02 * rng.standard_normal((3, 3, 3, max(channels, k), channels))[:, :, :, :k]
            w[1, 1, 1] += np.eye(k, channels)  # near-identity center tap
            weights.append(Parameter(f"heads.s{s}.weight", w))
            biases.append(Parameter(f"heads.s{s}.bias", np.zeros(channels)))
        return MultiScaleHeadParams(strides=tuple(strides), weights=weights, biases=biases)


@dataclass
class EncoderParams:
    op_type: str  # none | conv2d | conv3d
    weights: list[Parameter]
    biases: list[Parameter]

    @staticmethod
    def create(rng: np.random.Generator, channels: int, op_type: str, prefix: str = "encoder"):
        if op_type not in ("none", "conv2d", "conv3d"):
            raise ValueError(f"unknown encoder op_type {op_type!r}")
        weights, biases = [], []
        if op_type != "none":
            kz = 3 if op_type == "conv3d" else 1
            for b in range(3):
                w = 0.02 * rng.standard_normal((3, 3, kz, channels, channels))
                w[1, 1, kz // 2] += np.eye(channels)
                weights.append(Parameter(f"{prefix}.block{b}.weight", w))
                biases.append(Parameter(f"{prefix}.block{b}.bias", np.zeros(channels)))
        return EncoderParams(op_type=op_type, weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# camera branch


@dataclass(frozen=True)
class LiftFootprint:
    """One camera's lift geometry on an (H, W) image: the entries of both reads.

    ``voxels`` holds the flat indices of the V voxel centers that project
    inside the image and in front of the perception limit; ``read`` the P
    sorted flat ``v * W + u`` pixels an inside corner reads, the only pixels
    the lift uses.  Both reads index these P read columns.  The pixel read
    takes bilinear corners ``pixels`` (4, V; the corner's column, 0 outside
    the image) with ``weights`` (4, V; 0 outside).  The occupancy read takes
    ``occupancy_cells`` (8, V; ``bin * P + column`` in the (D, P) read
    columns) with ``occupancy_weights`` (8, V): per corner, the bins below
    and above the depth, clamped to the end bins, weighted ``w * (1 - fb)``
    and ``w * fb`` by its fraction ``fb`` upward.  Every array is read-only
    and every index array int32.
    """

    voxels: np.ndarray
    pixels: np.ndarray
    weights: np.ndarray
    occupancy_cells: np.ndarray
    occupancy_weights: np.ndarray
    read: np.ndarray


@functools.lru_cache(maxsize=FOOTPRINT_CACHE_SIZE)
def lift_footprint(calib, spec: VoxelGridSpec, depth: DepthSpec, image_hw) -> LiftFootprint:
    """Project every voxel center into one (H, W) camera view, cached by value.

    A center projecting to (u, v, d) is in view when it lies inside the image
    (``0 <= u <= W-1``, ``0 <= v <= H-1``) and ``d`` is short of the
    perception limit.  Its depth interpolates linearly between bin centers;
    beyond the first/last center it clamps to the end bin.  The last
    ``FOOTPRINT_CACHE_SIZE`` results are kept, keyed by the arguments: equal
    calibrations (equal matrix bytes) share one footprint object, and
    ``image_hw`` is a tuple such as ``features.shape[:2]``.
    ``lift_footprint.__wrapped__`` is the uncached builder.
    """
    h, w = (int(n) for n in image_hw)
    centers = voxel_centers(spec).reshape(-1, 3)
    u, v, d, valid = project_points(centers, calib)
    mask = valid & (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    mask &= d < depth.depth_limit

    voxels = np.nonzero(mask)[0]
    um, vm, dm = u[voxels], v[voxels], d[voxels]
    u0 = np.floor(um).astype(np.int64)
    v0 = np.floor(vm).astype(np.int64)
    fu, fv = um - u0, vm - v0
    td = dm / depth.bin_width - 0.5  # continuous bin coordinate, centers at integers
    raw = np.floor(td).astype(np.int64)
    fb = td - raw
    bins = np.clip(np.stack([raw, raw + 1]), 0, depth.bins - 1)

    pixels, weights, inside = [], [], []
    for dv, du in np.ndindex(2, 2):
        uu, vv = u0 + du, v0 + dv
        inside.append((uu >= 0) & (uu < w) & (vv >= 0) & (vv < h))
        pixels.append(np.where(inside[-1], vv * w + uu, 0))
        weights.append((fv if dv else 1.0 - fv) * (fu if du else 1.0 - fu) * inside[-1])
    pixels, weights = np.stack(pixels), np.stack(weights)
    seen = np.zeros(h * w, dtype=bool)
    seen[pixels[np.stack(inside)]] = True
    read = np.flatnonzero(seen)
    if depth.bins * read.size >= 2**31:
        raise ValueError(f"{depth.bins} bins x {read.size} read pixels overflow int32 indices")
    # an outside corner reads pixel 0 with weight 0, so column 0 serves it
    columns = np.searchsorted(read, pixels)
    occupancy_cells = (bins[None] * read.size + columns[:, None]).reshape(8, voxels.size)
    occupancy_weights = (weights[:, None] * np.stack([1.0 - fb, fb])).reshape(8, voxels.size)
    arrays = {"voxels": voxels, "pixels": columns, "weights": weights,
              "occupancy_cells": occupancy_cells, "occupancy_weights": occupancy_weights,
              "read": read}
    for name, array in arrays.items():
        if array.dtype.kind == "i":
            arrays[name] = array = array.astype(np.int32)
        array.flags.writeable = False
    return LiftFootprint(**arrays)


def predict_depth_distribution(features: Tensor, params: DepthHeadParams,
                               depth: DepthSpec) -> Tensor:
    """Per-pixel depth distribution: a per-pixel affine map, then softmax over bins.

    ``features`` is an (H, W, C) map, giving (D, H, W), or the (P, C) rows
    of P pixels, such as a :class:`LiftFootprint`'s ``read`` set, giving
    (D, P), column p for row p.  No rows give a constant (D, 0).  Every
    column sums to one.
    """
    if features.ndim not in (2, 3):
        raise ValueError(f"features must be (H, W, C) or (P, C), got {features.shape}")
    *lead, c = features.shape
    logits = nm.affine(nm.reshape(features, (-1, c)),
                       nm.reshape(params.weight, (c, depth.bins)), params.bias)
    dist = nm.transpose(nm.softmax(logits, axis=-1), (1, 0))
    return dist if features.ndim == 2 else nm.reshape(dist, (depth.bins, *lead))


def lift_image_to_voxels(
    features: Tensor,
    depth_dist: Tensor,
    calib,
    spec: VoxelGridSpec,
    depth: DepthSpec,
    footprint: LiftFootprint | None = None,
) -> Tensor:
    """Lift one camera view into the voxel grid.

    Every voxel center in view (see :func:`lift_footprint`) receives the
    bilinear pixel feature scaled by the occupancy probability read from the
    depth distribution at its (u, v, d).  With a ``footprint``, ``features``
    is the (P, C) rows and ``depth_dist`` the (D, P) columns of its ``read``
    pixels, and the result is the (V, C) lifted rows, row i for voxel
    ``footprint.voxels[i]``.  Without one, ``features`` is the (H, W, C) map
    and ``depth_dist`` the full (D, H, W) distribution: the footprint of
    ``calib`` is looked up, its ``read`` rows and columns are gathered and
    lifted, and the result is the dense (X, Y, Z, C) grid, those rows placed
    on zeros.  Differentiable with respect to ``features`` and ``depth_dist``.

    Both reads are ``numerics.interpolation_matrix`` products of the
    footprint's entries: the pixel feature P @ features and the occupancy
    O @ depth_dist; the gradients are P^T and O^T products.
    """
    c = features.shape[-1]
    if spec.channels != c:
        raise ValueError(f"grid channels {spec.channels} != image channels {c}")
    if footprint is None:
        if features.ndim != 3:
            raise ValueError(f"features must be an (H, W, C) map, got {features.shape}")
        h, w = features.shape[:2]
        if tuple(depth_dist.shape) != (depth.bins, h, w):
            raise ValueError(f"depth distribution shape {depth_dist.shape} != {(depth.bins, h, w)}")
        fp = lift_footprint(calib, spec, depth, (h, w))
        rows = nm.getitem(nm.reshape(features, (h * w, c)), fp.read)
        columns = nm.getitem(nm.reshape(depth_dist, (depth.bins, h * w)), (slice(None), fp.read))
        lifted = lift_image_to_voxels(rows, columns, calib, spec, depth, fp)
        return nm.place_rows(lifted, fp.voxels, np.zeros(c), spec.counts + (c,))
    n_read = footprint.read.size
    if tuple(features.shape) != (n_read, c):
        raise ValueError(f"features shape {features.shape} != {(n_read, c)}, the read rows")
    want = (depth.bins, n_read)
    if tuple(depth_dist.shape) != want:
        raise ValueError(f"depth distribution shape {depth_dist.shape} != {want}, the read columns")
    pixel_entries = footprint.pixels, footprint.weights
    occupancy_entries = footprint.occupancy_cells, footprint.occupancy_weights
    d_flat = depth_dist.data.reshape(-1)

    pixel_feat = nm.interpolation_matrix(*pixel_entries, n_read) @ features.data
    occupancy = nm.interpolation_matrix(*occupancy_entries, d_flat.size) @ d_flat

    def backward(g):
        if features.requires_grad:
            p_t = nm.interpolation_matrix(*pixel_entries, n_read, transpose=True)
            nm.accumulate_grad(features, p_t @ (occupancy[:, None] * g))
        if depth_dist.requires_grad:
            o_t = nm.interpolation_matrix(*occupancy_entries, d_flat.size, transpose=True)
            g_occ = (g * pixel_feat).sum(axis=1)
            nm.accumulate_grad(depth_dist, (o_t @ g_occ).reshape(want))

    return nm.record_op(occupancy[:, None] * pixel_feat, (features, depth_dist), backward)


def sweep_fusion_map(time_offsets: list[float], params: SweepFusionParams,
                     channels: int) -> tuple[Tensor, Tensor]:
    """The space-level temporal fusion of n sweeps as one affine map.

    Each sweep gets its scalar time offset as an extra channel, is merged
    back to C channels by a shared per-voxel map, and the merged sweeps are
    fused to C by a per-voxel map across sweeps.  Merge and fuse are linear,
    so they are composed into one map: sweep ``s`` gets the (C+1, C) weight
    ``W_s = merge @ fuse_s``, ``fuse_s`` the s-th (C, C) row block of the
    fuse weight.  The offset channel is constant, so its row
    folds into the bias, ``b' = fuse_bias + merge_bias @ sum_s fuse_s +
    sum_s t_s * W_s[C]``.  Returns the (n*C, C) weight, the n stacked
    ``W_s[:C]`` that act on the sweeps' C channels side by side, and ``b'``,
    the fused value of a voxel that is zero in every sweep.
    """
    for i, offset in enumerate(time_offsets):
        if not math.isfinite(offset):
            raise ValueError(f"time_offsets[{i}] must be finite, got {offset}")
    if abs(time_offsets[0]) > 1e-12:
        raise ValueError(f"initial sweep offset must be 0, got {time_offsets[0]}")
    n, c = len(time_offsets), channels
    expected = {"merge_weight": (c + 1, c), "merge_bias": (c,),
                "fuse_weight": (n * c, c), "fuse_bias": (c,)}
    for field, want in expected.items():
        got = tuple(getattr(params, field).shape)
        if got != want:
            raise ValueError(f"SweepFusionParams.{field} must be {want} for {n} sweep(s) "
                             f"of {c} channels, got {got}")

    fuse = nm.reshape(params.fuse_weight, (n, c, c))  # the sweeps' row blocks fuse_s
    composed = nm.matmul(params.merge_weight, fuse)  # (n, C+1, C): W_s per sweep
    weight = nm.reshape(nm.getitem(composed, (slice(None), slice(c))), (n * c, c))
    bias = nm.affine(Tensor(time_offsets),
                     nm.getitem(composed, (slice(None), c)),
                     nm.affine(params.merge_bias, nm.tsum(fuse, axis=0), params.fuse_bias))
    return weight, bias


def fuse_sweeps_image(
    spaces: list[Tensor],
    time_offsets: list[float],
    params: SweepFusionParams,
) -> tuple[Tensor, Tensor]:
    """Apply :func:`sweep_fusion_map` to per-sweep image voxel rows.

    Each space is the (V, C) table of one sweep's rows for the same V voxels;
    the map is one ``affine`` of the sweeps' rows side by side.  Returns the
    fused (V, C) rows and ``b'``; placing the rows in a grid is the caller's.
    """
    if not spaces:
        raise ValueError("fuse_sweeps_image needs at least one sweep")
    if len(spaces) != len(time_offsets):
        raise ValueError("one time offset per sweep required")
    shape = tuple(spaces[0].shape)
    if len(shape) != 2:
        raise ValueError(f"spaces[0] must be a (V, C) row table, got {shape}")
    for i, s in enumerate(spaces[1:], start=1):
        if tuple(s.shape) != shape:
            raise ValueError(f"spaces[{i}] must be {shape} rows of the voxels, got {s.shape}")
    weight, bias = sweep_fusion_map(time_offsets, params, shape[-1])
    rows = nm.affine(spaces[0] if len(spaces) == 1 else nm.concat(spaces, axis=1), weight, bias)
    return rows, bias


# ---------------------------------------------------------------------------
# point branch


def voxelize_points(cloud: PointCloud, spec: VoxelGridSpec) -> VoxelGrid:
    """Bin points into the grid with per-cell summary features.

    The grid is ``spec`` with six channels, whatever ``spec.channels``:
    channels 0..2 hold the mean offset of the points from the cell center,
    channel 3 the mean intensity, channel 4 the mean time offset, channel 5
    log(1 + count).  Empty cells are zero.
    """
    nx, ny, nz = spec.counts
    n_cells = nx * ny * nz
    ranges = np.array(spec.ranges)
    inside = np.all((cloud.xyz >= ranges[:, 0]) & (cloud.xyz < ranges[:, 1]), axis=1)
    q = cloud.xyz[inside]
    ijk = np.floor((q - ranges[:, 0]) / np.array(spec.cell_sizes)).astype(np.int64)
    ijk = np.minimum(ijk, np.array(spec.counts) - 1)
    lin = (ijk[:, 0] * ny + ijk[:, 1]) * nz + ijk[:, 2]
    count = np.bincount(lin, minlength=n_cells).astype(np.float64)
    safe = np.maximum(count, 1.0)  # an empty cell's sums are 0, so its means are too
    offsets = q - voxel_centers(spec).reshape(-1, 3)[lin]
    summed = [*offsets.T, cloud.intensity[inside], cloud.time[inside]]
    means = [np.bincount(lin, weights=w, minlength=n_cells) / safe for w in summed]
    feats = np.stack(means + [np.log1p(count)], axis=-1).reshape(nx, ny, nz, -1)
    return VoxelGrid(spec=replace(spec, channels=POINT_FEATURE_CHANNELS), features=Tensor(feats))


def multi_scale_heads(raw: VoxelGrid, params: MultiScaleHeadParams) -> Tensor:
    """Parallel strided convolution heads, upsampled back and summed.

    Strides apply to the horizontal axes (stride 1 on height).  Upsampling
    is nearest-neighbor so block-constant fields survive exactly.
    """
    if not params.strides:
        raise ValueError("multi_scale_heads needs at least one head")
    nx, ny, nz, _ = raw.features.shape
    total = None
    for stride, w, b in zip(params.strides, params.weights, params.biases):
        s = (stride, stride, 1)
        for extent, sv, axis in zip((nx, ny, nz), s, "xyz"):
            if extent % sv != 0:
                raise ValueError(f"stride {sv} does not divide {axis} extent {extent}")
        head = nm.conv(raw.features, w, b, stride=s, padding=1)
        if max(s) > 1:
            head = nm.nn_upsample3d(head, s)
        total = head if total is None else nm.add(total, head)
    return total


# ---------------------------------------------------------------------------
# shared encoder


def voxel_encoder(
    grid: VoxelGrid, params: EncoderParams
) -> tuple[VoxelGrid, EncoderTap]:
    """Three conv+ReLU blocks; the tap is the pre-ReLU activation of block 3.

    ``conv3d`` uses 3x3x3 kernels, ``conv2d`` per-height 3x3x1 kernels, and
    ``none`` passes the input through (tap == output == input), a row table
    too; the convs need a dense grid.
    """
    if params.op_type == "none":
        return grid, EncoderTap(features=grid.features)
    pad = (1, 1, 1) if params.op_type == "conv3d" else (1, 1, 0)
    x = grid.dense(f"voxel_encoder {params.op_type}")
    tap = None
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = nm.conv(x, w, b, stride=1, padding=pad)
        if i == len(params.weights) - 1:
            tap = pre
        x = nm.relu(pre)
    return VoxelGrid(spec=grid.spec, features=x), EncoderTap(features=tap)
