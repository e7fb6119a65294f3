"""Cross-modality interaction: knowledge transfer and modality fusion.

Knowledge transfer samples the teacher and student encoder taps at object
query positions and penalizes their partial L2 distance; only the student
receives gradients.  Modality fusion sums the processed spaces; the
per-voxel fusion map (:class:`FusionParams`), an ``affine`` on each voxel's
channels, acts on the decoder's samples of that sum, so the fused volume is
never built densely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .modality import EncoderTap, VoxelGrid
from .numerics import Parameter, Tensor

__all__ = [
    "FusionParams",
    "partial_l2",
    "knowledge_transfer_loss",
    "modality_switch_fuse",
]


@dataclass
class FusionParams:
    # the model's own map is C -> C; composed after sweep fusion it maps the
    # n*C un-fused sweep channels (``pipeline._camera_branch``)
    weight: Parameter  # (C_in, C)
    bias: Parameter  # (C,)

    @staticmethod
    def create(rng: np.random.Generator, channels: int):
        w = 0.02 * rng.standard_normal((channels, channels))
        w += np.eye(channels)
        return FusionParams(
            weight=Parameter("fusion.weight", w),
            bias=Parameter("fusion.bias", np.zeros(channels)),
        )


def partial_l2(teacher, student) -> Tensor:
    """Squared distance that waives channels the teacher deems inactive.

    Per channel: zero when t <= 0 and s <= t, otherwise (t - s)^2; summed
    over the trailing channel axis (leading axes are preserved).  The
    student side is differentiable; the teacher is treated as data.
    """
    t = teacher.data if isinstance(teacher, Tensor) else np.asarray(teacher, dtype=np.float64)
    s = student if isinstance(student, Tensor) else Tensor(student)
    if t.shape != s.shape:
        raise ValueError(f"teacher/student shapes differ: {t.shape} vs {s.shape}")
    active = ~((t <= 0.0) & (s.data <= t))
    diff = (t - s.data) * active
    out = (diff * diff).sum(axis=-1)

    def backward(g):
        nm.accumulate_grad(s, np.expand_dims(g, -1) * (2.0 * (s.data - t) * active))

    return nm.record_op(out, (s,), backward)


def knowledge_transfer_loss(
    teacher: EncoderTap, student: EncoderTap, query_positions: np.ndarray
) -> Tensor:
    """Mean partial-L2 distance between taps sampled at query grid positions.

    ``query_positions`` is (N, 3) in continuous grid index coordinates.
    Gradients flow to the student tap only.
    """
    positions = np.asarray(query_positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] < 1:
        raise ValueError(f"query positions must be (N, 3) with N >= 1, got {positions.shape}")
    if tuple(teacher.features.shape) != tuple(student.features.shape):
        raise ValueError("teacher and student taps must share a shape")
    t_samples = nm.trilinear_sample(Tensor(teacher.features.data), Tensor(positions))
    s_samples = nm.trilinear_sample(student.features, Tensor(positions))
    return nm.tmean(partial_l2(t_samples, s_samples))


def modality_switch_fuse(spaces: list[VoxelGrid]) -> VoxelGrid:
    """Sum the selected spaces (camera, then LiDAR) into one grid.

    A single space is returned as it is, a row table too; a sum needs dense
    spaces.  The fusion map is not applied here: ``decoder.decode`` composes
    it into each block's value projection, which equals sampling the fused
    volume.
    """
    if not spaces:
        raise ValueError("modality fusion needs at least one space")
    if any(v is None for v in spaces):
        raise ValueError("a selected modality space is absent")
    if any(v.spec != spaces[0].spec for v in spaces[1:]):
        raise ValueError("fused spaces must share a grid spec")
    if len(spaces) == 1:
        return spaces[0]
    dense = [v.dense(f"modality_switch_fuse of {len(spaces)} spaces") for v in spaces]
    return VoxelGrid(spec=spaces[0].spec, features=functools.reduce(nm.add, dense))
