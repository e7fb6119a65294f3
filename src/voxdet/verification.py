"""Gradient verification suite covering every differentiable operation.

Each entry draws seeded random evaluation points and compares the analytic
gradient against central differences through :func:`numerics.grad_check`,
which checks a parameter leaf in place.  The CLI ``gradcheck`` command and
the acceptance tests both run this suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .cross_modality import FusionParams, partial_l2
from .decoder import (
    BlockPrediction,
    DecoderConfig,
    DecoderParams,
    decode,
    deformable_cross_attention,
)
from .geometry import CameraCalibration, VoxelGridSpec
from .modality import DepthSpec, VoxelGrid, lift_image_to_voxels
from .numerics import Tensor, grad_check
from .scene.types import Box3D
from .training import Assignment, detection_loss

__all__ = ["GradCheckResult", "gradient_suite", "GRAD_TOLERANCE", "GRAD_EPS"]

GRAD_TOLERANCE = 1e-6
GRAD_EPS = 1e-5
N_POINTS = 10


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    max_error: float

    def passed(self, threshold: float = GRAD_TOLERANCE) -> bool:
        return self.max_error < threshold


def _run(name, rng, make_point, fn, points, eps) -> GradCheckResult:
    worst = 0.0
    for _ in range(points):
        point = make_point(rng)
        worst = max(worst, grad_check(fn, Tensor(point), eps=eps))
    return GradCheckResult(name=name, max_error=worst)


# Readout probes for deep composites are small so central differences stay
# clear of float cancellation noise at the pinned eps: gradients below the
# 1e-8 denominator floor then sit orders of magnitude under the tolerance,
# while any structural backward error still shows up at full relative size.
PROBE_SCALE = 5e-7


def _decode_fixture(seed: int):
    config = DecoderConfig(
        num_queries=4, num_blocks=2, num_heads=2, num_points=2,
        channels=8, num_classes=2, ffn_dim=8,
    )
    params = DecoderParams.create(config, seed)
    rng = np.random.default_rng([seed, 555])
    for blk in params.blocks:
        # fresh models keep zero offset/attention weights; give them mass so
        # the gradient path through the queries is exercised
        blk.cross.offset_w.data[...] = 0.3 * rng.standard_normal(blk.cross.offset_w.shape)
        blk.cross.attn_w.data[...] = 0.3 * rng.standard_normal(blk.cross.attn_w.shape)
    spec = VoxelGridSpec((-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.0), (4, 4, 2), 8)
    volume = rng.standard_normal(spec.counts + (8,))
    # a non-identity fusion map with a nonzero bias, so both composed terms count
    fusion_rng = np.random.default_rng([seed, 18])
    fusion = FusionParams.create(fusion_rng, 8)
    fusion.weight.data[...] += 0.3 * fusion_rng.standard_normal(fusion.weight.shape)
    fusion.bias.data[...] = 0.5 * fusion_rng.standard_normal(8)
    return config, params, fusion, spec, volume


def _loss_fixture():
    spec = VoxelGridSpec((-4.0, 4.0), (-4.0, 4.0), (-1.0, 1.0), (4, 4, 2), 8)
    gts = [
        Box3D(center=(1.0, -0.5, 0.0), size=(1.5, 1.0, 0.8), yaw=0.4,
              velocity=(0.3, -0.1), class_id=0),
        Box3D(center=(-2.0, 2.0, -0.2), size=(0.8, 0.6, 1.1), yaw=-1.0,
              velocity=(0.0, 0.2), class_id=1),
    ]
    assignment = Assignment(pairs=((0, 0), (2, 1)))
    return spec, gts, assignment


def gradient_suite(seed: int = 0, points: int = N_POINTS, eps: float = GRAD_EPS):
    """Run every gradient check; returns a list of :class:`GradCheckResult`."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    rng = np.random.default_rng([seed, 1234])
    results = []

    softmax_probe = Tensor(np.random.default_rng([seed, 1]).standard_normal(6))

    def softmax_fn(x):
        return nm.tsum(nm.mul(nm.softmax(x, axis=0), softmax_probe))

    results.append(_run("softmax", rng, lambda r: r.standard_normal(6),
                        softmax_fn, points, eps))

    conv_rng = np.random.default_rng([seed, 2])
    conv_kernel = 0.5 * conv_rng.standard_normal((3, 3, 1, 2, 3))
    conv_bias = conv_rng.standard_normal(3)
    conv_volume = conv_rng.standard_normal((3, 3, 2, 2))

    conv_probe = Tensor(PROBE_SCALE * conv_rng.choice([-1.0, 1.0], size=(2, 3, 4, 3)))

    def conv_input_fn(x):
        out = nm.conv(nm.reshape(x, (3, 3, 2, 2)), Tensor(conv_kernel),
                      Tensor(conv_bias), stride=(2, 1, 1), padding=1)
        return nm.tsum(nm.mul(out, conv_probe))

    results.append(_run("conv.input", rng, lambda r: r.standard_normal(36),
                        conv_input_fn, points, eps))

    conv_probe_full = Tensor(PROBE_SCALE * conv_rng.choice([-1.0, 1.0], size=(3, 3, 4, 3)))

    def conv_kernel_fn(k):
        out = nm.conv(Tensor(conv_volume), nm.reshape(k, (3, 3, 1, 2, 3)),
                      Tensor(conv_bias), padding=1)
        return nm.tsum(nm.mul(out, conv_probe_full))

    results.append(_run("conv.kernel", rng, lambda r: r.standard_normal(54),
                        conv_kernel_fn, points, eps))

    tri_volume = np.random.default_rng([seed, 3]).standard_normal((4, 4, 3, 2))
    tri_pts = np.random.default_rng([seed, 4]).uniform(0.2, 2.2, size=(5, 3))

    tri_probe = Tensor(PROBE_SCALE * np.random.default_rng([seed, 16]).choice(
        [-1.0, 1.0], size=(5, 2)))

    def tri_vol_fn(v):
        samples = nm.trilinear_sample(nm.reshape(v, (4, 4, 3, 2)), Tensor(tri_pts))
        return nm.tsum(nm.mul(samples, tri_probe))

    results.append(_run("trilinear.volume", rng, lambda r: r.standard_normal(96),
                        tri_vol_fn, points, eps))

    def tri_pts_fn(p):
        samples = nm.trilinear_sample(Tensor(tri_volume), nm.reshape(p, (5, 3)))
        return nm.tsum(nm.square(samples))

    results.append(_run("trilinear.points", rng,
                        lambda r: r.uniform(0.15, 2.3, size=15), tri_pts_fn, points, eps))

    aff_w = np.random.default_rng([seed, 5]).standard_normal((4, 3))
    aff_b = np.random.default_rng([seed, 6]).standard_normal(3)

    def affine_fn(x):
        out = nm.affine(nm.reshape(x, (2, 4)), Tensor(aff_w), Tensor(aff_b))
        return nm.tsum(nm.square(out))

    results.append(_run("affine", rng, lambda r: r.standard_normal(8),
                        affine_fn, points, eps))

    ln_gamma = np.random.default_rng([seed, 7]).uniform(0.5, 1.5, size=6)
    ln_beta = np.random.default_rng([seed, 8]).standard_normal(6)

    def ln_fn(x):
        out = nm.layer_norm(nm.reshape(x, (3, 6)), Tensor(ln_gamma), Tensor(ln_beta))
        return nm.tsum(nm.square(out))

    results.append(_run("layer_norm", rng, lambda r: r.standard_normal(18),
                        ln_fn, points, eps))

    def sce_fn(x):
        target = Tensor(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        return nm.neg(nm.tsum(nm.mul(target, nm.log(nm.softmax(x, axis=0)))))

    results.append(_run("softmax_cross_entropy", rng, lambda r: r.standard_normal(5),
                        sce_fn, points, eps))

    config, dparams, fusion, spec, volume = _decode_fixture(seed)
    block = dparams.blocks[0]
    refs = np.random.default_rng([seed, 9]).uniform(0.2, 0.8, size=(4, 3))
    deform_probe = Tensor(
        PROBE_SCALE * np.random.default_rng([seed, 14]).choice([-1.0, 1.0], size=(4, 8))
    )

    def deform_q_fn(q):
        out = deformable_cross_attention(nm.reshape(q, (4, 8)), Tensor(refs),
                                         Tensor(volume), block.cross, config, fusion)
        return nm.tsum(nm.mul(out, deform_probe))

    results.append(_run("deformable.queries", rng, lambda r: 0.5 * r.standard_normal(32),
                        deform_q_fn, points, eps))

    queries_fixed = 0.5 * np.random.default_rng([seed, 10]).standard_normal((4, 8))

    def deform_vol_fn(v):
        out = deformable_cross_attention(Tensor(queries_fixed), Tensor(refs),
                                         nm.reshape(v, spec.counts + (8,)),
                                         block.cross, config, fusion)
        return nm.tsum(nm.mul(out, deform_probe))

    results.append(_run("deformable.volume", rng,
                        lambda r: r.standard_normal(int(np.prod(spec.counts)) * 8),
                        deform_vol_fn, points, eps))

    pl_teacher = np.random.default_rng([seed, 11]).standard_normal(8)

    def pl_fn(s):
        return partial_l2(Tensor(pl_teacher), s)

    def pl_point(r):
        s = r.standard_normal(8)
        return s + np.where(np.abs(s - pl_teacher) < 0.1, 0.2, 0.0)

    results.append(_run("partial_l2", rng, pl_point, pl_fn, points, eps))

    lspec, gts, assignment = _loss_fixture()

    def det_loss_fn(flat):
        both = nm.reshape(flat, (4, 12))
        logits = nm.getitem(both, (slice(None), slice(0, 2)))
        box = nm.getitem(both, (slice(None), slice(2, 12)))
        refs_in = Tensor(np.full((4, 3), 0.5))
        refined = nm.sigmoid(nm.add(nm.inverse_sigmoid(refs_in),
                                    nm.getitem(box, (slice(None), slice(0, 3)))))
        pred = BlockPrediction(class_logits=logits, box_params=box, reference_out=refined)
        loss, _, _ = detection_loss([pred], gts, [assignment], lspec)
        return loss

    results.append(_run("detection_loss", rng, lambda r: 0.5 * r.standard_normal(48),
                        det_loss_fn, points, eps))

    # camera at the origin looking along +x; grid sits inside its frustum
    lift_spec = VoxelGridSpec((2.5, 5.5), (-1.2, 1.2), (-0.9, 0.9), (4, 4, 3), 2)
    calib = CameraCalibration(
        intrinsics=np.array([[8.0, 0.0, 3.5], [0.0, 8.0, 3.5], [0.0, 0.0, 1.0]]),
        extrinsic=np.array(
            [[0.0, 0.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
             [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        ),
    )
    lift_depth = DepthSpec(bins=8, depth_limit=8.0)
    lift_dist = np.random.default_rng([seed, 12]).dirichlet(np.ones(8), size=(8, 8))
    lift_dist = np.ascontiguousarray(lift_dist.transpose(2, 0, 1))
    lift_feats = np.random.default_rng([seed, 13]).standard_normal((8, 8, 2))

    lift_probe = Tensor(PROBE_SCALE * np.random.default_rng([seed, 17]).choice(
        [-1.0, 1.0], size=lift_spec.counts + (2,)))

    def lift_feat_fn(f):
        out = lift_image_to_voxels(nm.reshape(f, (8, 8, 2)), Tensor(lift_dist),
                                   calib, lift_spec, lift_depth)
        return nm.tsum(nm.mul(out, lift_probe))

    results.append(_run("lift.features", rng, lambda r: r.standard_normal(128),
                        lift_feat_fn, points, eps))

    def lift_dist_fn(d):
        out = lift_image_to_voxels(Tensor(lift_feats), nm.reshape(d, (8, 8, 8)),
                                   calib, lift_spec, lift_depth)
        return nm.tsum(nm.mul(out, lift_probe))

    results.append(_run("lift.depth", rng, lambda r: r.uniform(0.05, 1.0, size=512),
                        lift_dist_fn, points, eps))

    # full decode: probe readout over every block's outputs
    probe_rng = np.random.default_rng([seed, 15])
    probe_cls = Tensor(PROBE_SCALE * probe_rng.choice([-1.0, 1.0], size=(4, 2)))
    probe_box = Tensor(PROBE_SCALE * probe_rng.choice([-1.0, 1.0], size=(4, 10)))

    def _decode_readout(result):
        total = None
        for blk in result.blocks:
            term = nm.add(nm.tsum(nm.mul(blk.class_logits, probe_cls)),
                          nm.tsum(nm.mul(blk.box_params, probe_box)))
            total = term if total is None else nm.add(total, term)
        return total

    def decode_params_fn(_param):  # reads the parameter through ``dparams`` and ``fusion``
        grid = VoxelGrid(spec=spec, features=Tensor(volume))
        return _decode_readout(decode(dparams, grid, fusion))

    def decode_volume_fn(v):
        grid = VoxelGrid(spec=spec, features=nm.reshape(v, spec.counts + (8,)))
        return _decode_readout(decode(dparams, grid, fusion))

    results.append(_run("decode.volume", rng,
                        lambda r: 0.5 * r.standard_normal(int(np.prod(spec.counts)) * 8),
                        decode_volume_fn, points, eps))

    worst_param = max(grad_check(decode_params_fn, param, eps=eps)
                      for param in nm.parameters_of([dparams, fusion]))
    results.append(GradCheckResult(name="decode.parameters", max_error=worst_param))

    # a weighted sample of a row table: 9 of the 27 cells hold a row, the
    # others are empty (-1); the points reach within one cell outside.  The
    # input is the (9, 2) table, the (3, 2, 3) points and the (3, 2) weights.
    table_rng = np.random.default_rng([seed, 19])
    table_lookup = np.full(27, -1)
    table_lookup[table_rng.choice(27, size=9, replace=False)] = np.arange(9)
    table_lookup = table_lookup.reshape(3, 3, 3)
    # (3, 2 + 1): the two channels and the trilinear mass
    table_probe = Tensor(PROBE_SCALE * table_rng.choice([-1.0, 1.0], size=(3, 3)))

    def table_fn(x):
        table = nm.reshape(nm.getitem(x, slice(0, 18)), (9, 2))
        pts = nm.reshape(nm.getitem(x, slice(18, 36)), (3, 2, 3))
        weights = nm.reshape(nm.getitem(x, slice(36, 42)), (3, 2))
        samples = nm.trilinear_sample(table, pts, weights, lookup=table_lookup)
        return nm.tsum(nm.mul(samples, table_probe))

    def table_point(r):
        return np.concatenate([r.standard_normal(18), r.uniform(-0.6, 2.6, size=18),
                               r.uniform(-0.5, 1.5, size=6)])

    results.append(_run("trilinear.row_table", rng, table_point, table_fn, points, eps))

    return results
