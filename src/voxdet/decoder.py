"""Transformer decoder over the unified voxel space.

Object queries carry a learnable embedding and a normalized 3D reference
point.  Each block runs query self-attention, deformable cross-attention
that samples the volume at learned offsets around the reference, and a
feed-forward layer, all with residual + layer-norm.  A head shared across
blocks predicts class logits and box parameters; the center delta refines
the reference in sigmoid space between blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .cross_modality import FusionParams
from .modality import VoxelGrid
from .numerics import Parameter, Tensor
from .numerics.ops import _sigmoid
from .scene.generate import child_rng
from .scene.types import Box3D

__all__ = [
    "DecoderConfig",
    "BlockPrediction",
    "DecodeResult",
    "DecoderParams",
    "initial_references",
    "self_attention",
    "deformable_cross_attention",
    "decoder_block",
    "decode",
    "reference_grid_scale",
    "box_vectors",
    "encode_boxes",
    "decode_boxes",
]

BOX_PARAM_DIM = 10  # center delta (3), log size (3), yaw sin/cos (2), velocity (2)


@dataclass(frozen=True)
class DecoderConfig:
    num_queries: int = 32
    num_blocks: int = 2
    num_heads: int = 4
    num_points: int = 4  # sampling points per head
    channels: int = 32
    num_classes: int = 3
    ffn_dim: int = 64

    def __post_init__(self):
        if self.num_queries < 1 or self.num_blocks < 1 or self.num_points < 1:
            raise ValueError("query/block/point counts must be >= 1")
        for name in ("num_heads", "ffn_dim", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.channels % self.num_heads != 0:
            raise ValueError(
                f"channels {self.channels} not divisible by heads {self.num_heads}"
            )
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.channels // self.num_heads


# ---------------------------------------------------------------------------
# parameters


def _linear(rng, name, n_in, n_out, std=0.02, bias_const=0.0):
    w = Parameter(f"{name}.weight", std * rng.standard_normal((n_in, n_out)))
    b = Parameter(f"{name}.bias", np.full(n_out, float(bias_const)))
    return w, b


def _norm(name, n):
    return (Parameter(f"{name}.gamma", np.ones(n)), Parameter(f"{name}.beta", np.zeros(n)))


@dataclass
class AttentionParams:
    wq: Parameter; bq: Parameter
    wk: Parameter; bk: Parameter
    wv: Parameter; bv: Parameter
    wo: Parameter; bo: Parameter
    gamma: Parameter; beta: Parameter


@dataclass
class DeformableParams:
    offset_w: Parameter; offset_b: Parameter  # C -> H*K*3
    attn_w: Parameter; attn_b: Parameter  # C -> H*K
    value_w: Parameter; value_b: Parameter  # C -> C
    out_w: Parameter; out_b: Parameter  # C -> C
    gamma: Parameter; beta: Parameter


@dataclass
class FFNParams:
    w1: Parameter; b1: Parameter
    w2: Parameter; b2: Parameter
    gamma: Parameter; beta: Parameter


@dataclass
class BlockParams:
    self_attn: AttentionParams
    cross: DeformableParams
    ffn: FFNParams


@dataclass
class HeadParams:
    cls_w1: Parameter; cls_b1: Parameter
    cls_w2: Parameter; cls_b2: Parameter
    box_w1: Parameter; box_b1: Parameter
    box_w2: Parameter; box_b2: Parameter


@dataclass
class DecoderParams:
    config: DecoderConfig
    query_embed: Parameter  # (N, C)
    ref_w: Parameter  # (C, 3)
    ref_b: Parameter
    blocks: list[BlockParams] = field(default_factory=list)
    head: HeadParams | None = None

    @staticmethod
    def create(config: DecoderConfig, seed: int) -> "DecoderParams":
        c = config.channels
        rng = child_rng(seed, "decoder")
        query_embed = Parameter("queries.embed",
                                0.02 * rng.standard_normal((config.num_queries, c)))
        ref_w, ref_b = _linear(rng, "queries.reference", c, 3)
        blocks = []
        hk = config.num_heads * config.num_points
        for i in range(config.num_blocks):
            p = f"block{i}"
            sa = AttentionParams(
                *_linear(rng, f"{p}.sa.q", c, c), *_linear(rng, f"{p}.sa.k", c, c),
                *_linear(rng, f"{p}.sa.v", c, c), *_linear(rng, f"{p}.sa.o", c, c),
                *_norm(f"{p}.sa.norm", c),
            )
            # Offsets start at a small seeded spread around the reference;
            # attention logits start flat (uniform weights over samples).
            offset_w = Parameter(f"{p}.ca.offset.weight", np.zeros((c, hk * 3)))
            offset_b = Parameter(f"{p}.ca.offset.bias",
                                 0.05 * rng.standard_normal(hk * 3))
            attn_w = Parameter(f"{p}.ca.attn.weight", np.zeros((c, hk)))
            attn_b = Parameter(f"{p}.ca.attn.bias", np.zeros(hk))
            ca = DeformableParams(
                offset_w, offset_b, attn_w, attn_b,
                *_linear(rng, f"{p}.ca.value", c, c), *_linear(rng, f"{p}.ca.out", c, c),
                *_norm(f"{p}.ca.norm", c),
            )
            ffn = FFNParams(
                *_linear(rng, f"{p}.ffn.1", c, config.ffn_dim),
                *_linear(rng, f"{p}.ffn.2", config.ffn_dim, c),
                *_norm(f"{p}.ffn.norm", c),
            )
            blocks.append(BlockParams(self_attn=sa, cross=ca, ffn=ffn))
        head = HeadParams(
            *_linear(rng, "head.cls.1", c, c),
            *_linear(rng, "head.cls.2", c, config.num_classes, bias_const=-2.0),
            *_linear(rng, "head.box.1", c, c),
            *_linear(rng, "head.box.2", c, BOX_PARAM_DIM),
        )
        return DecoderParams(config=config, query_embed=query_embed,
                             ref_w=ref_w, ref_b=ref_b, blocks=blocks, head=head)


# ---------------------------------------------------------------------------
# forward pieces


def initial_references(params: DecoderParams) -> Tensor:
    """References generated from the query embeddings, in [0, 1]^3."""
    return nm.sigmoid(nm.affine(params.query_embed, params.ref_w, params.ref_b))


def self_attention(queries: Tensor, params: AttentionParams, num_heads: int) -> Tensor:
    """Multi-head self-attention over the query set, residual + layer norm."""
    n, c = queries.shape
    dh = c // num_heads

    def split(x):
        return nm.transpose(nm.reshape(x, (n, num_heads, dh)), (1, 0, 2))

    q = split(nm.affine(queries, params.wq, params.bq))
    k = split(nm.affine(queries, params.wk, params.bk))
    v = split(nm.affine(queries, params.wv, params.bv))
    attended = nm.attention(q, k, v, 1.0 / math.sqrt(dh))
    ctx = nm.reshape(nm.transpose(attended, (1, 0, 2)), (n, c))
    out = nm.affine(ctx, params.wo, params.bo)
    return nm.layer_norm(nm.add(queries, out), params.gamma, params.beta)


def reference_grid_scale(counts) -> np.ndarray:
    """Per-axis factor from a normalized reference in [0, 1] to a grid index: ``n - 1``."""
    return np.array([n - 1.0 for n in counts])


def deformable_cross_attention(
    queries: Tensor,
    references: Tensor,
    volume: Tensor,
    params: DeformableParams,
    config: DecoderConfig,
    fusion: FusionParams,
    lookup: np.ndarray | None = None,
) -> Tensor:
    """Sample the fused volume at learned offsets around each reference point.

    ``volume`` holds the summed modality spaces: an (X, Y, Z, C_in) grid,
    or, with ``lookup``, an (R, C_in) row table that
    ``numerics.trilinear_sample`` reads through it, byte-identical to
    sampling the placed grid, whose empty cells read zeros.  ``fusion``'s
    per-voxel map from C_in to C channels, an ``affine`` on its (C_in, C)
    weight, is composed into the value projection (weight
    ``W_f @ value_w``, bias ``b_f @ value_w + value_b``),
    so the fused volume is never built; C_in is C, or n*C when the map
    starts with the fusion of n un-fused sweeps.
    Offsets are predicted in normalized coordinates.  One weighted
    ``trilinear_sample`` of the volume mixes each head's K samples with
    their softmax weights and appends their weight-mixed trilinear mass;
    that head's slice of the composed projection, with the composed bias as
    its last row, is applied to the mix: sampling is linear, so this equals
    fusing and projecting every voxel first and sampling the result.  The
    bias enters scaled by the mass, which counts every corner inside the
    grid, empty cells too: an empty cell reads the fused bias, and samples
    at or beyond one cell outside the grid contribute neither value, fusion
    bias nor value bias, as sampling the zero-padded fused volume would
    give.  Heads are concatenated and a final projection maps back to C
    channels.  Residual and normalization are the caller's responsibility.
    """
    n, c = queries.shape
    heads, k = config.num_heads, config.num_points
    dh = config.head_dim
    counts, cv = (volume.shape[:3] if lookup is None else lookup.shape), volume.shape[-1]
    c_in = fusion.weight.shape[0]
    if cv != c_in:
        raise ValueError(f"volume channels {cv} != fusion map input channels {c_in}")

    offsets = nm.reshape(nm.affine(queries, params.offset_w, params.offset_b),
                         (n, heads, k, 3))
    logits = nm.reshape(nm.affine(queries, params.attn_w, params.attn_b), (n * heads, k))
    weights = nm.softmax(logits, axis=-1)

    locations = nm.add(nm.reshape(references, (n, 1, 1, 3)), offsets)
    grid_locations = nm.mul(locations, Tensor(reference_grid_scale(counts)))
    points = nm.reshape(grid_locations, (n * heads, k, 3))

    mixed = nm.reshape(nm.trilinear_sample(volume, points, weights, lookup=lookup),
                       (n, heads, c_in + 1))
    value_w = nm.matmul(fusion.weight, params.value_w)
    value_b = nm.affine(fusion.bias, params.value_w, params.value_b)
    value = nm.concat([value_w, nm.reshape(value_b, (1, c))], axis=0)  # (C_in + 1, C)
    w_heads = nm.transpose(nm.reshape(value, (c_in + 1, heads, dh)), (1, 0, 2))
    projected = nm.matmul(nm.transpose(mixed, (1, 0, 2)), w_heads)  # (H, n, dh)
    merged = nm.reshape(nm.transpose(projected, (1, 0, 2)), (n, c))
    return nm.affine(merged, params.out_w, params.out_b)


def _feed_forward(x: Tensor, params: FFNParams) -> Tensor:
    hidden = nm.relu(nm.affine(x, params.w1, params.b1))
    out = nm.affine(hidden, params.w2, params.b2)
    return nm.layer_norm(nm.add(x, out), params.gamma, params.beta)


def _shared_head(x: Tensor, head: HeadParams) -> tuple[Tensor, Tensor]:
    cls = nm.affine(nm.relu(nm.affine(x, head.cls_w1, head.cls_b1)),
                    head.cls_w2, head.cls_b2)
    box = nm.affine(nm.relu(nm.affine(x, head.box_w1, head.box_b1)),
                    head.box_w2, head.box_b2)
    return cls, box


@dataclass
class BlockPrediction:
    class_logits: Tensor  # (N, num_classes)
    box_params: Tensor  # (N, 10)
    reference_out: Tensor  # (N, 3) normalized, after sigmoid-space update


@dataclass
class DecodeResult:
    blocks: list[BlockPrediction]

    @property
    def final_references(self) -> np.ndarray:
        return self.blocks[-1].reference_out.data


def decoder_block(
    queries: Tensor,
    references: Tensor,
    volume: Tensor,
    block: BlockParams,
    head: HeadParams,
    config: DecoderConfig,
    fusion: FusionParams,
    lookup: np.ndarray | None = None,
) -> tuple[Tensor, BlockPrediction, Tensor]:
    """One decoder block; returns updated queries, predictions, refined refs."""
    q1 = self_attention(queries, block.self_attn, config.num_heads)
    cross = deformable_cross_attention(q1, references, volume, block.cross, config, fusion,
                                       lookup)
    q2 = nm.layer_norm(nm.add(q1, cross), block.cross.gamma, block.cross.beta)
    q3 = _feed_forward(q2, block.ffn)
    cls, box = _shared_head(q3, head)
    delta = nm.getitem(box, (slice(None), slice(0, 3)))
    refined = nm.sigmoid(nm.add(nm.inverse_sigmoid(references), delta))
    pred = BlockPrediction(class_logits=cls, box_params=box, reference_out=refined)
    return q3, pred, refined


# ---------------------------------------------------------------------------
# box codec: normalized center (3), log size (3), yaw sin/cos (2), velocity (2)


def _grid_extent(spec) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis metric low corner and span of the grid."""
    lows = np.array([lo for lo, _ in spec.ranges])
    highs = np.array([hi for _, hi in spec.ranges])
    return lows, highs - lows


def box_vectors(center, box_params, rows=slice(None)) -> Tensor:
    """Predicted 10-vectors of ``rows``: refined normalized center plus ``box_params[:, 3:]``.

    Plain arrays in give a constant tensor that records nothing on the tape.
    """
    return nm.concat([nm.getitem(center, (rows,)),
                      nm.getitem(box_params, (rows, slice(3, BOX_PARAM_DIM)))], axis=1)


def encode_boxes(boxes: list[Box3D], spec) -> np.ndarray:
    """Metric boxes as (G, 10) training targets in the layout of :func:`box_vectors`."""
    if not boxes:
        return np.zeros((0, BOX_PARAM_DIM))
    lows, span = _grid_extent(spec)
    return np.concatenate(
        [
            (np.array([b.center for b in boxes]) - lows) / span,
            np.log(np.array([b.size for b in boxes])),
            np.array([(math.sin(b.yaw), math.cos(b.yaw)) for b in boxes]),
            np.array([b.velocity for b in boxes]),
        ],
        axis=1,
    )


def decode_boxes(prediction: BlockPrediction, spec) -> list[Box3D]:
    """Turn one block's predictions into metric boxes.

    The refined reference is the normalized center; sizes are exponentiated;
    yaw comes from the unit-normalized (sin, cos) pair; the score is the
    highest per-class sigmoid probability.
    """
    refs = prediction.reference_out.data
    box = prediction.box_params.data
    logits = prediction.class_logits.data
    probs = _sigmoid(logits)
    lows, span = _grid_extent(spec)
    centers = lows + refs * span
    with np.errstate(over="ignore", under="ignore"):
        sizes = np.exp(box[:, 3:6])
    if not np.all(np.isfinite(sizes)) or np.any(sizes <= 0.0):
        raise nm.NumericsError("box decode produced degenerate sizes")
    norm = np.hypot(box[:, 6], box[:, 7])
    safe = np.where(norm > 0, norm, 1.0)
    yaw = np.arctan2(box[:, 6] / safe, box[:, 7] / safe)
    out = []
    for i in range(box.shape[0]):
        out.append(
            Box3D(
                center=tuple(centers[i]),
                size=tuple(sizes[i]),
                yaw=float(yaw[i]),
                velocity=(float(box[i, 8]), float(box[i, 9])),
                class_id=int(probs[i].argmax()),
                score=float(probs[i].max()),
            )
        )
    return out


def decode(params: DecoderParams, grid: VoxelGrid, fusion: FusionParams) -> DecodeResult:
    """Run all decoder blocks over the unified volume.

    ``grid`` holds the summed modality spaces, dense or as a row table with
    its ``lookup``, which every block samples through; each block's
    cross-attention applies ``fusion``'s per-voxel map to its samples, which
    equals decoding the densely fused volume.  Boxes are the caller's:
    :func:`decode_boxes` of the last block.
    """
    queries = params.query_embed
    references = initial_references(params)
    blocks = []
    for block in params.blocks:
        queries, pred, references = decoder_block(
            queries, references, grid.features, block, params.head, params.config, fusion,
            grid.lookup)
        blocks.append(pred)
    return DecodeResult(blocks=blocks)
