import numpy as np
import pytest

from voxdet import decoder
from voxdet import numerics as nm
from voxdet.decoder import (
    DecoderConfig,
    DecoderParams,
    decode,
    decode_boxes,
    decoder_block,
    deformable_cross_attention,
    initial_references,
    self_attention,
    BlockPrediction,
)
from voxdet.geometry import VoxelGridSpec
from voxdet.modality import VoxelGrid
from voxdet.numerics import Tape, Tensor, backward, grad_check
from voxdet.numerics.gradcheck import central_difference, max_relative_error
from voxdet.verification import GRAD_EPS, GRAD_TOLERANCE, PROBE_SCALE

from helpers import (
    closure_arrays,
    deformable_cross_attention_oracle,
    fused_cross_attention_oracle,
    identity_fusion,
    pointwise_kernel,
    random_fusion,
)

CONFIG = DecoderConfig(num_queries=4, num_blocks=2, num_heads=2, num_points=2,
                       channels=8, num_classes=3, ffn_dim=16)
SPEC = VoxelGridSpec((-4.0, 4.0), (-4.0, 4.0), (-1.0, 1.0), (8, 8, 4), 8)


FUSION = random_fusion(8, np.random.default_rng(25))


def small_volume(seed=0):
    data = np.random.default_rng(seed).standard_normal(SPEC.counts + (8,))
    return VoxelGrid(spec=SPEC, features=Tensor(data))


@pytest.mark.parametrize("field, value", [("num_heads", 0), ("num_heads", -4),
                                          ("ffn_dim", 0), ("ffn_dim", -3),
                                          ("channels", 0), ("channels", -8)])
def test_config_rejects_sizes_below_one(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
        DecoderConfig(**{field: value})


class TestInitQueries:
    def test_deterministic(self):
        a = DecoderParams.create(CONFIG, seed=5)
        b = DecoderParams.create(CONFIG, seed=5)
        np.testing.assert_array_equal(a.query_embed.data, b.query_embed.data)
        np.testing.assert_array_equal(initial_references(a).data, initial_references(b).data)

    def test_zero_reference_head_centers(self):
        params = DecoderParams.create(CONFIG, seed=1)
        params.ref_w.data[...] = 0.0
        params.ref_b.data[...] = 0.0
        refs = initial_references(params).data
        np.testing.assert_array_equal(refs, 0.5)

    def test_references_in_unit_cube(self):
        refs = initial_references(DecoderParams.create(CONFIG, seed=9)).data
        assert refs.shape == (CONFIG.num_queries, 3)
        assert np.all((refs >= 0.0) & (refs <= 1.0))


class TestSelfAttention:
    def test_single_query_weight_one(self):
        config = DecoderConfig(num_queries=1, num_blocks=1, num_heads=2,
                               num_points=2, channels=8, num_classes=2)
        params = DecoderParams.create(config, seed=2)
        sa = params.blocks[0].self_attn
        q = Tensor(np.random.default_rng(3).standard_normal((1, 8)))
        out = self_attention(q, sa, config.num_heads)
        # with one query softmax weight is exactly 1: output equals the
        # normalized residual of q plus its own value projection
        value = q.data @ sa.wv.data + sa.bv.data
        expected_in = q.data + (value @ sa.wo.data + sa.bo.data)
        mu = expected_in.mean(axis=-1, keepdims=True)
        var = ((expected_in - mu) ** 2).mean(axis=-1, keepdims=True)
        expected = (expected_in - mu) / np.sqrt(var + 1e-5)
        expected = expected * sa.gamma.data + sa.beta.data
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_zero_value_projection(self):
        params = DecoderParams.create(CONFIG, seed=4)
        sa = params.blocks[0].self_attn
        sa.wv.data[...] = 0.0
        sa.bv.data[...] = 0.0
        sa.wo.data[...] = 0.0
        sa.bo.data[...] = 0.0
        q = Tensor(np.random.default_rng(5).standard_normal((4, 8)))
        out = self_attention(q, sa, CONFIG.num_heads)
        expected = nm.layer_norm(q, sa.gamma, sa.beta).data
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_permutation_equivariance(self):
        params = DecoderParams.create(CONFIG, seed=6)
        sa = params.blocks[0].self_attn
        q = np.random.default_rng(7).standard_normal((4, 8))
        perm = np.array([2, 0, 3, 1])
        out = self_attention(Tensor(q), sa, CONFIG.num_heads).data
        out_perm = self_attention(Tensor(q[perm]), sa, CONFIG.num_heads).data
        np.testing.assert_allclose(out_perm, out[perm], rtol=0, atol=1e-12)


class TestDeformableAttention:
    def test_constant_volume_identity(self):
        config = DecoderConfig(num_queries=3, num_blocks=1, num_heads=1,
                               num_points=4, channels=4, num_classes=2)
        params = DecoderParams.create(config, seed=8)
        ca = params.blocks[0].cross
        ca.offset_w.data[...] = 0.0
        ca.offset_b.data[...] = 0.0
        ca.value_w.data[...] = np.eye(4)
        ca.value_b.data[...] = 0.0
        ca.out_w.data[...] = np.eye(4)
        ca.out_b.data[...] = 0.0
        spec = VoxelGridSpec((-1, 1), (-1, 1), (-1, 1), (4, 4, 4), 4)
        volume = Tensor(np.full((4, 4, 4, 4), 2.5))
        refs = Tensor(np.random.default_rng(9).uniform(0.1, 0.9, size=(3, 3)))
        q = Tensor(np.random.default_rng(10).standard_normal((3, 4)))
        out = deformable_cross_attention(q, refs, volume, ca, config, identity_fusion(4))
        np.testing.assert_allclose(out.data, 2.5, rtol=0, atol=1e-12)

    def test_uniform_attention_weights(self):
        # zero attention weights and biases make all K sample weights 1/K
        config = DecoderConfig(num_queries=2, num_blocks=1, num_heads=2,
                               num_points=4, channels=8, num_classes=2)
        params = DecoderParams.create(config, seed=11)
        ca = params.blocks[0].cross
        q = Tensor(np.random.default_rng(12).standard_normal((2, 8)))
        logits = nm.reshape(nm.affine(q, ca.attn_w, ca.attn_b), (2, 2, 4))
        weights = nm.softmax(logits, axis=-1)
        np.testing.assert_allclose(weights.data, 0.25, rtol=0, atol=1e-15)

    def test_outside_grid_zero_contribution(self):
        config = DecoderConfig(num_queries=1, num_blocks=1, num_heads=1,
                               num_points=2, channels=4, num_classes=2)
        params = DecoderParams.create(config, seed=13)
        ca = params.blocks[0].cross
        ca.offset_w.data[...] = 0.0
        ca.offset_b.data[...] = 5.0  # push samples far outside [0, 1]^3
        ca.out_b.data[...] = 0.0
        spec = VoxelGridSpec((-1, 1), (-1, 1), (-1, 1), (4, 4, 4), 4)
        volume = Tensor(np.ones((4, 4, 4, 4)))
        refs = Tensor(np.array([[0.5, 0.5, 0.5]]))
        q = Tensor(np.zeros((1, 4)))
        # a nonzero fusion bias must vanish with the value bias outside the grid
        fusion = random_fusion(4, np.random.default_rng(26))
        out = deformable_cross_attention(q, refs, volume, ca, config, fusion)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_attention_weights_sum_to_one(self):
        params = DecoderParams.create(CONFIG, seed=14)
        ca = params.blocks[0].cross
        ca.attn_w.data[...] = np.random.default_rng(15).standard_normal(ca.attn_w.shape)
        q = Tensor(np.random.default_rng(16).standard_normal((4, 8)))
        logits = nm.reshape(nm.affine(q, ca.attn_w, ca.attn_b),
                            (4, CONFIG.num_heads, CONFIG.num_points))
        weights = nm.softmax(logits, axis=-1)
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def _cross_fixture(heads, seed):
    """A cross-attention module whose offset, attention and bias terms all carry weight."""
    config = DecoderConfig(num_queries=6, num_blocks=1, num_heads=heads, num_points=3,
                           channels=8, num_classes=2)
    ca = DecoderParams.create(config, seed=seed).blocks[0].cross
    rng = np.random.default_rng([seed, 30])
    ca.offset_w.data[...] = 0.05 * rng.standard_normal(ca.offset_w.shape)
    for p in (ca.attn_w, ca.attn_b, ca.value_b, ca.out_b):
        p.data[...] = 0.5 * rng.standard_normal(p.shape)
    queries = rng.standard_normal((6, 8))
    volume = rng.standard_normal((4, 3, 2, 8))
    fusion = random_fusion(8, rng)
    return config, ca, fusion, queries, volume, rng


def _cross_values_and_grads(fn, config, ca, fusion, queries, refs, volume, probe):
    leaves = [Tensor(x, requires_grad=True) for x in (queries, refs, volume)]
    params = nm.parameters_of([ca, fusion])
    for p in params:
        p.reset_gradient()
    with Tape() as tape:
        out = fn(*leaves, ca, config, fusion)
        loss = nm.tsum(nm.mul(out, Tensor(probe)))
    backward(tape, loss)
    return [out.data] + [leaf.grad for leaf in leaves] + [p.grad.copy() for p in params]


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("placement", ["inside", "faces", "outside"])
def test_cross_attention_matches_project_then_sample_oracle(heads, placement):
    # the oracle fuses every voxel with a dense conv, then projects and samples
    config, ca, fusion, queries, volume, rng = _cross_fixture(heads, seed=heads)
    refs = rng.uniform(0.1, 0.9, size=(6, 3))
    if placement == "faces":  # one coordinate of each reference on a face of the grid
        refs[np.arange(6), rng.integers(0, 3, size=6)] = rng.integers(0, 2, size=6)
    elif placement == "outside":  # more than one cell outside on every axis
        refs[:4] = rng.choice([-1.0, 1.0], size=(4, 3)) * rng.uniform(1.2, 1.6, size=(4, 3))
        refs[:4] += refs[:4] > 0
    probe = rng.standard_normal((6, 8))
    got = _cross_values_and_grads(deformable_cross_attention, config, ca, fusion, queries,
                                  refs, volume, probe)
    want = _cross_values_and_grads(fused_cross_attention_oracle, config, ca, fusion, queries,
                                   refs, volume, probe)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_cross_attention_value_and_reference_gradients():
    # references near and past the grid faces: some samples lose part of their
    # trilinear mass, so the mass-scaled value bias depends on the references
    config, ca, fusion, queries, volume, rng = _cross_fixture(2, seed=31)
    refs = rng.uniform(-0.2, 1.2, size=(6, 3))
    probe = Tensor(PROBE_SCALE * rng.choice([-1.0, 1.0], size=(6, 8)))

    def readout(r):
        out = deformable_cross_attention(Tensor(queries), r, Tensor(volume), ca, config,
                                         fusion)
        return nm.tsum(nm.mul(out, probe))

    outside = (refs < 0.0) | (refs > 1.0)
    assert outside.any() and not outside.all()
    assert grad_check(readout, refs, eps=GRAD_EPS) < GRAD_TOLERANCE
    for param in (ca.value_w, ca.value_b, fusion.weight, fusion.bias):
        param.reset_gradient()
        with Tape() as tape:
            out = readout(Tensor(refs))
        backward(tape, out)
        numeric = central_difference(param.data.reshape(-1),
                                     lambda: readout(Tensor(refs)).item(), GRAD_EPS)
        assert max_relative_error(param.grad.reshape(-1), numeric) < GRAD_TOLERANCE


class TestDecoderBlock:
    def test_zero_delta_keeps_reference(self):
        params = DecoderParams.create(CONFIG, seed=17)
        params.head.box_w1.data[...] = 0.0
        params.head.box_b1.data[...] = 0.0
        params.head.box_w2.data[...] = 0.0
        params.head.box_b2.data[...] = 0.0
        q = Tensor(np.random.default_rng(18).standard_normal((4, 8)))
        refs = Tensor(np.random.default_rng(19).uniform(0.2, 0.8, size=(4, 3)))
        _, pred, refined = decoder_block(q, refs, small_volume().features,
                                         params.blocks[0], params.head, CONFIG, FUSION)
        np.testing.assert_allclose(refined.data, refs.data, rtol=0, atol=1e-9)

    def test_saturating_delta(self):
        params = DecoderParams.create(CONFIG, seed=20)
        params.head.box_w1.data[...] = 0.0
        params.head.box_b1.data[...] = 0.0
        params.head.box_w2.data[...] = 0.0
        params.head.box_b2.data[...] = 0.0
        params.head.box_b2.data[0] = 50.0  # x-delta saturates the sigmoid
        q = Tensor(np.zeros((4, 8)))
        refs = Tensor(np.full((4, 3), 0.5))
        _, _, refined = decoder_block(q, refs, small_volume().features,
                                      params.blocks[0], params.head, CONFIG, FUSION)
        np.testing.assert_allclose(refined.data[:, 0], 1.0, rtol=0, atol=1e-15)

    def test_block_count_matches_predictions(self):
        params = DecoderParams.create(CONFIG, seed=21)
        result = decode(params, small_volume(), FUSION)
        assert len(result.blocks) == CONFIG.num_blocks
        assert len(decode_boxes(result.blocks[-1], SPEC)) == CONFIG.num_queries

    def test_references_stay_in_unit_cube(self):
        params = DecoderParams.create(CONFIG, seed=22)
        result = decode(params, small_volume(3), FUSION)
        for block in result.blocks:
            assert block.reference_out.data.min() >= 0.0
            assert block.reference_out.data.max() <= 1.0


def _desk_decode_tape():
    # the desk-scale decoder with 40 queries, so that the (H, n, C) per-head
    # mix cannot take the (H, n, n) shape of a score matrix
    config = DecoderConfig(num_queries=40)
    spec = VoxelGridSpec((-8.0, 8.0), (-8.0, 8.0), (-2.0, 2.0), (16, 16, 4), config.channels)
    volume = Tensor(np.random.default_rng(40).standard_normal(spec.counts + (spec.channels,)),
                    requires_grad=True)
    params = DecoderParams.create(config, seed=41)
    fusion = random_fusion(spec.channels, np.random.default_rng(42))
    with Tape() as tape:
        decode(params, VoxelGrid(spec=spec, features=volume), fusion)
    return config, spec, volume, tape


def test_decode_tape_keeps_no_per_point_samples_or_score_matrices():
    config, spec, volume, tape = _desk_decode_tape()
    n, heads, k, c = config.num_queries, config.num_heads, config.num_points, config.channels
    banned = {(n * heads * k, c), (n, heads, k, c), (heads, n, n)}
    for node in tape._nodes:
        arrays = [node.data] + closure_arrays(node._backward)
        assert not [a.shape for a in arrays if a.shape in banned]
        # the fusion map acts on the samples: no fused copy of the volume is kept
        assert not [a.shape for a in arrays
                    if a.shape == spec.counts + (c,) and a is not volume.data]


def test_decode_samples_each_block_once_and_builds_no_ones_volume():
    # the bias mass is the weighted sampler's last column, not a second
    # sampling pass over a constant (X, Y, Z, 1) volume
    config, spec, _, tape = _desk_decode_tape()
    samplers = [node for node in tape._nodes
                if node._backward.__qualname__.startswith("trilinear_sample.")]
    assert len(samplers) == config.num_blocks
    assert all(node.shape == (config.num_queries * config.num_heads, config.channels + 1)
               for node in samplers)
    ones_shapes = {spec.counts + (1,), (int(np.prod(spec.counts)), 1)}
    for node in tape._nodes:
        arrays = [node.data] + closure_arrays(node._backward)
        assert not [a.shape for a in arrays if a.shape in ones_shapes]


def test_decode_matches_decoding_densely_fused_volume(monkeypatch):
    config = DecoderConfig(num_queries=6, num_blocks=3, num_heads=2, num_points=3,
                           channels=8, num_classes=3, ffn_dim=16)
    params = DecoderParams.create(config, seed=43)
    rng = np.random.default_rng(44)
    for blk in params.blocks:  # offsets and attention that depend on the queries
        blk.cross.offset_w.data[...] = 0.3 * rng.standard_normal(blk.cross.offset_w.shape)
        blk.cross.attn_w.data[...] = 0.3 * rng.standard_normal(blk.cross.attn_w.shape)
        blk.cross.value_b.data[...] = 0.5 * rng.standard_normal(blk.cross.value_b.shape)
    fusion = random_fusion(8, rng)
    volume = small_volume(5)
    got = decode(params, volume, fusion)

    dense = nm.conv(volume.features, pointwise_kernel(fusion.weight), fusion.bias)
    monkeypatch.setattr(decoder, "deformable_cross_attention",
                        lambda q, r, v, p, cfg, _fusion, _lookup:
                        deformable_cross_attention_oracle(q, r, v, p, cfg))
    want = decode(params, VoxelGrid(spec=SPEC, features=dense), fusion)
    for g, w in zip(got.blocks, want.blocks):
        for field in ("class_logits", "box_params", "reference_out"):
            np.testing.assert_allclose(getattr(g, field).data, getattr(w, field).data,
                                       rtol=0, atol=1e-12)


def test_decode_of_a_row_table_is_decoding_its_placed_grid():
    config = DecoderConfig(num_queries=6, num_blocks=2, num_heads=2, num_points=3,
                           channels=8, num_classes=3, ffn_dim=16)
    params = DecoderParams.create(config, seed=45)
    rng = np.random.default_rng(46)
    for blk in params.blocks:  # spread the samples over the grid and past its faces
        blk.cross.offset_w.data[...] = 0.5 * rng.standard_normal(blk.cross.offset_w.shape)
    fusion = random_fusion(8, rng)
    # about one cell in eight is empty (-1) and reads zeros
    lookup = rng.integers(-1, 7, size=SPEC.counts).astype(np.int32)
    assert np.any(lookup == -1)
    table = VoxelGrid(spec=SPEC, features=Tensor(rng.standard_normal((7, 8))), lookup=lookup)
    got = decode(params, table, fusion)
    placed = np.concatenate([table.features.data, np.zeros((1, 8))])[lookup]
    want = decode(params, VoxelGrid(spec=SPEC, features=Tensor(placed)), fusion)
    for g, w in zip(got.blocks, want.blocks):
        for field in ("class_logits", "box_params", "reference_out"):
            assert np.array_equal(getattr(g, field).data, getattr(w, field).data)


class TestDecodeBoxes:
    def _prediction(self, box_row, logits_row):
        n = 1
        box = np.zeros((n, 10))
        box[0] = box_row
        logits = np.zeros((n, 3))
        logits[0] = logits_row
        refs = np.full((n, 3), 0.5)
        return BlockPrediction(
            class_logits=Tensor(logits), box_params=Tensor(box), reference_out=Tensor(refs),
        )

    def test_yaw_identity(self):
        pred = self._prediction([0, 0, 0, 0, 0, 0, 0.0, 1.0, 0, 0], [0, 0, 0])
        box = decode_boxes(pred, SPEC)[0]
        assert box.yaw == 0.0

    def test_unit_size(self):
        pred = self._prediction([0, 0, 0, 0, 0, 0, 0.0, 1.0, 0, 0], [0, 0, 0])
        assert decode_boxes(pred, SPEC)[0].size == (1.0, 1.0, 1.0)

    def test_saturated_negative_logits(self):
        pred = self._prediction([0] * 10, [-50.0, -50.0, -50.0])
        assert decode_boxes(pred, SPEC)[0].score < 1e-15

    def test_center_from_reference(self):
        pred = self._prediction([0] * 10, [0, 0, 0])
        box = decode_boxes(pred, SPEC)[0]
        np.testing.assert_allclose(box.center, (0.0, 0.0, 0.0), atol=1e-12)


class TestDecodeEquivariance:
    def test_query_permutation(self):
        config = DecoderConfig(num_queries=8, num_blocks=2, num_heads=2,
                               num_points=2, channels=8, num_classes=3)
        params = DecoderParams.create(config, seed=23)
        # make offsets/attention depend on queries so the test has teeth
        rng = np.random.default_rng(24)
        for blk in params.blocks:
            blk.cross.offset_w.data[...] = 0.2 * rng.standard_normal(blk.cross.offset_w.shape)
            blk.cross.attn_w.data[...] = 0.2 * rng.standard_normal(blk.cross.attn_w.shape)
        volume = small_volume(4)
        base = decode(params, volume, FUSION)

        perm = np.array([5, 2, 7, 0, 4, 1, 6, 3])
        params_perm = DecoderParams.create(config, seed=23)
        for blk in params_perm.blocks:
            blk.cross.offset_w.data[...] = 0.0
        for src, dst in ((params, params_perm),):
            for b_src, b_dst in zip(src.blocks, dst.blocks):
                b_dst.cross.offset_w.data[...] = b_src.cross.offset_w.data
                b_dst.cross.attn_w.data[...] = b_src.cross.attn_w.data
        params_perm.query_embed.data[...] = params.query_embed.data[perm]
        permuted = decode(params_perm, volume, FUSION)

        for blk_base, blk_perm in zip(base.blocks, permuted.blocks):
            np.testing.assert_allclose(blk_perm.class_logits.data,
                                       blk_base.class_logits.data[perm],
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(blk_perm.reference_out.data,
                                       blk_base.reference_out.data[perm],
                                       rtol=0, atol=1e-10)
