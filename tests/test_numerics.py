import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from voxdet import numerics as nm
from voxdet.numerics import NumericsError, Parameter, Tape, Tensor, backward, grad_check, ops

from helpers import (
    attention_oracle,
    closure_arrays,
    conv_tap_oracle,
    trilinear_sample_oracle,
    weighted_trilinear_sample_oracle,
)


class TestSoftmax:
    def test_equal_logits_uniform(self):
        out = nm.softmax(Tensor(np.zeros(4)), axis=0)
        np.testing.assert_array_equal(out.data, np.full(4, 0.25))

    def test_log3_quarter(self):
        out = nm.softmax(Tensor([0.0, np.log(3.0)]), axis=0)
        np.testing.assert_allclose(out.data, [0.25, 0.75], rtol=0, atol=1e-15)

    def test_slices_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-50, 50, size=(3, 5, 4)))
        out = nm.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_normalization_property(self, logits):
        out = nm.softmax(Tensor(np.array(logits)), axis=0)
        assert abs(out.data.sum() - 1.0) <= 1e-12

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            nm.softmax(Tensor(np.zeros(3)), axis=2)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_equals_out_of_place_formula(self, axis):
        x = np.random.default_rng(3).uniform(-30, 30, size=(6, 7, 5))
        ex = np.exp(x - x.max(axis=axis, keepdims=True))
        expected = ex / ex.sum(axis=axis, keepdims=True)
        np.testing.assert_array_equal(nm.softmax(Tensor(x), axis=axis).data, expected)


class TestConv:
    def test_identity_kernel(self):
        vol = Tensor(np.random.default_rng(1).standard_normal((4, 3, 2, 1)))
        k = Tensor(np.ones((1, 1, 1, 1, 1)))
        out = nm.conv(vol, k, Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, vol.data)

    def test_all_ones_27(self):
        out = nm.conv(
            Tensor(np.ones((3, 3, 3, 1))), Tensor(np.ones((3, 3, 3, 1, 1))),
            Tensor(np.zeros(1)),
        )
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data.ravel()[0] == 27.0

    def test_zero_kernel_gives_bias(self):
        vol = Tensor(np.random.default_rng(2).standard_normal((3, 3, 1, 2)))
        out = nm.conv(vol, Tensor(np.zeros((1, 1, 1, 2, 3))), Tensor([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(out.data, np.broadcast_to([1.0, -2.0, 0.5], (3, 3, 1, 3)))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            nm.conv(Tensor(np.zeros((2, 2, 2, 3))), Tensor(np.zeros((1, 1, 1, 2, 4))),
                    Tensor(np.zeros(4)))

    def test_output_extent_formula(self):
        out = nm.conv(Tensor(np.zeros((7, 5, 4, 1))), Tensor(np.zeros((3, 3, 3, 1, 2))),
                      Tensor(np.zeros(2)), stride=(2, 1, 1), padding=(1, 0, 1))
        assert out.data.shape == ((7 + 2 - 3) // 2 + 1, (5 - 3) + 1, (4 + 2 - 3) + 1, 2)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 4, 3, 2))
        y = rng.standard_normal((4, 4, 3, 2))
        k = Tensor(rng.standard_normal((3, 3, 3, 2, 2)))
        b = Tensor(np.zeros(2))
        a, c = 1.7, -0.45
        lhs = nm.conv(Tensor(a * x + c * y), k, b).data
        rhs = a * nm.conv(Tensor(x), k, b).data + c * nm.conv(Tensor(y), k, b).data
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_pointwise_is_one_matmul(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 4, 3, 6))
        w = rng.standard_normal((6, 4))
        b = rng.standard_normal(4)
        out = nm.conv(Tensor(x), Tensor(w.reshape(1, 1, 1, 6, 4)), Tensor(b))
        assert np.array_equal(out.data.reshape(-1, 4), x.reshape(-1, 6) @ w + b)


def _im2col_conv(x, w, b, stride, padding, g):
    """Reference conv as one im2col contraction: (out, dX, dW, db) for output gradient g.

    Windows come from ``sliding_window_view`` and contract with ``tensordot``;
    dX scatters the window gradients back through the same window indices.
    """
    kx, ky, kz, cin, _ = w.shape
    sx, sy, sz = np.broadcast_to(stride, 3)
    pads = [(int(p), int(p)) for p in np.broadcast_to(padding, 3)]
    padded = np.pad(x, pads + [(0, 0)])
    windows = sliding_window_view(padded, (kx, ky, kz), axis=(0, 1, 2))[::sx, ::sy, ::sz]
    out = np.tensordot(windows, w, axes=([3, 4, 5, 6], [3, 0, 1, 2])) + b
    dw = np.tensordot(windows, g, axes=([0, 1, 2], [0, 1, 2])).transpose(1, 2, 3, 0, 4)
    index = np.arange(np.prod(padded.shape[:3])).reshape(padded.shape[:3])
    window_index = sliding_window_view(index, (kx, ky, kz))[::sx, ::sy, ::sz]
    window_grad = np.tensordot(g, w, axes=([3], [4]))  # (ox, oy, oz, kx, ky, kz, Cin)
    dpad = np.zeros((index.size, cin))
    np.add.at(dpad, window_index.reshape(-1), window_grad.reshape(-1, cin))
    crop = tuple(slice(lo, lo + n) for (lo, _), n in zip(pads, x.shape[:3]))
    dx = dpad.reshape(padded.shape)[crop]
    return out, dx, dw, g.sum(axis=(0, 1, 2))


@pytest.mark.parametrize("padding", [0, 1, (1, 1, 0), (0, 1, 2)])
@pytest.mark.parametrize("stride", [1, 2, (2, 2, 1)])
@pytest.mark.parametrize("kernel", [(1, 1, 1), (3, 3, 1), (3, 3, 3), (2, 3, 1)])
def test_conv_matches_im2col_oracle(kernel, stride, padding):
    rng = np.random.default_rng(list(kernel) + list(np.broadcast_to(stride, 3))
                                + list(np.broadcast_to(padding, 3)))
    x = rng.standard_normal((6, 5, 4, 3))
    w = rng.standard_normal(kernel + (3, 2))
    b = rng.standard_normal(2)
    vol, ker, bias = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    with Tape() as tape:
        out = nm.conv(vol, ker, bias, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        loss = nm.tsum(nm.mul(out, Tensor(g)))
    backward(tape, loss)
    expected = _im2col_conv(x, w, b, stride, padding, g)
    for got, want in zip((out.data, vol.grad, ker.grad, bias.grad), expected):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape, stride", [
    ((16, 16, 4, 32), 1),          # the desk encoder
    ((32, 32, 4, 32), 1),          # crowd-train's encoder
    ((16, 16, 4, 32), (2, 2, 1)),  # the stride-2 head
    ((26, 16, 4, 32), 1),
    ((26, 16, 4, 32), (2, 2, 1)),  # (26 + 2 - 3) % 2 = 1: the last padded x row is never read
])
def test_conv_matches_tap_oracle(monkeypatch, shape, stride):
    reads = []
    folds = ops._folds

    def recorded(*args):
        for fold, fold_reads in folds(*args):
            reads.append(fold_reads)
            yield fold, fold_reads

    monkeypatch.setattr(ops, "_folds", recorded)
    rng = np.random.default_rng(list(shape) + list(np.broadcast_to(stride, 3)))
    x = rng.standard_normal(shape)
    w = rng.standard_normal((3, 3, 3, shape[3], 32))
    b = rng.standard_normal(32)
    vol, ker, bias = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    with Tape():
        out = nm.conv(vol, ker, bias, stride=stride, padding=1)
    # the forward folds each padded x row that an output reads once, in
    # ascending order, and runs every tap that reads it
    sx, ox = np.broadcast_to(stride, 3)[0], out.shape[0]
    folded = [{rows.start * sx + tx for tx, rows in fold_reads} for fold_reads in reads]
    assert all(len(rows) == 1 for rows in folded)
    read = sorted({x * sx + tx for x in range(ox) for tx in range(3)})
    assert [rows.pop() for rows in folded] == read
    taps = sorted((tx, rows.start) for fold_reads in reads for tx, rows in fold_reads)
    assert taps == [(tx, x) for tx in range(3) for x in range(ox)]
    g = rng.standard_normal(out.shape)
    out._backward(g)
    expected = conv_tap_oracle(x, w, b, stride, 1, g)
    for got, want in zip((out.data, vol.grad, ker.grad, bias.grad), expected):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, result


def test_conv_fold_is_bounded_per_slab():
    # folding the whole (64, 64, 4, 32) volume at once would take 39 MB by itself
    rng = np.random.default_rng(5)
    x = rng.standard_normal((64, 64, 4, 32))
    w = 0.1 * rng.standard_normal((3, 3, 3, 32, 32))
    b = np.zeros(32)
    g = rng.standard_normal(x.shape)
    oracle_forward, _ = _peak_bytes(lambda: conv_tap_oracle(x, w, b, 1, 1))
    oracle_both, _ = _peak_bytes(lambda: conv_tap_oracle(x, w, b, 1, 1, g))
    leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]

    def forward():
        with Tape():
            return nm.conv(*leaves, padding=1)

    forward_peak, _ = _peak_bytes(forward)
    both_peak, _ = _peak_bytes(lambda: forward()._backward(g))
    assert forward_peak < oracle_forward
    assert both_peak < oracle_both + x.nbytes


def test_conv_workspace_is_one_padded_row():
    # one padded x row of a (4, 128, 11, 64) volume folds 6.5 MB
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 128, 11, 64))
    w, b = 0.1 * rng.standard_normal((3, 3, 3, 64, 64)), np.zeros(64)
    leaves = [Tensor(a) for a in (x, w, b)]
    row_fold = 128 * 11 * 3 * 3 * 64 * 8
    peak, out = _peak_bytes(lambda: nm.conv(*leaves, padding=1))
    padded = 6 * 130 * 13 * 64 * 8
    product = 128 * 11 * 64 * 8  # one tap's (oy*oz, Cout) matmul before it is added
    assert peak <= padded + out.data.nbytes + row_fold + product + (1 << 20)  # 1 MiB slack


def test_pointwise_conv_copies_no_input():
    # the fold holds one padded x row at a time, never a copy of the whole input
    x = np.random.default_rng(6).standard_normal((32, 32, 4, 32))
    w = Tensor(np.ones((1, 1, 1, 32, 2)))
    peak, out = _peak_bytes(lambda: nm.conv(Tensor(x), w, Tensor(np.zeros(2))))
    assert peak < out.data.nbytes + x.nbytes // 4


_UNIT_KERNEL = (Tensor(np.ones((1, 1, 1, 1, 1))), Tensor(np.zeros(1)))


@pytest.mark.parametrize("call, name", [
    (lambda v: nm.conv(v, *_UNIT_KERNEL, stride=(2.7, 1, 1)), "stride"),
    (lambda v: nm.conv(v, *_UNIT_KERNEL, stride=1.5), "stride"),
    (lambda v: nm.conv(v, *_UNIT_KERNEL, stride=True), "stride"),
    (lambda v: nm.conv(v, *_UNIT_KERNEL, stride=(1, 1)), "stride"),
    (lambda v: nm.conv(v, *_UNIT_KERNEL, padding=(1.9, 0, 0)), "padding"),
    (lambda v: nm.conv(v, *_UNIT_KERNEL, padding=np.float64(1.0)), "padding"),
    (lambda v: nm.conv(v, *_UNIT_KERNEL, padding=(0, False, 0)), "padding"),
    (lambda v: nm.conv(v, *_UNIT_KERNEL, padding=(1, 1, 1, 1)), "padding"),
    (lambda v: nm.nn_upsample3d(v, (2.5, 1, 1)), "factors"),
    (lambda v: nm.nn_upsample3d(v, "222"), "factors"),
])
def test_spatial_triples_reject_non_integers(call, name):
    with pytest.raises(ValueError, match=name):
        call(Tensor(np.ones((4, 4, 2, 1))))


def test_spatial_triples_accept_numpy_integers():
    v = Tensor(np.ones((4, 4, 2, 1)))
    out = nm.conv(v, *_UNIT_KERNEL, stride=np.int64(2), padding=(np.int32(1), 0, 0))
    assert out.shape == (3, 2, 1, 1)
    assert nm.nn_upsample3d(v, (np.int8(2), 1, 1)).shape == (8, 4, 2, 1)


class TestTrilinear:
    def test_grid_corner_identity(self):
        rng = np.random.default_rng(4)
        vol = Tensor(rng.standard_normal((3, 4, 2, 5)))
        out = nm.trilinear_sample(vol, Tensor([2.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out.data, vol.data[2, 1, 0])

    def test_constant_cell_center(self):
        vol = Tensor(np.full((2, 2, 2, 1), 7.5))
        out = nm.trilinear_sample(vol, Tensor([0.5, 0.5, 0.5]))
        assert out.data.ravel()[0] == pytest.approx(7.5, abs=1e-15)

    def test_center_corner_gradients(self):
        vol = Tensor(np.random.default_rng(5).standard_normal((2, 2, 2, 1)),
                     requires_grad=True)
        with Tape() as tape:
            loss = nm.tsum(nm.trilinear_sample(vol, Tensor([0.5, 0.5, 0.5])))
        backward(tape, loss)
        np.testing.assert_allclose(vol.grad.ravel(), 0.125, rtol=0, atol=1e-15)

    def test_outside_returns_zero(self):
        vol = Tensor(np.ones((3, 3, 3, 2)))
        out = nm.trilinear_sample(vol, Tensor([[-1.5, 1.0, 1.0], [1.0, 5.0, 1.0]]))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_linear_along_axis(self):
        vol = np.zeros((3, 2, 2, 1))
        vol[1] = 1.0
        ts = np.linspace(0.0, 1.0, 11)
        pts = np.column_stack([ts, np.full_like(ts, 0.5), np.full_like(ts, 0.5)])
        out = nm.trilinear_sample(Tensor(vol), Tensor(pts))
        np.testing.assert_allclose(out.data.ravel(), ts, rtol=0, atol=1e-15)


def _values_and_grads(op, inputs, probe):
    """``op(*inputs)`` and the gradient of ``sum(op(*inputs) * probe)`` for each input."""
    leaves = [Tensor(x, requires_grad=True) for x in inputs]
    with Tape() as tape:
        out = op(*leaves)
        loss = nm.tsum(nm.mul(out, Tensor(probe)))
    backward(tape, loss)
    return [out.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("seed", range(12))
def test_trilinear_matches_masked_copy_oracle(seed):
    rng = np.random.default_rng([seed, 41])
    counts = tuple(int(v) for v in rng.integers(1, 6, size=3))
    vol = rng.standard_normal(counts + (int(rng.integers(1, 7)),))
    n = 40
    # inside, within one cell outside, beyond it, and exactly on cell faces
    pts = rng.uniform(-1.6, 0.6, size=(n, 3)) + rng.uniform(0, counts, size=(n, 3))
    pts[:8] = rng.integers(-1, np.array(counts) + 1, size=(8, 3))
    probe = rng.standard_normal((n, vol.shape[-1]))
    got = _values_and_grads(nm.trilinear_sample, (vol, pts), probe)
    want = _values_and_grads(trilinear_sample_oracle, (vol, pts), probe)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("shape", [(3,), (7, 3), (2, 4, 3), (2, 2, 3, 3)])
def test_unweighted_trilinear_is_the_masked_copy_oracle(shape):
    rng = np.random.default_rng(len(shape))
    vol = rng.standard_normal((3, 4, 2, 5))
    pts = rng.uniform(-1.5, 4.5, size=shape)
    probe = rng.standard_normal(shape[:-1] + (5,))

    def flat_oracle(v, p):
        return nm.reshape(trilinear_sample_oracle(v, nm.reshape(p, (-1, 3))), probe.shape)

    got = _values_and_grads(lambda v, p: nm.trilinear_sample(v, p, weights=None),
                            (vol, pts), probe)
    want = _values_and_grads(flat_oracle, (vol, pts), probe)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    with Tape() as tape:
        nm.trilinear_sample(Tensor(vol, requires_grad=True), Tensor(pts))
    assert len(tape._nodes) == 1


def _weighted_sample_inputs(heads, k, placement, seed):
    """(volume, (R, K, 3) points, (R, K) weights) for R = 5 queries times ``heads``."""
    rng = np.random.default_rng([heads, k, seed])
    counts = np.array([4, 3, 5])
    vol = rng.standard_normal(tuple(counts) + (6,))
    rows = 5 * heads
    pts = rng.uniform(0.0, counts - 1.0, size=(rows, k, 3))
    if placement == "faces":  # one coordinate of each point on a face of the grid
        axis = rng.integers(0, 3, size=(rows, k))
        face = rng.integers(0, 2, size=(rows, k)) * (counts[axis] - 1.0)
        np.put_along_axis(pts, axis[..., None], face[..., None], axis=2)
    elif placement == "outside":  # half the points more than one cell outside
        beyond = rng.uniform(1.1, 2.5, size=(rows, k, 3))
        side = rng.integers(0, 2, size=(rows, k, 3)).astype(bool)
        far = np.where(side, counts - 1.0 + beyond, -beyond)
        pts = np.where(rng.uniform(size=(rows, k, 1)) < 0.5, far, pts)
    weights = rng.uniform(-0.5, 1.5, size=(rows, k))
    return vol, pts, weights, rng.standard_normal((rows, 7))  # 6 channels and the mass


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("placement", ["inside", "faces", "outside"])
def test_weighted_trilinear_matches_sample_mul_sum_oracle(heads, k, placement):
    vol, pts, weights, probe = _weighted_sample_inputs(heads, k, placement, seed=0)
    got = _values_and_grads(nm.trilinear_sample, (vol, pts, weights), probe)
    want = _values_and_grads(weighted_trilinear_sample_oracle, (vol, pts, weights), probe)
    assert got[0].shape == (5 * heads, 7)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    if placement == "outside":
        assert np.any(got[2] != 0.0) and np.any(got[3] == 0.0)


def test_weighted_trilinear_rejects_mismatched_weights():
    vol = Tensor(np.zeros((2, 2, 2, 1)))
    with pytest.raises(ValueError, match="weighted points"):
        nm.trilinear_sample(vol, Tensor(np.zeros((3, 2, 3))), Tensor(np.ones((3, 4))))
    with pytest.raises(ValueError, match="weighted points"):
        nm.trilinear_sample(vol, Tensor(np.zeros((6, 3))), Tensor(np.ones((6,))))
    with pytest.raises(ValueError, match="weighted points"):
        nm.trilinear_sample(vol, Tensor(np.zeros((3, 0, 3))), Tensor(np.ones((3, 0))))


def _row_table_inputs(weighted, seed):
    """A (U + 1, C) table, its (X, Y, Z) lookup, the U cells holding their own
    rows (in shuffled order) and (R, K, 3) points with their (R, K) weights."""
    rng = np.random.default_rng([seed, 61])
    counts, c, n_seen = np.array([4, 3, 5]), 6, 23
    seen = np.sort(rng.choice(60, size=n_seen, replace=False))
    lookup = np.full(60, n_seen, dtype=np.int32)  # every other cell reads the last row
    lookup[seen] = rng.permutation(n_seen)
    rows, k = 12, 4
    pts = rng.uniform(0.0, counts - 1.0, size=(rows, k, 3))
    face = rng.integers(0, 3, size=(4, k))  # one coordinate on a face of the grid
    np.put_along_axis(pts[:4], face[..., None],
                      (rng.integers(0, 2, size=(4, k)) * (counts[face] - 1.0))[..., None], axis=2)
    pts[4:6] = rng.uniform(-1.0, 0.0, size=(2, k, 3))  # within one cell outside
    beyond = rng.uniform(1.1, 2.5, size=(4, k, 3))  # beyond one cell outside
    pts[6:10] = np.where(rng.uniform(size=(4, k, 3)) < 0.5, -beyond, counts - 1.0 + beyond)
    weights = rng.uniform(-0.5, 1.5, size=(rows, k)) if weighted else None
    probe = rng.standard_normal((rows, c + 1) if weighted else (rows, k, c))
    return (rng.standard_normal((n_seen + 1, c)), lookup.reshape(tuple(counts)), seen,
            pts, weights, probe)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_row_table_trilinear_is_sampling_the_placed_grid(weighted, seed):
    # the oracle samples the grid the table places: cell i holds row lookup[i]
    table, lookup, seen, pts, weights, probe = _row_table_inputs(weighted, seed)
    rest = (pts,) if weights is None else (pts, weights)
    got = _values_and_grads(lambda v, *a: nm.trilinear_sample(v, *a, lookup=lookup),
                            (table, *rest), probe)
    want = _values_and_grads(nm.trilinear_sample, (table[lookup], *rest), probe)
    # forward, point and weight gradients
    for g, w in zip(got[:1] + got[2:], want[:1] + want[2:]):
        assert np.array_equal(g, w)
    table_grad, grid_grad = got[1], want[1].reshape(-1, table.shape[1])
    assert np.array_equal(table_grad[lookup.reshape(-1)[seen]], grid_grad[seen])
    # the fill row sums the unseen cells' products in S^T's entry order, not
    # cell by cell: the same terms, so only rounding may differ
    unseen = np.setdiff1d(np.arange(lookup.size), seen)
    fill = grid_grad[unseen].sum(axis=0)
    assert np.abs(fill).max() > 0
    np.testing.assert_allclose(table_grad[-1], fill, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lookup, match", [
    (np.zeros((2, 2, 2)), "integer"),  # float
    (np.zeros((2, 4), dtype=np.int32), "integer"),  # not (X, Y, Z)
    (np.full((2, 2, 2), 3, dtype=np.int32), r"lie in \[0, 3\)"),
    (np.full((2, 2, 2), -1, dtype=np.int64), r"lie in \[0, 3\)"),
])
def test_row_table_trilinear_rejects_malformed_lookup(lookup, match):
    with pytest.raises(ValueError, match=match):
        nm.trilinear_sample(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 3))), lookup=lookup)
    with pytest.raises(ValueError, match="integer"):  # a grid volume with a lookup
        nm.trilinear_sample(Tensor(np.zeros((2, 2, 2, 2))), Tensor(np.zeros((4, 3))),
                            lookup=np.zeros((2, 2, 2), dtype=np.int32))


def _attention_inputs(n, seed, hot_rows=(), heads=2):
    """(H, n, dh) q, k, v; ``hot_rows`` of q give logits around 700 against every key."""
    rng = np.random.default_rng([n, seed])
    q, k, v = (rng.standard_normal((heads, n, 4)) for _ in range(3))
    k[..., 0] = 1.0 + 0.01 * rng.standard_normal((heads, n))
    for row in hot_rows:
        q[:, row, 0] = 1400.0  # times scale 0.5 times k[..., 0] near 1
    return q, k, v, rng.standard_normal((heads, n, 4))


@pytest.mark.parametrize("n, heads", [
    pytest.param(1, 2, id="1"), pytest.param(7, 2, id="7"), pytest.param(300, 2, id="300"),
    pytest.param(40, 8, id="40-heads8"),
])
def test_attention_matches_five_node_oracle(n, heads):
    q, k, v, probe = _attention_inputs(n, seed=1, hot_rows=range(0, n, 3), heads=heads)
    got = _values_and_grads(lambda *a: nm.attention(*a, 0.5), (q, k, v), probe)
    want = _values_and_grads(lambda *a: attention_oracle(*a, 0.5), (q, k, v), probe)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_attention_hot_rows_need_the_max_shift():
    q, k, v, _ = _attention_inputs(7, seed=2, hot_rows=(0, 4))
    logits = 0.5 * q @ k.transpose(0, 2, 1)
    assert logits[:, [0, 4]].min() > 690.0
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.exp(logits)).all()
    out = nm.attention(Tensor(q), Tensor(k), Tensor(v), 0.5)
    assert np.isfinite(out.data).all()


def test_attention_is_one_node_keeping_no_score_matrix():
    q, k, v, _ = _attention_inputs(7, seed=3)
    leaves = [Tensor(x, requires_grad=True) for x in (q, k, v)]
    with Tape() as tape:
        out = nm.attention(*leaves, 0.5)
    assert len(tape._nodes) == 1 and out.shape == (2, 7, 4)
    kept = [a.shape for a in closure_arrays(out._backward)]
    assert kept and not [shape for shape in kept if shape[-2:] == (7, 7)]


def test_attention_peak_memory_is_one_head_of_scores():
    # H = 8 score matrices of 300 x 300 float64 would take H * n^2 * 8 bytes;
    # forward and backward each stay under half of that
    heads, n, dh = 8, 300, 32
    rng = np.random.default_rng(4)
    leaves = [Tensor(rng.standard_normal((heads, n, dh)), requires_grad=True)
              for _ in range(3)]
    g = rng.standard_normal((heads, n, dh))
    budget = heads * n * n * 8 // 2
    tracemalloc.start()
    try:
        with Tape():
            out = nm.attention(*leaves, 0.5)
        _, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        out._backward(g)
        _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward_peak < budget
    # the gradients handed to q, k and v are the backward's output, not its workspace
    grads = sum(leaf.grad.nbytes for leaf in leaves)
    assert backward_peak - start - grads < budget


def test_attention_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="attention expects"):
        nm.attention(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 4))),
                     Tensor(np.zeros((2, 5, 4))), 1.0)


def test_interpolation_matrix_keeps_entry_order():
    # row 0 sums to 1.0 and row 1 to 0.0 only when each row's entries are
    # added in the given order; duplicate columns must stay separate entries
    cells = np.array([[1, 2], [0, 2], [0, 0]])  # (corner, point)
    weights = np.array([[1e16, 1e16], [-1e16, 1.0], [1.0, -1e16]])
    s = nm.interpolation_matrix(cells, weights, 3)
    assert s.shape == (2, 3) and s.nnz == 6
    assert np.array_equal(s @ np.ones(3), [1.0, 0.0])
    # the transpose adds each cell's entries in (corner, point) order; the
    # cells appear out of order and cell 0 holds point 1 twice
    cells = np.array([[2, 1], [1, 0], [1, 0]])
    weights = np.array([[5.0, 1e16], [-1e16, 2.0], [1.0, 3.0]])
    s_t = nm.interpolation_matrix(cells, weights, 3, transpose=True)
    assert s_t.shape == (3, 2) and s_t.nnz == 6
    assert np.array_equal(s_t @ np.ones(2), [5.0, 1.0, 5.0])
    assert np.array_equal(s_t @ np.ones((2, 2)), [[5.0, 5.0], [1.0, 1.0], [5.0, 5.0]])


class TestAffine:
    def test_identity(self):
        x = Tensor(np.random.default_rng(6).standard_normal((3, 4)))
        out = nm.affine(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_spec_example(self):
        out = nm.affine(Tensor([1.0, 2.0]), Tensor(np.eye(2)), Tensor([3.0, 3.0]))
        np.testing.assert_array_equal(out.data, [4.0, 5.0])

    def test_zero_input_gives_bias(self):
        out = nm.affine(Tensor(np.zeros((2, 3))),
                        Tensor(np.random.default_rng(7).standard_normal((3, 2))),
                        Tensor([1.0, -1.0]))
        np.testing.assert_array_equal(out.data, [[1.0, -1.0], [1.0, -1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nm.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    @pytest.mark.parametrize("x_shape", [(5, 4), (4,)])
    def test_one_node_equals_matmul_then_add(self, x_shape):
        rng = np.random.default_rng(8)
        inputs = (rng.standard_normal(x_shape), rng.standard_normal((4, 3)),
                  rng.standard_normal(3))
        probe = rng.standard_normal(x_shape[:-1] + (3,))

        def matmul_add(x, w, b):
            flat = nm.reshape(x, (-1, 4))
            return nm.reshape(nm.add(nm.matmul(flat, w), b), x_shape[:-1] + (3,))

        got = _values_and_grads(nm.affine, inputs, probe)
        want = _values_and_grads(matmul_add, inputs, probe)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        with Tape() as tape:
            nm.affine(*(Tensor(v, requires_grad=True) for v in inputs))
        assert len(tape._nodes) == 1


class TestPlaceRows:
    SHAPE = (3, 2, 2, 4)  # 12 rows of 4 channels

    def _inputs(self, index, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((len(index), 4)), rng.standard_normal(4)

    def test_forward(self):
        index = np.array([0, 5, 6, 11])
        rows, fill = self._inputs(index)
        out = nm.place_rows(Tensor(rows), index, Tensor(fill), self.SHAPE)
        assert out.shape == self.SHAPE
        flat = out.data.reshape(12, 4)
        assert np.array_equal(flat[index], rows)
        assert np.array_equal(flat[np.setdiff1d(np.arange(12), index)], np.tile(fill, (8, 1)))

    @pytest.mark.parametrize("index", [[2, 7, 8], [9, 1, 4]])
    def test_gradients_match_central_differences(self, index):
        rows, fill = self._inputs(index, seed=1)
        probe = Tensor(np.random.default_rng(2).standard_normal(self.SHAPE))

        def readout(r, f):
            return nm.tsum(nm.mul(nm.square(nm.place_rows(r, index, f, self.SHAPE)), probe))

        assert grad_check(lambda r: readout(r, Tensor(fill)), rows) < 1e-6
        assert grad_check(lambda f: readout(Tensor(rows), f), fill) < 1e-6

    def test_gradient_routes_rows_and_the_rest(self):
        index = np.array([1, 3, 10])
        rows, fill = self._inputs(index, seed=3)
        probe = np.random.default_rng(4).standard_normal(self.SHAPE)
        _, g_rows, g_fill = _values_and_grads(
            lambda r, f: nm.place_rows(r, index, f, self.SHAPE), (rows, fill), probe)
        flat = probe.reshape(12, 4)
        assert np.array_equal(g_rows, flat[index])
        np.testing.assert_allclose(g_fill, np.delete(flat, index, axis=0).sum(axis=0),
                                   rtol=0, atol=1e-14)

    def test_empty_index_is_all_fill(self):
        rows, fill = self._inputs([])
        probe = np.random.default_rng(5).standard_normal(self.SHAPE)
        out, g_rows, g_fill = _values_and_grads(
            lambda r, f: nm.place_rows(r, np.arange(0), f, self.SHAPE), (rows, fill), probe)
        assert np.array_equal(out, np.broadcast_to(fill, self.SHAPE))
        assert g_rows.shape == (0, 4)
        np.testing.assert_allclose(g_fill, probe.reshape(12, 4).sum(axis=0), rtol=0, atol=1e-14)

    def test_index_covering_every_row_is_the_rows(self):
        index = np.arange(12)
        rows, fill = self._inputs(index)
        probe = np.random.default_rng(6).standard_normal(self.SHAPE)
        out, g_rows, g_fill = _values_and_grads(
            lambda r, f: nm.place_rows(r, index, f, self.SHAPE), (rows, fill), probe)
        assert np.array_equal(out, rows.reshape(self.SHAPE))
        assert np.array_equal(g_rows, probe.reshape(12, 4))
        assert np.array_equal(g_fill, np.zeros(4))

    @pytest.mark.parametrize("index, match", [
        (np.array([[1, 2]]), "1-D integer"), (np.array([1.0, 2.0]), "1-D integer"),
        (np.array([3, 3]), "distinct"), (np.array([-1, 2]), r"\[0, 12\)"),
        (np.array([2, 12]), r"\[0, 12\)"),
    ])
    def test_malformed_index_rejected(self, index, match):
        rows = Tensor(np.zeros((index.shape[-1], 4)))
        with pytest.raises(ValueError, match=match):
            nm.place_rows(rows, index, Tensor(np.zeros(4)), self.SHAPE)


class TestBackward:
    def test_sum_gradient_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = nm.tsum(x)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_softmax_sum_gradient_zero(self):
        x = Tensor(np.random.default_rng(8).standard_normal(5), requires_grad=True)
        with Tape() as tape:
            loss = nm.tsum(nm.softmax(x, axis=0))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, 0.0, rtol=0, atol=1e-15)

    def test_fanout_accumulates(self):
        x = Tensor([1.3, -0.4], requires_grad=True)

        def f(v):
            return nm.tsum(nm.square(v))

        with Tape() as tape:
            loss = nm.add(f(x), f(x))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, 4.0 * x.data, rtol=0, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = nm.square(x)
        with pytest.raises(ValueError):
            backward(tape, y)

    def test_tape_single_use(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            y = nm.tsum(nm.square(x))
        backward(tape, y)
        with pytest.raises(RuntimeError):
            backward(tape, y)

    def test_parameter_gradient_lifecycle(self):
        p = Parameter("w", np.ones(3))
        np.testing.assert_array_equal(p.grad, 0.0)
        with Tape() as tape:
            loss = nm.tsum(nm.mul(p, Tensor([1.0, 2.0, 3.0])))
        backward(tape, loss)
        np.testing.assert_array_equal(p.grad, [1.0, 2.0, 3.0])
        p.reset_gradient()
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_replay_releases_recorded_nodes_and_keeps_leaf_gradients(self):
        x = Tensor([1.5, -2.0, 0.5], requires_grad=True)
        p = Parameter("w", [0.5, 1.0, -1.0])
        with Tape() as tape:
            loss = nm.tsum(nm.square(nm.mul(x, p)))
        recorded = list(tape._nodes)
        backward(tape, loss)
        assert len(recorded) == 3 and tape._nodes == []
        assert all(node.grad is None and node._backward is None for node in recorded)
        np.testing.assert_array_equal(x.grad, 2.0 * x.data * p.data ** 2)
        np.testing.assert_array_equal(p.grad, 2.0 * p.data * x.data ** 2)
        with pytest.raises(RuntimeError, match="single-use"):
            backward(tape, loss)

    def test_kept_loss_holds_no_graph_after_backward(self):
        # a training loop keeps the last step's loss while it records the next step
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((12, 12, 12, 4)))
        kernels = [Parameter(f"k{i}", 0.1 * rng.standard_normal((3, 3, 3, 4, 4)))
                   for i in range(2)]
        biases = [Parameter(f"b{i}", np.zeros(4)) for i in range(2)]

        def step():
            with Tape() as tape:
                h = x
                for k, b in zip(kernels, biases):
                    h = nm.relu(nm.conv(h, k, b, padding=1))
                loss = nm.tsum(nm.square(h))
            graph_bytes = sum(node.data.nbytes for node in tape._nodes)
            backward(tape, loss)
            return loss, graph_bytes

        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            first, graph_bytes = step()
            held, first_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            second, _ = step()
            _, second_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.item() > 0.0 and second.item() > 0.0
        assert held - start < graph_bytes
        # the second step's peak does not stack on the first step's graph
        assert second_peak - first_peak < graph_bytes

    def test_nonparticipating_parameter_stays_zero(self):
        p = Parameter("unused", np.ones(2))
        q = Parameter("used", np.ones(2))
        with Tape() as tape:
            loss = nm.tsum(nm.square(q))
        backward(tape, loss)
        np.testing.assert_array_equal(p.grad, 0.0)
        np.testing.assert_array_equal(q.grad, 2.0)


class TestGradCheck:
    def test_quadratic(self):
        err = grad_check(lambda x: nm.tsum(nm.square(x)), Tensor([3.0]), eps=1e-5)
        assert err < 1e-9

    def test_constant(self):
        err = grad_check(lambda x: nm.tsum(nm.mul(x, Tensor(np.zeros(3)))),
                         Tensor([1.0, 2.0, 3.0]))
        assert err == 0.0

    def test_softmax_cross_entropy(self):
        target = Tensor(np.array([0.0, 0.0, 1.0, 0.0]))

        def f(x):
            return nm.neg(nm.tsum(nm.mul(target, nm.log(nm.softmax(x, axis=0)))))

        err = grad_check(f, Tensor([0.2, -1.0, 0.5, 2.0]), eps=1e-5)
        assert err < 1e-6


class TestFiniteness:
    def test_nan_input_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([1.0, np.nan])

    def test_log_domain(self):
        with pytest.raises(ValueError):
            nm.log(Tensor([1.0, -1.0]))

    def test_overflow_detected(self):
        with pytest.raises(NumericsError):
            nm.exp(Tensor([1000.0]))


class TestFiniteSumCheck:
    def test_overflowing_sum_accepted_without_warning(self, recwarn):
        Tensor([1e308, 1e308])
        assert not recwarn.list

    @pytest.mark.parametrize("values", [[np.inf, -np.inf], [1.0, np.nan]])
    def test_non_finite_rejected(self, values):
        with pytest.raises(NumericsError):
            Tensor(values)

    # 65,535 elements are checked one by one, 65,537 are summed first
    @pytest.mark.parametrize("size", [65_535, 65_537])
    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [np.nan, np.inf]])
    def test_non_finite_rejected_either_side_of_split(self, size, bad):
        values = np.zeros(size)
        values[size // 2:size // 2 + len(bad)] = bad
        with pytest.raises(NumericsError):
            Tensor(values)

    @pytest.mark.parametrize("size", [65_535, 65_537])
    def test_overflowing_sum_accepted_either_side_of_split(self, size, recwarn):
        values = np.zeros(size)
        values[[0, -1]] = 1e308
        Tensor(values)
        assert not recwarn.list
