"""Differentiable primitives: elementwise math, reductions, linear algebra,
softmax and attention, convolution, trilinear sampling, and normalization.

Every operation runs in float64.  Convolution is cross-correlation with zero
padding (no kernel flip).  Trilinear sampling uses a zero-padding border:
corner cells outside the volume contribute nothing, so values fade linearly
to zero within one cell of the boundary and vanish beyond it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from .autograd import Tensor, accumulate_grad, as_tensor, record_op

__all__ = [
    "add", "sub", "mul", "neg", "scale", "exp", "log", "relu", "sigmoid",
    "softplus", "absolute", "square", "matmul", "reshape", "transpose",
    "concat", "getitem", "place_rows", "tsum", "tmean", "softmax", "attention", "affine", "conv",
    "interpolation_matrix", "trilinear_sample", "layer_norm", "nn_upsample3d",
    "inverse_sigmoid",
]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        accumulate_grad(a, _unbroadcast(g, a.shape))
        accumulate_grad(b, _unbroadcast(g, b.shape))

    return record_op(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        accumulate_grad(a, _unbroadcast(g, a.shape))
        accumulate_grad(b, _unbroadcast(-g, b.shape))

    return record_op(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        accumulate_grad(a, _unbroadcast(g * b.data, a.shape))
        accumulate_grad(b, _unbroadcast(g * a.data, b.shape))

    return record_op(a.data * b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        accumulate_grad(a, -g)

    return record_op(-a.data, (a,), backward)


def scale(a, factor: float) -> Tensor:
    """Multiply by a python scalar constant."""
    a = as_tensor(a)
    factor = float(factor)

    def backward(g):
        accumulate_grad(a, g * factor)

    return record_op(a.data * factor, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):  # overflow surfaces as NumericsError below
        out_data = np.exp(a.data)

    def backward(g):
        accumulate_grad(a, g * out_data)

    return record_op(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise ValueError("log requires strictly positive inputs")

    def backward(g):
        accumulate_grad(a, g / a.data)

    return record_op(np.log(a.data), (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        accumulate_grad(a, g * mask)

    return record_op(np.where(mask, a.data, 0.0), (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = _sigmoid(a.data)

    def backward(g):
        accumulate_grad(a, g * out_data * (1.0 - out_data))

    return record_op(out_data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a) -> Tensor:
    """log(1 + e^x), computed stably; gradient is sigmoid(x)."""
    a = as_tensor(a)

    def backward(g):
        accumulate_grad(a, g * _sigmoid(a.data))

    return record_op(np.logaddexp(0.0, a.data), (a,), backward)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    sign = np.sign(a.data)

    def backward(g):
        accumulate_grad(a, g * sign)

    return record_op(np.abs(a.data), (a,), backward)


def square(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        accumulate_grad(a, 2.0 * g * a.data)

    return record_op(a.data * a.data, (a,), backward)


def inverse_sigmoid(a, eps: float = 1e-7) -> Tensor:
    """logit with inputs clamped to [eps, 1-eps]; gradient zero where clamped."""
    a = as_tensor(a)
    clamped = np.clip(a.data, eps, 1.0 - eps)
    inside = (a.data >= eps) & (a.data <= 1.0 - eps)

    def backward(g):
        accumulate_grad(a, g * inside / (clamped * (1.0 - clamped)))

    return record_op(np.log(clamped / (1.0 - clamped)), (a,), backward)


# ---------------------------------------------------------------------------
# shape & indexing


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    in_shape = a.shape

    def backward(g):
        accumulate_grad(a, g.reshape(in_shape))

    return record_op(a.data.reshape(shape), (a,), backward, checked=True)


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        accumulate_grad(a, np.ascontiguousarray(g.transpose(inverse)))

    return record_op(np.ascontiguousarray(a.data.transpose(axes)), (a,), backward, checked=True)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat needs at least one input")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate_grad(p, g[tuple(idx)])

    return record_op(np.concatenate([p.data for p in parts], axis=axis), parts, backward,
                     checked=True)


def getitem(a, index) -> Tensor:
    """Basic and integer-array indexing; backward scatter-adds into the source."""
    a = as_tensor(a)
    in_shape = a.shape

    def backward(g):
        full = np.zeros(in_shape)
        np.add.at(full, index, g)
        accumulate_grad(a, full)

    return record_op(np.ascontiguousarray(a.data[index]), (a,), backward, checked=True)


def place_rows(rows, index, fill, shape) -> Tensor:
    """An array of ``shape`` whose flat rows ``index`` hold ``rows``, every other row ``fill``.

    ``shape`` ends in C and its flat rows are the (N, C) view, N the product
    of the leading axes; ``index`` holds distinct rows in [0, N), ``rows`` is
    (len(index), C) and ``fill`` (C,).  Backward sends ``g[index]`` to
    ``rows`` and the sum of every other row of ``g`` to ``fill``.
    """
    rows, fill = as_tensor(rows), as_tensor(fill)
    shape = tuple(shape)
    n, c = int(np.prod(shape[:-1])), shape[-1]
    index = np.asarray(index)
    if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"place_rows index must be a 1-D integer array, got {index.dtype} "
                         f"{index.shape}")
    if rows.shape != (index.size, c) or fill.shape != (c,):
        raise ValueError(f"place_rows needs ({index.size}, {c}) rows and ({c},) fill, "
                         f"got {rows.shape} and {fill.shape}")
    if index.size and (index.min() < 0 or index.max() >= n):
        raise ValueError(f"place_rows index must lie in [0, {n})")
    other = np.ones(n, dtype=bool)
    other[index] = False
    if np.count_nonzero(other) != n - index.size:
        raise ValueError("place_rows index must hold distinct rows")
    out = np.zeros((n, c))  # its pages stay unmapped until written
    if fill.data.view(np.int64).any():  # some bit set: not all +0.0
        out[...] = fill.data
    out[index] = rows.data

    def backward(g):
        g2 = g.reshape(n, c)
        if rows.requires_grad:
            accumulate_grad(rows, g2[index])
        if fill.requires_grad:
            accumulate_grad(fill, g2.sum(axis=0, where=other[:, None]))

    return record_op(out.reshape(shape), (rows, fill), backward, checked=True)


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accumulate_grad(a, np.broadcast_to(g, in_shape).copy())

    return record_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([in_shape[ax] for ax in axes]))

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accumulate_grad(a, np.broadcast_to(g, in_shape) / count)

    return record_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects operands with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    def backward(g):
        accumulate_grad(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        accumulate_grad(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return record_op(a.data @ b.data, (a, b), backward)


def affine(x, w, b) -> Tensor:
    """x @ w + b with the bias broadcast over leading axes; accepts 1-D x.

    One tape node: the bias is added in place into the product.
    """
    x = as_tensor(x)
    w, b = as_tensor(w), as_tensor(b)
    if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
        raise ValueError(f"affine weight/bias shapes inconsistent: {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"affine inner dims differ: {x.shape} vs {w.shape}")
    x2 = x.data.reshape(-1, w.shape[0])
    out_data = x2 @ w.data
    out_data += b.data

    def backward(g):
        g2 = g.reshape(-1, w.shape[1])
        if x.requires_grad:
            accumulate_grad(x, (g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            accumulate_grad(w, x2.T @ g2)
        if b.requires_grad:
            accumulate_grad(b, g2.sum(axis=0))

    return record_op(out_data.reshape(x.shape[:-1] + (w.shape[1],)), (x, w, b), backward)


# ---------------------------------------------------------------------------
# softmax and attention


def softmax(logits, axis: int) -> Tensor:
    """Max-shifted softmax; slices along ``axis`` sum to one."""
    logits = as_tensor(logits)
    if not isinstance(axis, (int, np.integer)):
        raise ValueError("softmax axis must be an integer")
    if not -logits.ndim <= axis < logits.ndim:
        raise ValueError(f"softmax axis {axis} invalid for rank {logits.ndim}")
    out_data = logits.data - logits.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        accumulate_grad(logits, out_data * (g - inner))

    return record_op(out_data, (logits,), backward)


def attention(q, k, v, scale: float) -> Tensor:
    """Scaled dot-product attention ``softmax(q k^T * scale) v`` as one tape node.

    ``q``, ``k`` and ``v`` are (H, n, dh); so is the output.  The heads run one
    at a time through one (n, n) buffer: each gets the same ``matmul``,
    ``scale`` and max-shifted ``softmax`` arithmetic as the composite, and its
    slice of the output is the buffer times ``v[h]``.  Only each row's max and
    sum, (H, n, 1), are kept; backward recomputes one head's probabilities at
    a time from q and k.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ValueError(f"attention expects equal (H, n, dh) q, k, v, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    scale = float(scale)
    heads, n, _ = q.shape
    k_t = np.ascontiguousarray(k.data.transpose(0, 2, 1))
    row_max = np.empty((heads, n, 1))
    row_sum = np.empty((heads, n, 1))

    def probs(h, buf, fit=False):
        # head h's probabilities into buf; ``fit`` first sets its row max and sum
        np.matmul(q.data[h], k_t[h], out=buf)
        buf *= scale
        if fit:
            np.max(buf, axis=-1, keepdims=True, out=row_max[h])
        buf -= row_max[h]
        np.exp(buf, out=buf)
        if fit:
            np.sum(buf, axis=-1, keepdims=True, out=row_sum[h])
        buf /= row_sum[h]
        return buf

    buf = np.empty((n, n))
    out_data = np.empty(q.shape)
    for h in range(heads):
        np.matmul(probs(h, buf, fit=True), v.data[h], out=out_data[h])

    def backward(g):
        gq, gk, gv = (np.empty(q.shape) for _ in range(3))
        p, d_logits, prod = (np.empty((n, n)) for _ in range(3))
        for h in range(heads):
            probs(h, p)
            np.matmul(p.T, g[h], out=gv[h])
            np.matmul(g[h], v.data[h].T, out=d_logits)
            np.multiply(d_logits, p, out=prod)
            d_logits -= prod.sum(axis=-1, keepdims=True)
            d_logits *= p
            d_logits *= scale
            np.matmul(d_logits, k.data[h], out=gq[h])
            np.matmul(d_logits.T, q.data[h], out=gk[h])
        del p, d_logits, prod  # before the gradients are copied into q, k and v
        accumulate_grad(v, gv)
        accumulate_grad(q, gq)
        accumulate_grad(k, gk)

    return record_op(out_data, (q, k, v), backward)


# ---------------------------------------------------------------------------
# convolution

def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _triple(value, name: str) -> tuple[int, int, int]:
    """One int, or three, per spatial axis; anything else raises naming ``name``."""
    if _is_int(value):
        return (int(value),) * 3
    try:
        values = tuple(value)
    except TypeError:
        values = ()
    if len(values) != 3 or not all(map(_is_int, values)):
        raise ValueError(f"{name} must be an int or 3 ints, got {value!r}")
    return tuple(int(v) for v in values)


def _folds(padded, kernel_shape, stride, out_shape):
    """Yield ``(fold, reads)``: a (voxels, ky*kz*Cin) matrix and the taps that read it.

    Each ``(tx, rows)`` in ``reads`` says that output x rows ``rows`` (a
    slice) take ``fold @ w[tx]``.  Each padded x row r that an output reads
    is folded once: one copy lays the (ky, kz) window of every output (y, z)
    in row r side by side in one buffer, allocated per call, and every tap
    tx that reads the row follows, for output x = (r - tx)/sx in [0, ox).
    Rows come in ascending order, so each output row meets its taps in
    ascending tx, tx = 0 first.  Rows that no output reads are never copied.
    The workspace is one padded row's windows.
    """
    kx, ky, kz = kernel_shape
    sx, sy, sz = stride
    ox, oy, oz = out_shape
    windows = sliding_window_view(padded, (ky, kz), axis=(1, 2))[:, ::sy, ::sz][:, :oy, :oz]
    windows = windows.transpose(0, 1, 2, 4, 5, 3)  # (X, oy, oz, ky, kz, Cin)
    buf = np.empty(windows.shape[1:])
    fold = buf.reshape(oy * oz, -1)
    for r in range((ox - 1) * sx + kx):
        reads = [(tx, slice((r - tx) // sx, (r - tx) // sx + 1))
                 for tx in range(max(0, r - (ox - 1) * sx), min(kx, r + 1))
                 if (r - tx) % sx == 0]
        if reads:
            np.copyto(buf, windows[r])
            yield fold, reads


def _correlate(padded, weight, stride, out_shape) -> np.ndarray:
    """Unpadded strided cross-correlation of ``padded`` with (kx, ky, kz, Cin, Cout) ``weight``."""
    kx, cout = weight.shape[0], weight.shape[4]
    w = weight.reshape(kx, -1, cout)
    out = np.empty(tuple(out_shape) + (cout,))
    for fold, reads in _folds(padded, weight.shape[:3], stride, out_shape):
        for tx, rows in reads:
            dst = out[rows].reshape(-1, cout)
            if tx == 0:  # an output row's first tap starts its sum
                np.matmul(fold, w[0], out=dst)
            else:
                dst += fold @ w[tx]
    return out


def _dilate(g, in_shape, kernel_shape, stride, padding) -> np.ndarray:
    """Frame the output gradient so that dX is its stride-1 correlation with the flipped kernel.

    Per axis the frame has in + k - 1 entries; g[o] sits at o*s + k - 1 - p and
    zeros elsewhere, so outputs whose window reads only padding drop out.
    """
    shape = tuple(n + k - 1 for n, k in zip(in_shape, kernel_shape))
    lead = tuple(k - 1 - p for k, p in zip(kernel_shape, padding))
    frame = np.zeros(shape + g.shape[3:])
    src, dst = [], []
    for n, m, s, offset in zip(shape, g.shape, stride, lead):
        lo = max(0, -(offset // s))  # the outputs o in [lo, hi) land in the frame
        hi = max(lo, min(m, (n - 1 - offset) // s + 1))
        src.append(slice(lo, hi))
        start = lo * s + offset
        dst.append(slice(start, start + (hi - lo) * s, s))
    frame[tuple(dst)] = g[tuple(src)]
    return frame


def conv(volume, kernel, bias, stride=1, padding=0) -> Tensor:
    """3-D cross-correlation over an (X, Y, Z, Cin) volume.

    ``kernel`` is (kx, ky, kz, Cin, Cout), ``bias`` is (Cout,).  Zero padding;
    output extent per axis is floor((in + 2*pad - k)/stride) + 1.  The 2-D
    case is the same call with a unit depth extent.

    One correlation routine serves all three passes.  It folds each padded x
    row that an output reads once, laying the (ky, kz) windows of every
    output (y, z) side by side in one buffer (see ``_folds``), and runs
    every x tap that reads the row as one matmul with K = ky*kz*Cin.  dW is
    ``fold.T @ g`` over the same folds.  dX is the same correlation run on
    the stride-dilated output gradient, framed to the unpadded input, with
    the flipped, channel-swapped kernel.  A pointwise (1x1x1) map is cheaper
    as :func:`affine` on the (voxels, Cin) rows.
    """
    volume, kernel, bias = as_tensor(volume), as_tensor(kernel), as_tensor(bias)
    if volume.ndim != 4:
        raise ValueError(f"conv volume must be (X, Y, Z, C), got {volume.shape}")
    if kernel.ndim != 5:
        raise ValueError(f"conv kernel must be (kx, ky, kz, Cin, Cout), got {kernel.shape}")
    kx, ky, kz, cin, cout = kernel.shape
    if volume.shape[3] != cin:
        raise ValueError(f"channel mismatch: volume has {volume.shape[3]}, kernel expects {cin}")
    if bias.shape != (cout,):
        raise ValueError(f"bias must be ({cout},), got {bias.shape}")
    strides = _triple(stride, "stride")
    pads = _triple(padding, "padding")
    if min(strides) < 1:
        raise ValueError("stride must be >= 1")
    if min(pads) < 0:
        raise ValueError("padding must be >= 0")
    in_shape, ksize = volume.shape[:3], (kx, ky, kz)
    out_shape = tuple((n + 2 * p - k) // s + 1
                      for n, p, k, s in zip(in_shape, pads, ksize, strides))
    if min(out_shape) < 1:
        raise ValueError("conv output would be empty")

    padded = volume.data
    if any(pads):
        padded = np.pad(padded, [(p, p) for p in pads] + [(0, 0)])
    out_data = _correlate(padded, kernel.data, strides, out_shape)
    out_data += bias.data

    def backward(g):
        if kernel.requires_grad:
            dw = np.zeros((kx, ky * kz * cin, cout))
            for fold, reads in _folds(padded, ksize, strides, out_shape):
                for tx, rows in reads:
                    dw[tx] += fold.T @ g[rows].reshape(-1, cout)
            accumulate_grad(kernel, dw.reshape(kernel.shape))
        if bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=(0, 1, 2)))
        if volume.requires_grad:
            flipped = kernel.data[::-1, ::-1, ::-1].swapaxes(3, 4)
            frame = _dilate(g, in_shape, ksize, strides, pads)
            dx = _correlate(frame, flipped, (1, 1, 1), in_shape)
            del frame  # before accumulate_grad copies dx
            accumulate_grad(volume, dx)

    return record_op(out_data, (volume, kernel, bias), backward)


# ---------------------------------------------------------------------------
# interpolation


def interpolation_matrix(cells, weights, n_cells: int, transpose: bool = False):
    """Sparse interpolation matrix from per-corner ``(cell index, weight)`` arrays.

    ``cells`` and ``weights`` are (K, P): corner k of point p reads cell
    ``cells[k, p]`` with weight ``weights[k, p]``.  Returns the (P, n_cells)
    CSR matrix S, so that ``S @ values`` interpolates an (n_cells, C) array,
    or with ``transpose`` the (n_cells, P) matrix S^T that scatters a (P, C)
    gradient back onto the cells.

    No entry is merged or reordered beyond what the layout needs, and a
    sparse product adds a row's entries in stored order: each row of S keeps
    its point's corners in corner order, and each row of S^T keeps its cell's
    entries in (corner, point) order.  The sums therefore run in the order of
    a corner-by-corner gather or scatter-add.
    """
    weights = np.asarray(weights)
    k, p = weights.shape
    # 32-bit indices when they fit, so scipy neither scans nor converts them
    index = np.int32 if max(n_cells, k * p) < 2**31 else np.int64
    cells = np.asarray(cells, dtype=index)
    if not transpose:
        return sparse.csr_matrix((weights.T.ravel(), cells.T.ravel(),
                                  np.arange(0, k * p + 1, k, dtype=index)),
                                 shape=(p, n_cells))
    order = np.argsort(cells.ravel(), kind="stable")
    # row c starts after the entries of every cell below c; a repeat over the
    # sorted cells costs far less than a cumulative sum over all n_cells rows
    indptr = np.repeat(np.arange(k * p + 1, dtype=index),
                       np.diff(cells.ravel()[order], prepend=-1, append=n_cells))
    points = np.tile(np.arange(p, dtype=index), k)
    return sparse.csr_matrix((weights.ravel()[order], points[order], indptr),
                             shape=(n_cells, p))


def trilinear_sample(volume, points, weights=None, lookup=None) -> Tensor:
    """Interpolate an (X, Y, Z, C) volume at continuous grid coordinates.

    ``points`` is (..., 3) or a single (3,) point in index space where cell
    centers sit at integer coordinates.  Corners falling outside the volume
    contribute zero, so a point beyond one cell outside returns exactly zero.
    Differentiable with respect to the volume, the points and the weights.

    With ``weights`` (R, K), ``points`` is (R, K, 3) and the output is the
    (R, C + 1) weighted sum over K, ``sum_k weights[r, k] * sample(points[r, k])``,
    with no per-point sample kept.  The last column samples a ones channel
    that is never built: the trilinear mass, the share inside the grid.

    The eight corners of every point become one ``interpolation_matrix`` S
    whose row r holds its K points' corners in (point, corner) order, each
    corner weight times the point's weight (an outside corner reads cell 0
    with weight 0): the output is ``S @ volume``, then ``S @ 1`` when
    weighted, and the volume gradient ``S^T @ g``.  The point and weight
    gradients gather each corner's values again instead of keeping them.

    With ``lookup``, an integer (X, Y, Z) array, ``volume`` is an (R, C) row
    table and cell i holds row ``lookup[i]``.  Each corner's cell is mapped
    through ``lookup`` before S is built, and every entry keeps its place and
    weight, so the output equals sampling the placed grid ``volume[lookup]``
    byte for byte.  The volume gradient is (R, C): a row that several cells
    share gets their gradients summed, in S^T's entry order.
    """
    volume = as_tensor(volume)
    points = as_tensor(points)
    if lookup is None:
        if volume.ndim != 4:
            raise ValueError(f"trilinear volume must be (X, Y, Z, C), got {volume.shape}")
        nx, ny, nz, c = volume.shape
    else:
        lookup = np.asarray(lookup)
        if volume.ndim != 2 or lookup.ndim != 3 or not np.issubdtype(lookup.dtype, np.integer):
            raise ValueError(f"a row-table volume must be (R, C) with an integer (X, Y, Z) "
                             f"lookup, got {volume.shape} and {lookup.dtype} {lookup.shape}")
        if lookup.min() < 0 or lookup.max() >= volume.shape[0]:
            raise ValueError(f"lookup rows must lie in [0, {volume.shape[0]})")
        (nx, ny, nz), c = lookup.shape, volume.shape[1]
        cell_rows = lookup.reshape(-1)
    if points.shape[-1] != 3:
        raise ValueError(f"points must have a trailing axis of 3, got {points.shape}")
    if weights is None:
        parents = (volume, points)
        out_shape = points.shape[:-1]
        k = 1
    else:
        weights = as_tensor(weights)
        if points.ndim != 3 or weights.shape != points.shape[:2] or points.shape[1] < 1:
            raise ValueError(f"weighted points must be (R, K, 3) with (R, K) weights and K >= 1, "
                             f"got {points.shape} and {weights.shape}")
        parents = (volume, points, weights)
        out_shape = points.shape[:1]
        k = points.shape[1]
    p = points.data.reshape(-1, 3)
    rows = p.shape[0] // k
    data_flat = volume.data.reshape(-1, c)

    base = np.floor(p).astype(np.int64)
    frac = np.ascontiguousarray((p - base).T)  # one row per axis
    corners = []
    for dx, dy, dz in np.ndindex(2, 2, 2):
        ix, iy, iz = base[:, 0] + dx, base[:, 1] + dy, base[:, 2] + dz
        inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny) & (iz >= 0) & (iz < nz)
        lin = np.where(inside, (ix * ny + iy) * nz + iz, 0)
        if lookup is not None:
            lin = cell_rows[lin]
        wx, wy, wz = (f if d else 1.0 - f for f, d in zip(frac, (dx, dy, dz)))
        signs = tuple(1.0 if d else -1.0 for d in (dx, dy, dz))
        corners.append((lin, inside, wx, wy, wz, signs))
    corner_weights = [(wx * wy * wz) * inside for _, inside, wx, wy, wz, _ in corners]
    scaled = (corner_weights if weights is None
              else [w * weights.data.reshape(-1) for w in corner_weights])

    def entries(per_corner):  # (8, rows*K) -> (K*8, rows): row r in (point, corner) order
        return np.asarray(per_corner).reshape(8, rows, k).transpose(2, 0, 1).reshape(8 * k, rows)

    cells, matrix_weights = entries([lin for lin, *_ in corners]), entries(scaled)
    out = interpolation_matrix(cells, matrix_weights, data_flat.shape[0]) @ data_flat
    if weights is not None:  # the ones channel: the row sums of S
        out = np.concatenate([out, matrix_weights.sum(axis=0)[:, None]], axis=1)

    def backward(g):
        g2, g_mass = g.reshape(rows, -1), 0.0
        if weights is not None:
            g2, g_mass = g2[:, :c], g2[:, c:]
        if volume.requires_grad:
            s_t = interpolation_matrix(cells, matrix_weights, data_flat.shape[0],
                                       transpose=True)
            accumulate_grad(volume, (s_t @ g2).reshape(volume.shape))
        if not any(t.requires_grad for t in parents[1:]):  # points, weights
            return
        dp = np.zeros_like(p)
        dw = np.zeros(p.shape[0])
        for (lin, inside, wx, wy, wz, (sx, sy, sz)), w in zip(corners, corner_weights):
            vals = np.take(data_flat, lin, axis=0).reshape(rows, k, c)
            vals *= g2[:, None, :]
            gv = np.where(inside, (vals.sum(axis=2) + g_mass).reshape(-1), 0.0)
            dw += gv * w
            dp[:, 0] += gv * sx * wy * wz
            dp[:, 1] += gv * wx * sy * wz
            dp[:, 2] += gv * wx * wy * sz
        if weights is not None:
            dp *= weights.data.reshape(-1, 1)
            accumulate_grad(weights, dw.reshape(weights.shape))
        accumulate_grad(points, dp.reshape(points.shape))

    return record_op(out.reshape(out_shape + (-1,)), parents, backward)


# ---------------------------------------------------------------------------
# normalization & upsampling


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError("layer_norm gamma/beta must match the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            accumulate_grad(gamma, (g * xhat).reshape(-1, n).sum(axis=0))
        if beta.requires_grad:
            accumulate_grad(beta, g.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            accumulate_grad(x, inv * (gx - m1 - xhat * m2))

    return record_op(out_data, (x, gamma, beta), backward)


def nn_upsample3d(x, factors) -> Tensor:
    """Nearest-neighbor repeat along the three leading spatial axes."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ValueError(f"nn_upsample3d expects (X, Y, Z, C), got {x.shape}")
    fx, fy, fz = _triple(factors, "factors")
    if min(fx, fy, fz) < 1:
        raise ValueError("upsample factors must be >= 1")
    out_data = np.repeat(np.repeat(np.repeat(x.data, fx, axis=0), fy, axis=1), fz, axis=2)
    nx, ny, nz, c = x.shape

    def backward(g):
        blocked = g.reshape(nx, fx, ny, fy, nz, fz, c)
        accumulate_grad(x, blocked.sum(axis=(1, 3, 5)))

    return record_op(out_data, (x,), backward)
