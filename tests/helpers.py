"""Shared oracles and fixtures for the unit and acceptance suites.

The references here are deliberately written as plain scalar/loop code,
independent of the vectorized implementations they check.
"""

import itertools
import math

import numpy as np

from voxdet import numerics as nm
from voxdet.cross_modality import FusionParams
from voxdet.geometry import CameraCalibration, VoxelGridSpec, project_points, voxel_centers
from voxdet.modality import (MultiScaleHeadParams, VoxelGrid, lift_image_to_voxels,
                              predict_depth_distribution, voxelize_points)
from voxdet.numerics import Parameter, Tensor
from voxdet.scene.types import Box3D, CameraView, PointCloud, Scene


def project(point_ego, calib: CameraCalibration):
    """Pinhole-project one ego-frame point; None when behind the near plane.

    Returns (u, v, d) with u = fx*X/Z + cx, v = fy*Y/Z + cy and d the
    camera-frame depth Z.
    """
    u, v, d, valid = project_points(np.asarray(point_ego, dtype=np.float64)[None, :], calib)
    if not valid[0]:
        return None
    return float(u[0]), float(v[0]), float(d[0])


def voxel_center(spec: VoxelGridSpec, index) -> tuple[float, float, float]:
    """Metric center of cell (i, j, k), in the midpoint-symmetric form of the grid."""
    idx = tuple(int(i) for i in index)
    for i, n in zip(idx, spec.counts):
        if not 0 <= i < n:
            raise ValueError(f"voxel index {idx} outside grid counts {spec.counts}")
    centers = []
    for (lo, hi), n, i in zip(spec.ranges, spec.counts, idx):
        cell = (hi - lo) / n
        mid = (lo + hi) / 2.0
        centers.append(float(mid + (2.0 * i + 1.0 - n) * (cell / 2.0)))
    return tuple(centers)


def point_to_voxel(spec: VoxelGridSpec, point):
    """Cell index containing a metric point, or None outside [min, max)."""
    p = np.asarray(point, dtype=np.float64)
    idx = []
    for v, (lo, hi), n in zip(p, spec.ranges, spec.counts):
        if not lo <= v < hi:
            return None
        cell = (hi - lo) / n
        i = int(np.floor((v - lo) / cell))
        idx.append(min(i, n - 1))  # guard the last cell against rounding at hi-eps
    return tuple(idx)


def lift_oracle(features, depth_dist, calib, spec, depth):
    """Independent per-voxel reference for the camera lift."""
    d_bins, h, w = depth_dist.shape
    c = features.shape[2]
    out = np.zeros(spec.counts + (c,))
    for i in range(spec.counts[0]):
        for j in range(spec.counts[1]):
            for k in range(spec.counts[2]):
                hit = project(voxel_center(spec, (i, j, k)), calib)
                if hit is None:
                    continue
                u, v, d = hit
                if not (0.0 <= u <= w - 1.0 and 0.0 <= v <= h - 1.0 and d < depth.depth_limit):
                    continue
                u0, v0 = int(math.floor(u)), int(math.floor(v))
                fu, fv = u - u0, v - v0
                td = d / depth.bin_width - 0.5
                b0 = int(math.floor(td))
                fb = td - b0
                b0c = min(max(b0, 0), d_bins - 1)
                b1c = min(max(b0 + 1, 0), d_bins - 1)
                occupancy = 0.0
                pixel = np.zeros(c)
                for dv in (0, 1):
                    for du in (0, 1):
                        uu, vv = u0 + du, v0 + dv
                        if not (0 <= uu < w and 0 <= vv < h):
                            continue
                        wgt = (fv if dv else 1.0 - fv) * (fu if du else 1.0 - fu)
                        occupancy += wgt * (
                            (1.0 - fb) * depth_dist[b0c, vv, uu]
                            + fb * depth_dist[b1c, vv, uu]
                        )
                        pixel += wgt * features[vv, uu]
                out[i, j, k] = occupancy * pixel
    return out


def lift_image_to_voxels_oracle(features: Tensor, depth_dist: Tensor, calib, spec,
                                depth) -> Tensor:
    """Camera lift with per-corner gathers forward and ``np.add.at`` scatters backward.

    Occupancy sums ``w*((1-fb)*d[b0] + fb*d[b1])`` corner by corner.
    """
    h, w, c = features.shape
    d_bins = depth.bins
    centers = voxel_centers(spec).reshape(-1, 3)
    u, v, d, valid = project_points(centers, calib)
    mask = valid & (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    mask &= d < depth.depth_limit

    idx = np.nonzero(mask)[0]
    um, vm, dm = u[idx], v[idx], d[idx]
    u0 = np.floor(um).astype(np.int64)
    v0 = np.floor(vm).astype(np.int64)
    fu, fv = um - u0, vm - v0
    corners = []
    for dv in (0, 1):
        wv = fv if dv else 1.0 - fv
        for du in (0, 1):
            wu = fu if du else 1.0 - fu
            uu, vv = u0 + du, v0 + dv
            inside = (uu >= 0) & (uu < w) & (vv >= 0) & (vv < h)
            corners.append(
                (np.clip(vv, 0, h - 1), np.clip(uu, 0, w - 1), wv * wu * inside)
            )

    td = dm / depth.bin_width - 0.5
    raw = np.floor(td).astype(np.int64)
    fb = td - raw
    b0 = np.clip(raw, 0, d_bins - 1)
    b1 = np.clip(raw + 1, 0, d_bins - 1)

    f_data = features.data
    d_data = depth_dist.data
    occupancy = np.zeros(idx.shape[0])
    pixel_feat = np.zeros((idx.shape[0], c))
    for rows, cols, wgt in corners:
        occupancy += wgt * ((1.0 - fb) * d_data[b0, rows, cols] + fb * d_data[b1, rows, cols])
        pixel_feat += wgt[:, None] * f_data[rows, cols]

    out = np.zeros((centers.shape[0], c))
    out[idx] = occupancy[:, None] * pixel_feat

    def backward(g):
        g_flat = g.reshape(-1, c)[idx]
        if features.requires_grad:
            df = np.zeros_like(f_data)
            scaled = occupancy[:, None] * g_flat
            for rows, cols, wgt in corners:
                np.add.at(df, (rows, cols), wgt[:, None] * scaled)
            nm.accumulate_grad(features, df)
        if depth_dist.requires_grad:
            dd = np.zeros_like(d_data)
            g_occ = (g_flat * pixel_feat).sum(axis=1)
            for rows, cols, wgt in corners:
                np.add.at(dd, (b0, rows, cols), wgt * (1.0 - fb) * g_occ)
                np.add.at(dd, (b1, rows, cols), wgt * fb * g_occ)
            nm.accumulate_grad(depth_dist, dd)

    result = nm.record_op(out, (features, depth_dist), backward)
    return nm.reshape(result, spec.counts + (c,))


def side_camera(fx=10.0, cx=7.5, cy=7.5, yaw=0.0, position=(0.0, 0.0, 0.0)):
    """Camera at ``position`` looking along +x rotated by yaw about +z."""
    k = np.array([[fx, 0.0, cx], [0.0, fx, cy], [0.0, 0.0, 1.0]])
    c, s = math.cos(yaw), math.sin(yaw)
    ext = np.eye(4)
    ext[:3, 0] = (-s, c, 0.0)
    ext[:3, 1] = (0.0, 0.0, -1.0)
    ext[:3, 2] = (c, s, 0.0)
    ext[:3, 3] = position
    return CameraCalibration(intrinsics=k, extrinsic=ext)


def central_camera(width=24, height=24, focal=12.0, yaw=0.0):
    k = np.array([[focal, 0.0, (width - 1) / 2.0],
                  [0.0, focal, (height - 1) / 2.0],
                  [0.0, 0.0, 1.0]])
    c, s = math.cos(yaw), math.sin(yaw)
    ext = np.eye(4)
    ext[:3, 0] = (-s, c, 0.0)
    ext[:3, 1] = (0.0, 0.0, -1.0)
    ext[:3, 2] = (c, s, 0.0)
    return CameraCalibration(intrinsics=k, extrinsic=ext)


def synthetic_camera_scene(seed=0, n_cameras=4, size=24, channels=3):
    """A camera-only scene with random smooth-ish feature maps."""
    rng = np.random.default_rng(seed)
    cams = []
    for i in range(n_cameras):
        yaw = 2.0 * math.pi * i / n_cameras
        feats = rng.uniform(0.0, 1.0, size=(size, size, channels))
        cams.append(CameraView(name=f"cam_{i}", calibration=central_camera(yaw=yaw),
                               features=feats, time_offset=0.0))
    return Scene(scene_id="synth", seed=seed, cameras=cams, cloud=PointCloud.empty(),
                 ego_poses=[], boxes=[])


def lift_scene_cameras(scene, spec, depth, depth_params):
    """Lift every camera of a scene and sum in fixed order; returns an array."""
    total = None
    for cam in scene.cameras:
        feats = Tensor(cam.features)
        dist = predict_depth_distribution(feats, depth_params, depth)
        lifted = lift_image_to_voxels(feats, dist, cam.calibration, spec, depth)
        total = lifted if total is None else nm.add(total, lifted)
    return total.data


def brute_force_assignment_total(cost: np.ndarray) -> float:
    """Exhaustive minimum over all one-to-one assignments of min(n, m) pairs."""
    n, m = cost.shape
    best = np.inf
    if n <= m:
        rows = np.arange(n)
        for cols in itertools.permutations(range(m), n):
            best = min(best, float(cost[rows, list(cols)].sum()))
    else:
        cols = np.arange(m)
        for rows in itertools.permutations(range(n), m):
            best = min(best, float(cost[list(rows), cols].sum()))
    return best


def encode_box_oracle(box: Box3D, spec: VoxelGridSpec) -> np.ndarray:
    """One ground-truth box as the 10-vector target, written out per field."""
    lows = np.array([lo for lo, _ in spec.ranges])
    highs = np.array([hi for _, hi in spec.ranges])
    center = (np.array(box.center) - lows) / (highs - lows)
    return np.concatenate(
        [
            center,
            np.log(np.array(box.size)),
            [math.sin(box.yaw), math.cos(box.yaw)],
            np.array(box.velocity),
        ]
    )


def cost_matrix_oracle(logits, vectors, gts, spec) -> np.ndarray:
    """Per-pair matching cost: -log sigmoid of the gt class logit plus 0.25 * box L1."""
    w_cls, w_box = 1.0, 0.25
    out = np.zeros((logits.shape[0], len(gts)))
    for g, gt in enumerate(gts):
        for i in range(logits.shape[0]):
            if not 0 <= gt.class_id < logits.shape[1]:
                raise ValueError(f"class id {gt.class_id} outside {logits.shape[1]} classes")
            cls_term = float(np.logaddexp(0.0, -logits[i, gt.class_id]))
            box_term = float(np.abs(vectors[i] - encode_box_oracle(gt, spec)).sum())
            out[i, g] = w_cls * cls_term + w_box * box_term
    return out


def trilinear_sample_oracle(volume: Tensor, points: Tensor) -> Tensor:
    """Trilinear sampling of (P, 3) points with one masked (P, C) copy kept per corner.

    Each corner's values are gathered, zeroed where the corner lies outside
    the volume, and kept for the point gradient.
    """
    p = points.data
    nx, ny, nz, c = volume.shape
    data_flat = volume.data.reshape(-1, c)
    x0 = np.floor(p[:, 0]).astype(np.int64)
    y0 = np.floor(p[:, 1]).astype(np.int64)
    z0 = np.floor(p[:, 2]).astype(np.int64)
    fx, fy, fz = p[:, 0] - x0, p[:, 1] - y0, p[:, 2] - z0

    corners = []
    for dx in (0, 1):
        wx, sx = (fx, 1.0) if dx else (1.0 - fx, -1.0)
        for dy in (0, 1):
            wy, sy = (fy, 1.0) if dy else (1.0 - fy, -1.0)
            for dz in (0, 1):
                wz, sz = (fz, 1.0) if dz else (1.0 - fz, -1.0)
                ix, iy, iz = x0 + dx, y0 + dy, z0 + dz
                inside = ((ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
                          & (iz >= 0) & (iz < nz))
                lin = ((np.clip(ix, 0, nx - 1) * ny + np.clip(iy, 0, ny - 1)) * nz
                       + np.clip(iz, 0, nz - 1))
                vals = data_flat[lin] * inside[:, None]
                corners.append((vals, lin, inside, wx, wy, wz, sx, sy, sz))

    out = np.zeros((p.shape[0], c))
    for vals, _, _, wx, wy, wz, _, _, _ in corners:
        out += (wx * wy * wz)[:, None] * vals

    def backward(g):
        if volume.requires_grad:
            dflat = np.zeros_like(data_flat)
            for vals, lin, inside, wx, wy, wz, _, _, _ in corners:
                w = (wx * wy * wz) * inside
                np.add.at(dflat, lin[inside], (w[:, None] * g)[inside])
            nm.accumulate_grad(volume, dflat.reshape(volume.shape))
        if points.requires_grad:
            dp = np.zeros_like(p)
            for vals, _, _, wx, wy, wz, sx, sy, sz in corners:
                gv = (g * vals).sum(axis=1)
                dp[:, 0] += gv * sx * wy * wz
                dp[:, 1] += gv * wx * sy * wz
                dp[:, 2] += gv * wx * wy * sz
            nm.accumulate_grad(points, dp)

    return nm.record_op(out, (volume, points), backward)


def weighted_trilinear_sample_oracle(volume: Tensor, points: Tensor, weights: Tensor) -> Tensor:
    """The weighted sampler as separate nodes over the explicitly built ``[V | 1]``
    volume: sample all (R, K) points, scale, sum over K."""
    r, k, _ = points.shape
    ones = Tensor(np.ones(volume.shape[:3] + (1,)))
    stacked = nm.concat([volume, ones], axis=3)
    sampled = trilinear_sample_oracle(stacked, nm.reshape(points, (r * k, 3)))
    scaled = nm.mul(nm.reshape(sampled, (r, k, stacked.shape[-1])),
                    nm.reshape(weights, (r, k, 1)))
    return nm.tsum(scaled, axis=1)


def attention_oracle(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """Self-attention as five nodes: transpose, matmul, scale, softmax, matmul."""
    scores = nm.scale(nm.matmul(q, nm.transpose(k, (0, 2, 1))), scale)
    return nm.matmul(nm.softmax(scores, axis=-1), v)


def conv_tap_oracle(x, w, b, stride, padding, g=None):
    """Conv as one (voxels, Cin) x (Cin, Cout) matmul per kernel offset: (out, dX, dW, db).

    dX scatter-adds each tap's (voxels, Cin) gradient into a padded buffer
    through the tap's strided window.  Without an output gradient ``g`` the
    three gradients are None.
    """
    kx, ky, kz, cin, cout = w.shape
    strides = tuple(int(s) for s in np.broadcast_to(stride, 3))
    pads = tuple(int(p) for p in np.broadcast_to(padding, 3))
    padded = np.pad(x, [(p, p) for p in pads] + [(0, 0)])
    out_shape = tuple((n - k) // s + 1
                      for n, k, s in zip(padded.shape, (kx, ky, kz), strides))
    n = math.prod(out_shape)
    taps = [(t, tuple(slice(o, o + s * m, s) for o, s, m in zip(t, strides, out_shape)))
            for t in np.ndindex(kx, ky, kz)]
    products = (padded[win].reshape(n, cin) @ w[t] for t, win in taps)
    out = next(products)
    for product in products:
        out += product
    out += b
    out = out.reshape(out_shape + (cout,))
    if g is None:
        return out, None, None, None
    g2 = g.reshape(n, cout)
    dw = np.empty_like(w)
    dpad = np.zeros_like(padded)
    for t, win in taps:
        dw[t] = padded[win].reshape(n, cin).T @ g2
        dpad[win] += (g2 @ w[t].T).reshape(out_shape + (cin,))
    crop = tuple(slice(p, p + e) for p, e in zip(pads, x.shape[:3]))
    return out, dpad[crop], dw, g.sum(axis=(0, 1, 2))


def depth_distribution_conv_oracle(features: Tensor, params, depth) -> Tensor:
    """The depth head as a 1x1x1 conv over the pixels, then softmax: (D, H, W) or (D, P)."""
    *lead, c = features.shape
    logits = nm.conv(nm.reshape(features, (1, -1, 1, c)), params.weight, params.bias)
    dist = nm.transpose(nm.softmax(nm.reshape(logits, (-1, depth.bins)), axis=-1), (1, 0))
    return nm.reshape(dist, (depth.bins, *lead))


def deformable_cross_attention_oracle(queries, references, volume, params, config) -> Tensor:
    """Deformable cross-attention that projects every voxel, then samples per head."""
    n, c = queries.shape
    heads, k, dh = config.num_heads, config.num_points, config.head_dim
    nx, ny, nz, _ = volume.shape
    offsets = nm.reshape(nm.affine(queries, params.offset_w, params.offset_b),
                         (n, heads, k, 3))
    logits = nm.reshape(nm.affine(queries, params.attn_w, params.attn_b), (n, heads, k))
    weights = nm.softmax(logits, axis=-1)
    locations = nm.add(nm.reshape(references, (n, 1, 1, 3)), offsets)
    grid_locations = nm.mul(locations, Tensor(np.array([nx - 1.0, ny - 1.0, nz - 1.0])))

    flat = nm.reshape(volume, (nx * ny * nz, c))
    value = nm.reshape(nm.affine(flat, params.value_w, params.value_b), (nx, ny, nz, c))
    head_outputs = []
    for h in range(heads):
        vol_h = nm.getitem(value, (slice(None), slice(None), slice(None),
                                   slice(h * dh, (h + 1) * dh)))
        pts_h = nm.reshape(nm.getitem(grid_locations, (slice(None), h)), (n * k, 3))
        sampled = nm.reshape(nm.trilinear_sample(vol_h, pts_h), (n, k, dh))
        w_h = nm.reshape(nm.getitem(weights, (slice(None), h)), (n, k, 1))
        head_outputs.append(nm.tsum(nm.mul(sampled, w_h), axis=1))
    merged = nm.concat(head_outputs, axis=-1)
    return nm.affine(merged, params.out_w, params.out_b)


def fused_cross_attention_oracle(queries, references, volume, params, config,
                                 fusion) -> Tensor:
    """Cross-attention over the densely fused volume: the 1x1x1 fusion conv over
    every voxel, then the project-every-voxel oracle above."""
    fused = nm.conv(volume, fusion.weight, fusion.bias)
    return deformable_cross_attention_oracle(queries, references, fused, params, config)


def random_fusion(c, rng):
    """A non-identity fusion map with a nonzero bias."""
    fusion = FusionParams.create(rng, c)
    fusion.weight.data[...] += 0.3 * rng.standard_normal(fusion.weight.shape)
    fusion.bias.data[...] = 0.5 * rng.standard_normal(c)
    return fusion


def identity_fusion(c):
    w = np.zeros((1, 1, 1, c, c))
    w[0, 0, 0] = np.eye(c)
    return FusionParams(weight=Parameter("w", w), bias=Parameter("b", np.zeros(c)))


def fuse_sweeps_image_oracle(spaces, time_offsets, params) -> Tensor:
    """Sweep fusion as separate maps: a merge conv per offset-extended sweep,
    a channel-wise concat of the merged sweeps, then the fuse conv."""
    shape = tuple(spaces[0].shape)
    merged = []
    for space, offset in zip(spaces, time_offsets):
        channel = Tensor(np.full(shape[:3] + (1,), float(offset)))
        stacked = nm.concat([space, channel], axis=3)
        merged.append(nm.conv(stacked, params.merge_weight, params.merge_bias))
    return nm.conv(nm.concat(merged, axis=3), params.fuse_weight, params.fuse_bias)


def padded_heads_oracle(cloud: PointCloud, spec: VoxelGridSpec, rng, strides=(1, 2)):
    """The LiDAR heads' input and weights with the point features zero-padded to C.

    Returns the (X, Y, Z, C) grid that holds the six point features in
    channels 0..5 and zeros above, and heads whose weights are the full
    (3, 3, 3, C, C) draws from ``rng``, in the order
    ``MultiScaleHeadParams.create`` draws, each with an identity centre tap.
    """
    c = spec.channels
    features = voxelize_points(cloud, spec).features.data
    padded = np.zeros(spec.counts + (c,))
    padded[..., :features.shape[-1]] = features
    weights, biases = [], []
    for s in strides:
        w = 0.02 * rng.standard_normal((3, 3, 3, c, c))
        w[1, 1, 1] += np.eye(c)
        weights.append(Parameter(f"padded.s{s}.weight", w))
        biases.append(Parameter(f"padded.s{s}.bias", np.zeros(c)))
    params = MultiScaleHeadParams(strides=tuple(strides), weights=weights, biases=biases)
    return VoxelGrid(spec=spec, features=Tensor(padded)), params


def backward_keeping_the_tape(tape, loss: Tensor) -> None:
    """Replay ``tape`` in exact reverse order, releasing nothing: every recorded
    node keeps its closure and its gradient afterwards."""
    nm.accumulate_grad(loss, np.ones_like(loss.data))
    for node in reversed(tape._nodes):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node.grad)


def closure_arrays(fn, seen=None):
    """Every ndarray a backward closure keeps, through nested functions, lists and tuples."""
    seen = set() if seen is None else seen
    found = []
    todo = [c.cell_contents for c in (fn.__closure__ or ())]
    while todo:
        item = todo.pop()
        if id(item) in seen or isinstance(item, Tensor):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif callable(item) and getattr(item, "__closure__", None):
            found.extend(closure_arrays(item, seen))
    return found


# one out-of-range SceneConfig field per case: (field, value, the name its error carries)
BAD_SCENE_FIELDS = [
    *((name, 0, name) for name in ("n_classes", "channels", "image_height", "image_width",
                                   "max_place_tries")),
    *((name, -1, name) for name in ("n_objects", "n_cameras", "n_camera_sweeps",
                                    "n_lidar_sweeps", "ground_points")),
    *((name, math.nan, name) for name in ("sweep_dt", "ground_z", "ego_speed")),
    ("camera_z", math.inf, "camera_z"),
    ("signature_gain", -math.inf, "signature_gain"),
    *((name, 0.0, name) for name in ("focal", "point_density", "ground_extent")),
    *((name, -0.5, name) for name in ("placement_range", "speed_max", "noise_sigma",
                                      "sweep_dt")),
    ("size_jitter", 1.0, "size_jitter"),
    ("size_jitter", -0.1, "size_jitter"),
    ("base_sizes", [], "base_sizes"),
    ("base_sizes", [[1.0]], "base_sizes[0]"),
    ("base_sizes", [[1.0, "x", 2.0]], "base_sizes[0]"),
    ("base_sizes", [[3.6, 1.7, 1.5], [1.0, 0.0, 2.0]], "base_sizes[1]"),
]
