import dataclasses
import math

import numpy as np
import pytest

from helpers import voxel_center
from voxdet import numerics as nm
from voxdet import pipeline
from voxdet.augmentation import GlobalTransform, apply_to_voxel_grid
from voxdet.cross_modality import modality_switch_fuse
from voxdet.decoder import DecoderConfig, decode
from voxdet.geometry import CameraCalibration, VoxelGridSpec
from voxdet.modality import (
    DepthHeadParams,
    DepthSpec,
    EncoderParams,
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
from voxdet.geometry import project_points, voxel_centers
from voxdet.numerics import Parameter, Tape, Tensor, backward
from voxdet.numerics.gradcheck import central_difference, max_relative_error
from voxdet.verification import GRAD_EPS, GRAD_TOLERANCE, PROBE_SCALE
from voxdet.scene import SceneConfig, generate_scene
from voxdet.scene.types import CameraView, PointCloud, Scene

from helpers import (
    depth_distribution_conv_oracle,
    fuse_sweeps_image_oracle,
    lift_image_to_voxels_oracle,
    lift_oracle,
    padded_heads_oracle,
    side_camera,
)


@pytest.mark.parametrize("limit", [math.nan, math.inf], ids=["nan", "inf"])
def test_depth_spec_rejects_a_non_finite_limit(limit):
    # NaN would lift nothing (every d < nan is false); +inf would read depth bin 0 everywhere
    with pytest.raises(ValueError, match="depth_limit must be finite and positive"):
        DepthSpec(bins=8, depth_limit=limit)
    data = pipeline.PipelineConfig().to_dict()
    data["depth"]["depth_limit"] = limit
    with pytest.raises(ValueError, match="^depth: depth_limit must be finite and positive"):
        pipeline.PipelineConfig.from_dict(data)


class TestDepthDistribution:
    def _params(self, c, d, weight=None, bias=None):
        w = np.zeros((c, d)) if weight is None else weight
        b = np.zeros(d) if bias is None else bias
        return DepthHeadParams(weight=Parameter("w", w), bias=Parameter("b", b))

    def test_zero_params_uniform(self):
        feats = Tensor(np.random.default_rng(0).standard_normal((5, 6, 3)))
        dist = predict_depth_distribution(feats, self._params(3, 8), DepthSpec(8, 8.0))
        assert dist.data.shape == (8, 5, 6)
        np.testing.assert_allclose(dist.data, 1.0 / 8.0, rtol=0, atol=1e-15)

    def test_columns_normalized(self):
        rng = np.random.default_rng(1)
        feats = Tensor(rng.standard_normal((4, 4, 3)))
        params = self._params(3, 16, weight=rng.standard_normal((3, 16)))
        dist = predict_depth_distribution(feats, params, DepthSpec(16, 32.0))
        np.testing.assert_allclose(dist.data.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_dominant_bias_one_hot(self):
        feats = Tensor(np.random.default_rng(2).standard_normal((3, 3, 2)))
        bias = np.zeros(10)
        bias[7] = 50.0
        dist = predict_depth_distribution(feats, self._params(2, 10, bias=bias),
                                          DepthSpec(10, 20.0))
        assert dist.data[7].min() > 1.0 - 1e-15


    @pytest.mark.parametrize("shape", [(5, 6, 3), (17, 3)], ids=["map", "rows"])
    def test_matches_pointwise_conv(self, shape):
        # the head is an affine on the pixel rows; the 1x1x1 conv it replaced is the oracle
        rng = np.random.default_rng(3)
        x = rng.standard_normal(shape)
        w, b = rng.standard_normal((3, 8)), rng.standard_normal(8)
        probe = rng.standard_normal((8, *shape[:-1]))
        results = []
        for head in (predict_depth_distribution, depth_distribution_conv_oracle):
            feats, params = Tensor(x, requires_grad=True), self._params(3, 8, w.copy(), b.copy())
            with Tape() as tape:
                dist = head(feats, params, DepthSpec(8, 8.0))
                loss = nm.tsum(nm.mul(dist, Tensor(probe)))
            backward(tape, loss)
            results.append((dist.data, feats.grad, params.weight.grad, params.bias.grad))
        for got, want in zip(*results):
            assert got.shape == want.shape and np.array_equal(got, want)


class TestLift:
    def test_matches_oracle_two_cameras(self):
        rng = np.random.default_rng(3)
        spec = VoxelGridSpec((-6.0, 6.0), (-6.0, 6.0), (-2.0, 2.0), (16, 16, 8), 3)
        depth = DepthSpec(bins=16, depth_limit=16.0)
        cams = [side_camera(), side_camera(yaw=math.pi)]
        total = None
        oracle_total = np.zeros(spec.counts + (3,))
        for calib in cams:
            feats = rng.standard_normal((16, 16, 3))
            dist = rng.dirichlet(np.ones(16), size=(16, 16)).transpose(2, 0, 1)
            dist = np.ascontiguousarray(dist)
            lifted = lift_image_to_voxels(Tensor(feats), Tensor(dist), calib, spec, depth)
            total = lifted if total is None else nm.add(total, lifted)
            oracle_total += lift_oracle(feats, dist, calib, spec, depth)
        assert np.abs(total.data).max() > 0
        np.testing.assert_allclose(total.data, oracle_total, rtol=0, atol=1e-12)

    def test_out_of_view_zero(self):
        spec = VoxelGridSpec((-6.0, -2.0), (-6.0, -2.0), (-1.0, 1.0), (4, 4, 2), 2)
        depth = DepthSpec(bins=8, depth_limit=16.0)
        calib = side_camera()  # looks along +x; the grid sits behind it
        feats = Tensor(np.ones((16, 16, 2)))
        dist = Tensor(np.full((8, 16, 16), 1.0 / 8.0))
        out = lift_image_to_voxels(feats, dist, calib, spec, depth)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_linearity_in_features(self):
        rng = np.random.default_rng(4)
        spec = VoxelGridSpec((1.0, 7.0), (-3.0, 3.0), (-1.0, 1.0), (6, 6, 4), 2)
        depth = DepthSpec(bins=8, depth_limit=12.0)
        calib = side_camera()
        f1 = rng.standard_normal((16, 16, 2))
        f2 = rng.standard_normal((16, 16, 2))
        dist = Tensor(np.ascontiguousarray(
            rng.dirichlet(np.ones(8), size=(16, 16)).transpose(2, 0, 1)))
        a, b = 2.0, -0.7
        lhs = lift_image_to_voxels(Tensor(a * f1 + b * f2), dist, calib, spec, depth).data
        rhs = (
            a * lift_image_to_voxels(Tensor(f1), dist, calib, spec, depth).data
            + b * lift_image_to_voxels(Tensor(f2), dist, calib, spec, depth).data
        )
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_occupancy_bounded_by_one(self):
        # with unit features, each voxel value is its occupancy weight
        rng = np.random.default_rng(5)
        spec = VoxelGridSpec((1.0, 9.0), (-4.0, 4.0), (-1.0, 1.0), (8, 8, 4), 1)
        depth = DepthSpec(bins=8, depth_limit=12.0)
        dist = Tensor(np.ascontiguousarray(
            rng.dirichlet(np.ones(8), size=(16, 16)).transpose(2, 0, 1)))
        out = lift_image_to_voxels(Tensor(np.ones((16, 16, 1))), dist,
                                   side_camera(), spec, depth)
        assert out.data.max() <= 1.0 + 1e-12


def _lift_values_and_grads(lift, feats, dist, calib, spec, depth, probe):
    """The lift and the gradients of ``sum(lift * probe)`` for features and depth."""
    f, dd = Tensor(feats, requires_grad=True), Tensor(dist, requires_grad=True)
    with Tape() as tape:
        out = lift(f, dd, calib, spec, depth)
        loss = nm.tsum(nm.mul(out, Tensor(probe)))
    backward(tape, loss)
    return out.data, f.grad, dd.grad


def _border_camera(w, h):
    # camera frame = ego frame, so a voxel center with x = 0 (y = 0) projects
    # exactly onto the last pixel column (row)
    k = np.array([[2.0, 0.0, w - 1.0], [0.0, 2.0, h - 1.0], [0.0, 0.0, 1.0]])
    return CameraCalibration(intrinsics=k, extrinsic=np.eye(4))


@pytest.mark.parametrize("seed", range(4))
def test_lift_matches_scatter_oracle(seed):
    rng = np.random.default_rng([seed, 17])
    h, w, c = 4, 5, 3
    depth = DepthSpec(bins=4, depth_limit=8.0)  # bin centers at 1, 3, 5, 7
    if seed % 2 == 0:
        # depths 0.8 (before the first center) ... 7.2 (beyond the last)
        spec = VoxelGridSpec((-1.5, 1.5), (-1.5, 1.5), (0.0, 8.0), (3, 3, 5), c)
        calib = _border_camera(w, h)
        u, v, d, _ = project_points(voxel_centers(spec).reshape(-1, 3), calib)
        assert (u == w - 1).any() and (v == h - 1).any()
        assert d.min() < 0.5 * depth.bin_width
        assert depth.depth_limit - 0.5 * depth.bin_width < d.max() < depth.depth_limit
    else:
        spec = VoxelGridSpec((1.0, 9.0), (-4.0, 4.0), (-1.0, 1.0), (8, 8, 4), c)
        calib = side_camera(fx=2.0, cx=2.0, cy=1.5)
    feats = rng.standard_normal((h, w, c))
    dist = np.ascontiguousarray(rng.dirichlet(np.ones(4), size=(h, w)).transpose(2, 0, 1))
    probe = rng.standard_normal(spec.counts + (c,))
    out, df, dd = _lift_values_and_grads(lift_image_to_voxels, feats, dist, calib, spec,
                                         depth, probe)
    want, df_want, dd_want = _lift_values_and_grads(lift_image_to_voxels_oracle, feats, dist,
                                                    calib, spec, depth, probe)
    assert np.abs(out).max() > 0
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(df, df_want, rtol=0, atol=1e-12)
    assert np.array_equal(dd, dd_want)


def _partial_view(seed):
    """A camera that sees part of a grid, its features and a full distribution."""
    rng = np.random.default_rng([seed, 23])
    spec = VoxelGridSpec((-4.0, 8.0), (-6.0, 6.0), (-1.0, 1.0), (12, 12, 4), 3)
    depth = DepthSpec(bins=8, depth_limit=10.0)
    feats = rng.standard_normal((16, 16, 3))
    dist = np.ascontiguousarray(rng.dirichlet(np.ones(8), size=(16, 16)).transpose(2, 0, 1))
    return spec, depth, side_camera(), feats, dist, rng


class TestLiftFootprint:
    def test_read_set_is_every_inside_corner(self):
        h, w = 4, 5
        spec = VoxelGridSpec((-1.5, 1.5), (-1.5, 1.5), (0.0, 8.0), (3, 3, 5), 3)
        depth = DepthSpec(bins=4, depth_limit=8.0)
        calib = _border_camera(w, h)
        fp = lift_footprint(calib, spec, depth, (h, w))
        u, v, _, _ = project_points(voxel_centers(spec).reshape(-1, 3), calib)
        um, vm = u[fp.voxels], v[fp.voxels]
        assert (um == w - 1).any() and (vm == h - 1).any()
        want = {int(vv) * w + int(uu)
                for u_, v_ in zip(um, vm)
                for vv in (math.floor(v_), math.floor(v_) + 1)
                for uu in (math.floor(u_), math.floor(u_) + 1)
                if vv < h and uu < w}
        assert h * w - 1 in want  # the last column and row
        assert fp.read.tolist() == sorted(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_read_columns_lift_like_the_full_distribution(self, seed):
        # with a footprint the lift takes the read rows and columns and returns
        # the rows of its voxels; without one it takes the image and returns
        # the dense grid
        spec, depth, calib, feats, dist, rng = _partial_view(seed)
        fp = lift_footprint(calib, spec, depth, feats.shape[:2])
        assert 0 < fp.voxels.size < math.prod(spec.counts)
        assert 0 < fp.read.size < 16 * 16
        rows = np.ascontiguousarray(feats.reshape(-1, 3)[fp.read])
        columns = np.ascontiguousarray(dist.reshape(8, -1)[:, fp.read])
        probe = rng.standard_normal(spec.counts + (3,))

        def read_set_lift(f, d, calib, spec, depth):
            return lift_image_to_voxels(f, d, calib, spec, depth, fp)

        out, df, dd = _lift_values_and_grads(read_set_lift, rows, columns, calib, spec,
                                             depth, probe.reshape(-1, 3)[fp.voxels])
        want, df_want, dd_want = _lift_values_and_grads(lift_image_to_voxels, feats, dist,
                                                        calib, spec, depth, probe)
        want = want.reshape(-1, 3)
        assert out.shape == (fp.voxels.size, 3) and np.abs(out).max() > 0
        assert np.array_equal(out, want[fp.voxels])
        assert not np.delete(want, fp.voxels, axis=0).any()
        assert df.shape == (fp.read.size, 3)
        assert np.array_equal(df, df_want.reshape(-1, 3)[fp.read])
        assert np.array_equal(dd, dd_want.reshape(8, -1)[:, fp.read])
        unread = np.setdiff1d(np.arange(16 * 16), fp.read)
        assert not dd_want.reshape(8, -1)[:, unread].any()

    def test_features_gradient_scatters_to_the_image_transpose_product(self):
        # the (P, C) features gradient, put back on the image, is the P^T product
        # of the pixel read indexed by flat image pixels; its zero-weight
        # entries read another pixel and add only zeros
        spec, depth, calib, feats, dist, rng = _partial_view(7)
        fp = lift_footprint(calib, spec, depth, feats.shape[:2])
        rows = np.ascontiguousarray(feats.reshape(-1, 3)[fp.read])
        columns = np.ascontiguousarray(dist.reshape(8, -1)[:, fp.read])
        probe = rng.standard_normal((fp.voxels.size, 3))

        def read_set_lift(f, d, calib, spec, depth):
            return lift_image_to_voxels(f, d, calib, spec, depth, fp)

        _, df, _ = _lift_values_and_grads(read_set_lift, rows, columns, calib, spec, depth,
                                          probe)
        occupancy = nm.interpolation_matrix(fp.occupancy_cells, fp.occupancy_weights,
                                            columns.size) @ columns.ravel()
        p_t = nm.interpolation_matrix(fp.read[fp.pixels], fp.weights, 16 * 16, transpose=True)
        want = p_t @ (occupancy[:, None] * probe)
        scattered = np.zeros((16 * 16, 3))
        scattered[fp.read] = df
        assert np.abs(want).max() > 0
        assert np.array_equal(scattered, want)

    def test_occupancy_entries_match_the_oracle(self):
        # camera frame = ego frame, x, y in {-3, 0, 3} and depths 2..8: every
        # pixel and depth fraction is a multiple of 1/8 (the first depth clamps),
        # and the values of 1/256, so every sum is exact in any order and the
        # entries must give the oracle's occupancy bit for bit
        h, w = 5, 5
        spec = VoxelGridSpec((-4.5, 4.5), (-4.5, 4.5), (1.0, 9.0), (3, 3, 4), 1)
        depth = DepthSpec(bins=2, depth_limit=16.0)
        k = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        calib = CameraCalibration(intrinsics=k, extrinsic=np.eye(4))
        dist = np.random.default_rng(29).integers(0, 256, (depth.bins, h, w)) / 256.0
        fp = lift_footprint(calib, spec, depth, (h, w))
        assert fp.voxels.size == math.prod(spec.counts)
        assert fp.occupancy_cells.shape == fp.occupancy_weights.shape == (8, fp.voxels.size)
        columns = dist.reshape(depth.bins, -1)[:, fp.read].ravel()
        occupancy = np.zeros(math.prod(spec.counts))
        for cells, weights in zip(fp.occupancy_cells, fp.occupancy_weights):
            occupancy[fp.voxels] += weights * columns[cells]
        # unit features make the oracle's pixel feature exactly 1
        want = lift_oracle(np.ones((h, w, 1)), dist, calib, spec, depth).ravel()
        assert np.unique(want).size > 8
        assert np.array_equal(occupancy, want)

    def test_depth_head_on_pixels_matches_full_columns(self):
        spec, depth, calib, feats, _, rng = _partial_view(4)
        params = DepthHeadParams.create(rng, 3, depth.bins)
        fp = lift_footprint(calib, spec, depth, feats.shape[:2])
        full = predict_depth_distribution(Tensor(feats), params, depth)
        read = predict_depth_distribution(Tensor(feats.reshape(-1, 3)[fp.read]), params, depth)
        assert read.shape == (depth.bins, fp.read.size)
        assert np.array_equal(read.data, full.data.reshape(depth.bins, -1)[:, fp.read])

    def test_camera_seeing_no_voxel_lifts_to_zeros(self):
        spec = VoxelGridSpec((-6.0, -2.0), (-6.0, -2.0), (-1.0, 1.0), (4, 4, 2), 2)
        depth = DepthSpec(bins=8, depth_limit=16.0)
        calib = side_camera()  # looks along +x; the grid sits behind it
        feats = Tensor(np.ones((16, 16, 2)))
        params = DepthHeadParams.create(np.random.default_rng(0), 2, depth.bins)
        fp = lift_footprint(calib, spec, depth, (16, 16))
        assert fp.voxels.size == fp.read.size == 0
        rows = Tensor(feats.data.reshape(-1, 2)[fp.read])
        with Tape():
            dist = predict_depth_distribution(rows, params, depth)
            out = lift_image_to_voxels(rows, dist, calib, spec, depth, fp)
        assert dist.shape == (depth.bins, 0)
        assert out.shape == (0, 2)
        grid = lift_image_to_voxels(feats, Tensor(np.full((depth.bins, 16, 16), 0.125)),
                                    calib, spec, depth)
        assert grid.shape == spec.counts + (2,)
        np.testing.assert_array_equal(grid.data, 0.0)

    def test_footprint_of_another_image_size_rejected(self):
        # the rows a (16, 16) footprint reads do not fit a (16, 15) one
        spec, depth, calib, feats, dist, _ = _partial_view(5)
        fp = lift_footprint(calib, spec, depth, (16, 15))
        read = lift_footprint(calib, spec, depth, (16, 16)).read
        assert read.size != fp.read.size
        columns = Tensor(np.full((depth.bins, fp.read.size), 1.0 / depth.bins))
        with pytest.raises(ValueError, match=r"features shape .* the read rows"):
            lift_image_to_voxels(Tensor(feats.reshape(-1, 3)[read]), columns, calib, spec,
                                 depth, fp)

    def test_image_map_with_a_footprint_rejected(self):
        # with a footprint the lift takes only the (P, C) read rows
        spec, depth, calib, feats, dist, _ = _partial_view(5)
        fp = lift_footprint(calib, spec, depth, feats.shape[:2])
        columns = Tensor(np.ascontiguousarray(dist.reshape(8, -1)[:, fp.read]))
        with pytest.raises(ValueError, match=r"features shape \(16, 16, 3\)"):
            lift_image_to_voxels(Tensor(feats), columns, calib, spec, depth, fp)

    def test_distribution_of_other_columns_rejected(self):
        spec, depth, calib, feats, dist, _ = _partial_view(6)
        fp = lift_footprint(calib, spec, depth, feats.shape[:2])
        wrong = Tensor(np.full((depth.bins, fp.read.size + 1), 1.0 / depth.bins))
        with pytest.raises(ValueError, match="depth distribution shape"):
            lift_image_to_voxels(Tensor(feats.reshape(-1, 3)[fp.read]), wrong, calib, spec,
                                 depth, fp)

    def test_every_pixel_distribution_with_a_footprint_rejected(self):
        # with a footprint the lift takes only the (D, P) read columns
        spec, depth, calib, feats, dist, _ = _partial_view(6)
        fp = lift_footprint(calib, spec, depth, feats.shape[:2])
        with pytest.raises(ValueError, match=r"depth distribution shape \(8, 16, 16\)"):
            lift_image_to_voxels(Tensor(feats.reshape(-1, 3)[fp.read]), Tensor(dist), calib,
                                 spec, depth, fp)


class TestFootprintCache:
    @staticmethod
    def _calib(extrinsic=None):
        k = np.array([[8.0, 0.0, 7.5], [0.0, 8.0, 7.5], [0.0, 0.0, 1.0]])
        if extrinsic is None:
            extrinsic = side_camera(yaw=0.1).extrinsic
        return CameraCalibration(intrinsics=k, extrinsic=np.array(extrinsic))

    def test_equal_calibrations_share_one_footprint(self):
        spec, depth, _, _, _, _ = _partial_view(0)
        a = lift_footprint(self._calib(), spec, depth, (16, 16))
        b = lift_footprint(self._calib(), spec, depth, (np.int64(16), 16))
        assert a is b and a.voxels.size > 0

    def test_one_ulp_of_one_extrinsic_entry_misses(self):
        spec, depth, _, _, _, _ = _partial_view(0)
        calib = self._calib()
        moved = np.array(calib.extrinsic)
        moved[0, 0] = np.nextafter(moved[0, 0], np.inf)
        a = lift_footprint(calib, spec, depth, (16, 16))
        b = lift_footprint(self._calib(moved), spec, depth, (16, 16))
        assert a is not b
        assert lift_footprint(calib, spec, depth, (16, 15)) is not a
        assert lift_footprint(calib, spec, DepthSpec(bins=9, depth_limit=10.0), (16, 16)) is not a

    def test_cached_arrays_are_read_only_int32_indices(self):
        spec, depth, _, _, _, _ = _partial_view(0)
        fp = lift_footprint(self._calib(), spec, depth, (16, 16))
        for field in ("voxels", "pixels", "weights", "occupancy_cells", "occupancy_weights",
                      "read"):
            array = getattr(fp, field)
            want = np.float64 if "weights" in field else np.int32
            assert array.dtype == want and array.size > 0, field
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_uncached_builder_is_the_oracle(self):
        spec, depth, _, _, _, _ = _partial_view(0)
        calib = self._calib()
        lift_footprint.cache_clear()
        cached = lift_footprint(calib, spec, depth, (16, 16))
        assert lift_footprint.cache_info().currsize == 1
        built = lift_footprint.__wrapped__(calib, spec, depth, (16, 16))
        assert built is not cached and lift_footprint.cache_info().currsize == 1
        for field in dataclasses.fields(built):
            a, b = getattr(built, field.name), getattr(cached, field.name)
            assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


class TestSweepFusion:
    def _identity_params(self, c, n):
        merge = np.zeros((c + 1, c))
        merge[:c] = np.eye(c)
        fuse = np.zeros((n * c, c))
        for s in range(n):
            fuse[s * c : (s + 1) * c] = np.eye(c) / n
        return SweepFusionParams(
            merge_weight=Parameter("m", merge), merge_bias=Parameter("mb", np.zeros(c)),
            fuse_weight=Parameter("f", fuse), fuse_bias=Parameter("fb", np.zeros(c)),
        )

    def test_single_sweep_identity(self):
        x = Tensor(np.random.default_rng(6).standard_normal((18, 4)))
        out, _ = fuse_sweeps_image([x], [0.0], self._identity_params(4, 1))
        np.testing.assert_allclose(out.data, x.data, rtol=0, atol=1e-12)

    def test_two_identical_sweeps_average(self):
        x = Tensor(np.random.default_rng(7).standard_normal((18, 4)))
        params = self._identity_params(4, 2)
        params.merge_weight.data[4] = 0.0  # ignore the offset channel
        out, _ = fuse_sweeps_image([x, x], [0.0, -0.5], params)
        np.testing.assert_allclose(out.data, x.data, rtol=0, atol=1e-12)

    def test_zero_fuse_weights(self):
        x = Tensor(np.ones((8, 3)))
        params = self._identity_params(3, 1)
        params.fuse_weight.data[...] = 0.0
        out, bias = fuse_sweeps_image([x], [0.0], params)
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(bias.data, 0.0)

    def test_nonzero_initial_offset_rejected(self):
        x = Tensor(np.ones((8, 3)))
        with pytest.raises(ValueError):
            fuse_sweeps_image([x], [-0.5], self._identity_params(3, 1))

    def test_shape_mismatch_rejected(self):
        params = self._identity_params(3, 2)
        with pytest.raises(ValueError, match=r"spaces\[1\] must be \(8, 3\) rows"):
            fuse_sweeps_image([Tensor(np.ones((8, 3))), Tensor(np.ones((4, 3)))],
                              [0.0, -0.5], params)

    def test_grid_rejected(self):
        x = Tensor(np.ones((2, 2, 2, 3)))
        with pytest.raises(ValueError, match=r"spaces\[0\] must be a \(V, C\) row table"):
            fuse_sweeps_image([x, x], [0.0, -0.5], self._identity_params(3, 2))

    @pytest.mark.parametrize("field, shape", [
        ("merge_weight", (3, 3)),
        ("merge_weight", (4, 4)),
        ("fuse_weight", (7, 3)),
        ("fuse_weight", (3, 3)),
        ("merge_bias", (4,)),
        ("fuse_bias", (1, 3)),
        ("merge_weight", (1, 1, 1, 4, 3)),  # a 1x1x1 kernel is not the matrix
    ])
    def test_malformed_params_name_the_field(self, field, shape):
        params = self._identity_params(3, 2)
        setattr(params, field, Parameter(field, np.zeros(shape)))
        x = Tensor(np.ones((8, 3)))
        with pytest.raises(ValueError, match=rf"SweepFusionParams\.{field} must be"):
            fuse_sweeps_image([x, x], [0.0, -0.5], params)

    @pytest.mark.parametrize("offsets, index", [
        ([math.nan, -0.5], 0), ([0.0, math.inf], 1), ([0.0, -math.inf], 1),
    ])
    def test_non_finite_offset_names_its_index(self, offsets, index):
        x = Tensor(np.ones((8, 3)))
        with pytest.raises(ValueError, match=rf"time_offsets\[{index}\] must be finite"):
            fuse_sweeps_image([x, x], offsets, self._identity_params(3, 2))

    @pytest.mark.parametrize("rows", [(2, 3), (4, 3), (3, 2), (2, 2, 2, 3)])
    def test_row_table_of_another_shape_names_the_sweep(self, rows):
        # each sweep is a (3, 3) table: three voxels of three channels
        good, bad = Tensor(np.ones((3, 3))), Tensor(np.ones(rows))
        with pytest.raises(ValueError, match=r"spaces\[1\] must be \(3, 3\) rows"):
            fuse_sweeps_image([good, bad], [0.0, -0.5], self._identity_params(3, 2))


OFFSETS = (0.0, -0.5, -1.0)


def _random_fusion_params(c, n, rng):
    return SweepFusionParams(
        merge_weight=Parameter("m", 0.5 * rng.standard_normal((c + 1, c))),
        merge_bias=Parameter("mb", rng.standard_normal(c)),
        fuse_weight=Parameter("f", 0.5 * rng.standard_normal((n * c, c))),
        fuse_bias=Parameter("fb", rng.standard_normal(c)),
    )


def _fusion_values_and_grads(fuse, n, seed=50):
    rng = np.random.default_rng(seed)
    c = 4
    params = _random_fusion_params(c, n, rng)
    spaces = [Tensor(rng.standard_normal((3, 2, 2, c)), requires_grad=True) for _ in range(n)]
    probe = Tensor(rng.standard_normal((3, 2, 2, c)))
    with Tape() as tape:
        out = fuse(spaces, list(OFFSETS[:n]), params)
        loss = nm.tsum(nm.mul(out, probe))
    backward(tape, loss)
    grads = [t.grad for t in spaces] + [p.grad for p in nm.parameters_of(params)]
    return out.data, grads


def _fuse_grid_rows(spaces, offsets, params):
    # the row-table fusion on every voxel of the oracle's grids, reshaped back
    shape = tuple(spaces[0].shape)
    tables = [nm.reshape(s, (math.prod(shape[:-1]), shape[-1])) for s in spaces]
    rows, _ = fuse_sweeps_image(tables, offsets, params)
    return nm.reshape(rows, shape)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_composed_fusion_matches_separate_maps(n):
    out, grads = _fusion_values_and_grads(_fuse_grid_rows, n)
    want, want_grads = _fusion_values_and_grads(fuse_sweeps_image_oracle, n)
    assert len(grads) == n + 4 and all(g is not None for g in grads)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
    for g, w in zip(grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fusion_on_the_lifted_voxels_matches_every_voxel(n):
    # spaces that are zero outside a random voxel set, fused as tables of that
    # set's rows placed on the bias, and as tables of every voxel
    rng = np.random.default_rng([n, 52])
    c, grid, n_voxels = 4, (5, 4, 3), 60
    voxels = np.sort(rng.choice(n_voxels, size=23, replace=False))
    inside = np.zeros(n_voxels, dtype=bool)
    inside[voxels] = True
    params = _random_fusion_params(c, n, rng)
    data = [np.where(inside[:, None], rng.standard_normal((n_voxels, c)), 0.0)
            for _ in range(n)]
    probe = Tensor(rng.standard_normal(grid + (c,)))

    def run(subset):
        spaces = [Tensor(d if subset is None else d[subset], requires_grad=True)
                  for d in data]
        for p in nm.parameters_of(params):
            p.reset_gradient()
        with Tape() as tape:
            rows, bias = fuse_sweeps_image(spaces, list(OFFSETS[:n]), params)
            if subset is None:
                out = nm.reshape(rows, grid + (c,))
            else:
                out = nm.place_rows(rows, subset, bias, grid + (c,))
            loss = nm.tsum(nm.mul(out, probe))
        backward(tape, loss)
        return (out.data, [s.grad for s in spaces],
                [p.grad.copy() for p in nm.parameters_of(params)])

    out, space_grads, param_grads = run(voxels)
    want, want_space_grads, want_param_grads = run(None)
    assert np.array_equal(out, want)
    for g, w in zip(space_grads, want_space_grads):
        assert np.array_equal(g, w[inside])
    # the bias gradient sums the voxel rows and the others apart, and the
    # weight gradient runs over fewer (zero) rows, so the last bits may differ
    for g, w in zip(param_grads, want_param_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-13)


TABLE_SPEC = VoxelGridSpec((-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.0), (4, 4, 2), 3)


def _table_grid(n_rows=5):
    rng = np.random.default_rng(7)
    lookup = rng.integers(0, n_rows, size=TABLE_SPEC.counts).astype(np.int32)
    return VoxelGrid(spec=TABLE_SPEC, features=Tensor(rng.standard_normal((n_rows, 3))),
                     lookup=lookup)


class TestRowTableGrid:
    """A ``VoxelGrid`` with a ``lookup`` is an (R, C) row table."""

    @pytest.mark.parametrize("lookup, match", [
        (np.zeros(TABLE_SPEC.counts), "lookup must be an integer array"),  # float
        (np.zeros((4, 4), dtype=np.int32), "lookup must be an integer array"),  # wrong shape
        ([[[0] * 2] * 4] * 4, "lookup must be an integer array"),  # not an array
        (np.full(TABLE_SPEC.counts, 5, dtype=np.int32), r"lookup rows must lie in \[0, 5\)"),
        # -1 is an empty cell, -2 nothing
        (np.full(TABLE_SPEC.counts, -2, dtype=np.int64), r"lookup rows must lie in \[0, 5\)"),
    ])
    def test_malformed_lookup_named(self, lookup, match):
        with pytest.raises(ValueError, match=match):
            VoxelGrid(spec=TABLE_SPEC, features=Tensor(np.zeros((5, 3))), lookup=lookup)

    def test_empty_cells_are_minus_one(self):
        lookup = np.full(TABLE_SPEC.counts, -1, dtype=np.int32)
        lookup[0, 0, 0] = 4
        grid = VoxelGrid(spec=TABLE_SPEC, features=Tensor(np.zeros((5, 3))), lookup=lookup)
        assert grid.lookup is lookup
        VoxelGrid(spec=TABLE_SPEC, features=Tensor(np.zeros((0, 3))), lookup=lookup * 0 - 1)

    def test_table_features_must_be_rows_of_the_channels(self):
        lookup = np.zeros(TABLE_SPEC.counts, dtype=np.int32)
        for shape in ((5, 4), TABLE_SPEC.counts + (3,)):
            with pytest.raises(ValueError, match=r"row-table features shape"):
                VoxelGrid(spec=TABLE_SPEC, features=Tensor(np.zeros(shape)), lookup=lookup)

    def test_dense_only_consumers_name_the_lookup(self):
        table = _table_grid()
        dense = VoxelGrid(spec=TABLE_SPEC, features=Tensor(np.zeros(TABLE_SPEC.counts + (3,))))
        conv = EncoderParams.create(np.random.default_rng(0), 3, "conv3d")
        consumers = [lambda: voxel_encoder(table, conv),
                     lambda: modality_switch_fuse([table, dense]),
                     lambda: modality_switch_fuse([dense, table]),
                     lambda: apply_to_voxel_grid(GlobalTransform(), table)]
        for consume in consumers:
            with pytest.raises(ValueError, match="^lookup: .* needs a dense grid"):
                consume()
        # the decoder's readers pass a table through
        grid, tap = voxel_encoder(table, EncoderParams.create(np.random.default_rng(0), 3, "none"))
        assert grid is table and tap.features is table.features
        assert modality_switch_fuse([table]) is table


def test_camera_only_scene_seeing_no_voxel_is_the_folded_bias():
    rng = np.random.default_rng(53)
    c = 4
    spec = VoxelGridSpec((-6.0, -2.0), (-6.0, -2.0), (-1.0, 1.0), (4, 4, 2), c)
    config = pipeline.PipelineConfig(grid=spec, depth=DepthSpec(8, 16.0), use_lidar=False,
                                     encoder_op="none", decoder=DecoderConfig(channels=c))
    # both cameras look along +x, give or take 0.3 rad; the grid sits behind them
    cameras = [CameraView(f"cam{s}", side_camera(yaw=0.3 * s),
                          rng.standard_normal((16, 16, c)), offset)
               for s, offset in enumerate(OFFSETS[:2])]
    scene = Scene(scene_id="away", seed=0, cameras=cameras, cloud=PointCloud.empty())
    params = pipeline.build_model(config, n_camera_sweeps=2)
    fusion = params.sweep_fusion
    fusion.merge_bias.data[...] = rng.standard_normal(c)
    fusion.fuse_bias.data[...] = rng.standard_normal(c)
    for cam in cameras:
        assert lift_footprint(cam.calibration, spec, config.depth, (16, 16)).voxels.size == 0

    vi, _, composed = pipeline._camera_branch(scene, config, params)
    bias = sweep_fusion_map(list(OFFSETS[:2]), fusion, c)[1]
    # camera only with encoder none: a row table of the two sweeps' un-fused
    # rows, here none, so every cell is empty and reads the map's bias
    assert vi.features.shape == (0, 2 * c) and np.all(vi.lookup == -1)
    merge = fusion.merge_weight.data
    fuse = fusion.fuse_weight.data.reshape(2, c, c)
    want = fusion.fuse_bias.data + fusion.merge_bias.data @ fuse.sum(axis=0)
    want = want + sum(t * (merge[c] @ f) for t, f in zip(OFFSETS[:2], fuse))
    assert np.abs(want).max() > 0
    np.testing.assert_allclose(bias.data, want, rtol=0, atol=1e-15)
    # the decoder composes that bias after the fusion map: decoding the empty
    # table is decoding the grid that holds it in every voxel
    got = decode(params.decoder, vi, composed)
    grid = VoxelGrid(spec=spec, features=Tensor(np.broadcast_to(want, spec.counts + (c,))))
    expected = decode(params.decoder, grid, params.fusion)
    for g, w in zip(got.blocks, expected.blocks):
        for field in ("class_logits", "box_params", "reference_out"):
            np.testing.assert_allclose(getattr(g, field).data, getattr(w, field).data,
                                       rtol=0, atol=1e-15)


def test_fusion_gradients_match_central_differences():
    rng = np.random.default_rng(51)
    c, n = 3, 2
    params = _random_fusion_params(c, n, rng)
    spaces = [Tensor(rng.standard_normal((8, c)), requires_grad=s == 1) for s in range(n)]
    probe = Tensor(PROBE_SCALE * rng.choice([-1.0, 1.0], size=(8, c)))

    def readout():
        rows, _ = fuse_sweeps_image(spaces, list(OFFSETS[:n]), params)
        return nm.tsum(nm.mul(nm.square(rows), probe))

    with Tape() as tape:
        loss = readout()
    backward(tape, loss)
    for x in (*nm.parameters_of(params), spaces[1]):
        numeric = central_difference(x.data.reshape(-1), lambda: readout().item(), GRAD_EPS)
        assert max_relative_error(x.grad.reshape(-1), numeric) < GRAD_TOLERANCE


class TestVoxelize:
    SPEC = VoxelGridSpec((-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.0), (4, 4, 2), 8)

    def test_single_point_at_center(self):
        center = voxel_center(self.SPEC, (1, 2, 0))
        cloud = PointCloud(np.array([center]), np.array([0.7]), np.array([0.0]))
        grid = voxelize_points(cloud, self.SPEC)
        cell = grid.features.data[1, 2, 0]
        np.testing.assert_allclose(
            cell, [0, 0, 0, 0.7, 0, math.log(2.0)], rtol=0, atol=1e-12)
        total = np.abs(grid.features.data).sum()
        assert total == pytest.approx(np.abs(cell).sum())

    def test_empty_cloud(self):
        grid = voxelize_points(PointCloud.empty(), self.SPEC)
        np.testing.assert_array_equal(grid.features.data, 0.0)

    def test_two_coincident_points(self):
        center = voxel_center(self.SPEC, (0, 0, 0))
        cloud = PointCloud(np.array([center, center]), np.array([0.4, 0.6]),
                           np.array([0.0, -0.5]))
        cell = voxelize_points(cloud, self.SPEC).features.data[0, 0, 0]
        np.testing.assert_allclose(cell[:6], [0, 0, 0, 0.5, -0.25, math.log(3.0)],
                                   rtol=0, atol=1e-12)

    def test_out_of_range_ignored(self):
        cloud = PointCloud(np.array([[10.0, 0.0, 0.0]]), np.array([1.0]), np.array([0.0]))
        grid = voxelize_points(cloud, self.SPEC)
        np.testing.assert_array_equal(grid.features.data, 0.0)

    def test_fewer_grid_channels_than_point_features(self):
        # the six point features do not depend on C; the heads map them to C = 4
        spec = VoxelGridSpec((-8.0, 8.0), (-8.0, 8.0), (-2.0, 2.0), (16, 16, 4), 4)
        config = pipeline.PipelineConfig(grid=spec, use_camera=False,
                                         decoder=DecoderConfig(channels=4))
        scene = generate_scene(SceneConfig(n_objects=2, channels=4), 11)
        params = pipeline.build_model(config)
        result = pipeline.run_detection(scene, config, params)
        assert [w.shape for w in params.heads.weights] == [(3, 3, 3, 6, 4)] * 2
        assert result.raw.vu.features.shape == (16, 16, 4, 4)
        assert np.isfinite(result.raw.vu.features.data).all()


def identity_head(c, c_in=None):
    c_in = c if c_in is None else c_in
    w = np.zeros((3, 3, 3, c_in, c))
    w[1, 1, 1] = np.eye(c_in, c)
    return w


class TestMultiScaleHeads:
    def test_identity_single_head(self):
        spec = VoxelGridSpec((-2, 2), (-2, 2), (-1, 1), (4, 4, 2), 8)
        raw = voxelize_points(PointCloud(
            np.random.default_rng(8).uniform(-1.9, 1.9, size=(30, 3)),
            np.random.default_rng(9).uniform(size=30), np.zeros(30)), spec)
        params = MultiScaleHeadParams(
            strides=(1,), weights=[Parameter("w", identity_head(8, c_in=6))],
            biases=[Parameter("b", np.zeros(8))])
        out = multi_scale_heads(raw, params)
        np.testing.assert_allclose(out.data[..., :6], raw.features.data, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(out.data[..., 6:], 0.0)

    def test_zero_weights(self):
        spec = VoxelGridSpec((-2, 2), (-2, 2), (-1, 1), (4, 4, 2), 8)
        raw = voxelize_points(PointCloud.empty(), spec)
        params = MultiScaleHeadParams(
            strides=(1, 2),
            weights=[Parameter("w1", np.zeros((3, 3, 3, 6, 8))),
                     Parameter("w2", np.zeros((3, 3, 3, 6, 8)))],
            biases=[Parameter("b1", np.zeros(8)), Parameter("b2", np.zeros(8))])
        out = multi_scale_heads(raw, params)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_stride2_loop_oracle(self):
        # block-constant input, summing kernel: verify against a direct loop
        c = 2
        spec = VoxelGridSpec((-2, 2), (-2, 2), (-1, 1), (4, 4, 2), c)
        rng = np.random.default_rng(10)
        blocks = rng.standard_normal((2, 2, 2, c))
        data = np.repeat(np.repeat(blocks, 2, axis=0), 2, axis=1)  # constant per 2x2x1
        grid = VoxelGrid(spec=spec, features=Tensor(data))
        w = np.zeros((3, 3, 3, c, c))
        w[1, 1, 1] = np.eye(c)
        params = MultiScaleHeadParams(strides=(2,), weights=[Parameter("w", w)],
                                      biases=[Parameter("b", np.zeros(c))])
        out = multi_scale_heads(grid, params).data

        expected = np.zeros_like(data)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    # stride-(2,2,1) conv with center-identity kernel reads the
                    # block value; nearest upsampling paints it back over 2x2x1
                    for di in range(2):
                        for dj in range(2):
                            expected[2 * i + di, 2 * j + dj, k] = data[2 * i, 2 * j, k]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_indivisible_stride(self):
        spec = VoxelGridSpec((-2, 2), (-2, 2), (-1, 1), (5, 4, 2), 8)
        raw = voxelize_points(PointCloud.empty(), spec)
        params = MultiScaleHeadParams(
            strides=(2,), weights=[Parameter("w", np.zeros((3, 3, 3, 6, 8)))],
            biases=[Parameter("b", np.zeros(8))])
        with pytest.raises(ValueError):
            multi_scale_heads(raw, params)

    @pytest.mark.parametrize("c", [8, 32])
    def test_padded_oracle(self, c):
        # the heads on the six point features against the zero-padded C-channel
        # grid under the full (3, 3, 3, C, C) draws
        spec = VoxelGridSpec((-4, 4), (-4, 4), (-1, 1), (8, 8, 2), c)
        rng = np.random.default_rng(14)
        cloud = PointCloud(rng.uniform(-4.5, 4.5, size=(60, 3)), rng.uniform(size=60),
                           rng.uniform(-0.5, 0.0, size=60))
        probe = Tensor(rng.standard_normal(spec.counts + (c,)))
        params = MultiScaleHeadParams.create(np.random.default_rng(15), c)
        padded_grid, padded = padded_heads_oracle(cloud, spec, np.random.default_rng(15))

        def heads(grid, p):
            with Tape() as tape:
                out = multi_scale_heads(grid, p)
                loss = nm.tsum(nm.mul(out, probe))
            backward(tape, loss)
            return out.data

        np.testing.assert_array_equal(heads(voxelize_points(cloud, spec), params),
                                      heads(padded_grid, padded))
        for live, full in zip(params.weights, padded.weights):
            assert live.shape == (3, 3, 3, 6, c)
            np.testing.assert_array_equal(live.data, full.data[:, :, :, :6])
            np.testing.assert_array_equal(live.grad, full.grad[:, :, :, :6])
            np.testing.assert_array_equal(full.grad[:, :, :, 6:], 0.0)
        for live, full in zip(params.biases, padded.biases):
            np.testing.assert_array_equal(live.grad, full.grad)


class TestVoxelEncoder:
    def _grid(self, c=4, negative=False):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((4, 4, 2, c))
        if not negative:
            data = np.abs(data)
        spec = VoxelGridSpec((-2, 2), (-2, 2), (-1, 1), (4, 4, 2), c)
        return VoxelGrid(spec=spec, features=Tensor(data))

    def test_none_passthrough(self):
        grid = self._grid(negative=True)
        out, tap = voxel_encoder(grid, EncoderParams(op_type="none", weights=[], biases=[]))
        assert out.features is grid.features
        assert tap.features is grid.features

    def test_identity_kernels_nonnegative(self):
        grid = self._grid(negative=False)
        c = 4
        params = EncoderParams(
            op_type="conv3d",
            weights=[Parameter(f"w{i}", identity_head(c)) for i in range(3)],
            biases=[Parameter(f"b{i}", np.zeros(c)) for i in range(3)])
        out, tap = voxel_encoder(grid, params)
        np.testing.assert_allclose(out.features.data, grid.features.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("op_type", ["conv2d", "conv3d"])
    def test_tap_relu_relation(self, op_type):
        grid = self._grid(negative=True)
        rng = np.random.default_rng(12)
        kz = 3 if op_type == "conv3d" else 1
        params = EncoderParams(
            op_type=op_type,
            weights=[Parameter(f"w{i}", 0.3 * rng.standard_normal((3, 3, kz, 4, 4)))
                     for i in range(3)],
            biases=[Parameter(f"b{i}", 0.1 * rng.standard_normal(4)) for i in range(3)])
        out, tap = voxel_encoder(grid, params)
        np.testing.assert_array_equal(out.features.data,
                                      np.maximum(tap.features.data, 0.0))

    @pytest.mark.parametrize("z", [1, 5, 11])
    def test_height_knob(self, z):
        spec = VoxelGridSpec((-2, 2), (-2, 2), (-1, 1), (4, 4, z), 8)
        grid = VoxelGrid(spec=spec, features=Tensor(np.zeros((4, 4, z, 8))))
        rng = np.random.default_rng(13)
        params = EncoderParams.create(rng, 8, "conv3d")
        out, tap = voxel_encoder(grid, params)
        assert out.features.shape == (4, 4, z, 8)
