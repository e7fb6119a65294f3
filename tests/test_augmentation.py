import math

import numpy as np
import pytest

from voxdet.augmentation import (
    GlobalTransform,
    apply_to_points,
    apply_to_voxel_grid,
    gt_sample,
    transform_scene,
)
from voxdet.geometry import VoxelGridSpec
from voxdet.modality import DepthHeadParams, DepthSpec, VoxelGrid
from voxdet.numerics import Parameter, Tensor
from voxdet.scene import Box3D, PointCloud, SceneConfig, bev_boxes_overlap, generate_scene
from voxdet.scene.types import Scene

from helpers import lift_scene_cameras, synthetic_camera_scene


def random_cloud(seed=0, n=40):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-5, 5, size=(n, 3)), rng.uniform(0, 1, size=n),
                      np.zeros(n))


def random_boxes(seed=1, n=3):
    rng = np.random.default_rng(seed)
    return [
        Box3D(center=tuple(rng.uniform(-4, 4, size=3)),
              size=tuple(rng.uniform(0.5, 2.0, size=3)),
              yaw=float(rng.uniform(-3, 3)),
              velocity=tuple(rng.uniform(-2, 2, size=2)),
              class_id=int(rng.integers(0, 3)))
        for _ in range(n)
    ]


class TestApplyToPoints:
    def test_identity(self):
        cloud, boxes = random_cloud(), random_boxes()
        out_cloud, out_boxes = apply_to_points(GlobalTransform(), cloud, boxes)
        np.testing.assert_array_equal(out_cloud.xyz, cloud.xyz)
        assert out_boxes == boxes

    def test_flip_involution(self):
        cloud, boxes = random_cloud(2), random_boxes(3)
        t = GlobalTransform(flip_x=True)
        once_c, once_b = apply_to_points(t, cloud, boxes)
        twice_c, twice_b = apply_to_points(t, once_c, once_b)
        np.testing.assert_allclose(twice_c.xyz, cloud.xyz, rtol=0, atol=1e-12)
        for a, b in zip(twice_b, boxes):
            np.testing.assert_allclose(a.center, b.center, rtol=0, atol=1e-12)
            assert a.yaw == pytest.approx(b.yaw, abs=1e-12)
            np.testing.assert_allclose(a.velocity, b.velocity, rtol=0, atol=1e-12)

    def test_quarter_turn_point(self):
        cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), np.array([0.5]), np.array([0.0]))
        out, _ = apply_to_points(GlobalTransform(rotation=math.pi / 2), cloud, [])
        np.testing.assert_allclose(out.xyz[0], [0.0, 1.0, 0.0], rtol=0, atol=1e-12)

    def test_inverse_restores(self):
        cloud, boxes = random_cloud(4), random_boxes(5)
        t = GlobalTransform(scale=1.3, rotation=0.7, flip_x=True, flip_y=False)
        fwd_c, fwd_b = apply_to_points(t, cloud, boxes)
        back_c, back_b = apply_to_points(t.inverse(), fwd_c, fwd_b)
        np.testing.assert_allclose(back_c.xyz, cloud.xyz, rtol=0, atol=1e-10)
        for a, b in zip(back_b, boxes):
            np.testing.assert_allclose(a.center, b.center, rtol=0, atol=1e-10)
            np.testing.assert_allclose(a.size, b.size, rtol=0, atol=1e-10)
            assert a.yaw == pytest.approx(b.yaw, abs=1e-10)
            np.testing.assert_allclose(a.velocity, b.velocity, rtol=0, atol=1e-10)

    def test_scale_leaves_velocity(self):
        boxes = random_boxes(6, 2)
        _, out = apply_to_points(GlobalTransform(scale=2.0), random_cloud(5), boxes)
        for a, b in zip(out, boxes):
            np.testing.assert_allclose(a.velocity, b.velocity, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.size, tuple(2.0 * s for s in b.size),
                                       rtol=0, atol=1e-12)

    def test_flip_negates_yaw(self):
        box = Box3D(center=(1, 1, 0), size=(2, 1, 1), yaw=0.5)
        _, out = apply_to_points(GlobalTransform(flip_y=True), PointCloud.empty(), [box])
        assert out[0].yaw == pytest.approx(-0.5, abs=1e-12)


SQUARE_SPEC = VoxelGridSpec((-6.4, 6.4), (-6.4, 6.4), (-2.0, 2.0), (16, 16, 4), 3)


class TestApplyToVoxelGrid:
    def _grid(self, seed=0):
        rng = np.random.default_rng(seed)
        return VoxelGrid(spec=SQUARE_SPEC,
                         features=Tensor(rng.standard_normal(SQUARE_SPEC.counts + (3,))))

    def test_identity_bit_identical(self):
        grid = self._grid()
        out = apply_to_voxel_grid(GlobalTransform(), grid)
        np.testing.assert_array_equal(out.features.data, grid.features.data)

    def test_flip_x_exact_permutation(self):
        grid = self._grid(1)
        out = apply_to_voxel_grid(GlobalTransform(flip_x=True), grid)
        np.testing.assert_array_equal(out.features.data, grid.features.data[::-1])

    def test_rot90_exact_permutation(self):
        grid = self._grid(2)
        out = apply_to_voxel_grid(GlobalTransform(rotation=math.pi / 2), grid)
        # output cell (i, j) holds input at R(-90)(center(i, j)): x=y_j, y=-x_i,
        # which is input cell (j, X-1-i)
        n = SQUARE_SPEC.counts[0]
        expected = np.empty_like(grid.features.data)
        for i in range(n):
            for j in range(n):
                expected[i, j] = grid.features.data[j, n - 1 - i]
        np.testing.assert_array_equal(out.features.data, expected)

    def test_smooth_rotation_tolerance(self):
        # band-limited field: rotating the grid matches sampling the rotated field
        spec = VoxelGridSpec((-8.0, 8.0), (-8.0, 8.0), (-2.0, 2.0), (64, 64, 4), 1)
        centers_x = np.linspace(-8 + 0.125, 8 - 0.125, 64)
        gx, gy = np.meshgrid(centers_x, centers_x, indexing="ij")

        def field(x, y):
            return np.exp(-(x**2 + y**2) / 18.0) * (1.0 + 0.4 * np.sin(0.6 * x) * np.cos(0.5 * y))

        data = np.repeat(field(gx, gy)[:, :, None, None], 4, axis=2)
        grid = VoxelGrid(spec=spec, features=Tensor(np.ascontiguousarray(data[..., :1])))
        theta = math.radians(30.0)
        out = apply_to_voxel_grid(GlobalTransform(rotation=theta), grid)
        c, s = math.cos(-theta), math.sin(-theta)
        direct = field(c * gx - s * gy, s * gx + c * gy)
        direct = np.repeat(direct[:, :, None, None], 4, axis=2)[..., :1]
        inner = (slice(1, -1), slice(1, -1))
        diff = out.features.data[inner] - direct[inner]
        rel = np.linalg.norm(diff) / np.linalg.norm(direct[inner])
        assert rel < 0.05


EXACT_TRANSFORMS = [
    GlobalTransform(flip_x=fx, flip_y=fy, rotation=r * math.pi / 2)
    for fx in (False, True)
    for fy in (False, True)
    for r in (0, 1)
]


class TestLiftSynchronization:
    @pytest.mark.parametrize("transform", EXACT_TRANSFORMS)
    def test_exact_subgroup(self, transform):
        spec = VoxelGridSpec((-6.4, 6.4), (-6.4, 6.4), (-2.0, 2.0), (16, 16, 4), 3)
        depth = DepthSpec(bins=16, depth_limit=16.0)
        scene = synthetic_camera_scene(seed=7)
        rng = np.random.default_rng(11)
        params = DepthHeadParams(
            weight=Parameter("w", 0.1 * rng.standard_normal((3, 16))),
            bias=Parameter("b", np.zeros(16)))

        lifted = lift_scene_cameras(scene, spec, depth, params)
        transformed_grid = apply_to_voxel_grid(
            transform, VoxelGrid(spec=spec, features=Tensor(lifted))).features.data

        moved = transform_scene(scene, transform)
        lifted_moved = lift_scene_cameras(moved, spec, depth, params)

        np.testing.assert_array_equal(lifted_moved, transformed_grid)


def test_transform_scene_aligns_cameras_like_the_pipeline(monkeypatch):
    import voxdet.pipeline as pipeline

    scene = generate_scene(SceneConfig(n_objects=1, n_cameras=2, channels=32,
                                       n_camera_sweeps=2, ego_speed=2.0), seed=4)
    scene.ego_poses.reverse()  # the first recorded pose is now the one at -0.5 s
    assert scene.ego_poses[0].timestamp == -0.5
    lifted_with = []
    lift = pipeline.lift_image_to_voxels

    def recording_lift(feats, dist, calib, *args):
        lifted_with.append(calib.extrinsic)
        return lift(feats, dist, calib, *args)

    monkeypatch.setattr(pipeline, "lift_image_to_voxels", recording_lift)
    pipeline.run_detection(scene, pipeline.PipelineConfig(use_lidar=False))
    moved = transform_scene(scene, GlobalTransform())
    assert len(lifted_with) == len(moved.cameras) == 4
    for extrinsic, cam in zip(lifted_with, moved.cameras):
        np.testing.assert_array_equal(cam.calibration.extrinsic, extrinsic)


class TestGtSample:
    def _database(self, seed=0, n=4):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            box = Box3D(center=(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)), 0.0),
                        size=(1.5, 1.0, 1.0), yaw=float(rng.uniform(-3, 3)),
                        class_id=int(rng.integers(0, 3)))
            pts = rng.uniform(-0.5, 0.5, size=(10, 3)) + np.array(box.center)
            out.append((box, PointCloud(pts, rng.uniform(0, 1, 10), np.zeros(10))))
        return out

    def _scene(self, boxes=()):
        return Scene(scene_id="s", seed=0, cameras=[], cloud=PointCloud.empty(),
                     ego_poses=[], boxes=list(boxes))

    def test_n_zero_unchanged(self):
        scene = self._scene()
        out = gt_sample(scene, self._database(), 0, seed=0)
        assert out.boxes == []
        assert len(out.cloud) == 0

    def test_single_attach(self):
        db = self._database()[:1]
        out = gt_sample(self._scene(), db, 1, seed=0)
        assert len(out.boxes) == 1
        assert len(out.cloud) == 10

    def test_overlap_rejected(self):
        db = self._database()[:1]
        blocker = db[0][0]
        scene = self._scene([blocker])
        out = gt_sample(scene, db, 5, seed=0)
        assert out.boxes == [blocker]  # every draw collides with itself

    def test_never_overlapping(self):
        out = gt_sample(self._scene(), self._database(1, 8), 8, seed=3)
        for i, a in enumerate(out.boxes):
            for b in out.boxes[i + 1 :]:
                assert not bev_boxes_overlap(a, b)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            gt_sample(self._scene(), [], 1, seed=0)
