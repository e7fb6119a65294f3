import json
import math
import re

import numpy as np
import pytest

from voxdet.geometry import project_points
from voxdet.modality import lift_footprint
from voxdet.pipeline import PipelineConfig
from voxdet.scene import (
    Box3D,
    SceneConfig,
    SceneGenerationError,
    SceneIOError,
    bev_boxes_overlap,
    camera_rig,
    generate_scene,
    generate_sequence,
    rasterize_footprint,
    read_scene,
    sample_points_on_box,
    write_scene,
)
from voxdet.scene.generate import _convex_hull, _ego_pose, _paint_camera
from voxdet.scene.types import CameraView, PointCloud

from helpers import BAD_SCENE_FIELDS


def scenes_equal(a, b) -> bool:
    if a.boxes != b.boxes or len(a.cameras) != len(b.cameras):
        return False
    for ca, cb in zip(a.cameras, b.cameras):
        if not np.array_equal(ca.features, cb.features):
            return False
        if not np.array_equal(ca.calibration.extrinsic, cb.calibration.extrinsic):
            return False
    return (
        np.array_equal(a.cloud.xyz, b.cloud.xyz)
        and np.array_equal(a.cloud.intensity, b.cloud.intensity)
        and np.array_equal(a.cloud.time, b.cloud.time)
    )


@pytest.mark.parametrize("field, value, named", BAD_SCENE_FIELDS)
def test_config_rejects_out_of_range_field(field, value, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        SceneConfig(**{field: value})


class TestGeneration:
    def test_deterministic(self):
        cfg = SceneConfig(n_objects=3, channels=8)
        assert scenes_equal(generate_scene(cfg, 42), generate_scene(cfg, 42))

    def test_empty_scene(self):
        cfg = SceneConfig(n_objects=0, channels=8, noise_sigma=0.0)
        scene = generate_scene(cfg, 1)
        assert scene.boxes == []
        # only ground-plane points remain
        assert np.allclose(scene.cloud.xyz[:, 2], cfg.ground_z)
        for cam in scene.cameras:
            assert np.all(cam.features == 0.0)

    def test_centers_inside_placement_range(self):
        cfg = SceneConfig(n_objects=4, channels=8)
        scene = generate_scene(cfg, 9)
        for box in scene.boxes:
            assert abs(box.center[0]) <= cfg.placement_range
            assert abs(box.center[1]) <= cfg.placement_range

    def test_no_bev_overlap(self):
        scene = generate_scene(SceneConfig(n_objects=5, channels=8), 3)
        for i, a in enumerate(scene.boxes):
            for b in scene.boxes[i + 1 :]:
                assert not bev_boxes_overlap(a, b)

    def test_impossible_placement_raises(self):
        cfg = SceneConfig(n_objects=60, placement_range=1.0, max_place_tries=10, channels=8)
        with pytest.raises(SceneGenerationError):
            generate_scene(cfg, 0)

    def test_evidence_per_box(self):
        cfg = SceneConfig(n_objects=3, channels=8, noise_sigma=0.0)
        scene = generate_scene(cfg, 17)
        pose = scene.ego_poses[0]
        for box in scene.boxes:
            # LiDAR evidence: at least one point near the box
            d = np.linalg.norm(scene.cloud.xyz[:, :2] - np.array(box.center[:2]), axis=1)
            assert (d < max(box.size)).sum() >= 1
            # camera evidence when the footprint is fully in front of a camera
            painted = 0
            for cam in scene.cameras:
                u, v, _, valid = project_points(box.corners(), cam.calibration)
                if valid.all():
                    mask = rasterize_footprint(np.column_stack([u, v]),
                                               cfg.image_height, cfg.image_width)
                    painted += int(
                        (cam.features[mask, box.class_id % cfg.channels] > 0.5).sum()
                    )
            if painted == 0:
                continue  # box not fully inside any frustum
            assert painted >= 1

    def test_sequence_moves_boxes(self):
        cfg = SceneConfig(n_objects=2, channels=8, speed_max=2.0)
        frames = generate_sequence(cfg, 11, n_frames=3, frame_dt=0.5)
        assert len(frames) == 3
        for k, frame in enumerate(frames):
            for b0, bk in zip(frames[0].boxes, frame.boxes):
                expected = np.array(b0.center[:2]) + np.array(b0.velocity) * 0.5 * k
                np.testing.assert_allclose(bk.center[:2], expected, atol=1e-9)


class TestSurfaceSampling:
    def test_points_on_faces(self):
        box = Box3D(center=(1.0, -2.0, 0.5), size=(2.0, 1.0, 1.5), yaw=0.7)
        cloud = sample_points_on_box(box, density=200.0, seed=0)
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        rot = np.array([[c, s], [-s, c]])
        local_xy = (cloud.xyz[:, :2] - np.array(box.center[:2])) @ rot.T
        local_z = cloud.xyz[:, 2] - box.center[2]
        l, w, h = box.size
        on_top = np.abs(local_z - h / 2) < 1e-9
        on_x = np.abs(np.abs(local_xy[:, 0]) - l / 2) < 1e-9
        on_y = np.abs(np.abs(local_xy[:, 1]) - w / 2) < 1e-9
        assert np.all(on_top | on_x | on_y)
        assert np.all(local_xy[:, 0] <= l / 2 + 1e-9)
        assert np.all(local_z >= -h / 2 - 1e-9)
        assert not np.any(np.abs(local_z + h / 2) < 1e-9)  # no bottom face

    def test_count_statistics(self):
        # unit cube: 5 faces of 1 m^2; density 100 -> expected 500 per draw
        box = Box3D(center=(0.0, 0.0, 0.5), size=(1.0, 1.0, 1.0), yaw=0.0)
        counts = [len(sample_points_on_box(box, 100.0, seed)) for seed in range(100)]
        mean = np.mean(counts)
        sigma_of_mean = math.sqrt(500.0 / 100.0)
        assert abs(mean - 500.0) < 3.0 * sigma_of_mean

    def test_yaw_equivariance(self):
        base = Box3D(center=(0.0, 0.0, 0.0), size=(2.0, 1.0, 1.0), yaw=0.0)
        turned = Box3D(center=(0.0, 0.0, 0.0), size=(2.0, 1.0, 1.0), yaw=math.pi / 2)
        a = sample_points_on_box(base, 50.0, seed=5)
        b = sample_points_on_box(turned, 50.0, seed=5)
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(b.xyz, a.xyz @ rot.T, rtol=0, atol=1e-6)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            sample_points_on_box(Box3D((0, 0, 0), (1, 1, 1), 0.0), 0.0, 0)


class TestRasterization:
    @staticmethod
    def _point_in_hull_count(corners, height, width):
        """Independent oracle: per-pixel half-plane test on the convex hull."""
        hull = _convex_hull(corners)
        if len(hull) < 3:
            return 0
        count = 0
        for row in range(height):
            for col in range(width):
                inside = True
                for a, b in zip(hull, np.roll(hull, -1, axis=0)):
                    cross = (b[0] - a[0]) * (row - a[1]) - (b[1] - a[1]) * (col - a[0])
                    if cross < -1e-9:
                        inside = False
                        break
                count += inside
        return count

    def test_matches_point_in_polygon_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            corners = rng.uniform(-3.0, 20.0, size=(8, 2))
            mask = rasterize_footprint(corners, 16, 18)
            assert mask.sum() == self._point_in_hull_count(corners, 16, 18)

    def test_painted_footprint_matches_projection_area(self):
        cfg = SceneConfig(n_objects=0, channels=4, noise_sigma=0.0, signature_gain=1.0)
        box = Box3D(center=(3.5, 0.0, -0.6), size=(1.6, 1.2, 1.0), yaw=0.3, class_id=1)
        calib = camera_rig(cfg)[0]
        pose = _ego_pose(cfg, 0.0)
        rng = np.random.default_rng(0)
        features = _paint_camera(cfg, calib, pose, pose, [box], 0.0, rng)
        u, v, _, valid = project_points(box.corners(), calib)
        assert valid.all(), "fixture box must be fully inside the frustum"
        painted = int((features[:, :, 1] > 0.5).sum())
        oracle = self._point_in_hull_count(
            np.column_stack([u, v]), cfg.image_height, cfg.image_width
        )
        assert painted == oracle
        assert painted > 0


def _unread_pixel(scene, cam):
    """(v, u) of a pixel the default pipeline's lift of ``cam`` does not read."""
    config = PipelineConfig()
    h, w, _ = cam.features.shape
    fp = lift_footprint(scene.initial_frame_calibration(cam), config.grid, config.depth, (h, w))
    unread = np.setdiff1d(np.arange(h * w), fp.read)
    assert 0 < fp.read.size and unread.size > 0
    return divmod(int(unread[0]), w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_camera_map_rejected(dtype, bad):
    # the lift widens and checks only the pixels it reads; the view checks them all
    scene = generate_scene(SceneConfig(n_objects=1, channels=8), 2)
    cam = scene.cameras[0]
    v, u = _unread_pixel(scene, cam)
    features = cam.features.astype(dtype)
    features[v, u, 3] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        CameraView(cam.name, cam.calibration, features, cam.time_offset)


# one non-finite point value per case: (field, row, column of the (x, y, z,
# intensity, time) record, value)
BAD_POINTS = [("xyz", 1, 2, np.nan), ("intensity", 0, 3, np.nan),
              ("intensity", 2, 3, np.inf), ("time", 1, 4, -np.inf)]


@pytest.mark.parametrize("field, row, column, value", BAD_POINTS)
def test_non_finite_point_rejected(field, row, column, value):
    records = np.zeros((3, 5))
    records[row, column] = value
    with pytest.raises(ValueError, match=f"point cloud {field} must be finite"):
        PointCloud(records[:, :3], records[:, 3], records[:, 4])


class TestSceneIO:
    def test_round_trip_exact(self, tmp_path):
        scene = generate_scene(SceneConfig(n_objects=2, channels=8), 23)
        write_scene(scene, tmp_path / "scene")
        assert scenes_equal(scene, read_scene(tmp_path / "scene"))

    def test_shape_mismatch_names_field(self, tmp_path):
        scene = generate_scene(SceneConfig(n_objects=1, channels=8), 2)
        write_scene(scene, tmp_path / "scene")
        blob = tmp_path / "scene" / "cam_0_0.f32"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(SceneIOError, match="cam_0_0"):
            read_scene(tmp_path / "scene")

    def test_non_finite_camera_map_named(self, tmp_path):
        scene = generate_scene(SceneConfig(n_objects=1, channels=8), 2)
        write_scene(scene, tmp_path / "scene")
        cam = scene.cameras[0]
        _, w, c = cam.features.shape
        v, u = _unread_pixel(scene, cam)
        blob = tmp_path / "scene" / f"{cam.name}.f32"
        values = np.fromfile(blob, dtype="<f4")
        values[(v * w + u) * c] = np.nan
        values.tofile(blob)
        with pytest.raises(SceneIOError, match=f"camera {cam.name}: .*features must be finite"):
            read_scene(tmp_path / "scene")

    @pytest.mark.parametrize("field, row, column, value", BAD_POINTS)
    def test_non_finite_point_named(self, tmp_path, field, row, column, value):
        scene = generate_scene(SceneConfig(n_objects=1, channels=8), 2)
        write_scene(scene, tmp_path / "scene")
        blob = tmp_path / "scene" / "points.f32"
        records = np.fromfile(blob, dtype="<f4").reshape(-1, 5)
        records[row, column] = value
        records.tofile(blob)
        with pytest.raises(SceneIOError, match=f"points: point cloud {field} must be finite"):
            read_scene(tmp_path / "scene")

    def test_camera_map_stays_float32(self, tmp_path):
        scene = generate_scene(SceneConfig(n_objects=1, channels=8), 2)
        write_scene(scene, tmp_path / "scene")
        read = read_scene(tmp_path / "scene")
        assert {cam.features.dtype for cam in read.cameras} == {np.dtype(np.float32)}
        assert read.cloud.xyz.dtype == np.float64

    def test_version_mismatch(self, tmp_path):
        scene = generate_scene(SceneConfig(n_objects=1, channels=8), 2)
        write_scene(scene, tmp_path / "scene")
        manifest = tmp_path / "scene" / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            '"format_version": 1', '"format_version": 99'))
        with pytest.raises(SceneIOError, match="format_version"):
            read_scene(tmp_path / "scene")

    @pytest.mark.parametrize("text, match", [
        ("[1, 2]", "manifest: .*expected a JSON object, found list"),
        ("{", "manifest: .*invalid JSON"),
    ], ids=["list", "invalid"])
    def test_manifest_not_an_object_named(self, tmp_path, text, match):
        scene = generate_scene(SceneConfig(n_objects=1, channels=8), 2)
        write_scene(scene, tmp_path / "scene")
        (tmp_path / "scene" / "manifest.json").write_text(text)
        with pytest.raises(SceneIOError, match=match):
            read_scene(tmp_path / "scene")

    def test_missing_manifest_named(self, tmp_path):
        with pytest.raises(SceneIOError, match="manifest: missing file"):
            read_scene(tmp_path / "scene")

    def test_missing_file_named(self, tmp_path):
        scene = generate_scene(SceneConfig(n_objects=1, channels=8), 2)
        write_scene(scene, tmp_path / "scene")
        (tmp_path / "scene" / "points.f32").unlink()
        with pytest.raises(SceneIOError, match="points"):
            read_scene(tmp_path / "scene")

    def test_camera_channel_mismatch_rejected(self, tmp_path):
        scene = generate_scene(SceneConfig(n_objects=1, channels=8), 2)
        write_scene(scene, tmp_path / "scene")
        manifest = tmp_path / "scene" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["cameras"][0]["channels"] = 4
        manifest.write_text(json.dumps(data))
        with pytest.raises(SceneIOError, match="channel"):
            read_scene(tmp_path / "scene")

    def test_malformed_manifest_box_named(self, tmp_path):
        scene = generate_scene(SceneConfig(n_objects=2, channels=8), 2)
        write_scene(scene, tmp_path / "scene")
        manifest = tmp_path / "scene" / "manifest.json"
        original = manifest.read_text()
        data = json.loads(original)
        del data["boxes"][1]["size"]
        manifest.write_text(json.dumps(data))
        with pytest.raises(SceneIOError, match=r"boxes\[1\]\.size"):
            read_scene(tmp_path / "scene")
        data = json.loads(original)
        data["boxes"][1]["center"][0] = float("nan")  # json writes and reads NaN
        manifest.write_text(json.dumps(data))
        with pytest.raises(SceneIOError, match=r"boxes\[1\]: box center must be finite"):
            read_scene(tmp_path / "scene")


@pytest.mark.parametrize("field, value", [
    ("center", (0.0, math.nan, 0.0)), ("size", (1.0, math.inf, 1.0)),
    ("yaw", math.nan), ("velocity", (-math.inf, 0.0)),
])
def test_non_finite_box_field_named(field, value):
    kwargs = dict(center=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0), yaw=0.0)
    with pytest.raises(ValueError, match=f"box {field} must be finite"):
        Box3D(**{**kwargs, field: value})


def _drop(key):
    return lambda entry: entry.pop(key)


@pytest.mark.parametrize("section, edit, message", [
    ("cameras", _drop("height"), r"missing field 'cameras\[0\]\.height'"),
    ("cameras", lambda entry: entry.update(height="x"),
     r"cameras\[0\]\.height: expected int, found 'x'"),
    ("cameras", lambda entry: entry.update(focal=1.0), r"unknown field 'cameras\[0\]\.focal'"),
    ("ego_poses", _drop("matrix"), r"missing field 'ego_poses\[0\]\.matrix'"),
    ("cameras", lambda entry: entry.update(height=24.7),
     r"cameras\[0\]\.height: expected int, found 24\.7"),
    ("cameras", lambda entry: entry.update(intrinsics=[[20.0, 0.0], [0.0, 20.0]]),
     r"cameras\[0\]: intrinsics must be 3x3, got \(2, 2\)"),
    ("ego_poses", lambda entry: entry["matrix"][3].__setitem__(0, 1.0),
     r"ego_poses\[0\]: ego pose bottom row must be \(0, 0, 0, 1\)"),
    # json writes and reads NaN and Infinity
    ("cameras", lambda entry: entry["intrinsics"][0].__setitem__(0, math.nan),
     r"cameras\[0\]: intrinsics entry \(0, 0\) must be finite, got nan"),
    ("cameras", lambda entry: entry["extrinsic"][1].__setitem__(3, math.nan),
     r"cameras\[0\]: extrinsic entry \(1, 3\) must be finite, got nan"),
    ("ego_poses", lambda entry: entry["matrix"][0].__setitem__(3, math.inf),
     r"ego_poses\[0\]: ego pose entry \(0, 3\) must be finite, got inf"),
    ("ego_poses", lambda entry: entry.update(time_offset=math.nan),
     r"ego_poses\[0\]: ego pose timestamp must be finite, got nan"),
    ("cameras", lambda entry: entry.update(time_offset=math.nan),
     r"camera cam_0_0: camera time_offset must be finite, got nan"),
    ("cameras", lambda entry: entry["extrinsic"][0].__setitem__(0, 1e308),
     r"cameras\[0\]: extrinsic rotation block is not orthonormal"),
    ("cameras", lambda entry: entry["intrinsics"][2].__setitem__(2, 0.0),
     r"cameras\[0\]: intrinsics entry \(2, 2\) must be 1, got 0\.0"),
    ("cameras", lambda entry: entry["intrinsics"][0].__setitem__(1, 5.0),
     r"cameras\[0\]: intrinsics entry \(0, 1\) must be 0, got 5\.0"),
    ("cameras", lambda entry: entry.update(time_offset=0.5),
     r"cameras\[0\]\.time_offset: no ego pose recorded at offset 0\.5"),
    ("cameras", lambda entry: entry.update(time_offset=-0.5),
     r"cameras\[0\]\.time_offset: no ego pose recorded at offset -0\.5"),
    ("ego_poses", lambda entry: entry.update(time_offset=-0.5),
     r"ego_poses: no ego pose recorded at offset 0\.0"),
])
def test_malformed_manifest_entry_named(tmp_path, section, edit, message):
    write_scene(generate_scene(SceneConfig(n_objects=1, channels=8), 2), tmp_path / "scene")
    manifest = tmp_path / "scene" / "manifest.json"
    data = json.loads(manifest.read_text())
    edit(data[section][0])
    manifest.write_text(json.dumps(data))
    with pytest.raises(SceneIOError, match=message):
        read_scene(tmp_path / "scene")
