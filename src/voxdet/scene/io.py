"""On-disk scene format: one JSON manifest plus raw float32 array blobs.

Layout of a scene directory:

    manifest.json   declared shapes, calibrations, poses, boxes, seed
    cam_<s>_<c>.f32 per-camera feature map, (H, W, C) row-major
    points.f32      point records, (N, 5) rows of (x, y, z, intensity, time)

All multi-byte values are little-endian float32.  A camera map stays float32
in memory (the lift widens only the pixels it reads); the point records are
widened to float64.  read_scene(write_scene(s)) reproduces s bit-exactly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..geometry import CameraCalibration, EgoPose
from ..serialize import atomic_write, from_dict, load_json, to_dict
from .types import CameraRecord, CameraView, PointCloud, PoseRecord, Scene, SceneManifest

__all__ = ["SceneIOError", "FORMAT_VERSION", "write_scene", "read_scene"]

FORMAT_VERSION = 1


class SceneIOError(IOError):
    """Scene directory missing, malformed, or inconsistent with its manifest."""


def _write_blob(path: Path, array: np.ndarray) -> None:
    atomic_write(path, np.ascontiguousarray(array, dtype="<f4").tobytes())


def _read_blob(path: Path, shape: tuple[int, ...], field: str) -> np.ndarray:
    if not path.is_file():
        raise SceneIOError(f"{field}: missing file {path.name}")
    raw = np.fromfile(path, dtype="<f4")
    expected = int(np.prod(shape))
    if raw.size != expected:
        raise SceneIOError(
            f"{field}: file {path.name} holds {raw.size} values, "
            f"manifest declares shape {shape} ({expected})"
        )
    return raw.reshape(shape)


@contextmanager
def _entry(path: str):
    """Re-raise a manifest entry's validation error as a SceneIOError naming it."""
    try:
        yield
    except ValueError as exc:
        raise SceneIOError(f"{path}: {exc}") from exc


def write_scene(scene: Scene, path) -> SceneManifest:
    """Persist a scene directory; returns the manifest that was written."""
    root = Path(path)
    cameras = []
    for cam in scene.cameras:
        h, w, c = cam.features.shape
        fname = f"{cam.name}.f32"
        _write_blob(root / fname, cam.features)
        cameras.append(
            CameraRecord(
                name=cam.name,
                file=fname,
                height=h,
                width=w,
                channels=c,
                time_offset=cam.time_offset,
                intrinsics=cam.calibration.intrinsics.tolist(),
                extrinsic=cam.calibration.extrinsic.tolist(),
            )
        )

    records = np.column_stack(
        [scene.cloud.xyz, scene.cloud.intensity, scene.cloud.time]
    )
    _write_blob(root / "points.f32", records)

    manifest = SceneManifest(
        scene_id=scene.scene_id,
        seed=scene.seed,
        cameras=cameras,
        points_file="points.f32",
        num_points=len(scene.cloud),
        ego_poses=[
            PoseRecord(time_offset=p.timestamp, matrix=p.matrix.tolist())
            for p in scene.ego_poses
        ],
        boxes=list(scene.boxes),
        format_version=FORMAT_VERSION,
    )
    atomic_write(root / "manifest.json", json.dumps(to_dict(manifest), indent=1))
    return manifest


def read_scene(path) -> Scene:
    """Load a scene directory, validating shapes against the manifest."""
    root = Path(path)
    try:
        raw = load_json(root / "manifest.json")
    except (IOError, ValueError) as exc:
        raise SceneIOError(f"manifest: {exc}") from exc

    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise SceneIOError(
            f"format_version: expected {FORMAT_VERSION}, found {version!r}"
        )

    try:
        manifest = from_dict(SceneManifest, raw)
    except ValueError as exc:
        raise SceneIOError(str(exc)) from exc

    channel_counts = {entry.channels for entry in manifest.cameras}
    if len(channel_counts) > 1:
        raise SceneIOError(f"cameras: channel counts disagree ({sorted(channel_counts)})")

    cameras = []
    for i, entry in enumerate(manifest.cameras):
        shape = (entry.height, entry.width, entry.channels)
        feats = _read_blob(root / entry.file, shape, f"camera {entry.name}")
        with _entry(f"cameras[{i}]"):
            calib = CameraCalibration(
                intrinsics=np.array(entry.intrinsics),
                extrinsic=np.array(entry.extrinsic),
            )
        with _entry(f"camera {entry.name}"):
            cameras.append(
                CameraView(
                    name=entry.name,
                    calibration=calib,
                    features=feats,
                    time_offset=entry.time_offset,
                )
            )

    records = _read_blob(root / manifest.points_file, (manifest.num_points, 5), "points")
    with _entry("points"):
        cloud = PointCloud(records[:, :3], records[:, 3], records[:, 4])

    poses = []
    for i, p in enumerate(manifest.ego_poses):
        with _entry(f"ego_poses[{i}]"):
            poses.append(EgoPose(matrix=np.array(p.matrix), timestamp=p.time_offset))
    scene = Scene(
        scene_id=manifest.scene_id,
        seed=manifest.seed,
        cameras=cameras,
        cloud=cloud,
        ego_poses=poses,
        boxes=manifest.boxes,
    )
    if poses:  # each camera is aligned from the pose at its offset to the one at 0
        needed = [("ego_poses", 0.0)] + [(f"cameras[{i}].time_offset", cam.time_offset)
                                         for i, cam in enumerate(cameras)]
        for name, offset in needed:
            try:
                scene.pose_at(offset)
            except KeyError as exc:
                raise SceneIOError(f"{name}: {exc.args[0]}") from exc
    return scene
