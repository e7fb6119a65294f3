"""Synthetic multi-sensor scenes: boxes, surface-sampled clouds, painted cameras.

Scenes are deterministic functions of (config, seed).  Class identity is
painted into camera feature maps as a one-hot-like bump on channel
``class_id % C`` inside the projected box footprint, so classification is
learnable without an image backbone.  All arrays are quantized to float32 on
creation so the on-disk round trip is bit-exact.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..geometry import CameraCalibration, EgoPose, align_to_initial, project_points
from ..serialize import from_dict, to_dict
from .types import Box3D, CameraView, PointCloud, Scene, bev_boxes_overlap

__all__ = [
    "SceneConfig",
    "SceneGenerationError",
    "generate_scene",
    "generate_sequence",
    "sample_points_on_box",
    "camera_rig",
    "rasterize_footprint",
]


class SceneGenerationError(RuntimeError):
    """Raised when object placement cannot be satisfied."""


@dataclass
class SceneConfig:
    n_objects: int = 2
    n_classes: int = 3
    placement_range: float = 5.0  # |x|, |y| bound for box centers, meters
    ground_z: float = -1.5
    size_jitter: float = 0.1
    speed_max: float = 1.5
    n_cameras: int = 4
    image_height: int = 24
    image_width: int = 32
    channels: int = 32
    focal: float = 20.0  # pixels
    camera_z: float = 0.5
    n_camera_sweeps: int = 1
    n_lidar_sweeps: int = 1
    sweep_dt: float = 0.5
    ego_speed: float = 0.0  # forward drift between sweeps, m/s
    point_density: float = 40.0  # points per square meter of visible surface
    ground_points: int = 256
    ground_extent: float = 7.0
    noise_sigma: float = 0.01
    signature_gain: float = 1.0
    base_sizes: list[tuple[float, float, float]] = field(
        default_factory=lambda: [(3.6, 1.7, 1.5), (1.9, 0.8, 1.2), (0.9, 0.7, 1.6)]
    )  # (l, w, h) per class, meters
    max_place_tries: int = 200

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        rules = (  # NaN fails every comparison
            (">= 1", lambda v: v >= 1,
             ("n_classes", "channels", "image_height", "image_width", "max_place_tries")),
            (">= 0", lambda v: v >= 0,
             ("n_objects", "n_cameras", "n_camera_sweeps", "n_lidar_sweeps", "ground_points",
              "placement_range", "speed_max", "noise_sigma", "sweep_dt")),
            ("positive", lambda v: v > 0, ("focal", "point_density", "ground_extent")),
            ("in [0, 1)", lambda v: 0 <= v < 1, ("size_jitter",)),
        )
        for want, ok, names in rules:
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {want}, got {getattr(self, name)}")
        if not self.base_sizes:
            raise ValueError("base_sizes must not be empty")
        for i, size in enumerate(self.base_sizes):
            if not (isinstance(size, (list, tuple)) and len(size) == 3 and all(
                    isinstance(v, (int, float)) and 0 < v < math.inf for v in size)):
                raise ValueError(f"base_sizes[{i}] must be three positive sizes, got {size}")

    def to_dict(self) -> dict:
        return to_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "SceneConfig":
        return from_dict(SceneConfig, data)


def child_rng(seed: int, *tags) -> np.random.Generator:
    """The generator of one seeded component: its entropy is the seed's low 32
    bits, then each tag, a string as its CRC-32 and an int as its low 32 bits."""
    parts = [int(seed) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            parts.append(zlib.crc32(tag.encode()))
        else:
            parts.append(int(tag) & 0xFFFFFFFF)
    return np.random.default_rng(parts)


def _f32(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=np.float32).astype(np.float64)


def camera_rig(config: SceneConfig) -> list[CameraCalibration]:
    """Evenly spaced outward-looking cameras at the ego origin."""
    k = np.array(
        [
            [config.focal, 0.0, (config.image_width - 1) / 2.0],
            [0.0, config.focal, (config.image_height - 1) / 2.0],
            [0.0, 0.0, 1.0],
        ]
    )
    rig = []
    for c in range(config.n_cameras):
        azimuth = 2.0 * math.pi * c / config.n_cameras
        ca, sa = math.cos(azimuth), math.sin(azimuth)
        ext = np.eye(4)
        ext[:3, 0] = (-sa, ca, 0.0)  # camera +X (right) in ego coords
        ext[:3, 1] = (0.0, 0.0, -1.0)  # camera +Y (down)
        ext[:3, 2] = (ca, sa, 0.0)  # camera +Z (optical axis)
        ext[:3, 3] = (0.0, 0.0, config.camera_z)
        rig.append(CameraCalibration(intrinsics=k, extrinsic=ext))
    return rig


def sample_points_on_box(box: Box3D, density: float, seed) -> PointCloud:
    """Uniform points on the five visible faces (no bottom), Poisson count.

    Sampling happens in the canonical box frame and is then rotated and
    translated, so equal seeds give rotation-equivariant point sets.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    l, w, h = box.size
    areas = np.array([l * w, w * h, w * h, l * h, l * h])  # top, +x, -x, +y, -y
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(density * areas.sum()))
    if count == 0:
        return PointCloud.empty()
    faces = rng.choice(5, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(-0.5, 0.5, size=count)
    local = np.empty((count, 3))
    top = faces == 0
    local[top] = np.column_stack([u[top] * l, v[top] * w, np.full(top.sum(), h / 2)])
    for face, sx in ((1, 0.5), (2, -0.5)):
        m = faces == face
        local[m] = np.column_stack([np.full(m.sum(), sx * l), u[m] * w, v[m] * h])
    for face, sy in ((3, 0.5), (4, -0.5)):
        m = faces == face
        local[m] = np.column_stack([u[m] * l, np.full(m.sum(), sy * w), v[m] * h])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    xyz = local @ rot.T + np.array(box.center)
    intensity = rng.uniform(0.0, 1.0, size=count)
    return PointCloud(xyz, intensity, np.zeros(count))


def _place_boxes(config: SceneConfig, rng: np.random.Generator) -> list[Box3D]:
    boxes: list[Box3D] = []
    sizes = np.asarray(config.base_sizes, dtype=np.float64)
    for i in range(config.n_objects):
        for _ in range(config.max_place_tries):
            class_id = int(rng.integers(config.n_classes))
            base = sizes[class_id % len(sizes)]
            jitter = 1.0 + config.size_jitter * rng.uniform(-1.0, 1.0, size=3)
            size = base * jitter
            cx, cy = rng.uniform(-config.placement_range, config.placement_range, size=2)
            yaw = rng.uniform(-math.pi, math.pi)
            speed = rng.uniform(0.0, config.speed_max)
            heading = rng.uniform(-math.pi, math.pi)
            candidate = Box3D(
                center=(float(cx), float(cy), config.ground_z + float(size[2]) / 2.0),
                size=tuple(float(v) for v in size),
                yaw=float(yaw),
                velocity=(speed * math.cos(heading), speed * math.sin(heading)),
                class_id=class_id,
                score=1.0,
            )
            if not any(bev_boxes_overlap(candidate, other) for other in boxes):
                boxes.append(candidate)
                break
        else:
            raise SceneGenerationError(
                f"could not place object {i} after {config.max_place_tries} tries"
            )
    return boxes


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices counter-clockwise."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross2(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def rasterize_footprint(corners_uv: np.ndarray, height: int, width: int) -> np.ndarray:
    """Boolean (H, W) mask of pixel centers inside the convex footprint.

    Scanline fill: per image row, intersect hull edges with the row line and
    fill the resulting column interval (boundary pixels included).
    """
    hull = _convex_hull(corners_uv)
    mask = np.zeros((height, width), dtype=bool)
    if len(hull) < 3:
        return mask
    vmin = max(0, int(math.ceil(hull[:, 1].min())))
    vmax = min(height - 1, int(math.floor(hull[:, 1].max())))
    edges = list(zip(hull, np.roll(hull, -1, axis=0)))
    for row in range(vmin, vmax + 1):
        xs = []
        for (x0, y0), (x1, y1) in edges:
            if y0 == y1:
                if y0 == row:
                    xs.extend([x0, x1])
                continue
            t = (row - y0) / (y1 - y0)
            if 0.0 <= t <= 1.0:
                xs.append(x0 + t * (x1 - x0))
        if not xs:
            continue
        lo = max(0, int(math.ceil(min(xs) - 1e-9)))
        hi = min(width - 1, int(math.floor(max(xs) + 1e-9)))
        if hi >= lo:
            mask[row, lo : hi + 1] = True
    return mask


def _ego_pose(config: SceneConfig, t: float) -> EgoPose:
    m = np.eye(4)
    m[0, 3] = config.ego_speed * t
    return EgoPose(matrix=m, timestamp=t)


def _paint_camera(
    config: SceneConfig,
    calib: CameraCalibration,
    pose_t: EgoPose,
    pose_0: EgoPose,
    boxes: list[Box3D],
    t: float,
    rng: np.random.Generator,
) -> np.ndarray:
    h, w, c = config.image_height, config.image_width, config.channels
    features = config.noise_sigma * rng.standard_normal((h, w, c))
    aligned = align_to_initial(calib, pose_t, pose_0)
    for box in boxes:
        corners = box.at_time(t).corners()
        u, v, _, valid = project_points(corners, aligned)
        if not valid.all():
            continue  # partially behind the camera; skip painting
        mask = rasterize_footprint(np.column_stack([u, v]), h, w)
        features[mask, box.class_id % c] += config.signature_gain
    return features


def _build_frame(
    config: SceneConfig, seed: int, boxes: list[Box3D], scene_id: str, frame_index: int
) -> Scene:
    rig = camera_rig(config)
    pose_0 = _ego_pose(config, 0.0)
    n_sweeps = max(config.n_camera_sweeps, config.n_lidar_sweeps)
    poses = [_ego_pose(config, -s * config.sweep_dt) for s in range(n_sweeps)]

    clouds = []
    for s in range(config.n_lidar_sweeps):
        t = -s * config.sweep_dt
        t32 = float(np.float32(t))  # keep per-point times float32-exact for the disk round trip
        for b, box in enumerate(boxes):
            pts = sample_points_on_box(
                box.at_time(t),
                config.point_density,
                child_rng(seed, "points", frame_index, s, b),
            )
            pts.time[:] = t32
            clouds.append(pts)
        grng = child_rng(seed, "ground", frame_index, s)
        gxy = grng.uniform(
            -config.ground_extent, config.ground_extent, size=(config.ground_points, 2)
        )
        clouds.append(
            PointCloud(
                _f32(np.column_stack([gxy, np.full(config.ground_points, config.ground_z)])),
                _f32(grng.uniform(0.0, 1.0, size=config.ground_points)),
                np.full(config.ground_points, t32),
            )
        )
    merged = PointCloud.concatenate(clouds)
    # quantize once at assembly so the float32 disk round trip is bit-exact
    cloud = PointCloud(_f32(merged.xyz), _f32(merged.intensity), _f32(merged.time))

    cameras = []
    for s in range(config.n_camera_sweeps):
        t = -s * config.sweep_dt
        pose_t = _ego_pose(config, t)
        for c, calib in enumerate(rig):
            prng = child_rng(seed, "camera", frame_index, s, c)
            feats = _paint_camera(config, calib, pose_t, pose_0, boxes, t, prng)
            cameras.append(
                CameraView(
                    name=f"cam_{s}_{c}",
                    calibration=calib,
                    features=_f32(feats),
                    time_offset=t,
                )
            )

    return Scene(
        scene_id=scene_id,
        seed=int(seed),
        cameras=cameras,
        cloud=cloud,
        ego_poses=poses,
        boxes=boxes,
    )


def generate_scene(config: SceneConfig, seed: int, scene_id: str = "scene") -> Scene:
    """Build a deterministic in-memory scene for (config, seed)."""
    rng = child_rng(seed, "placement")
    boxes = _place_boxes(config, rng)
    return _build_frame(config, seed, boxes, scene_id, frame_index=0)


def generate_sequence(
    config: SceneConfig, seed: int, n_frames: int, frame_dt: float = 0.5
) -> list[Scene]:
    """Frames of the same objects advanced by their constant velocities."""
    rng = child_rng(seed, "placement")
    boxes = _place_boxes(config, rng)
    return [
        _build_frame(
            config, seed, [box.at_time(k * frame_dt) for box in boxes],
            f"frame_{k:03d}", frame_index=k,
        )
        for k in range(n_frames)
    ]
