"""Scene-level domain types: boxes, point clouds, camera views, manifests."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..geometry import CameraCalibration, EgoPose, align_to_initial

__all__ = [
    "Box3D", "PointCloud", "CameraView", "Scene", "CameraRecord", "PoseRecord", "SceneManifest",
    "SequenceManifest", "bev_boxes_overlap", "normalize_yaw",
]


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: the unit of ground truth, prediction, and tracking."""

    center: tuple[float, float, float]  # meters
    size: tuple[float, float, float]  # (l, w, h), meters
    yaw: float  # radians about +Z, in (-pi, pi]
    velocity: tuple[float, float] = (0.0, 0.0)  # m/s
    class_id: int = 0
    score: float = 1.0

    def __post_init__(self):
        for name, values in (("center", self.center), ("size", self.size),
                             ("yaw", (self.yaw,)), ("velocity", self.velocity)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"box {name} must be finite, got {getattr(self, name)}")
        if any(s <= 0 for s in self.size):
            raise ValueError(f"box size must be positive, got {self.size}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "size", tuple(float(s) for s in self.size))
        object.__setattr__(self, "velocity", tuple(float(v) for v in self.velocity))
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    def bev_corners(self) -> np.ndarray:
        """The 4 footprint corners in the XY plane, (4, 2)."""
        l, w, _ = self.size
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        local = np.array(
            [[l / 2, w / 2], [l / 2, -w / 2], [-l / 2, -w / 2], [-l / 2, w / 2]]
        )
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array(self.center[:2])

    def corners(self) -> np.ndarray:
        """All 8 box corners, (8, 3); bottom face first."""
        bev = self.bev_corners()
        _, _, h = self.size
        z0 = self.center[2] - h / 2
        z1 = self.center[2] + h / 2
        bottom = np.column_stack([bev, np.full(4, z0)])
        top = np.column_stack([bev, np.full(4, z1)])
        return np.vstack([bottom, top])

    def at_time(self, t: float) -> "Box3D":
        """The box advanced by its constant BEV velocity."""
        cx, cy, cz = self.center
        vx, vy = self.velocity
        return replace(self, center=(cx + vx * t, cy + vy * t, cz))


def bev_boxes_overlap(a: Box3D, b: Box3D) -> bool:
    """Separating-axis test on the two BEV footprint rectangles."""
    ca, cb = a.bev_corners(), b.bev_corners()
    for corners in (ca, cb):
        edges = np.roll(corners, -1, axis=0) - corners
        for ex, ey in edges[:2]:  # a rectangle has two distinct edge directions
            axis = np.array([-ey, ex])
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() <= pb.min() or pb.max() <= pa.min():
                return False
    return True


@dataclass
class PointCloud:
    """N points with intensity and per-point time offset (<= 0, initial sweep 0)."""

    xyz: np.ndarray  # (N, 3) float64
    intensity: np.ndarray  # (N,) in [0, 1]
    time: np.ndarray  # (N,) seconds

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        self.intensity = np.asarray(self.intensity, dtype=np.float64).reshape(-1)
        self.time = np.asarray(self.time, dtype=np.float64).reshape(-1)
        n = self.xyz.shape[0]
        if self.intensity.shape[0] != n or self.time.shape[0] != n:
            raise ValueError("point cloud field lengths disagree")

    def __len__(self) -> int:
        return self.xyz.shape[0]

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.zeros((0, 3)), np.zeros(0), np.zeros(0))

    @staticmethod
    def concatenate(clouds: list["PointCloud"]) -> "PointCloud":
        if not clouds:
            return PointCloud.empty()
        return PointCloud(
            np.concatenate([c.xyz for c in clouds]),
            np.concatenate([c.intensity for c in clouds]),
            np.concatenate([c.time for c in clouds]),
        )


@dataclass
class CameraView:
    """One camera entry: calibration, dense feature map, and sweep offset."""

    name: str
    calibration: CameraCalibration
    features: np.ndarray  # (H, W, C) float64
    time_offset: float = 0.0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 3:
            raise ValueError(f"camera features must be (H, W, C), got {self.features.shape}")


@dataclass
class CameraRecord:
    """Manifest entry of one camera: its blob file, feature shape and calibration."""

    name: str
    file: str
    height: int
    width: int
    channels: int
    time_offset: float
    intrinsics: list[list[float]]
    extrinsic: list[list[float]]


@dataclass
class PoseRecord:
    """Manifest entry of one ego pose."""

    time_offset: float
    matrix: list[list[float]]


@dataclass
class SceneManifest:
    """Declared contents of an on-disk scene directory."""

    scene_id: str
    seed: int
    cameras: list[CameraRecord]
    points_file: str
    num_points: int
    ego_poses: list[PoseRecord]
    boxes: list[Box3D]
    format_version: int = 1


@dataclass
class SequenceManifest:
    """Declared contents of a sequence directory: its frame directories in time order."""

    frames: list[str]
    frame_dt: float  # seconds between frames
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.frame_dt) and self.frame_dt > 0):
            raise ValueError(f"frame_dt must be finite and > 0, got {self.frame_dt}")


@dataclass
class Scene:
    """A fully loaded scene: sensors aligned to the initial ego frame."""

    scene_id: str
    seed: int
    cameras: list[CameraView]
    cloud: PointCloud
    ego_poses: list[EgoPose] = field(default_factory=list)
    boxes: list[Box3D] = field(default_factory=list)

    def pose_at(self, time_offset: float) -> EgoPose:
        for pose in self.ego_poses:
            if abs(pose.timestamp - time_offset) < 1e-9:
                return pose
        raise KeyError(f"no ego pose recorded at offset {time_offset}")

    def initial_frame_calibration(self, cam: CameraView) -> CameraCalibration:
        """The camera's calibration re-expressed in the ego frame at offset 0.

        A scene without poses is taken to be recorded in that frame already.
        """
        if not self.ego_poses:
            return cam.calibration
        return align_to_initial(cam.calibration, self.pose_at(cam.time_offset),
                                self.pose_at(0.0))

    @property
    def sweep_offsets(self) -> list[float]:
        return sorted({cam.time_offset for cam in self.cameras}, reverse=True)
