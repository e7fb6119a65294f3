"""Synthetic scene generation and the on-disk scene format."""

from .generate import (
    SceneConfig,
    SceneGenerationError,
    camera_rig,
    generate_scene,
    generate_sequence,
    rasterize_footprint,
    sample_points_on_box,
)
from .io import FORMAT_VERSION, SceneIOError, read_scene, write_scene
from .types import (
    Box3D,
    CameraView,
    PointCloud,
    Scene,
    SceneManifest,
    SequenceManifest,
    bev_boxes_overlap,
    normalize_yaw,
)

__all__ = [
    "SceneConfig", "SceneGenerationError", "camera_rig", "generate_scene",
    "generate_sequence", "rasterize_footprint", "sample_points_on_box",
    "FORMAT_VERSION", "SceneIOError", "read_scene", "write_scene", "Box3D",
    "CameraView", "PointCloud", "Scene", "SceneManifest", "SequenceManifest",
    "bev_boxes_overlap", "normalize_yaw",
]
