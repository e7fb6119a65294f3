"""Global augmentation synchronized across modalities in voxel space, plus
copy-paste object sampling.

A :class:`GlobalTransform` applies flip, then rotation about +Z, then
uniform scaling, in that fixed order.  The same transform can act on raw
points and boxes, on a voxel feature grid (resampling through the inverse
map), and on a whole scene including its cameras, which is what keeps the
two augmentation routes equivalent.  Flips fold a mirror into the camera
extrinsics, so mirrored rigs carry determinant -1 rotation blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .geometry import (
    CameraCalibration,
    EgoPose,
    metric_to_grid_coords,
    voxel_centers,
)
from .modality import VoxelGrid
from .numerics import Tensor
from .scene.types import Box3D, PointCloud, Scene, bev_boxes_overlap

__all__ = [
    "GlobalTransform",
    "apply_to_points",
    "apply_to_voxel_grid",
    "transform_scene",
    "gt_sample",
]

_SNAP_TOL = 1e-12  # snap near-integer matrix entries (exact flips / 90-degree turns)
_GRID_SNAP = 1e-6  # snap resampling coordinates onto exact cell centers


@dataclass(frozen=True)
class GlobalTransform:
    scale: float = 1.0
    rotation: float = 0.0  # radians about +Z
    flip_x: bool = False  # negate the x coordinate
    flip_y: bool = False  # negate the y coordinate

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def rotation_flip_matrix(self) -> np.ndarray:
        """The 3x3 linear map without scaling: Rz(rotation) @ flip."""
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        for exact in (-1.0, 0.0, 1.0):
            if abs(c - exact) < _SNAP_TOL:
                c = exact
            if abs(s - exact) < _SNAP_TOL:
                s = exact
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        flip = np.diag([-1.0 if self.flip_x else 1.0, -1.0 if self.flip_y else 1.0, 1.0])
        return rot @ flip

    def matrix(self) -> np.ndarray:
        return self.scale * self.rotation_flip_matrix()

    def inverse_matrix(self) -> np.ndarray:
        return self.rotation_flip_matrix().T / self.scale

    def inverse(self) -> "GlobalTransform":
        """The transform undoing this one under the same flip-rotate-scale order."""
        single_flip = self.flip_x != self.flip_y
        rotation = -self.rotation if not single_flip else self.rotation
        return GlobalTransform(
            scale=1.0 / self.scale,
            rotation=rotation,
            flip_x=self.flip_x,
            flip_y=self.flip_y,
        )


def apply_to_points(
    transform: GlobalTransform, cloud: PointCloud, boxes: list[Box3D]
) -> tuple[PointCloud, list[Box3D]]:
    """Transform raw points and boxes: flip, rotate, then scale.

    Box yaw follows the transformed heading vector, velocities are rotated
    and flipped (not scaled), sizes are scaled.
    """
    m = transform.matrix()
    rf = transform.rotation_flip_matrix()
    new_cloud = PointCloud(cloud.xyz @ m.T, cloud.intensity.copy(), cloud.time.copy())
    new_boxes = []
    for box in boxes:
        center = m @ np.array(box.center)
        heading = rf[:2, :2] @ np.array([math.cos(box.yaw), math.sin(box.yaw)])
        velocity = rf[:2, :2] @ np.array(box.velocity)
        new_boxes.append(
            replace(
                box,
                center=tuple(center),
                size=tuple(transform.scale * s for s in box.size),
                yaw=math.atan2(heading[1], heading[0]),
                velocity=tuple(velocity),
            )
        )
    return new_cloud, new_boxes


def apply_to_voxel_grid(transform: GlobalTransform, grid: VoxelGrid) -> VoxelGrid:
    """Resample the grid so the output at metric x holds the input at t^-1(x).

    Coordinates within 1e-6 cells of an exact cell center are snapped, so
    axis flips and 90-degree rotations of symmetric square grids reduce to
    exact index permutations.
    """
    spec = grid.spec
    inv = transform.inverse_matrix()
    centers = voxel_centers(spec).reshape(-1, 3)
    source = centers @ inv.T
    coords = metric_to_grid_coords(spec, source)
    rounded = np.round(coords)
    snap = np.abs(coords - rounded) < _GRID_SNAP
    coords[snap] = rounded[snap]
    sampled = nm.trilinear_sample(grid.features, Tensor(coords))
    features = nm.reshape(sampled, spec.counts + (spec.channels,))
    return VoxelGrid(spec=spec, features=features)


def transform_scene(scene: Scene, transform: GlobalTransform) -> Scene:
    """Apply a global transform to every modality of a scene, cameras included.

    Camera sweeps are first aligned into the ego frame at offset 0, as the
    pipeline lifts them, then the rig follows the scene: orientations pick up
    the rotation/flip, positions are additionally scaled.  Pixel content is unchanged (a camera moving rigidly
    with the world sees the same image), so lifted features of the
    transformed scene match the transformed lifted features of the original.
    """
    new_cloud, new_boxes = apply_to_points(transform, scene.cloud, scene.boxes)
    rf = transform.rotation_flip_matrix()
    new_cameras = []
    for cam in scene.cameras:
        aligned = scene.initial_frame_calibration(cam)
        ext = aligned.extrinsic
        new_ext = np.eye(4)
        new_ext[:3, :3] = rf @ ext[:3, :3]
        new_ext[:3, 3] = transform.scale * (rf @ ext[:3, 3])
        new_cameras.append(
            replace(
                cam,
                calibration=CameraCalibration(
                    intrinsics=aligned.intrinsics, extrinsic=new_ext
                ),
                features=cam.features.copy(),
            )
        )
    new_poses = [EgoPose(np.eye(4), timestamp=t) for t in scene.sweep_offsets] or [
        EgoPose(np.eye(4), timestamp=0.0)
    ]
    return Scene(
        scene_id=scene.scene_id,
        seed=scene.seed,
        cameras=new_cameras,
        cloud=new_cloud,
        ego_poses=new_poses,
        boxes=new_boxes,
    )


# ---------------------------------------------------------------------------
# copy-paste object sampling


def gt_sample(
    scene: Scene, object_database: list[tuple[Box3D, PointCloud]], n: int, seed: int
) -> Scene:
    """Attach up to n stored objects whose footprints fit the scene.

    Draws are seeded and with replacement; a candidate whose BEV box overlaps
    any box already in the scene is rejected, leaving the scene unchanged for
    that draw.
    """
    if not object_database:
        raise ValueError("object database is empty")
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    boxes = list(scene.boxes)
    clouds = [scene.cloud]
    for _ in range(n):
        box, points = object_database[int(rng.integers(len(object_database)))]
        if any(bev_boxes_overlap(box, existing) for existing in boxes):
            continue
        boxes.append(box)
        clouds.append(points)
    return Scene(
        scene_id=scene.scene_id,
        seed=scene.seed,
        cameras=scene.cameras,
        cloud=PointCloud.concatenate(clouds),
        ego_poses=scene.ego_poses,
        boxes=boxes,
    )

