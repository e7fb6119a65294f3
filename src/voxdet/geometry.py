"""Camera calibration, pinhole projection, ego alignment, and voxel indexing.

Conventions: camera frames are +Z optical axis, +X right, +Y down; depth is
camera-frame Z (planar depth, not ray length).  Voxel intervals are half-open
[min, max) and cell centers sit midway between cell edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NEAR_PLANE",
    "CameraCalibration",
    "EgoPose",
    "VoxelGridSpec",
    "project_points",
    "align_to_initial",
    "voxel_centers",
    "metric_to_grid_coords",
    "rigid_inverse",
]

NEAR_PLANE = 0.1  # meters; points at or behind this camera depth do not project

# ``np.allclose(a, b, atol=...)`` written out as |a - b| <= atol + 1e-5 |b|
# (its default rtol) for the two fixed targets; NaN fails every comparison
_EYE3 = np.eye(3)
_EYE3_TOL = 1e-9 + 1e-5 * np.abs(_EYE3)
_BOTTOM_ROW = np.array([0.0, 0.0, 0.0, 1.0])
_BOTTOM_ROW_TOL = 1e-12 + 1e-5 * np.abs(_BOTTOM_ROW)
# the intrinsics entries that projection does not read, and the value each must hold
_PINHOLE_ENTRIES = (((0, 1), 0.0), ((1, 0), 0.0), ((2, 0), 0.0), ((2, 1), 0.0), ((2, 2), 1.0))


def _check_finite(m: np.ndarray, what: str) -> None:
    """Reject a non-finite entry of ``m``, naming the first by its index."""
    if not np.isfinite(m).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(m))[0])
        raise ValueError(f"{what} entry {index} must be finite, got {m[index]}")


def _check_rigid(matrix: np.ndarray, what: str, allow_mirror: bool = False) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (4, 4):
        raise ValueError(f"{what} must be a 4x4 matrix, got {m.shape}")
    _check_finite(m, what)
    r = m[:3, :3]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
        orthonormal = (np.abs(r @ r.T - _EYE3) <= _EYE3_TOL).all()
    if not orthonormal:
        raise ValueError(f"{what} rotation block is not orthonormal")
    det = float(np.linalg.det(r))
    # Mirrored cameras (det -1) arise when a scene flip is folded into the rig.
    ok = abs(abs(det) - 1.0) < 1e-9 if allow_mirror else abs(det - 1.0) < 1e-9
    if not ok:
        raise ValueError(f"{what} rotation determinant is {det:.6f}")
    if not (np.abs(m[3] - _BOTTOM_ROW) <= _BOTTOM_ROW_TOL).all():
        raise ValueError(f"{what} bottom row must be (0, 0, 0, 1)")
    return m


def rigid_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a rigid 4x4 transform via transposed rotation."""
    m = np.asarray(matrix, dtype=np.float64)
    out = np.eye(4)
    rt = m[:3, :3].T
    out[:3, :3] = rt
    out[:3, 3] = -(rt @ m[:3, 3])
    return out


@dataclass(frozen=True, eq=False)
class CameraCalibration:
    """Pinhole intrinsics plus a rigid camera-to-ego extrinsic.

    The intrinsics hold fx, fy, cx and cy only: no skew, bottom row (0, 0, 1).
    Two calibrations are equal, and hash alike, when their matrices' bytes
    are, so a calibration can key a cache.
    """

    intrinsics: np.ndarray  # 3x3, pixels
    extrinsic: np.ndarray  # 4x4, camera -> ego, meters

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=np.float64)
        if k.shape != (3, 3):
            raise ValueError(f"intrinsics must be 3x3, got {k.shape}")
        _check_finite(k, "intrinsics")
        for index, want in _PINHOLE_ENTRIES:
            if k[index] != want:
                raise ValueError(f"intrinsics entry {index} must be {want:g}, got {k[index]}")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(
            self, "extrinsic", _check_rigid(self.extrinsic, "extrinsic", allow_mirror=True)
        )

    def _key(self) -> tuple[bytes, bytes]:
        return self.intrinsics.tobytes(), self.extrinsic.tobytes()

    def __eq__(self, other):
        return isinstance(other, CameraCalibration) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def fx(self) -> float:
        return float(self.intrinsics[0, 0])

    @property
    def fy(self) -> float:
        return float(self.intrinsics[1, 1])

    @property
    def cx(self) -> float:
        return float(self.intrinsics[0, 2])

    @property
    def cy(self) -> float:
        return float(self.intrinsics[1, 2])


@dataclass(frozen=True)
class EgoPose:
    """Rigid ego-to-world transform at a timestamp."""

    matrix: np.ndarray  # 4x4
    timestamp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_rigid(self.matrix, "ego pose"))
        if not np.isfinite(self.timestamp):
            raise ValueError(f"ego pose timestamp must be finite, got {self.timestamp}")


@dataclass(frozen=True)
class VoxelGridSpec:
    """Metric extents and cell counts of a dense voxel grid."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    counts: tuple[int, int, int]
    channels: int

    def __post_init__(self):
        for name, (lo, hi) in zip("xyz", (self.x_range, self.y_range, self.z_range)):
            if not np.isfinite([lo, hi]).all():
                raise ValueError(f"{name}_range must be finite, got ({lo}, {hi})")
            if not hi > lo:
                raise ValueError(f"{name}_range must satisfy max > min, got ({lo}, {hi})")
        if any(c < 1 for c in self.counts):
            raise ValueError(f"cell counts must be >= 1, got {self.counts}")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")

    @property
    def ranges(self) -> tuple[tuple[float, float], ...]:
        return (self.x_range, self.y_range, self.z_range)

    @property
    def cell_sizes(self) -> tuple[float, float, float]:
        return tuple(
            (hi - lo) / n for (lo, hi), n in zip(self.ranges, self.counts)
        )


def project_points(points: np.ndarray, calib: CameraCalibration):
    """Vectorized pinhole projection of (N, 3) ego-frame points.

    Returns (u, v, d, valid); u/v/d are only meaningful where valid.  The
    camera-frame transform is written out per component with a fixed
    summation order so that axis-permuted inputs reproduce bit-identical
    results under axis-permuted calibrations.
    """
    inv = rigid_inverse(calib.extrinsic)
    px, py, pz = points[:, 0], points[:, 1], points[:, 2]
    xc = (inv[0, 0] * px + inv[0, 1] * py) + (inv[0, 2] * pz + inv[0, 3])
    yc = (inv[1, 0] * px + inv[1, 1] * py) + (inv[1, 2] * pz + inv[1, 3])
    zc = (inv[2, 0] * px + inv[2, 1] * py) + (inv[2, 2] * pz + inv[2, 3])
    valid = zc > NEAR_PLANE
    safe = np.where(valid, zc, 1.0)
    u = calib.fx * (xc / safe) + calib.cx
    v = calib.fy * (yc / safe) + calib.cy
    return u, v, zc, valid


def align_to_initial(
    calib: CameraCalibration, pose_t: EgoPose, pose_0: EgoPose
) -> CameraCalibration:
    """Re-express a sweep-t calibration in the initial ego frame."""
    aligned = rigid_inverse(pose_0.matrix) @ pose_t.matrix @ calib.extrinsic
    return CameraCalibration(intrinsics=calib.intrinsics, extrinsic=aligned)


def _axis_center(lo: float, hi: float, count: int, index) -> np.ndarray:
    # Midpoint-symmetric form keeps symmetric grids exactly mirror-symmetric,
    # which the augmentation equivalence relies on; equals min + (i+0.5)*cell.
    cell = (hi - lo) / count
    mid = (lo + hi) / 2.0
    return mid + (2.0 * np.asarray(index, dtype=np.float64) + 1.0 - count) * (cell / 2.0)


def voxel_centers(spec: VoxelGridSpec) -> np.ndarray:
    """All cell centers as an (X, Y, Z, 3) array."""
    axes = [
        _axis_center(lo, hi, n, np.arange(n))
        for (lo, hi), n in zip(spec.ranges, spec.counts)
    ]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1)


def metric_to_grid_coords(spec: VoxelGridSpec, points: np.ndarray) -> np.ndarray:
    """Continuous grid-index coordinates of metric points ((..., 3) in, same out).

    Cell centers map to integer coordinates; uses the same midpoint-symmetric
    arithmetic as :func:`voxel_centers`.
    """
    p = np.asarray(points, dtype=np.float64)
    out = np.empty_like(p)
    for axis, ((lo, hi), n) in enumerate(zip(spec.ranges, spec.counts)):
        cell = (hi - lo) / n
        mid = (lo + hi) / 2.0
        out[..., axis] = (p[..., axis] - mid) / cell + (n - 1) / 2.0
    return out

