import numpy as np
import pytest

from helpers import point_to_voxel, project, voxel_center
from voxdet.geometry import (
    CameraCalibration,
    EgoPose,
    VoxelGridSpec,
    _check_rigid,
    align_to_initial,
    metric_to_grid_coords,
    voxel_centers,
)


def make_calib(fx=1.0, fy=1.0, cx=0.0, cy=0.0, extrinsic=None):
    k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    return CameraCalibration(intrinsics=k, extrinsic=np.eye(4) if extrinsic is None else extrinsic)


PAPER_SPEC = VoxelGridSpec((-51.2, 51.2), (-51.2, 51.2), (-5.0, 3.0), (128, 128, 10), 8)


class TestProject:
    def test_optical_axis(self):
        assert project((0.0, 0.0, 5.0), make_calib()) == (0.0, 0.0, 5.0)

    def test_pinhole_example(self):
        u, v, d = project((1.0, 2.0, 4.0), make_calib(fx=100, fy=100, cx=50, cy=50))
        assert (u, v, d) == (75.0, 100.0, 4.0)

    def test_behind_camera(self):
        assert project((0.0, 0.0, -1.0), make_calib()) is None

    def test_near_plane(self):
        assert project((0.0, 0.0, 0.05), make_calib()) is None

    def test_scale_consistency(self):
        calib = make_calib(fx=30, fy=40, cx=5, cy=6)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(0.5, 4.0, size=3)
            s = rng.uniform(0.5, 3.0)
            u1, v1, d1 = project(tuple(p), calib)
            u2, v2, d2 = project(tuple(s * p), calib)
            assert u2 == pytest.approx(u1, abs=1e-9)
            assert v2 == pytest.approx(v1, abs=1e-9)
            assert d2 == pytest.approx(s * d1, rel=1e-12)


class TestAlign:
    def test_identity_relative_pose(self):
        calib = make_calib(extrinsic=_some_extrinsic())
        pose = EgoPose(np.eye(4), 0.0)
        out = align_to_initial(calib, pose, pose)
        np.testing.assert_allclose(out.extrinsic, calib.extrinsic, rtol=0, atol=1e-12)

    def test_translation_composes(self):
        calib = make_calib()
        shifted = np.eye(4)
        shifted[0, 3] = 1.0
        out = align_to_initial(calib, EgoPose(shifted, -0.5), EgoPose(np.eye(4), 0.0))
        expected = np.eye(4)
        expected[0, 3] = 1.0
        np.testing.assert_allclose(out.extrinsic, expected, rtol=0, atol=1e-12)

    def test_idempotent_in_shared_frame(self):
        calib = make_calib(extrinsic=_some_extrinsic())
        pose = EgoPose(_some_pose(), 0.0)
        once = align_to_initial(calib, pose, pose)
        np.testing.assert_allclose(once.extrinsic, calib.extrinsic, rtol=0, atol=1e-12)


def _some_extrinsic():
    ext = np.eye(4)
    c, s = np.cos(0.3), np.sin(0.3)
    ext[:3, :3] = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
    ext[:3, 3] = (0.5, -1.0, 0.2)
    return ext


def _some_pose():
    m = np.eye(4)
    c, s = np.cos(-0.7), np.sin(-0.7)
    m[:3, :3] = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
    m[:3, 3] = (3.0, 2.0, 0.0)
    return m


class TestVoxelIndexing:
    def test_first_center(self):
        spec = VoxelGridSpec((-51.2, 51.2), (-51.2, 51.2), (-5.0, 3.0), (128, 128, 10), 4)
        assert voxel_center(spec, (0, 0, 0))[0] == pytest.approx(-50.8, abs=1e-12)

    def test_last_center(self):
        spec = VoxelGridSpec((-51.2, 51.2), (-51.2, 51.2), (-5.0, 3.0), (128, 128, 10), 4)
        assert voxel_center(spec, (127, 0, 0))[0] == pytest.approx(50.8, abs=1e-12)

    def test_single_cell_midpoint(self):
        spec = VoxelGridSpec((-51.2, 51.2), (-1.0, 1.0), (0.0, 2.0), (1, 1, 1), 4)
        assert voxel_center(spec, (0, 0, 0)) == (0.0, 0.0, 1.0)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            voxel_center(PAPER_SPEC, (128, 0, 0))

    def test_point_to_voxel_paper_example(self):
        spec = VoxelGridSpec((-51.2, 51.2), (-51.2, 51.2), (-5.0, 3.0), (1024, 1024, 80), 4)
        assert point_to_voxel(spec, (0.05, 0.05, -4.95)) == (512, 512, 0)

    def test_lower_boundary_inclusive(self):
        assert point_to_voxel(PAPER_SPEC, (-51.2, 0.0, 0.0))[0] == 0

    def test_upper_boundary_exclusive(self):
        assert point_to_voxel(PAPER_SPEC, (51.2, 0.0, 0.0)) is None

    def test_round_trip(self):
        spec = VoxelGridSpec((-51.2, 51.2), (-40.0, 40.0), (-5.0, 3.0), (64, 50, 16), 4)
        rng = np.random.default_rng(1)
        for _ in range(200):
            idx = tuple(int(rng.integers(n)) for n in spec.counts)
            assert point_to_voxel(spec, voxel_center(spec, idx)) == idx

    def test_centers_array_matches_scalar(self):
        spec = VoxelGridSpec((-4.0, 4.0), (-2.0, 6.0), (-1.0, 1.0), (4, 5, 2), 3)
        grid = voxel_centers(spec)
        assert grid.shape == (4, 5, 2, 3)
        for idx in [(0, 0, 0), (3, 4, 1), (2, 1, 0)]:
            np.testing.assert_array_equal(grid[idx], voxel_center(spec, idx))

    def test_metric_to_grid_round_trip(self):
        spec = VoxelGridSpec((-4.0, 4.0), (-2.0, 6.0), (-1.0, 1.0), (4, 5, 2), 3)
        coords = metric_to_grid_coords(spec, voxel_centers(spec))
        idx = np.stack(np.meshgrid(*[np.arange(n) for n in spec.counts], indexing="ij"), -1)
        np.testing.assert_allclose(coords, idx, rtol=0, atol=1e-9)


class TestValidation:
    def test_negative_focal(self):
        with pytest.raises(ValueError):
            make_calib(fx=-1.0)

    def test_non_orthonormal_extrinsic(self):
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(ValueError):
            make_calib(extrinsic=bad)

    def test_mirrored_extrinsic_allowed(self):
        mirrored = np.diag([-1.0, 1.0, 1.0, 1.0])
        make_calib(extrinsic=mirrored)  # scene flips fold a mirror into the rig

    def test_mirrored_pose_rejected(self):
        with pytest.raises(ValueError):
            EgoPose(np.diag([-1.0, 1.0, 1.0, 1.0]))

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            VoxelGridSpec((1.0, 1.0), (0.0, 1.0), (0.0, 1.0), (1, 1, 1), 1)

    @pytest.mark.parametrize("bound", [-np.inf, np.inf, np.nan])
    def test_non_finite_range_names_axis(self, bound):
        with pytest.raises(ValueError, match="y_range must be finite"):
            VoxelGridSpec((0.0, 1.0), (bound, 8.0), (0.0, 1.0), (1, 1, 1), 1)

    @pytest.mark.parametrize("index, value", [((0, 0), np.nan), ((1, 1), -np.inf),
                                              ((0, 2), np.inf), ((1, 2), np.nan)])
    def test_non_finite_intrinsic_named(self, index, value):
        k = np.array([[10.0, 0.0, 7.5], [0.0, 10.0, 7.5], [0.0, 0.0, 1.0]])
        k[index] = value
        with pytest.raises(ValueError, match=rf"intrinsics entry \({index[0]}, {index[1]}\) "
                                             "must be finite"):
            CameraCalibration(intrinsics=k, extrinsic=np.eye(4))

    @pytest.mark.parametrize("index, value", [((0, 1), 5.0), ((1, 0), -1.0), ((2, 0), 5.0),
                                              ((2, 1), 1e-9), ((2, 2), 0.0), ((2, 2), 2.0)])
    def test_intrinsic_entry_that_projection_never_reads_named(self, index, value):
        k = np.array([[10.0, 0.0, 7.5], [0.0, 10.0, 7.5], [0.0, 0.0, 1.0]])
        want = k[index]
        k[index] = value
        with pytest.raises(ValueError, match=rf"intrinsics entry \({index[0]}, {index[1]}\) "
                                             rf"must be {want:g}, got {value}"):
            CameraCalibration(intrinsics=k, extrinsic=np.eye(4))

    def test_huge_rotation_entry_named_without_a_warning(self):
        # R R^T overflows to inf; tier-1 turns a RuntimeWarning into an error
        with pytest.raises(ValueError, match="extrinsic rotation block is not orthonormal"):
            make_calib(extrinsic=_with({(0, 0): 1e308}))

    def test_calibrations_compare_and_hash_by_matrix_bytes(self):
        a, b = make_calib(), make_calib()
        assert a == b and hash(a) == hash(b) and a != "calibration"
        moved = np.eye(4)
        moved[0, 3] = np.nextafter(0.0, 1.0)
        assert make_calib(extrinsic=moved) != a
        assert make_calib(fx=11.0) != a

    def test_non_finite_extrinsic_translation_named(self):
        with pytest.raises(ValueError, match=r"extrinsic entry \(0, 3\) must be finite, got nan"):
            make_calib(extrinsic=_with({(0, 3): np.nan}))

    def test_non_finite_pose_translation_named(self):
        with pytest.raises(ValueError, match=r"ego pose entry \(2, 3\) must be finite, got inf"):
            EgoPose(_with({(2, 3): np.inf}))

    @pytest.mark.parametrize("timestamp", [np.nan, np.inf, -np.inf])
    def test_non_finite_pose_timestamp_named(self, timestamp):
        with pytest.raises(ValueError, match="ego pose timestamp must be finite"):
            EgoPose(np.eye(4), timestamp)


def _allclose_rigid(matrix, allow_mirror):
    """The rigid check as ``np.allclose`` states it: the oracle of ``_check_rigid``."""
    m = np.asarray(matrix, dtype=np.float64)
    r = m[:3, :3]
    if not np.allclose(r @ r.T, np.eye(3), atol=1e-9):
        return False
    det = float(np.linalg.det(r))
    if not (abs(abs(det) - 1.0) < 1e-9 if allow_mirror else abs(det - 1.0) < 1e-9):
        return False
    return bool(np.allclose(m[3], (0.0, 0.0, 0.0, 1.0), atol=1e-12))


def _with(entries):
    m = np.eye(4)
    for index, value in entries.items():
        m[index] = value
    return m


def _stretch(a):
    # R R^T = diag(a^2, 1/a^2, 1) and det R = 1: only the diagonal bound is tested
    return _with({(0, 0): a, (1, 1): 1.0 / a})


_c, _s = np.cos(0.3), np.sin(0.3)
# (matrix, accepted without a mirror, accepted with one)
RIGID_TABLE = {
    "identity": (np.eye(4), True, True),
    "rotation": (_with({(0, 0): _c, (0, 1): -_s, (1, 0): _s, (1, 1): _c, (0, 3): 4.0}),
                 True, True),
    "mirrored": (np.diag([-1.0, 1.0, 1.0, 1.0]), False, True),
    "off_diagonal_inside": (_with({(0, 1): 0.9e-9}), True, True),
    "off_diagonal_outside": (_with({(0, 1): 1.1e-9}), False, False),
    # the relative bound 1e-5 |I| of allclose's default rtol admits these
    "diagonal_inside": (_stretch(1.0 + 0.4e-5), True, True),
    "diagonal_outside": (_stretch(1.0 + 0.6e-5), False, False),
    "bottom_zero_inside": (_with({(3, 0): 0.9e-12}), True, True),
    "bottom_zero_outside": (_with({(3, 0): 1.1e-12}), False, False),
    "bottom_one_inside": (_with({(3, 3): 1.0 + 0.9e-5}), True, True),
    "bottom_one_outside": (_with({(3, 3): 1.0 + 1.1e-5}), False, False),
    "wrong_bottom_row": (_with({(3, 2): 1.0}), False, False),
    "nan_rotation": (_with({(1, 2): np.nan}), False, False),
    "nan_bottom_row": (_with({(3, 3): np.nan}), False, False),
    "inf_rotation": (_with({(2, 2): np.inf}), False, False),
    "inf_bottom_row": (_with({(3, 1): -np.inf}), False, False),
}


@pytest.mark.parametrize("name", list(RIGID_TABLE))
def test_rigid_check_agrees_with_allclose_form(name):
    matrix, want, want_mirror = RIGID_TABLE[name]
    # an inf entry makes R R^T NaN in both forms alike
    with np.errstate(invalid="ignore"):
        for allow_mirror, expected in ((False, want), (True, want_mirror)):
            try:
                _check_rigid(matrix, "m", allow_mirror=allow_mirror)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == _allclose_rigid(matrix, allow_mirror) == expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_rigid_check_rejects_a_non_finite_translation(row, value):
    # the allclose form reads only the rotation block and the bottom row
    matrix = _with({(row, 3): value})
    assert _allclose_rigid(matrix, allow_mirror=False)
    for allow_mirror in (False, True):
        with pytest.raises(ValueError, match=rf"m entry \({row}, 3\) must be finite"):
            _check_rigid(matrix, "m", allow_mirror=allow_mirror)
