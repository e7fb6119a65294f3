"""The packages republish their submodules' ``__all__``: no exported name is lost."""

import importlib

import pytest

EXPORTS = {
    "voxdet.numerics": (
        ("autograd", "gradcheck", "ops"),
        """NumericsError Parameter Tape Tensor absolute accumulate_grad active_tape add affine
        as_tensor attention backward concat conv exp getitem grad_check interpolation_matrix
        inverse_sigmoid layer_norm log matmul mul neg nn_upsample3d parameters_of place_rows
        record_op relu reshape scale sigmoid softmax softplus square sub tmean transpose
        trilinear_sample tsum""",
    ),
    "voxdet.scene": (
        ("generate", "io", "types"),
        """Box3D CameraView FORMAT_VERSION PointCloud Scene SceneConfig SceneGenerationError
        SceneIOError SceneManifest SequenceManifest bev_boxes_overlap camera_rig generate_scene
        generate_sequence normalize_yaw rasterize_footprint read_scene sample_points_on_box
        write_scene""",
    ),
}


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_package_exports(package):
    submodules, names = EXPORTS[package]
    pkg = importlib.import_module(package)
    assert set(names.split()) <= set(pkg.__all__)
    modules = [importlib.import_module(f"{package}.{name}") for name in submodules]
    for name in pkg.__all__:
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1, f"{name} is exported by {len(owners)} submodules"
        assert getattr(pkg, name) is getattr(owners[0], name)
