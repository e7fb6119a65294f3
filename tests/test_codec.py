"""The dataclass codec shared by configs, scene manifests and box records."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxdet.decoder import DecoderConfig
from voxdet.geometry import VoxelGridSpec
from voxdet.modality import DepthSpec
from voxdet.pipeline import PipelineConfig
from voxdet.postprocess import PostprocessConfig, TrackerConfig
from voxdet.scene import SceneConfig
from voxdet.scene.types import Box3D
from voxdet.serialize import from_dict, to_dict

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
positive = st.floats(0.01, 100.0)


def ranges():
    return st.tuples(st.floats(-100.0, -0.5), st.floats(0.5, 100.0))


@st.composite
def pipeline_configs(draw):
    heads = draw(st.integers(1, 4))
    channels = heads * draw(st.integers(1, 8))
    use_camera = draw(st.booleans())
    return PipelineConfig(
        grid=VoxelGridSpec(draw(ranges()), draw(ranges()), draw(ranges()),
                           draw(st.tuples(*[st.integers(1, 16)] * 3)), channels),
        depth=DepthSpec(draw(st.integers(1, 64)), draw(positive)),
        use_camera=use_camera,
        use_lidar=draw(st.booleans()) or not use_camera,
        encoder_op=draw(st.sampled_from(["none", "conv2d", "conv3d"])),
        head_strides=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))),
        kt_enabled=draw(st.booleans()),
        kt_teacher=draw(st.sampled_from(["lidar", "fused"])),
        decoder=DecoderConfig(
            num_queries=draw(st.integers(1, 900)), num_blocks=draw(st.integers(1, 6)),
            num_heads=heads, num_points=draw(st.integers(1, 8)), channels=channels,
            num_classes=draw(st.integers(1, 10)), ffn_dim=draw(st.integers(1, 512)),
        ),
        postprocess=PostprocessConfig(
            max_detections=draw(st.integers(0, 500)), xy_range=draw(positive),
            z_range=draw(positive), nms_radius=draw(positive),
            nms_radius_per_class=draw(st.dictionaries(st.integers(0, 9), positive,
                                                      min_size=1, max_size=4)),
        ),
        tracker=TrackerConfig(draw(st.floats(0.0, 1.0)), draw(positive),
                              draw(st.integers(0, 10))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


scene_configs = st.builds(
    SceneConfig,
    n_objects=st.integers(0, 20), n_classes=st.integers(1, 10),
    placement_range=positive, ground_z=finite, size_jitter=finite,
    n_cameras=st.integers(1, 8), channels=st.integers(1, 64), focal=positive,
    n_camera_sweeps=st.integers(1, 4), sweep_dt=positive, noise_sigma=positive,
    base_sizes=st.lists(st.lists(positive, min_size=3, max_size=3), min_size=1, max_size=4),
)

boxes = st.builds(
    Box3D,
    center=st.tuples(finite, finite, finite),
    size=st.tuples(positive, positive, positive),
    yaw=st.floats(-10.0, 10.0),
    velocity=st.tuples(finite, finite),
    class_id=st.integers(0, 9),
    score=st.floats(0.0, 1.0),
)


def json_round_trip(obj):
    return from_dict(type(obj), json.loads(json.dumps(to_dict(obj))))


class TestRoundTrip:
    @given(pipeline_configs())
    @settings(max_examples=60, deadline=None)
    def test_pipeline_config(self, config):
        assert json_round_trip(config) == config

    @given(scene_configs)
    @settings(max_examples=60, deadline=None)
    def test_scene_config(self, config):
        assert json_round_trip(config) == config

    @given(boxes)
    @settings(max_examples=100, deadline=None)
    def test_box(self, box):
        assert json_round_trip(box) == box


class TestStrictKeys:
    @pytest.mark.parametrize("path", ["use_camra", "decoder.num_querys",
                                      "depth_interpolation", "decoder.detach_references"])
    def test_typo_rejected_by_dotted_path(self, path):
        data = PipelineConfig().to_dict()
        *parents, key = path.split(".")
        node = data
        for parent in parents:
            node = node[parent]
        node[key] = False
        with pytest.raises(ValueError, match=f"unknown field '{path}'"):
            PipelineConfig.from_dict(data)

    def test_missing_nested_field_named(self):
        data = PipelineConfig().to_dict()
        del data["tracker"]["max_age"]
        with pytest.raises(ValueError, match="missing field 'tracker.max_age'"):
            PipelineConfig.from_dict(data)

    def test_bad_scalar_named(self):
        data = PipelineConfig().to_dict()
        data["postprocess"]["nms_radius_per_class"] = {"car": 1.0}
        with pytest.raises(ValueError, match="postprocess.nms_radius_per_class.car"):
            PipelineConfig.from_dict(data)

    def test_tuple_length_checked(self):
        data = to_dict(Box3D(center=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0), yaw=0.0))
        data["velocity"] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="velocity"):
            from_dict(Box3D, data)


def _with(data, path, value):
    *parents, key = path.split(".")
    node = data
    for parent in parents:
        node = node[parent]
    node[key] = value
    return data


@pytest.mark.parametrize("cls, path, value, message", [
    (PipelineConfig, "use_camera", "false", "use_camera: expected bool, found 'false'"),
    (PipelineConfig, "kt_enabled", "no", "kt_enabled: expected bool, found 'no'"),
    (PipelineConfig, "use_lidar", 1, "use_lidar: expected bool, found 1"),
    (PipelineConfig, "seed", 3.9, "seed: expected int, found 3.9"),
    (PipelineConfig, "seed", True, "seed: expected int, found True"),
    (PipelineConfig, "grid.counts", [16.7, 16, 4], r"grid.counts\[0\]: expected int, found 16.7"),
    (PipelineConfig, "depth.depth_limit", False, "depth.depth_limit: expected float, found False"),
    (PipelineConfig, "encoder_op", 3, "encoder_op: expected str, found 3"),
    (SceneConfig, "n_objects", 2.5, "n_objects: expected int, found 2.5"),
])
def test_wrong_json_type_named(cls, path, value, message):
    with pytest.raises(ValueError, match=message):
        from_dict(cls, _with(to_dict(cls()), path, value))


def test_int_loads_as_float_and_int_keys_parse():
    data = _with(PipelineConfig().to_dict(), "postprocess.nms_radius", 2)
    _with(data, "postprocess.nms_radius_per_class", {"0": 1})
    post = PipelineConfig.from_dict(data).postprocess
    assert type(post.nms_radius) is float and post.nms_radius == 2.0
    assert post.nms_radius_per_class == {0: 1.0}
    assert type(post.nms_radius_per_class[0]) is float


@pytest.mark.parametrize("key", ["1_0", " 3", "+3", "03"])
def test_non_canonical_int_key_named(key):
    data = _with(PipelineConfig().to_dict(), "postprocess.nms_radius_per_class", {key: 1.0})
    message = f"postprocess.nms_radius_per_class.{key}: expected int, found {key!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig.from_dict(data)


def test_out_of_range_value_named_with_its_path():
    data = _with(PipelineConfig().to_dict(), "postprocess.nms_radius_per_class", {"2": -1})
    with pytest.raises(ValueError, match="postprocess: nms_radius_per_class.2 must be positive"):
        PipelineConfig.from_dict(data)


def test_to_dict_is_plain_json():
    config = PipelineConfig(postprocess=PostprocessConfig(nms_radius_per_class={2: 0.5}))
    data = to_dict(config)
    assert data["grid"]["x_range"] == [-8.0, 8.0]
    assert data["postprocess"]["nms_radius_per_class"] == {"2": 0.5}
    assert json.loads(json.dumps(data)) == data
