import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from helpers import closure_arrays, pointwise_kernel
from voxdet import numerics as nm
from voxdet import pipeline
from voxdet.decoder import DecoderConfig, decode, decode_boxes
from voxdet.geometry import VoxelGridSpec
from voxdet.modality import (
    DepthSpec,
    lift_footprint,
    lift_image_to_voxels,
    predict_depth_distribution,
    sweep_fusion_map,
)
from voxdet.numerics import Tape, Tensor
from voxdet.pipeline import (
    PipelineConfig,
    PipelineError,
    build_model,
    forward_scene,
    run_detection,
    run_sequence,
)
from voxdet.scene import SceneConfig, generate_scene, generate_sequence, read_scene, write_scene
from voxdet.scene.types import PointCloud, Scene


def small_scene(seed=11, n_objects=2):
    return generate_scene(SceneConfig(n_objects=n_objects, channels=32), seed)


# decode outputs of a row table of un-fused sweeps against its dense grid
DECODE_ATOL = 1e-15


def detections_equal(a, b):
    return a == b


class TestModalitySwitch:
    def test_lidar_only_skips_camera(self, monkeypatch):
        def lift(*args, **kwargs):
            raise AssertionError("a LiDAR-only run lifted a camera")

        monkeypatch.setattr(pipeline, "lift_image_to_voxels", lift)
        scene = small_scene()
        config = PipelineConfig(use_camera=False)
        result = run_detection(scene, config)
        assert result.raw.teacher_tap is None
        assert result.raw.student_tap is None

    def test_disabled_modality_input_independence(self):
        scene = small_scene(3)
        config = PipelineConfig(use_camera=False)
        params = build_model(config)
        base = forward_scene(scene, config, params)

        mutated = Scene(
            scene_id=scene.scene_id, seed=scene.seed,
            cameras=[type(c)(name=c.name, calibration=c.calibration,
                             features=np.random.default_rng(0).standard_normal(c.features.shape),
                             time_offset=c.time_offset) for c in scene.cameras],
            cloud=scene.cloud, ego_poses=scene.ego_poses, boxes=scene.boxes,
        )
        other = forward_scene(mutated, config, params)
        np.testing.assert_array_equal(base.vu.features.data, other.vu.features.data)
        assert detections_equal(decode_boxes(base.decode.blocks[-1], config.grid),
                                decode_boxes(other.decode.blocks[-1], config.grid))

    def test_zero_camera_features_match_lidar_only(self):
        scene = small_scene(5)
        zeroed = Scene(
            scene_id=scene.scene_id, seed=scene.seed,
            cameras=[type(c)(name=c.name, calibration=c.calibration,
                             features=np.zeros_like(c.features),
                             time_offset=c.time_offset) for c in scene.cameras],
            cloud=scene.cloud, ego_poses=scene.ego_poses, boxes=scene.boxes,
        )
        fused_cfg = PipelineConfig(use_camera=True, use_lidar=True, seed=4)
        lidar_cfg = PipelineConfig(use_camera=False, use_lidar=True, seed=4)
        fused = run_detection(zeroed, fused_cfg)
        lidar = run_detection(scene, lidar_cfg)
        assert detections_equal(fused.detections, lidar.detections)
        np.testing.assert_array_equal(fused.raw.vu.features.data,
                                      lidar.raw.vu.features.data)


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        scene = small_scene(6)
        config = PipelineConfig(seed=2)
        a = run_detection(scene, config)
        b = run_detection(scene, config)
        assert detections_equal(a.detections, b.detections)
        np.testing.assert_array_equal(a.raw.vu.features.data, b.raw.vu.features.data)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_thread_count_invariant(self, threads):
        scene = small_scene(7)
        config = PipelineConfig(seed=3)
        single = run_detection(scene, config, threads=1)
        multi = run_detection(scene, config, threads=threads)
        assert detections_equal(single.detections, multi.detections)
        np.testing.assert_array_equal(single.raw.vu.features.data,
                                      multi.raw.vu.features.data)


class TestSweepEquivalence:
    def test_zeroed_extra_sweeps_reduce_to_single(self):
        cfg = SceneConfig(n_objects=1, channels=32, n_camera_sweeps=2, noise_sigma=0.0)
        scene = generate_scene(cfg, 13)
        config = PipelineConfig(seed=5)
        params = build_model(config, n_camera_sweeps=2)
        # ignore the time-offset channel and average sweeps, second sweep zeroed
        c = 32
        params.sweep_fusion.merge_weight.data[c] = 0.0
        fuse = np.zeros((2 * c, c))
        fuse[:c] = np.eye(c)
        params.sweep_fusion.fuse_weight.data[...] = fuse

        zeroed = Scene(
            scene_id=scene.scene_id, seed=scene.seed,
            cameras=[type(cam)(name=cam.name, calibration=cam.calibration,
                               features=np.zeros_like(cam.features) if cam.time_offset < 0
                               else cam.features, time_offset=cam.time_offset)
                     for cam in scene.cameras],
            cloud=scene.cloud, ego_poses=scene.ego_poses, boxes=scene.boxes,
        )
        multi = forward_scene(zeroed, config, params)

        single_scene = Scene(
            scene_id=scene.scene_id, seed=scene.seed,
            cameras=[c_ for c_ in scene.cameras if c_.time_offset == 0.0],
            cloud=scene.cloud, ego_poses=scene.ego_poses, boxes=scene.boxes,
        )
        params_single = build_model(config, n_camera_sweeps=1)
        params_single.sweep_fusion.merge_weight.data[...] = \
            params.sweep_fusion.merge_weight.data
        params_single.sweep_fusion.fuse_weight.data[...] = np.eye(c)
        single = forward_scene(single_scene, config, params_single)
        np.testing.assert_allclose(multi.vu.features.data,
                                   single.vu.features.data, rtol=0, atol=1e-12)


def _depth_head_rows(monkeypatch, params):
    """Record the row count of every depth-head ``affine`` call from here on."""
    rows = []
    affine = nm.affine
    bias = params.depth_head.bias if params.depth_head else None  # None: no camera

    def counting_affine(x, w, b):
        if b is bias:
            rows.append(x.shape[0])
        return affine(x, w, b)

    monkeypatch.setattr(nm, "affine", counting_affine)
    return rows


def test_sweep_fusion_tape_keeps_the_lifted_rows_unfused(monkeypatch):
    # the whole camera branch of a 2-sweep, 2-camera desk-scale forward: the
    # lifts, the placements onto the union of their voxels and the sweep
    # sums stay on rows; with no LiDAR and encoder none only the decoder
    # reads the space, so it stays a row table of the un-fused rows, the
    # sweeps side by side, and sweep fusion runs on no voxel
    scene = generate_scene(SceneConfig(n_objects=1, n_cameras=2, channels=32,
                                       n_camera_sweeps=2), 13)
    config = PipelineConfig(use_lidar=False, encoder_op="none", seed=5)
    params = build_model(config, n_camera_sweeps=2)
    heads = _depth_head_rows(monkeypatch, params)
    with Tape() as tape:
        vi, _, composed = pipeline._camera_branch(scene, config, params)
    n_voxels, c = math.prod(config.grid.counts), config.grid.channels
    n_lifted = vi.features.shape[0]
    assert 0 < n_lifted < n_voxels and vi.features.shape == (n_lifted, 2 * c)
    assert np.count_nonzero(vi.lookup == -1) == n_voxels - n_lifted
    assert composed.weight.shape == (2 * c, c) and composed.bias.shape == (c,)
    ops = [node._backward.__qualname__.split(".")[0] for node in tape._nodes]
    assert "conv" not in ops
    # each camera's rows onto the union; nothing places the grid
    assert ops.count("place_rows") == len(scene.cameras)
    # the depth heads on each camera's read pixels are the only row affines:
    # no (n_lifted, C) sweep fusion
    assert len(heads) == len(scene.cameras) == 4
    assert [node.shape for node, op in zip(tape._nodes, ops)
            if op == "affine" and node.ndim == 2] == [(n, config.depth.bins) for n in heads]
    # the only concat puts the two sweeps side by side: no bias row
    assert [node.shape for node, op in zip(tape._nodes, ops) if op == "concat"] == \
        [(n_lifted, 2 * c)]
    # no grid-shaped values (one row per voxel)
    for node in tape._nodes:
        arrays = [node.data] + closure_arrays(node._backward)
        assert not [a.shape for a in arrays if a.dtype == np.float64
                    and (a.shape[:3] == config.grid.counts or a.shape[:1] == (n_voxels,))]
    # the map on the table, placed on its bias, is the grid that a dense reader gets
    dense_config = dataclasses.replace(config, use_lidar=True)
    grid, _, fusion = pipeline._camera_branch(scene, dense_config, params)
    assert fusion is params.fusion
    weight, bias = sweep_fusion_map(scene.sweep_offsets, params.sweep_fusion, c)
    fused = np.concatenate([nm.affine(vi.features, weight, bias).data, bias.data[None]])
    assert np.array_equal(fused[vi.lookup], grid.features.data)
    # decoding the table through the composed map is decoding that grid; the
    # sums run in another order, so the last bits may differ
    got = decode(params.decoder, vi, composed)
    want = decode(params.decoder, grid, params.fusion)
    for g, w in zip(got.blocks, want.blocks):
        for field in ("class_logits", "box_params", "reference_out"):
            np.testing.assert_allclose(getattr(g, field).data, getattr(w, field).data,
                                       rtol=0, atol=DECODE_ATOL)


def test_camera_only_forward_tape_holds_no_voxel_grid():
    # camera only with encoder none: the decoder samples the row table, so no
    # float64 value on the tape has one row per voxel
    scene = generate_scene(SceneConfig(n_objects=1, n_cameras=2, channels=32), 23)
    config = PipelineConfig(use_lidar=False, encoder_op="none", seed=1)
    params = build_model(config)
    with Tape() as tape:
        fw = forward_scene(scene, config, params)
    n_voxels = math.prod(config.grid.counts)
    for node in tape._nodes:
        arrays = [node.data] + closure_arrays(node._backward)
        assert not [a.shape for a in arrays if a.dtype == np.float64
                    and (a.shape[:3] == config.grid.counts or a.shape[:1] == (n_voxels,))]
    assert fw.vu.lookup is not None and fw.vu.features.shape[0] < n_voxels


def test_paper_shape_detection_allocates_less_than_one_grid():
    # criterion 11's shapes: one dense (128, 128, 11, 256) float64 grid is
    # 352 MB, more than everything run_detection allocates at once
    grid = VoxelGridSpec((-51.2, 51.2), (-51.2, 51.2), (-5.0, 3.0), (128, 128, 11), 256)
    decoder = DecoderConfig(num_queries=900, num_blocks=6, num_heads=8, num_points=4,
                            channels=256, num_classes=10, ffn_dim=512)
    config = PipelineConfig(grid=grid, depth=DepthSpec(64, 64.0), use_lidar=False,
                            encoder_op="none", decoder=decoder, seed=0)
    scene = generate_scene(SceneConfig(n_objects=3, n_cameras=1, channels=256,
                                       placement_range=20.0, ground_extent=30.0), seed=1)
    params = build_model(config)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = run_detection(scene, config, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.raw.decode.blocks) == 6
    assert peak - start < math.prod(grid.counts) * grid.channels * 8


@pytest.mark.parametrize("config, convs", [
    # two multi-scale heads and three encoder conv3d blocks
    (PipelineConfig(use_camera=False), 5),
    # the depth head on the one camera and sweep fusion are affines on rows
    (PipelineConfig(use_lidar=False, encoder_op="none"), 0),
])
def test_forward_records_no_fusion_conv(monkeypatch, config, convs):
    # the fusion map acts on the decoder's samples, so no conv runs over the summed spaces
    scene = generate_scene(SceneConfig(n_objects=1, n_cameras=1, channels=32), 29)
    params = build_model(config)
    heads = _depth_head_rows(monkeypatch, params)
    with Tape() as tape:
        forward_scene(scene, config, params)
    assert len([node for node in tape._nodes
                if node._backward.__qualname__.startswith("conv.")]) == convs
    assert len(heads) == int(config.use_camera)


def _full_image_lift(cam, scene, config, params):
    # the oracle: the depth head on every pixel, then a lift that projects on
    # its own and returns the dense grid, so every voxel is a row and sweep
    # fusion runs on every voxel
    feats = Tensor(cam.features)
    dist = predict_depth_distribution(feats, params.depth_head, config.depth)
    space = lift_image_to_voxels(feats, dist, scene.initial_frame_calibration(cam),
                                 config.grid, config.depth)
    n_voxels = math.prod(config.grid.counts)
    return nm.reshape(space, (n_voxels, config.grid.channels)), np.arange(n_voxels)


class TestReadSetLift:
    """The pipeline runs the depth head only on the pixels each lift reads."""

    def _branch(self, scene, config):
        params = build_model(config, n_camera_sweeps=2)
        with Tape() as tape:
            vi, _, _ = pipeline._camera_branch(scene, config, params)
            probe = np.random.default_rng(0).standard_normal(vi.features.shape)
            loss = nm.tsum(nm.mul(vi.features, Tensor(probe)))
        nm.backward(tape, loss)
        head = params.depth_head
        return vi.features.data, head.weight.grad, head.bias.grad

    def test_matches_full_image_oracle(self, monkeypatch):
        # wide views: the cameras of a sweep share voxels, and together they
        # still miss part of the grid, so every camera's rows are placed onto
        # the union of the lifted voxels and overlapping rows are summed
        scene = generate_scene(SceneConfig(n_objects=1, n_cameras=3, channels=32,
                                           n_camera_sweeps=2, ego_speed=2.0, focal=8.0), 8)
        config = PipelineConfig(use_lidar=False, seed=2)
        assert len(scene.cameras) == 6
        footprints = [lift_footprint(scene.initial_frame_calibration(cam), config.grid,
                                     config.depth, cam.features.shape[:2])
                      for cam in scene.cameras]
        union = np.unique(np.concatenate([fp.voxels for fp in footprints]))
        assert union.size < math.prod(config.grid.counts)
        for cam, fp in zip(scene.cameras, footprints):
            assert 0 < fp.voxels.size < union.size
            assert 0 < fp.read.size < cam.features[..., 0].size
        for sweep in (footprints[:3], footprints[3:]):
            assert np.intersect1d(sweep[0].voxels, sweep[1].voxels).size > 0
        out, dw, db = self._branch(scene, config)
        monkeypatch.setattr(pipeline, "_lift_camera", _full_image_lift)
        want, dw_want, db_want = self._branch(scene, config)
        assert np.array_equal(out, want)
        assert np.abs(dw_want).max() > 0 and np.abs(db_want).max() > 0
        # the gradient sums run over fewer pixels, so their last bits may differ
        np.testing.assert_allclose(dw, dw_want, rtol=0, atol=1e-16)
        np.testing.assert_allclose(db, db_want, rtol=0, atol=1e-16)

    def test_depth_head_evaluates_only_the_read_set(self, monkeypatch):
        scene = generate_scene(SceneConfig(n_objects=1, n_cameras=1, image_height=96,
                                           image_width=128, channels=32), 7)
        config = PipelineConfig()
        assert config.grid.counts == (16, 16, 4)
        params = build_model(config)
        [cam] = scene.cameras
        rows = _depth_head_rows(monkeypatch, params)
        pipeline._lift_camera(cam, scene, config, params)
        fp = lift_footprint(scene.initial_frame_calibration(cam), config.grid, config.depth,
                            (96, 128))
        assert rows == [fp.read.size]
        assert 0 < fp.read.size < 96 * 128 // 8

    def test_float32_map_lifts_like_its_float64_values(self):
        # the lift widens the read pixels of a float32 map; the same values in
        # float64 lift to the same bytes
        scene = generate_scene(SceneConfig(n_objects=1, n_cameras=2, channels=32), 5)
        config = PipelineConfig(use_lidar=False)
        params = build_model(config)
        for cam in scene.cameras:
            narrow = dataclasses.replace(cam, features=cam.features.astype(np.float32))
            assert (narrow.features.dtype, cam.features.dtype) == (np.float32, np.float64)
            assert np.array_equal(narrow.features, cam.features)
            rows, voxels = pipeline._lift_camera(cam, scene, config, params)
            rows32, voxels32 = pipeline._lift_camera(narrow, scene, config, params)
            assert rows.data.tobytes() == rows32.data.tobytes()
            assert np.array_equal(voxels, voxels32)


def _output_bytes(result):
    dets = [(*d.center, *d.size, d.yaw, *d.velocity, d.class_id, d.score)
            for d in result.detections]
    return [np.asarray(dets).tobytes()] + [
        t.data.tobytes() for b in result.raw.decode.blocks
        for t in (b.class_logits, b.box_params, b.reference_out)]


def test_rig_frames_detect_alike_with_a_cold_and_a_warm_footprint_cache(tmp_path):
    # 6 cameras over 2 sweeps, 4 frames read from disk: the rig-track benchmark's rig
    scene_config = SceneConfig(n_cameras=6, image_height=96, image_width=128,
                               n_camera_sweeps=2, n_lidar_sweeps=2, ego_speed=2.0)
    config = PipelineConfig()
    params = build_model(config, n_camera_sweeps=2)
    for i, frame in enumerate(generate_sequence(scene_config, 11, 4, 0.5)):
        write_scene(frame, tmp_path / f"frame_{i}")
        scene = read_scene(tmp_path / f"frame_{i}")
        lift_footprint.cache_clear()
        cold = run_detection(scene, config, params)
        hits = lift_footprint.cache_info().hits
        warm = run_detection(scene, config, params)
        assert lift_footprint.cache_info().hits == hits + len(scene.cameras) == 12
        assert _output_bytes(cold) == _output_bytes(warm)


def test_fused_kt_teacher_is_dense_fusion_off_the_tape():
    scene = small_scene(31)
    config = PipelineConfig(kt_enabled=True, kt_teacher="fused", seed=6)
    params = build_model(config)
    with Tape() as tape:
        fw = forward_scene(scene, config, params)
    teacher = fw.teacher_tap.features
    want = nm.conv(fw.vu.features.data, pointwise_kernel(params.fusion.weight.data),
                   params.fusion.bias.data)
    np.testing.assert_array_equal(teacher.data, want.data)
    assert not teacher.requires_grad
    assert not [node for node in tape._nodes
                if node is teacher or np.shares_memory(node.data, teacher.data)]


class TestSequence:
    def test_single_frame_cold_start(self):
        frames = generate_sequence(SceneConfig(n_objects=2, channels=32), 17, 1)
        config = PipelineConfig(use_camera=False)
        states = run_sequence(frames, config)
        assert len(states) == 1
        spawned = {t.track_id for t in states[0].tracks}
        assert spawned == set(states[0].updated_ids)

    def test_empty_second_frame_ages_tracks(self):
        frames = generate_sequence(SceneConfig(n_objects=1, channels=32), 19, 1)
        empty = Scene(scene_id="empty", seed=0, cameras=frames[0].cameras,
                      cloud=PointCloud.empty(), ego_poses=frames[0].ego_poses, boxes=[])
        config = PipelineConfig(use_camera=False)
        from voxdet.pipeline import build_model as bm
        from voxdet.postprocess import TrackerState, greedy_track_step

        params = bm(config)
        first = run_detection(frames[0], config, params)
        state = greedy_track_step(TrackerState(), first.detections, 0.5, config.tracker)
        ages_before = [t.age for t in state.tracks]
        second = run_detection(empty, config, params)
        kept = [d for d in second.detections if d.score >= config.tracker.score_threshold]
        if not kept:  # low-score noise never matches; all tracks age
            state2 = greedy_track_step(state, second.detections, 0.5, config.tracker)
            assert all(t.age == a + 1 for t, a in zip(state2.tracks, ages_before))


class TestErrors:
    def test_camera_stage_error_labeled(self):
        scene = small_scene(23)
        no_cams = Scene(scene_id="x", seed=0, cameras=[], cloud=scene.cloud,
                        ego_poses=scene.ego_poses, boxes=scene.boxes)
        config = PipelineConfig(use_camera=True, use_lidar=True)
        with pytest.raises(PipelineError) as err:
            run_detection(no_cams, config)
        assert err.value.stage == "camera"

    def test_non_finite_parameter_raises_in_the_camera_stage(self):
        # the reshape of the fuse weight copies the NaN without a check;
        # the composing matmul is arithmetic and checks
        scene = small_scene(23)
        config = PipelineConfig(use_lidar=False)
        params = build_model(config)
        params.sweep_fusion.fuse_weight.data[1, 2] = np.nan
        with pytest.raises(PipelineError) as err:
            forward_scene(scene, config, params)
        assert err.value.stage == "camera"
        assert isinstance(err.value.cause, nm.NumericsError)

    def test_channel_mismatch_rejected(self):
        from voxdet.decoder import DecoderConfig
        from voxdet.geometry import VoxelGridSpec

        with pytest.raises(ValueError):
            PipelineConfig(
                grid=VoxelGridSpec((-8, 8), (-8, 8), (-2, 2), (16, 16, 4), 16),
                decoder=DecoderConfig(channels=32),
            )


class TestConfigRoundTrip:
    def test_json_round_trip(self):
        config = PipelineConfig(use_camera=False, encoder_op="conv2d", seed=9)
        rebuilt = PipelineConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="grid"):
            PipelineConfig.from_dict({"depth": {"bins": 4, "depth_limit": 4.0}})

    def test_bad_encoder_op_named(self):
        data = PipelineConfig().to_dict()
        data["encoder_op"] = "transformer"
        with pytest.raises(ValueError, match="encoder_op"):
            PipelineConfig.from_dict(data)

    def test_no_modality_rejected(self):
        with pytest.raises(ValueError, match="use_camera/use_lidar"):
            PipelineConfig(use_camera=False, use_lidar=False)

    @pytest.mark.parametrize("strides", [["a"], [0], [[2, 2, 1]], []])
    def test_bad_head_strides_named(self, strides):
        data = PipelineConfig().to_dict()
        data["head_strides"] = strides
        with pytest.raises(ValueError, match="head_strides"):
            PipelineConfig.from_dict(data)


class TestStage:
    def test_wraps_other_errors_with_stage_name(self):
        from voxdet.pipeline import _stage

        with pytest.raises(PipelineError, match="'decode'") as info:
            with _stage("decode"):
                raise ValueError("boom")
        assert isinstance(info.value.cause, ValueError)

    def test_pipeline_error_passes_through(self):
        from voxdet.pipeline import _stage

        inner = PipelineError("camera", ValueError("boom"))
        with pytest.raises(PipelineError) as info:
            with _stage("decode"):
                raise inner
        assert info.value is inner


class TestParameterWalk:
    def test_fused_kt_model_parameter_lists(self):
        params = build_model(PipelineConfig(kt_enabled=True))
        trainable = params.trainable()
        names = [p.name for p in trainable]
        assert len(trainable) == 87
        assert len(set(names)) == 87
        student = [p for p in trainable
                   if p.name.split(".")[0] in ("depth", "sweeps", "encoder_img")]
        assert len(student) == 12
        assert list(map(id, params.student_parameters())) == list(map(id, student))
        decoder = nm.parameters_of(params.decoder)
        assert len(decoder) == 63
        assert list(map(id, trainable[-63:])) == list(map(id, decoder))

    @pytest.mark.parametrize("sweeps", [1, 2])
    @pytest.mark.parametrize("teacher", ["lidar", "fused"])
    @pytest.mark.parametrize("encoder", ["none", "conv2d", "conv3d"])
    def test_pointwise_maps_are_matrices(self, encoder, teacher, sweeps):
        # a 5-D parameter is a real 3-D kernel; every per-voxel map is the
        # (C_in, C_out) matrix that ``affine`` reads
        config = PipelineConfig(encoder_op=encoder, kt_enabled=True, kt_teacher=teacher)
        params = build_model(config, n_camera_sweeps=sweeps)
        c, bins = config.grid.channels, config.depth.bins
        encoders = [f"encoder_{m}.block{b}.{kind}" for m in ("img", "pts") if encoder != "none"
                    for kind in ("weight", "bias") for b in range(3)]
        want = (["depth.weight", "depth.bias", "sweeps.merge_weight", "sweeps.merge_bias",
                 "sweeps.fuse_weight", "sweeps.fuse_bias",
                 "heads.s1.weight", "heads.s2.weight", "heads.s1.bias", "heads.s2.bias",
                 *encoders, "fusion.weight", "fusion.bias"]
                + [p.name for p in nm.parameters_of(params.decoder)])
        trainable = params.trainable()
        assert [p.name for p in trainable] == want
        assert len(trainable) == (75 if encoder == "none" else 87)
        for p in trainable:
            assert p.ndim in (1, 2) or (p.ndim == 5 and max(p.shape[:3]) > 1), \
                (p.name, p.shape)
        shapes = {p.name: p.shape for p in trainable}
        assert shapes["depth.weight"] == (c, bins)
        assert shapes["sweeps.merge_weight"] == (c + 1, c)
        assert shapes["sweeps.fuse_weight"] == (sweeps * c, c)
        assert shapes["fusion.weight"] == (c, c)
