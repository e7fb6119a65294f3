"""The benchmark tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps voxdet functions by the module attribute the
caller looks them up by.  A renamed or moved name fails ``install`` with an
AttributeError, and a call that no longer goes through the wrapped attribute
leaves its span empty; both show here rather than only in a traced benchmark
run.  The tracer is loaded from its file, as the benchmark harness runs it.
"""

import importlib.util
from pathlib import Path

import voxdet.pipeline as pipeline
import voxdet.postprocess as vpost
import voxdet.scene.io as scene_io
import voxdet.training as training
from voxdet import numerics as nm
from voxdet.decoder import DecoderConfig
from voxdet.geometry import VoxelGridSpec
from voxdet.modality import DepthSpec
from voxdet.scene import SceneConfig, generate_scene

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_every_target_and_restores_it(tmp_path):
    tracing = _load_tracing()
    targets = [(path, attr) for _, path, attr, _ in tracing.SPAN_TARGETS]
    targets += [(path, attr) for _, path, attr in tracing.COUNT_TARGETS]
    originals = [getattr(tracing.resolve(path), attr) for path, attr in targets]

    scene_io.write_scene(generate_scene(SceneConfig(n_objects=2, channels=8), 4),
                         tmp_path / "scene")
    # camera and LiDAR with KT: sweep fusion, both encoders and the transfer loss run
    config = pipeline.PipelineConfig(
        grid=VoxelGridSpec((-8.0, 8.0), (-8.0, 8.0), (-2.0, 2.0), (8, 8, 2), 8),
        depth=DepthSpec(8, 16.0), kt_enabled=True,
        decoder=DecoderConfig(num_queries=6, num_heads=2, num_points=2, channels=8,
                              ffn_dim=8))
    params = pipeline.build_model(config)
    optimizer = training.SGDOptimizer(params.trainable(), 0.01)
    tracer = tracing.Tracer()
    with tracing.Patches() as patches:
        tracer.install(patches)
        tracer.op = 1
        scene = scene_io.read_scene(tmp_path / "scene")
        optimizer.reset_gradients()
        with nm.Tape() as tape:
            total, _, _ = training.compute_scene_loss(scene, config, params)
        nm.backward(tape, total)
        optimizer.step()
        result = pipeline.run_detection(scene, config, params)
        vpost.greedy_track_step(vpost.TrackerState(), result.detections, 0.5, config.tracker)

    seen = {span[1] for span in tracer.spans} | {name for name, _ in tracer.counts}
    wanted = [t[0] for t in tracing.SPAN_TARGETS] + [t[0] for t in tracing.COUNT_TARGETS]
    assert [name for name in wanted if name not in seen] == []
    restored = [getattr(tracing.resolve(path), attr) for path, attr in targets]
    assert all(a is b for a, b in zip(restored, originals))
