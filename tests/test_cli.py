import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from voxdet.cli import main
from voxdet.geometry import VoxelGridSpec
from voxdet.pipeline import PipelineConfig
from voxdet.scene import SceneConfig
from voxdet.verification import gradient_suite


@pytest.fixture()
def scene_config_path(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(SceneConfig(n_objects=2, channels=32).to_dict()))
    return path


@pytest.fixture()
def pipeline_config_path(tmp_path):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(PipelineConfig(use_camera=False).to_dict()))
    return path


def _dirs_equal(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    return all(_dirs_equal(a / sub, b / sub) for sub in cmp.common_dirs)


class TestGenerate:
    def test_deterministic_directories(self, tmp_path, scene_config_path):
        for name in ("one", "two"):
            code = main(["generate", "--config", str(scene_config_path),
                         "--out", str(tmp_path / name), "--seed", "7", "--frames", "2"])
            assert code == 0
        assert _dirs_equal(tmp_path / "one", tmp_path / "two")

    def test_missing_config_is_validation_error(self, tmp_path):
        code = main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1


class TestDetectAndEval:
    def test_detect_eval_report_flow(self, tmp_path, scene_config_path, pipeline_config_path):
        seq = tmp_path / "seq"
        assert main(["generate", "--config", str(scene_config_path), "--out", str(seq),
                     "--seed", "7"]) == 0
        run = tmp_path / "run"
        assert main(["detect", "--scene", str(seq / "frame_000"),
                     "--config", str(pipeline_config_path), "--out", str(run)]) == 0
        assert (run / "detections.jsonl").is_file()
        assert (run / "config.json").is_file()

        # perfect detections: evaluate ground truth against itself
        metrics = run / "metrics.json"
        assert main(["eval", "--detections", str(seq / "gt.jsonl"),
                     "--ground-truth", str(seq / "gt.jsonl"), "--out", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["map"] == pytest.approx(1.0, abs=1e-9)
        assert payload["nds"] == pytest.approx(1.0, abs=1e-9)

        report = tmp_path / "report.csv"
        assert main(["report", "--inputs", str(run), "--out", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("run,z,encoder_op,sweeps")

    def test_detect_threads_identical(self, tmp_path, scene_config_path, pipeline_config_path):
        seq = tmp_path / "seq"
        main(["generate", "--config", str(scene_config_path), "--out", str(seq), "--seed", "3"])
        outs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"run{threads}"
            assert main(["detect", "--scene", str(seq / "frame_000"),
                         "--config", str(pipeline_config_path), "--out", str(out),
                         "--threads", threads]) == 0
            outs.append((out / "detections.jsonl").read_text())
        assert outs[0] == outs[1] == outs[2]

    def test_schema_version_mismatch(self, tmp_path, scene_config_path, pipeline_config_path):
        seq = tmp_path / "seq"
        main(["generate", "--config", str(scene_config_path), "--out", str(seq), "--seed", "3"])
        run = tmp_path / "run"
        main(["detect", "--scene", str(seq / "frame_000"),
              "--config", str(pipeline_config_path), "--out", str(run)])
        bad = {"schema_version": 99, "map": 0.0, "nds": 0.0, "tp_errors": {}}
        (run / "metrics.json").write_text(json.dumps(bad))
        assert main(["report", "--inputs", str(run), "--out", str(tmp_path / "r.csv")]) == 1


def _write_run(run: Path, echo: dict) -> None:
    run.mkdir()
    (run / "config.json").write_text(json.dumps(echo, indent=1))
    metrics = {"schema_version": 1, "map": 0.5, "tp_errors": {"ate": 0.25, "ase": 0.125},
               "nds": 0.375, "per_class_ap": {}}
    (run / "metrics.json").write_text(json.dumps(metrics))


class TestReport:
    CONFIG = PipelineConfig(
        grid=VoxelGridSpec((-51.2, 51.2), (-8.0, 8.0), (-2.0, 2.0), (96, 16, 5), 32),
        use_camera=False, encoder_op="conv2d")

    def test_csv_from_config_echo(self, tmp_path):
        _write_run(tmp_path / "run", {**self.CONFIG.to_dict(), "sweeps": 2})
        out = tmp_path / "report.csv"
        assert main(["report", "--inputs", str(tmp_path / "run"), "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"run,z,encoder_op,sweeps,cell_size,channels,map,nds,mate,mase\r\n"
            b"run,5,conv2d,2,1.0666666666666667,32,0.5,0.375,0.25,0.125\r\n")

    @pytest.mark.parametrize("field", ["grid", "encoder_op", "sweeps"])
    def test_incomplete_echo_named(self, tmp_path, capsys, field):
        echo = {**self.CONFIG.to_dict(), "sweeps": 2}
        del echo[field]
        _write_run(tmp_path / "run", echo)
        assert main(["report", "--inputs", str(tmp_path / "run"),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert f"run/config.json.{field}'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


class TestTrack:
    def test_track_outputs_jsonl(self, tmp_path, scene_config_path, pipeline_config_path):
        seq = tmp_path / "seq"
        assert main(["generate", "--config", str(scene_config_path), "--out", str(seq),
                     "--seed", "5", "--frames", "3"]) == 0
        out = tmp_path / "trk"
        assert main(["track", "--sequence", str(seq), "--config",
                     str(pipeline_config_path), "--out", str(out)]) == 0
        assert (out / "tracks.jsonl").is_file()


class TestGradcheckCommand:
    def test_passes(self, tmp_path):
        assert main(["gradcheck", "--seed", "0", "--points", "1",
                     "--out", str(tmp_path / "grad.txt")]) == 0
        assert "PASS" in (tmp_path / "grad.txt").read_text()

    def test_corrupted_gradients_fail(self):
        assert main(["gradcheck", "--seed", "0", "--points", "1", "--corrupt"]) == 2

    def test_suite_rejects_zero_points(self):
        with pytest.raises(ValueError, match="points"):
            gradient_suite(seed=0, points=0)


@pytest.mark.parametrize("argv, flag", [
    (["gradcheck", "--points", "0"], "--points"),
    (["gradcheck", "--points", "-3"], "--points"),
    (["detect", "--scene", "s", "--config", "c", "--out", "o", "--threads", "0"], "--threads"),
    (["track", "--sequence", "s", "--config", "c", "--out", "o", "--threads", "-2"], "--threads"),
    (["microfit", "--scene", "s", "--config", "c", "--out", "o", "--threads", "0"], "--threads"),
    (["generate", "--config", "c", "--out", "o", "--frames", "0"], "--frames"),
    (["generate", "--config", "c", "--out", "o", "--frames", "-1"], "--frames"),
])
def test_count_flags_below_one_rejected(capsys, argv, flag):
    assert main(argv) == 1
    assert flag in capsys.readouterr().err


class TestMicrofitCommand:
    def test_threshold_failure_exit_code(self, tmp_path, scene_config_path,
                                         pipeline_config_path):
        seq = tmp_path / "seq"
        main(["generate", "--config", str(scene_config_path), "--out", str(seq),
              "--seed", "7"])
        out = tmp_path / "fit"
        # 3 steps cannot reach the thresholds: exit 2, outputs still written
        code = main(["microfit", "--scene", str(seq / "frame_000"),
                     "--config", str(pipeline_config_path), "--out", str(out),
                     "--steps", "3", "--learning-rate", "0.02", "--seed", "3"])
        assert code == 2
        assert (out / "history.csv").is_file()
        assert (out / "summary.json").is_file()

    def test_negative_steps_rejected(self, tmp_path, capsys, scene_config_path,
                                     pipeline_config_path):
        seq = tmp_path / "seq"
        main(["generate", "--config", str(scene_config_path), "--out", str(seq),
              "--seed", "7"])
        out = tmp_path / "fit"
        code = main(["microfit", "--scene", str(seq / "frame_000"),
                     "--config", str(pipeline_config_path), "--out", str(out),
                     "--steps", "-3"])
        assert code == 1
        assert "steps" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
