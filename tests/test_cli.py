import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from voxdet.cli import main
from voxdet.numerics import ops
from voxdet.geometry import VoxelGridSpec
from voxdet.pipeline import PipelineConfig
from voxdet.scene import SceneConfig
from voxdet.verification import gradient_suite

from helpers import BAD_SCENE_FIELDS


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

    @pytest.mark.parametrize("field, value, named", BAD_SCENE_FIELDS)
    def test_out_of_range_field_named(self, tmp_path, capsys, field, value, named):
        data = SceneConfig().to_dict()
        data[field] = value
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "seq"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("sweeps, message", [
        (True, "expected int, found True"), (2.7, "expected int, found 2.7"),
        ("two", "expected int, found 'two'"), (0, "must be >= 1, found 0"),
    ], ids=["bool", "fraction", "string", "zero"])
    def test_malformed_sweeps_named(self, tmp_path, capsys, sweeps, message):
        _write_run(tmp_path / "run", {**self.CONFIG.to_dict(), "sweeps": sweeps})
        assert main(["report", "--inputs", str(tmp_path / "run"),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert f"run/config.json.sweeps: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("metrics, message", [
        ([1, 2], "run/metrics.json: expected a JSON object, found list"),
        ("{not json", "run/metrics.json: invalid JSON"),
        ({"schema_version": 1, "nds": 0.1, "tp_errors": {}},
         "run/metrics.json: missing field 'map'"),
        ({"schema_version": 1, "map": 0.1, "tp_errors": {}},
         "run/metrics.json: missing field 'nds'"),
        ({"schema_version": 1, "map": 0.1, "nds": 0.1},
         "run/metrics.json: missing field 'tp_errors'"),
        ({"schema_version": 1, "map": 0.1, "nds": 0.1, "tp_errors": [0.5]},
         "run/metrics.json.tp_errors: expected an object, found [0.5]"),
        ({"schema_version": 1, "map": "0.1", "nds": 0.1, "tp_errors": {}},
         "run/metrics.json.map: expected float, found '0.1'"),
        ({"schema_version": 1, "map": 0.1, "nds": True, "tp_errors": {}},
         "run/metrics.json.nds: expected float, found True"),
        ({"schema_version": 1, "map": 0.1, "nds": 0.1, "tp_errors": {"ate": None}},
         "run/metrics.json.tp_errors.ate: expected float, found None"),
    ], ids=["list", "invalid", "no-map", "no-nds", "no-tp-errors", "tp-errors-list",
            "map-string", "nds-bool", "tp-error-null"])
    def test_malformed_metrics_named(self, tmp_path, capsys, metrics, message):
        _write_run(tmp_path / "run", {**self.CONFIG.to_dict(), "sweeps": 2})
        path = tmp_path / "run" / "metrics.json"
        path.write_text(metrics if isinstance(metrics, str) else json.dumps(metrics))
        assert main(["report", "--inputs", str(tmp_path / "run"),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert message in capsys.readouterr().err
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
        assert json.loads((seq / "sequence.json").read_text()) == {
            "frames": ["frame_000", "frame_001", "frame_002"], "frame_dt": 0.5, "seed": 5}

    @pytest.mark.parametrize("payload, message", [
        ({"frame_dt": 0.5, "seed": 0}, "missing field 'sequence.json.frames'"),
        (["frame_000"], "expected a JSON object, found list"),
        ({"frames": [], "frame_dt": True, "seed": 0},
         "sequence.json.frame_dt: expected float"),
        ({"frames": [], "frame_dt": 0.0, "seed": 0}, "frame_dt must be finite and > 0"),
        ({"frames": [], "frame_dt": 0.5}, "missing field 'sequence.json.seed'"),
    ], ids=["no-frames", "list", "bool-dt", "zero-dt", "no-seed"])
    def test_malformed_sequence_named(self, tmp_path, capsys, pipeline_config_path,
                                      payload, message):
        seq = tmp_path / "seq"
        seq.mkdir()
        (seq / "sequence.json").write_text(json.dumps(payload))
        out = tmp_path / "trk"
        assert main(["track", "--sequence", str(seq), "--config",
                     str(pipeline_config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "sequence.json" in err and message in err
        assert not out.exists()


class TestGradcheckCommand:
    def test_passes(self, tmp_path):
        assert main(["gradcheck", "--seed", "0", "--points", "1",
                     "--out", str(tmp_path / "grad.txt")]) == 0
        assert "PASS" in (tmp_path / "grad.txt").read_text()

    def test_corrupted_gradients_fail(self, monkeypatch):
        # a backward that is off by 1e-3 in every gradient it hands out is caught
        accumulate = ops.accumulate_grad
        monkeypatch.setattr(ops, "accumulate_grad",
                            lambda node, grad: accumulate(node, grad + 1e-3))
        assert main(["gradcheck", "--seed", "0", "--points", "1"]) == 2

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


FIT = ["microfit", "--scene", "s", "--config", "c", "--out", "o"]


@pytest.mark.parametrize("argv", [
    FIT + ["--min-reduction", "nan"],
    FIT + ["--max-center-cells", "nan"],
    FIT + ["--max-center-cells", "inf"],
    FIT + ["--learning-rate", "nan"],
    FIT + ["--learning-rate", "0"],
    FIT + ["--learning-rate", "-0.02"],
    ["gradcheck", "--threshold", "nan"],
    ["gradcheck", "--threshold", "inf"],
    ["generate", "--config", "c", "--out", "o", "--frame-dt", "0"],
    ["generate", "--config", "c", "--out", "o", "--frame-dt", "-1"],
    ["generate", "--config", "c", "--out", "o", "--frame-dt", "nan"],
], ids=lambda argv: "=".join(argv[-2:]))
def test_float_flags_fail_closed(capsys, argv):
    assert main(argv) == 1
    assert f"{argv[-2]} must be" in capsys.readouterr().err


def test_bad_frame_dt_writes_nothing(tmp_path, scene_config_path):
    out = tmp_path / "seq"
    assert main(["generate", "--config", str(scene_config_path), "--out", str(out),
                 "--frame-dt", "0"]) == 1
    assert not out.exists()


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
