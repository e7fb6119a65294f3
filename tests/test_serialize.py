import json

import numpy as np
import pytest

from voxdet.metrics import MetricsReport
from voxdet.scene.types import Box3D
from voxdet.serialize import (
    load_json,
    read_boxes_jsonl,
    read_metrics_json,
    write_boxes_jsonl,
    write_metrics_json,
)


def frame(seed, n=3):
    rng = np.random.default_rng(seed)
    return [
        Box3D(center=tuple(rng.uniform(-10, 10, size=3)),
              size=tuple(rng.uniform(0.5, 3.0, size=3)),
              yaw=float(rng.uniform(-3, 3)),
              velocity=tuple(rng.uniform(-2, 2, size=2)),
              class_id=int(rng.integers(0, 4)),
              score=float(rng.uniform(0, 1)))
        for _ in range(n)
    ]


class TestBoxesJsonl:
    def test_round_trip_exact(self, tmp_path):
        frames = [frame(0), [], frame(1, 5)]
        path = tmp_path / "boxes.jsonl"
        write_boxes_jsonl(path, frames)
        loaded = read_boxes_jsonl(path)
        assert loaded == frames

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError):
            read_boxes_jsonl(tmp_path / "none.jsonl")

    def test_invalid_line_reported(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        path.write_text("not json\n")
        with pytest.raises(IOError, match="invalid JSON"):
            read_boxes_jsonl(path)

    def test_no_temp_files_left(self, tmp_path):
        write_boxes_jsonl(tmp_path / "a.jsonl", [frame(2)])
        assert [p.name for p in tmp_path.iterdir()] == ["a.jsonl"]


class TestMetricsJson:
    def test_round_trip(self, tmp_path):
        report = MetricsReport(mean_ap=0.5, tp_errors={"ate": 0.1, "ase": 0.2,
                                                       "aoe": 0.0, "ave": 0.3,
                                                       "aae": 0.0},
                               nds=0.6, per_class_ap={0: 0.5})
        path = tmp_path / "metrics.json"
        write_metrics_json(path, report)
        data = read_metrics_json(path)
        assert data["map"] == 0.5
        assert data["nds"] == 0.6

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError, match="missing file"):
            read_metrics_json(tmp_path / "metrics.json")

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"schema_version": 2, "map": 0.0}))
        with pytest.raises(ValueError, match="schema_version"):
            read_metrics_json(path)


class TestBoxesJsonlErrors:
    @pytest.mark.parametrize("edit, field", [
        (lambda rec: rec.pop("center"), "center"),
        (lambda rec: rec.update(centre=[0.0, 0.0, 0.0]), "centre"),
        (lambda rec: rec.update(score=1.5), "score"),
        (lambda rec: rec.update(frame=0.5), "frame: expected int, found 0.5"),
        (lambda rec: rec.update(center=[float("inf"), 0.0, 0.0]), "center must be finite"),
    ])
    def test_malformed_record_names_line_and_field(self, tmp_path, edit, field):
        path = tmp_path / "boxes.jsonl"
        write_boxes_jsonl(path, [frame(3, 2)])
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        edit(rec)
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IOError, match=rf"boxes\.jsonl:2: .*{field}"):
            read_boxes_jsonl(path)


class TestLoadJson:
    def test_object_loaded(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"x": [1, 2]}')
        assert load_json(path) == {"x": [1, 2]}

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError, match="missing file .*none.json"):
            load_json(tmp_path / "none.json")

    @pytest.mark.parametrize("text, match", [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "expected a JSON object, found list"),
        ("3.5", "expected a JSON object, found float"),
    ])
    def test_bad_payload_names_the_path(self, tmp_path, text, match):
        path = tmp_path / "a.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"a\.json: {match}"):
            load_json(path)
