from dataclasses import replace

import numpy as np
import pytest

from voxdet.postprocess import (
    PostprocessConfig,
    TrackerConfig,
    TrackerState,
    circle_nms,
    filter_predictions,
    greedy_track_step,
)
from voxdet.scene.types import Box3D

CFG = PostprocessConfig(max_detections=300, xy_range=61.2, z_range=10.0, nms_radius=1.0)


def det(x, y, score, class_id=0, vx=0.0, vy=0.0, z=0.0):
    return Box3D(center=(x, y, z), size=(1.0, 1.0, 1.0), yaw=0.0,
                 velocity=(vx, vy), class_id=class_id, score=score)


class TestFilter:
    def test_k_zero_empty(self):
        assert filter_predictions([det(0, 0, 0.9)], replace(CFG, max_detections=0)) == []

    def test_all_in_range_sorted(self):
        dets = [det(0, 0, 0.5), det(1, 0, 0.9), det(2, 0, 0.7)]
        out = filter_predictions(dets, replace(CFG, max_detections=10))
        assert [d.score for d in out] == [0.9, 0.7, 0.5]

    def test_out_of_range_removed(self):
        dets = [det(70.0, 0, 0.99), det(1.0, 0, 0.5)]
        out = filter_predictions(dets, replace(CFG, max_detections=10))
        assert len(out) == 1 and out[0].center[0] == 1.0

    def test_stable_order_on_ties(self):
        dets = [det(0, 0, 0.5), det(1, 0, 0.5), det(2, 0, 0.5)]
        out = filter_predictions(dets, replace(CFG, max_detections=2))
        assert [d.center[0] for d in out] == [0.0, 1.0]


class TestCircleNMS:
    def test_same_center_suppression(self):
        kept = circle_nms([det(0, 0, 0.9), det(0, 0, 0.8)], CFG)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_different_classes_kept(self):
        kept = circle_nms([det(0, 0, 0.9, class_id=0), det(0, 0, 0.8, class_id=1)], CFG)
        assert len(kept) == 2

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        dets = [det(float(x), float(y), float(s), class_id=int(c))
                for x, y, s, c in zip(rng.uniform(-5, 5, 30), rng.uniform(-5, 5, 30),
                                      rng.uniform(0.1, 1.0, 30), rng.integers(0, 3, 30))]
        once = circle_nms(dets, CFG)
        twice = circle_nms(once, CFG)
        assert once == twice

    def test_per_class_radius(self):
        cfg = PostprocessConfig(nms_radius=1.0, nms_radius_per_class={1: 5.0})
        kept = circle_nms([det(0, 0, 0.9, class_id=1), det(3.0, 0, 0.8, class_id=1)], cfg)
        assert len(kept) == 1


@pytest.mark.parametrize("field, value, message", [
    ("max_detections", -5, "max_detections must be >= 0, got -5"),
    ("nms_radius", 0.0, "nms_radius must be positive, got 0.0"),
    ("nms_radius", float("nan"), "nms_radius must be positive, got nan"),
    ("nms_radius_per_class", {0: 1.0, 2: -1.0}, r"nms_radius_per_class.2 must be positive"),
    ("xy_range", -1.0, "xy_range must be >= 0, got -1.0"),
    ("xy_range", float("nan"), "xy_range must be >= 0, got nan"),
    ("z_range", -0.5, "z_range must be >= 0, got -0.5"),
    ("z_range", float("nan"), "z_range must be >= 0, got nan"),
])
def test_config_rejects_bad_field(field, value, message):
    with pytest.raises(ValueError, match=message):
        PostprocessConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("match_distance", -2.0, "match_distance must be >= 0, got -2.0"),
    ("match_distance", float("nan"), "match_distance must be >= 0, got nan"),
    ("max_age", -1, "max_age must be >= 0, got -1"),
])
def test_tracker_config_rejects_bad_field(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrackerConfig(**{field: value})


def test_config_accepts_zero_detections():
    assert filter_predictions([det(0, 0, 0.9)], PostprocessConfig(max_detections=0)) == []


class TestTracker:
    CFG = TrackerConfig(score_threshold=0.2, match_distance=2.0, max_age=3)

    def test_cold_start(self):
        state = greedy_track_step(TrackerState(), [det(0, 0, 0.9), det(5, 5, 0.8)],
                                  dt=0.5, config=self.CFG)
        assert len(state.tracks) == 2
        assert sorted(t.track_id for t in state.tracks) == [0, 1]
        assert sorted(state.updated_ids) == [0, 1]

    def test_velocity_prediction_match(self):
        state = greedy_track_step(TrackerState(), [det(0, 0, 0.9, vx=1.0)], 1.0, self.CFG)
        state = greedy_track_step(state, [det(1.0, 0.0, 0.9, vx=1.0)], 1.0, self.CFG)
        assert len(state.tracks) == 1
        assert state.tracks[0].track_id == 0
        assert state.tracks[0].age == 0

    def test_low_score_ignored(self):
        state = greedy_track_step(TrackerState(), [det(0, 0, 0.1)], 0.5, self.CFG)
        assert state.tracks == []

    def test_aging_and_drop(self):
        state = greedy_track_step(TrackerState(), [det(0, 0, 0.9)], 0.5, self.CFG)
        state = greedy_track_step(state, [], 0.5, self.CFG)
        assert state.tracks[0].age == 1
        state = greedy_track_step(state, [], 0.5, self.CFG)
        assert state.tracks[0].age == 2
        state = greedy_track_step(state, [], 0.5, self.CFG)
        assert state.tracks == []  # dropped after max_age unmatched frames

    def test_class_gate(self):
        state = greedy_track_step(TrackerState(), [det(0, 0, 0.9, class_id=0)], 0.5, self.CFG)
        state = greedy_track_step(state, [det(0, 0, 0.9, class_id=1)], 0.5, self.CFG)
        assert len(state.tracks) == 2  # different class spawns a new id

    def test_constant_velocity_no_switches(self):
        rng = np.random.default_rng(1)
        centers = rng.uniform(-20, 20, size=(5, 2))
        velocities = rng.uniform(-2, 2, size=(5, 2))
        dt = 0.5
        state = TrackerState()
        seen_ids = [set() for _ in range(5)]
        for frame in range(10):
            dets = [
                det(centers[i, 0] + velocities[i, 0] * dt * frame,
                    centers[i, 1] + velocities[i, 1] * dt * frame,
                    0.9, class_id=i % 3, vx=velocities[i, 0], vy=velocities[i, 1])
                for i in range(5)
            ]
            state = greedy_track_step(state, dets, dt, self.CFG)
            assert len(state.tracks) == 5
            for track in state.tracks:
                matched = np.argmin([
                    np.hypot(track.box.center[0] - (centers[i, 0] + velocities[i, 0] * dt * frame),
                             track.box.center[1] - (centers[i, 1] + velocities[i, 1] * dt * frame))
                    for i in range(5)
                ])
                seen_ids[matched].add(track.track_id)
        assert state.next_id == 5
        assert all(len(ids) == 1 for ids in seen_ids)  # zero identity switches

    def test_bad_dt(self):
        for dt in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="dt must be positive"):
                greedy_track_step(TrackerState(), [], dt, self.CFG)
