import numpy as np
import pytest

from voxdet.metrics import TP_KEYS, evaluate
from voxdet.scene.types import Box3D


def box(x, y, score=1.0, class_id=0, yaw=0.0, size=(2.0, 1.0, 1.0), vx=0.0, vy=0.0):
    return Box3D(center=(x, y, 0.0), size=size, yaw=yaw, velocity=(vx, vy),
                 class_id=class_id, score=score)


def ground_truth_frames(seed=0, n_frames=3, per_frame=4):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n_frames):
        frame = []
        for _ in range(per_frame):
            frame.append(
                box(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)),
                    class_id=int(rng.integers(0, 3)), yaw=float(rng.uniform(-3, 3)),
                    size=tuple(rng.uniform(0.5, 3.0, size=3)),
                    vx=float(rng.uniform(-2, 2)), vy=float(rng.uniform(-2, 2)))
            )
        frames.append(frame)
    return frames


class TestPerfectDetections:
    def test_identity_scores(self):
        gts = ground_truth_frames()
        report = evaluate([list(f) for f in gts], gts)
        assert report.mean_ap == pytest.approx(1.0, abs=1e-9)
        assert report.nds == pytest.approx(1.0, abs=1e-9)
        for key in ("ate", "ase", "aoe", "ave", "aae"):
            assert report.tp_errors[key] == pytest.approx(0.0, abs=1e-12)

    def test_ap_exactly_one(self):
        gts = [[box(0, 0), box(5, 5)]]
        report = evaluate([[box(0, 0), box(5, 5)]], gts)
        assert report.mean_ap == 1.0
        assert report.nds == 1.0


class TestShiftedDetections:
    def test_half_meter_shift(self):
        gts = ground_truth_frames(seed=1)
        dets = [
            [Box3D(center=(b.center[0] + 0.5, b.center[1], b.center[2]),
                   size=b.size, yaw=b.yaw, velocity=b.velocity,
                   class_id=b.class_id, score=1.0) for b in frame]
            for frame in gts
        ]
        report = evaluate(dets, gts)
        assert report.tp_errors["ate"] == pytest.approx(0.5, abs=1e-9)
        # 0.5 m offset is inside every threshold >= 1 m: 3 of 4 APs per class
        assert report.mean_ap > 0.5


class TestEmptyDetections:
    def test_no_detections(self):
        gts = ground_truth_frames(seed=2)
        report = evaluate([[] for _ in gts], gts)
        assert report.mean_ap == 0.0
        # the no-match convention pins every TP error to 1 -> NDS collapses to 0
        assert report.nds == 0.0

    def test_no_ground_truth(self):
        """With nothing to match, every TP error takes the no-match worst case."""
        for detections in ([], [box(0.0, 0.0)]):
            report = evaluate([detections], [[]])
            assert report.mean_ap == 0.0
            assert report.tp_errors == dict.fromkeys(TP_KEYS, 1.0)
            assert report.nds == 0.0


class TestMonotonicity:
    def test_duplicate_tp_never_decreases_map(self):
        gts = ground_truth_frames(seed=3)
        dets = [list(f) for f in gts]
        base = evaluate([list(f) for f in dets], gts).mean_ap
        extra = [list(f) for f in dets]
        dup = extra[0][0]
        extra[0] = extra[0] + [Box3D(center=dup.center, size=dup.size, yaw=dup.yaw,
                                     velocity=dup.velocity, class_id=dup.class_id,
                                     score=0.5)]
        boosted = evaluate(extra, gts).mean_ap
        assert boosted >= base - 1e-12


class TestValidation:
    def test_class_absent_from_ground_truth_scores_zero(self):
        # scored as nuScenes scores a configured class without ground truth
        gts = [[box(0, 0, class_id=0)]]
        dets = [[box(0, 0, class_id=0), box(3, 3, class_id=5)]]
        report = evaluate(dets, gts)
        assert report.per_class_ap == {0: 1.0, 5: 0.0}
        assert report.mean_ap == 0.5
        # class 0 matches exactly; class 5 takes the worst case 1.0
        assert report.tp_errors == dict.fromkeys(TP_KEYS, 0.5)
        assert report.nds == 0.5
        assert evaluate([dets[0][:1]], gts).per_class_ap == {0: 1.0}

    def test_frame_count_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([[]], [[], []])

    def test_partial_detector_between_zero_and_one(self):
        gts = ground_truth_frames(seed=4, n_frames=2, per_frame=4)
        dets = [frame[:2] for frame in gts]  # half the objects found
        report = evaluate(dets, gts)
        assert 0.0 < report.mean_ap < 1.0
        assert 0.0 < report.nds < 1.0
