"""Distance-threshold detection metrics: AP over BEV center distance plus
clamped true-positive error terms and their composite score.

Matching follows the standard benchmark recipe: per class and threshold,
detections are visited in descending score and claim the closest unmatched
ground truth of their class within the threshold in the same frame.  AP is
the normalized area under the precision-recall curve with both recall and
precision clamped at 0.1.  TP errors are plain means over the matches at
the 2 m threshold; a class with no matches contributes the worst-case 1.0
for every error term.  Every class of the ground truth or the detections is
scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scene.types import Box3D

__all__ = ["MetricsReport", "evaluate", "DISTANCE_THRESHOLDS", "TP_THRESHOLD"]

DISTANCE_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
TP_THRESHOLD = 2.0
MIN_RECALL = 0.1
MIN_PRECISION = 0.1
TP_KEYS = ("ate", "ase", "aoe", "ave", "aae")  # aae is 0 on a match: boxes carry no attributes


@dataclass(frozen=True)
class MetricsReport:
    mean_ap: float
    tp_errors: dict  # mATE, mASE, mAOE, mAVE, mAAE in [0, inf); clamped in NDS
    nds: float
    per_class_ap: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "map": self.mean_ap,
            "tp_errors": dict(self.tp_errors),
            "nds": self.nds,
            "per_class_ap": {str(k): v for k, v in self.per_class_ap.items()},
        }


def _bev_distance(a: Box3D, b: Box3D) -> float:
    return float(np.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1]))


def _match_class(
    dets: list[tuple[int, Box3D]], gts: list[tuple[int, Box3D]], threshold: float
):
    """Greedy benchmark matching; returns per-detection TP flags and matches."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1].score, i))
    used: set[int] = set()
    tp_flags = np.zeros(len(dets), dtype=bool)
    matches: list[tuple[Box3D, Box3D]] = []
    for rank, i in enumerate(order):
        frame, det = dets[i]
        best_j, best_dist = None, threshold
        for j, (gframe, gt) in enumerate(gts):
            if j in used or gframe != frame:
                continue
            dist = _bev_distance(det, gt)
            if dist < best_dist:
                best_j, best_dist = j, dist
        if best_j is not None:
            used.add(best_j)
            tp_flags[rank] = True
            matches.append((det, gts[best_j][1]))
    return tp_flags, matches


def _average_precision(tp_flags: np.ndarray, n_gt: int) -> float:
    if n_gt == 0:
        return 0.0
    if tp_flags.size == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # keep the first (highest-precision) operating point per recall level so
    # trailing duplicates of already-matched objects cannot lower the curve
    keep = np.empty(recall.size, dtype=bool)
    keep[0] = True
    keep[1:] = recall[1:] > recall[:-1]
    recall = recall[keep]
    precision = precision[keep]
    grid = np.linspace(0.0, 1.0, 101)
    interp = np.interp(grid, recall, precision, right=0.0)
    clipped = np.clip(interp[int(round(100 * MIN_RECALL)) + 1 :] - MIN_PRECISION, 0.0, None)
    # normalize per sample before averaging so the perfect detector scores 1.0 exactly
    return float((clipped / (1.0 - MIN_PRECISION)).mean())


def _size_iou(a: Box3D, b: Box3D) -> float:
    inter = float(np.prod([min(x, y) for x, y in zip(a.size, b.size)]))
    va = float(np.prod(a.size))
    vb = float(np.prod(b.size))
    return inter / (va + vb - inter)


def _yaw_difference(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def evaluate(
    detections: list[list[Box3D]], ground_truths: list[list[Box3D]]
) -> MetricsReport:
    """Score per-frame detections against per-frame ground truths.

    The scored classes are those of the ground truth and of the detections.
    A detected class that the ground truth lacks scores as nuScenes scores a
    configured class without ground truth: AP 0 and, with nothing to match,
    the worst-case 1.0 for every TP error, so it lowers mAP and NDS.
    """
    if len(detections) != len(ground_truths):
        raise ValueError("detections and ground truths must cover the same frames")
    classes = sorted({b.class_id for frames in (ground_truths, detections)
                      for frame in frames for b in frame})

    per_class_ap: dict[int, float] = {}
    tp_sums = dict.fromkeys(TP_KEYS, 0.0)
    for class_id in classes:
        dets = [
            (f, b)
            for f, frame in enumerate(detections)
            for b in frame
            if b.class_id == class_id
        ]
        gts = [
            (f, b)
            for f, frame in enumerate(ground_truths)
            for b in frame
            if b.class_id == class_id
        ]
        aps = []
        for threshold in DISTANCE_THRESHOLDS:
            tp_flags, found = _match_class(dets, gts, threshold)
            aps.append(_average_precision(tp_flags, len(gts)))
            if threshold == TP_THRESHOLD:
                matches = found
        per_class_ap[class_id] = float(np.mean(aps))

        if matches:
            tp_sums["ate"] += float(np.mean([_bev_distance(d, g) for d, g in matches]))
            tp_sums["ase"] += float(np.mean([1.0 - _size_iou(d, g) for d, g in matches]))
            tp_sums["aoe"] += float(np.mean([_yaw_difference(d.yaw, g.yaw) for d, g in matches]))
            tp_sums["ave"] += float(
                np.mean(
                    [
                        np.hypot(d.velocity[0] - g.velocity[0], d.velocity[1] - g.velocity[1])
                        for d, g in matches
                    ]
                )
            )
        else:
            for key in TP_KEYS:  # worst case when a class never matches
                tp_sums[key] += 1.0

    mean_ap = float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0
    # with no class at all nothing can match: the no-match worst case
    tp_errors = {key: tp_sums[key] / len(classes) if classes else 1.0 for key in TP_KEYS}
    nds = (5.0 * mean_ap + sum(1.0 - min(1.0, tp_errors[k]) for k in TP_KEYS)) / 10.0
    return MetricsReport(
        mean_ap=mean_ap, tp_errors=tp_errors, nds=nds, per_class_ap=per_class_ap
    )
