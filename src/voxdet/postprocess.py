"""Detection post-processing: range/score filtering, circle NMS, tracking.

NMS suppresses by BEV center distance within each class (no box overlap
computation), and the tracker is greedy tracking-by-detection: detections
above the score threshold claim the nearest predicted track of their class
under a distance gate; leftovers spawn fresh ids, stale tracks age out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .scene.types import Box3D

__all__ = [
    "PostprocessConfig",
    "TrackerConfig",
    "Track",
    "TrackerState",
    "filter_predictions",
    "circle_nms",
    "greedy_track_step",
    "run_postprocess",
]

SCORE_THRESHOLD = 0.2  # tracker ignores detections below this


def _check_non_negative(config, fields) -> None:
    for name in fields:
        value = getattr(config, name)
        if not value >= 0:  # NaN fails too
            raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class PostprocessConfig:
    max_detections: int = 300
    xy_range: float = 61.2  # keep centers with |x|, |y| <= this
    z_range: float = 10.0
    nms_radius: float = 1.0  # meters, per class unless overridden
    nms_radius_per_class: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_non_negative(self, ("max_detections", "xy_range", "z_range"))
        radii = {"nms_radius": self.nms_radius,
                 **{f"nms_radius_per_class.{k}": r for k, r in self.nms_radius_per_class.items()}}
        for name, radius in radii.items():
            if not radius > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {radius}")


@dataclass(frozen=True)
class TrackerConfig:
    score_threshold: float = SCORE_THRESHOLD
    match_distance: float = 2.0  # meters, BEV gate
    max_age: int = 3

    def __post_init__(self):
        _check_non_negative(self, ("match_distance", "max_age"))


def _stable_by_score(dets: list[Box3D]) -> list[int]:
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    return order


def filter_predictions(dets: list[Box3D], config: PostprocessConfig) -> list[Box3D]:
    """Keep in-range boxes, then the max_detections best scores (score desc, index asc)."""
    in_range = [
        i
        for i, d in enumerate(dets)
        if abs(d.center[0]) <= config.xy_range
        and abs(d.center[1]) <= config.xy_range
        and abs(d.center[2]) <= config.z_range
    ]
    kept = [dets[i] for i in in_range]
    order = _stable_by_score(kept)
    return [kept[i] for i in order[:config.max_detections]]


def circle_nms(dets: list[Box3D], config: PostprocessConfig) -> list[Box3D]:
    """Greedy suppression of same-class boxes near a higher-scoring center."""
    order = _stable_by_score(dets)
    kept: list[Box3D] = []
    for i in order:
        box = dets[i]
        radius = float(config.nms_radius_per_class.get(box.class_id, config.nms_radius))
        suppressed = False
        for other in kept:
            if other.class_id != box.class_id:
                continue
            dx = other.center[0] - box.center[0]
            dy = other.center[1] - box.center[1]
            if np.hypot(dx, dy) < radius:
                suppressed = True
                break
        if not suppressed:
            kept.append(box)
    return kept


def run_postprocess(dets: list[Box3D], pipeline_config) -> list[Box3D]:
    """Range/top-k filter followed by circle NMS, per the pipeline config."""
    cfg = pipeline_config.postprocess
    return circle_nms(filter_predictions(dets, cfg), cfg)


# ---------------------------------------------------------------------------
# tracking


@dataclass
class Track:
    track_id: int
    box: Box3D
    age: int = 0  # frames since the last matched detection

    def predicted_center(self, dt: float) -> tuple[float, float]:
        cx, cy, _ = self.box.center
        vx, vy = self.box.velocity
        return (cx + vx * dt, cy + vy * dt)


@dataclass
class TrackerState:
    tracks: list[Track] = field(default_factory=list)
    next_id: int = 0
    updated_ids: tuple[int, ...] = ()  # ids matched or spawned by the last step


def greedy_track_step(
    state: TrackerState, dets: list[Box3D], dt: float, config: TrackerConfig
) -> TrackerState:
    """Advance the tracker by one frame.

    Detections below the score threshold are dropped entirely.  Matching is
    greedy by smallest BEV distance between detections and velocity-predicted
    track centers of the same class, gated by ``match_distance``.  Matched
    tracks take the detection box and reset their age; unmatched detections
    spawn new ids; unmatched tracks coast along their velocity and are
    dropped once their age reaches ``max_age``.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    candidates = [d for d in dets if d.score >= config.score_threshold]

    predictions = [t.predicted_center(dt) for t in state.tracks]
    pairs = []
    for di, det in enumerate(candidates):
        for ti, track in enumerate(state.tracks):
            if track.box.class_id != det.class_id:
                continue
            px, py = predictions[ti]
            dist = float(np.hypot(det.center[0] - px, det.center[1] - py))
            if dist <= config.match_distance:
                pairs.append((dist, di, ti))
    pairs.sort(key=lambda item: (item[0], item[1], item[2]))

    matched_det: dict[int, int] = {}
    track_to_det: dict[int, int] = {}
    for dist, di, ti in pairs:
        if di in matched_det or ti in track_to_det:
            continue
        matched_det[di] = ti
        track_to_det[ti] = di

    new_tracks: list[Track] = []
    updated: list[int] = []
    for ti, track in enumerate(state.tracks):
        if ti in track_to_det:
            det = candidates[track_to_det[ti]]
            new_tracks.append(Track(track_id=track.track_id, box=det, age=0))
            updated.append(track.track_id)
        else:
            age = track.age + 1
            if age >= config.max_age:
                continue
            px, py = predictions[ti]
            coasted = replace(track.box, center=(px, py, track.box.center[2]))
            new_tracks.append(Track(track_id=track.track_id, box=coasted, age=age))

    next_id = state.next_id
    for di, det in enumerate(candidates):
        if di in matched_det:
            continue
        new_tracks.append(Track(track_id=next_id, box=det, age=0))
        updated.append(next_id)
        next_id += 1

    return TrackerState(tracks=new_tracks, next_id=next_id, updated_ids=tuple(updated))
