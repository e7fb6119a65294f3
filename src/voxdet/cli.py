"""Command-line surface: generate scenes, detect, track, evaluate, verify.

Configuration lives in JSON files; flags only select paths and override
seeds.  Exit codes: 0 success, 1 validation error (message on stderr naming
the offending field), 2 check failure (gradcheck or micro-fit thresholds).
All outputs are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .decoder import decode_boxes
from .metrics import evaluate
from .pipeline import PipelineConfig, PipelineError, run_detection, run_sequence
from .scene.generate import SceneConfig, SceneGenerationError, generate_sequence
from .scene.io import SceneIOError, read_scene, write_scene
from .scene.types import SequenceManifest
from .serialize import (
    atomic_write,
    decode_value,
    from_dict,
    load_json,
    read_boxes_jsonl,
    read_metrics_json,
    to_dict,
    write_boxes_jsonl,
    write_metrics_json,
    write_tracks_jsonl,
)
from .training import TrainingDivergenceError, micro_fit, write_history_csv
from .verification import GRAD_TOLERANCE, gradient_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
THREADS_HELP = "accepted and checked (>= 1); changes nothing, each forward runs on one thread"


# flag -> (check, what it must be); main() runs them before any file is written
FLAG_CHECKS = {
    **dict.fromkeys(("points", "threads", "frames"), (lambda v: v >= 1, ">= 1")),
    **dict.fromkeys(("learning_rate", "frame_dt"),
                    (lambda v: math.isfinite(v) and v > 0, "finite and > 0")),
    **dict.fromkeys(("min_reduction", "max_center_cells", "threshold"),
                    (math.isfinite, "finite")),
}


def _load_pipeline_config(path, seed_override) -> PipelineConfig:
    config = PipelineConfig.from_dict(load_json(path))
    if seed_override is not None:
        config.seed = int(seed_override)
    return config


def _cmd_generate(args) -> int:
    config = SceneConfig.from_dict(load_json(args.config))
    seed = args.seed if args.seed is not None else 0
    frames = generate_sequence(config, seed, args.frames, args.frame_dt)
    out = Path(args.out)
    frame_dirs = []
    for i, frame in enumerate(frames):
        frame_dir = out / f"frame_{i:03d}"
        write_scene(frame, frame_dir)
        frame_dirs.append(frame_dir.name)
    write_boxes_jsonl(out / "gt.jsonl", [frame.boxes for frame in frames])
    manifest = SequenceManifest(frames=frame_dirs, frame_dt=args.frame_dt, seed=seed)
    atomic_write(out / "sequence.json", json.dumps(to_dict(manifest), indent=1))
    print(f"wrote {len(frames)} frame(s) under {out}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    config = _load_pipeline_config(args.config, args.seed)
    scene = read_scene(args.scene)
    result = run_detection(scene, config)
    out = Path(args.out)
    write_boxes_jsonl(out / "detections.jsonl", [result.detections])
    run_info = config.to_dict()
    run_info["sweeps"] = len(scene.sweep_offsets) or 1
    atomic_write(out / "config.json", json.dumps(run_info, indent=1))
    print(f"wrote {len(result.detections)} detection(s) to {out / 'detections.jsonl'}")
    return EXIT_OK


def _cmd_track(args) -> int:
    config = _load_pipeline_config(args.config, args.seed)
    seq = from_dict(SequenceManifest, load_json(Path(args.sequence) / "sequence.json"),
                    "sequence.json")
    scenes = [read_scene(Path(args.sequence) / name) for name in seq.frames]
    states = run_sequence(scenes, config, frame_dt=seq.frame_dt)
    out = Path(args.out)
    write_tracks_jsonl(out / "tracks.jsonl", states)
    n_tracks = states[-1].next_id if states else 0
    print(f"tracked {len(scenes)} frame(s), {n_tracks} id(s) issued")
    return EXIT_OK


def _cmd_eval(args) -> int:
    dets = read_boxes_jsonl(args.detections)
    gts = read_boxes_jsonl(args.ground_truth)
    if len(dets) < len(gts):
        dets = dets + [[] for _ in range(len(gts) - len(dets))]
    elif len(gts) < len(dets):
        gts = gts + [[] for _ in range(len(dets) - len(gts))]
    report = evaluate(dets, gts)
    write_metrics_json(args.out, report)
    print(f"mAP {report.mean_ap:.6f}  NDS {report.nds:.6f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = gradient_suite(seed=args.seed if args.seed is not None else 0,
                             points=args.points)
    failed = False
    lines = []
    for r in results:
        ok = r.passed(args.threshold)
        failed |= not ok
        line = f"{'PASS' if ok else 'FAIL'} {r.name:<24} max_rel_err={r.max_error:.3e}"
        lines.append(line)
        print(line)
    if args.out:
        atomic_write(args.out, "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_microfit(args) -> int:
    config = _load_pipeline_config(args.config, args.seed)
    scene = read_scene(args.scene)
    try:
        result = micro_fit(scene, config, steps=args.steps,
                           learning_rate=args.learning_rate, seed=config.seed)
    except TrainingDivergenceError as exc:
        print(f"micro-fit diverged at step {exc.step}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    out = Path(args.out)
    write_history_csv(out / "history.csv", result.history)
    write_boxes_jsonl(out / "detections.jsonl", [result.detections])
    reduction = result.loss_reduction
    center_err = _matched_center_error_cells(result, scene, config)
    summary = {
        "steps": args.steps,
        "initial_loss": result.history[0].total,
        "final_loss": result.history[-1].total,
        "loss_reduction": reduction,
        "matched_center_error_cells": center_err,
    }
    atomic_write(out / "summary.json", json.dumps(summary, indent=1))
    print(
        f"loss {result.history[0].total:.4f} -> {result.history[-1].total:.4f} "
        f"({reduction:.1%}); matched center error {center_err:.3f} cells"
    )
    if reduction < args.min_reduction or center_err >= args.max_center_cells:
        print(
            f"thresholds not met (need reduction >= {args.min_reduction}, "
            f"center error < {args.max_center_cells} cells)",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _matched_center_error_cells(result, scene, config) -> float:
    from .training import cost_matrix, hungarian_match

    if not scene.boxes:
        return 0.0
    block = result.final_blocks[-1]
    spec = config.grid
    assign = hungarian_match(cost_matrix(block, scene.boxes, spec))
    decoded = decode_boxes(block, spec)
    errors = []
    for i, g in assign.pairs:
        center = decoded[i].center
        gt = scene.boxes[g].center
        errors.append(
            float(np.hypot(center[0] - gt[0], center[1] - gt[1]) / spec.cell_sizes[0])
        )
    return max(errors) if errors else 0.0


def _cmd_report(args) -> int:
    rows = []
    for run_dir in args.inputs:
        run = Path(run_dir)
        where = f"{run.name}/config.json"
        echo = load_json(run / "config.json")
        if "sweeps" not in echo:
            raise ValueError(f"missing field {where + '.sweeps'!r}")
        sweeps = decode_value(int, echo.pop("sweeps"), f"{where}.sweeps")
        if sweeps < 1:
            raise ValueError(f"{where}.sweeps: must be >= 1, found {sweeps}")
        config = from_dict(PipelineConfig, echo, where)
        grid = config.grid
        metrics = read_metrics_json(run / "metrics.json")
        rows.append(
            {
                "run": run.name,
                "z": grid.counts[2],
                "encoder_op": config.encoder_op,
                "sweeps": sweeps,
                "cell_size": grid.cell_sizes[0],
                "channels": grid.channels,
                "map": metrics["map"],
                "nds": metrics["nds"],
                **{f"m{k}": v for k, v in metrics["tp_errors"].items()},
            }
        )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else ["run"])
    writer.writeheader()
    writer.writerows(rows)
    atomic_write(args.out, buf.getvalue())
    print(f"merged {len(rows)} run(s) into {Path(args.out)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxdet",
        description="Unified voxel-space 3D detection on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic scene sequence")
    p.add_argument("--config", required=True, help="scene config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--frame-dt", type=float, default=0.5)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("detect", help="run detection on one scene")
    p.add_argument("--scene", required=True, help="scene directory")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("track", help="run detection + tracking over a sequence")
    p.add_argument("--sequence", required=True, help="directory with sequence.json")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--detections", required=True, help="detections JSONL")
    p.add_argument("--ground-truth", required=True, help="ground-truth JSONL")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="run the gradient verification suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--points", type=int, default=10, help="evaluation points per check")
    p.add_argument("--threshold", type=float, default=GRAD_TOLERANCE)
    p.add_argument("--out", default=None, help="optional report path")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("microfit", help="fit a small scene and check convergence")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--learning-rate", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--min-reduction", type=float, default=0.9)
    p.add_argument("--max-center-cells", type=float, default=0.5)
    p.set_defaults(func=_cmd_microfit)

    p = sub.add_parser("report", help="merge run configs and metrics into a table")
    p.add_argument("--inputs", nargs="+", required=True, help="run directories")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, (ok, want) in FLAG_CHECKS.items():
        value = getattr(args, flag, None)
        if value is not None and not ok(value):
            print(f"error: --{flag.replace('_', '-')} must be {want}, got {value}",
                  file=sys.stderr)
            return EXIT_VALIDATION
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, SceneIOError, SceneGenerationError,
            PipelineError, IOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
