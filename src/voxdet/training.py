"""Set-based training: one-to-one assignment, detection loss, micro-fit.

Predictions are matched to ground truth per decoder block with the Hungarian
algorithm on a classification + box-L1 cost.  The detection loss combines a
per-class sigmoid focal term over all predictions with an L1 box term over
matched pairs, averaged across blocks; the transfer loss joins the objective
with weight 0.01.  ``micro_fit`` runs deterministic gradient descent on a
desk-scale scene for end-to-end verification.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import numerics as nm
from .decoder import BlockPrediction
from .geometry import VoxelGridSpec
from .numerics import Parameter, Tensor
from .scene.types import Box3D
from .serialize import atomic_write

__all__ = [
    "Assignment",
    "LossBreakdown",
    "TrainingDivergenceError",
    "hungarian_match",
    "encode_box",
    "prediction_vectors",
    "match_cost",
    "cost_matrix",
    "detection_loss",
    "total_loss",
    "SGDOptimizer",
    "MicroFitResult",
    "micro_fit",
    "write_history_csv",
]

KT_WEIGHT = 0.01
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2  # applied as squaring
DEFAULT_COST_WEIGHTS = (1.0, 0.25)  # (classification, box)


class TrainingDivergenceError(RuntimeError):
    """Optimization produced a non-finite loss; carries the failing step."""

    def __init__(self, step: int, message: str = ""):
        super().__init__(message or f"loss diverged at step {step}")
        self.step = step


@dataclass(frozen=True)
class Assignment:
    """One-to-one pairing of prediction and ground-truth indices."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_predictions: tuple[int, ...]


def _lap_total(cost: np.ndarray) -> float:
    if cost.shape[0] == 0 or cost.shape[1] == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def hungarian_match(cost) -> Assignment:
    """Minimum-cost one-to-one assignment of min(n_pred, n_gt) pairs.

    Among all optimal assignments, the lexicographically smallest pair
    sequence is returned: rows are scanned in order, each taking the
    smallest column that still permits an optimal completion.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment(pairs=(), unmatched_predictions=tuple(range(n)))

    total = _lap_total(cost)
    tol = 1e-9 * max(1.0, abs(total))
    need = min(n, m)
    pairs: list[tuple[int, int]] = []
    free_cols = list(range(m))
    fixed = 0.0
    for i in range(n):
        if len(pairs) == need:
            break
        rows_left = n - i - 1
        for j in free_cols:
            rest_rows = np.arange(i + 1, n)
            rest_cols = [c for c in free_cols if c != j]
            rest = _lap_total(cost[np.ix_(rest_rows, rest_cols)])
            if fixed + cost[i, j] + rest <= total + tol:
                pairs.append((i, j))
                fixed += cost[i, j]
                free_cols.remove(j)
                break
        else:
            if rows_left < need - len(pairs):  # pragma: no cover - defensive
                raise RuntimeError("assignment refinement failed to complete")
    matched_rows = {i for i, _ in pairs}
    unmatched = tuple(i for i in range(n) if i not in matched_rows)
    return Assignment(pairs=tuple(pairs), unmatched_predictions=unmatched)


# ---------------------------------------------------------------------------
# box encoding and matching cost


def encode_box(box: Box3D, spec: VoxelGridSpec) -> np.ndarray:
    """Ground-truth box as the head's 10-vector target.

    Layout: normalized center (3), log size (3), yaw sin/cos (2), velocity (2).
    """
    lows = np.array([lo for lo, _ in spec.ranges])
    highs = np.array([hi for _, hi in spec.ranges])
    center = (np.array(box.center) - lows) / (highs - lows)
    return np.concatenate(
        [
            center,
            np.log(np.array(box.size)),
            [math.sin(box.yaw), math.cos(box.yaw)],
            np.array(box.velocity),
        ]
    )


def prediction_vectors(block: BlockPrediction) -> np.ndarray:
    """Predicted 10-vectors: refined normalized center plus raw box tail."""
    return np.concatenate([block.reference_out.data, block.box_params.data[:, 3:]], axis=1)


def match_cost(
    class_logits: np.ndarray,
    box_vector: np.ndarray,
    gt: Box3D,
    spec: VoxelGridSpec,
    weights: tuple[float, float] = DEFAULT_COST_WEIGHTS,
) -> float:
    """Matching cost of one prediction against one ground-truth box."""
    if not 0 <= gt.class_id < class_logits.shape[0]:
        raise ValueError(f"class id {gt.class_id} outside {class_logits.shape[0]} classes")
    w_cls, w_box = weights
    cls_term = float(np.logaddexp(0.0, -class_logits[gt.class_id]))  # -log sigmoid
    box_term = float(np.abs(box_vector - encode_box(gt, spec)).sum())
    return w_cls * cls_term + w_box * box_term


def cost_matrix(
    block: BlockPrediction,
    gts: list[Box3D],
    spec: VoxelGridSpec,
    weights: tuple[float, float] = DEFAULT_COST_WEIGHTS,
) -> np.ndarray:
    logits = block.class_logits.data
    vectors = prediction_vectors(block)
    out = np.zeros((logits.shape[0], len(gts)))
    for g, gt in enumerate(gts):
        for i in range(logits.shape[0]):
            out[i, g] = match_cost(logits[i], vectors[i], gt, spec, weights)
    return out


# ---------------------------------------------------------------------------
# losses


def _focal_term(logits: Tensor, positive_mask: np.ndarray, normalizer: float) -> Tensor:
    pos = Tensor(positive_mask.astype(np.float64))
    p = nm.sigmoid(logits)
    pos_loss = nm.mul(nm.scale(nm.square(nm.sub(1.0, p)), FOCAL_ALPHA),
                      nm.softplus(nm.neg(logits)))
    neg_loss = nm.mul(nm.scale(nm.square(p), 1.0 - FOCAL_ALPHA), nm.softplus(logits))
    combined = nm.add(nm.mul(pos, pos_loss), nm.mul(nm.sub(1.0, pos), neg_loss))
    return nm.scale(nm.tsum(combined), 1.0 / normalizer)


def detection_loss(
    blocks: list[BlockPrediction],
    gts: list[Box3D],
    assignments: list[Assignment],
    spec: VoxelGridSpec,
) -> tuple[Tensor, float, float]:
    """Set-to-set loss, mean over blocks; returns (tensor, cls part, box part).

    Per block: sigmoid focal classification (alpha 0.25, gamma 2) over every
    prediction with matched class targets (unmatched predictions count as
    background) plus L1 over matched box vectors, both normalized by the
    match count.
    """
    if len(blocks) != len(assignments):
        raise ValueError("one assignment per block required")
    per_block = []
    cls_total = box_total = 0.0
    for block, assign in zip(blocks, assignments):
        n, k = block.class_logits.shape
        for _, g in assign.pairs:
            if not 0 <= gts[g].class_id < k:
                raise ValueError(f"class id {gts[g].class_id} outside {k} classes")
        positives = np.zeros((n, k))
        for i, g in assign.pairs:
            positives[i, gts[g].class_id] = 1.0
        norm = float(max(1, len(assign.pairs)))
        cls_term = _focal_term(block.class_logits, positives, norm)

        if assign.pairs:
            rows = np.array([i for i, _ in assign.pairs])
            targets = Tensor(np.stack([encode_box(gts[g], spec) for _, g in assign.pairs]))
            pred_center = nm.getitem(block.reference_out, (rows,))
            pred_tail = nm.getitem(block.box_params, (rows, slice(3, 10)))
            pred = nm.concat([pred_center, pred_tail], axis=1)
            box_term = nm.scale(nm.tsum(nm.absolute(nm.sub(pred, targets))), 1.0 / norm)
        else:
            box_term = Tensor(0.0)
        per_block.append(nm.add(cls_term, box_term))
        cls_total += cls_term.item()
        box_total += box_term.item()

    total = per_block[0]
    for term in per_block[1:]:
        total = nm.add(total, term)
    n_blocks = len(per_block)
    return nm.scale(total, 1.0 / n_blocks), cls_total / n_blocks, box_total / n_blocks


def total_loss(l_det, l_kt) -> Tensor:
    """Combined objective: detection loss plus 0.01 * transfer loss."""
    return nm.add(nm.as_tensor(l_det), nm.scale(nm.as_tensor(l_kt), KT_WEIGHT))


@dataclass(frozen=True)
class LossBreakdown:
    classification: float
    box: float
    l_det: float
    l_kt: float
    total: float


# ---------------------------------------------------------------------------
# optimization


class SGDOptimizer:
    """Deterministic gradient descent, plain or momentum."""

    def __init__(self, params: list[Parameter], learning_rate: float, momentum: float = 0.9):
        self.params = params
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in params]

    def reset_gradients(self) -> None:
        for p in self.params:
            p.reset_gradient()

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            v *= self.momentum
            v -= self.learning_rate * p.grad
            p.data += v


@dataclass
class MicroFitResult:
    history: list[LossBreakdown]
    detections: list[Box3D]
    final_blocks: list[BlockPrediction] = field(repr=False, default_factory=list)

    @property
    def loss_reduction(self) -> float:
        first = self.history[0].total
        return 0.0 if first == 0 else 1.0 - self.history[-1].total / first


def compute_scene_loss(scene, config, params, with_kt: bool | None = None,
                       threads: int = 1):
    """Forward the pipeline on a scene and assemble the full objective.

    Returns (total tensor, LossBreakdown, forward result).  Must run under an
    active tape to be differentiable.
    """
    from .cross_modality import knowledge_transfer_loss
    from .pipeline import forward_scene

    fw = forward_scene(scene, config, params, threads=threads)
    spec = config.grid_spec
    assignments = [
        hungarian_match(cost_matrix(block, scene.boxes, spec))
        for block in fw.decode.blocks
    ]
    l_det, cls_part, box_part = detection_loss(
        fw.decode.blocks, scene.boxes, assignments, spec
    )
    use_kt = config.kt_enabled if with_kt is None else with_kt
    if use_kt and fw.teacher_tap is not None and fw.student_tap is not None:
        scale_to_grid = np.array([n - 1.0 for n in spec.counts])
        positions = fw.decode.final_references * scale_to_grid
        l_kt = knowledge_transfer_loss(fw.teacher_tap, fw.student_tap, positions)
    else:
        l_kt = Tensor(0.0)
    total = total_loss(l_det, l_kt)
    breakdown = LossBreakdown(
        classification=cls_part,
        box=box_part,
        l_det=l_det.item(),
        l_kt=l_kt.item(),
        total=total.item(),
    )
    return total, breakdown, fw


def micro_fit(
    scene,
    config,
    steps: int,
    learning_rate: float,
    seed: int,
    momentum: float = 0.9,
    threads: int = 1,
) -> MicroFitResult:
    """Fit the model to one small scene with deterministic gradient descent.

    The history holds the loss before each update plus the final loss, so
    ``steps=0`` leaves exactly the initial entry.  A non-finite loss raises
    :class:`TrainingDivergenceError` with the failing step index.
    """
    from .pipeline import build_model
    from .postprocess import run_postprocess

    params = build_model(config, seed, n_camera_sweeps=len(scene.sweep_offsets) or None)
    optimizer = SGDOptimizer(params.trainable(), learning_rate, momentum)
    history: list[LossBreakdown] = []

    def diverged(exc: Exception) -> bool:
        from .pipeline import PipelineError

        if isinstance(exc, nm.NumericsError):
            return True
        return isinstance(exc, PipelineError) and isinstance(exc.cause, nm.NumericsError)

    for step in range(steps):
        optimizer.reset_gradients()
        try:
            with nm.Tape() as tape:
                total, breakdown, _ = compute_scene_loss(scene, config, params,
                                                         threads=threads)
            history.append(breakdown)
            nm.backward(tape, total)
        except Exception as exc:
            if not diverged(exc):
                raise
            raise TrainingDivergenceError(step, f"step {step}: {exc}") from exc
        optimizer.step()
    try:
        total, breakdown, fw = compute_scene_loss(scene, config, params, threads=threads)
    except Exception as exc:
        if not diverged(exc):
            raise
        raise TrainingDivergenceError(steps, f"final evaluation: {exc}") from exc
    history.append(breakdown)
    detections = run_postprocess(fw.decode.detections, config)
    return MicroFitResult(history=history, detections=detections,
                          final_blocks=fw.decode.blocks)


def write_history_csv(path, history: list[LossBreakdown]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "l_det", "l_kt", "total"])
    for step, item in enumerate(history):
        writer.writerow([step, repr(item.l_det), repr(item.l_kt), repr(item.total)])
    atomic_write(path, buf.getvalue())
