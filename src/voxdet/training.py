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
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import numerics as nm
from .decoder import BlockPrediction, box_vectors, decode_boxes, encode_boxes, reference_grid_scale
from .geometry import VoxelGridSpec
from .numerics import Parameter, Tensor
from .scene.types import Box3D
from .serialize import atomic_write

__all__ = [
    "Assignment",
    "LossBreakdown",
    "TrainingDivergenceError",
    "hungarian_match",
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
COST_WEIGHTS = (1.0, 0.25)  # (classification, box)


class TrainingDivergenceError(RuntimeError):
    """Optimization produced a non-finite loss; carries the failing step."""

    def __init__(self, step: int, message: str = ""):
        super().__init__(message or f"loss diverged at step {step}")
        self.step = step


@dataclass(frozen=True)
class Assignment:
    """One-to-one pairing of prediction and ground-truth indices."""

    pairs: tuple[tuple[int, int], ...]


def hungarian_match(cost) -> Assignment:
    """Minimum-cost one-to-one assignment of min(n_pred, n_gt) pairs, in row order.

    One ``linear_sum_assignment`` solve, as in DETR's matcher.  Among tied
    optimal assignments the result is scipy's choice, which is deterministic
    for a given scipy version.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    return Assignment(pairs=tuple(zip(rows.tolist(), cols.tolist())))


# ---------------------------------------------------------------------------
# matching cost


def _class_ids(gts: list[Box3D], num_classes: int) -> np.ndarray:
    """Ground-truth class ids as an index array; out-of-range ids raise, naming the id."""
    ids = np.array([gt.class_id for gt in gts], dtype=np.intp)
    bad = ids[(ids < 0) | (ids >= num_classes)]
    if bad.size:
        raise ValueError(f"class id {bad[0]} outside {num_classes} classes")
    return ids


def cost_matrix(block: BlockPrediction, gts: list[Box3D], spec: VoxelGridSpec) -> np.ndarray:
    """(n_pred, n_gt) matching cost: -log sigmoid of the gt class logit plus box L1."""
    w_cls, w_box = COST_WEIGHTS
    logits = block.class_logits.data
    ids = _class_ids(gts, logits.shape[1])
    vectors = box_vectors(block.reference_out.data, block.box_params.data).data
    targets = encode_boxes(gts, spec)
    return (w_cls * np.logaddexp(0.0, -logits[:, ids])
            + w_box * np.abs(vectors[:, None] - targets[None]).sum(-1))


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
    targets = encode_boxes(gts, spec)
    per_block = []
    cls_total = box_total = 0.0
    for block, assign in zip(blocks, assignments):
        n, k = block.class_logits.shape
        ids = _class_ids(gts, k)
        rows = np.array([i for i, _ in assign.pairs], dtype=np.intp)
        cols = np.array([g for _, g in assign.pairs], dtype=np.intp)
        positives = np.zeros((n, k))
        positives[rows, ids[cols]] = 1.0
        norm = float(max(1, len(assign.pairs)))
        cls_term = _focal_term(block.class_logits, positives, norm)

        if assign.pairs:
            pred = box_vectors(block.reference_out, block.box_params, rows)
            box_term = nm.scale(nm.tsum(nm.absolute(nm.sub(pred, Tensor(targets[cols])))),
                                1.0 / norm)
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


def compute_scene_loss(scene, config, params):
    """Forward the pipeline on a scene and assemble the full objective.

    Returns (total tensor, LossBreakdown, forward result).  Must run under an
    active tape to be differentiable.
    """
    from .cross_modality import knowledge_transfer_loss
    from .pipeline import forward_scene

    fw = forward_scene(scene, config, params)
    spec = config.grid
    assignments = [
        hungarian_match(cost_matrix(block, scene.boxes, spec))
        for block in fw.decode.blocks
    ]
    l_det, cls_part, box_part = detection_loss(
        fw.decode.blocks, scene.boxes, assignments, spec
    )
    if config.kt_enabled:
        positions = fw.decode.final_references * reference_grid_scale(spec.counts)
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
) -> MicroFitResult:
    """Fit the model to one small scene with deterministic momentum gradient descent.

    The history holds the loss before each update plus the final loss, so
    ``steps=0`` leaves exactly the initial entry (``steps < 0`` raises).  A
    non-finite loss raises :class:`TrainingDivergenceError` with the failing step.
    """
    from .pipeline import build_model
    from .postprocess import run_postprocess

    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    params = build_model(config, seed, n_camera_sweeps=len(scene.sweep_offsets) or 1)
    optimizer = SGDOptimizer(params.trainable(), learning_rate)
    history: list[LossBreakdown] = []

    def diverged(exc: Exception) -> bool:
        from .pipeline import PipelineError

        if isinstance(exc, nm.NumericsError):
            return True
        return isinstance(exc, PipelineError) and isinstance(exc.cause, nm.NumericsError)

    # a diverging fit overflows inside the ops before their output checks raise;
    # the TrainingDivergenceError is its one report, not numpy warnings ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            optimizer.reset_gradients()
            try:
                with nm.Tape() as tape:
                    total, breakdown, _ = compute_scene_loss(scene, config, params)
                history.append(breakdown)
                nm.backward(tape, total)
            except Exception as exc:
                if not diverged(exc):
                    raise
                raise TrainingDivergenceError(step, f"step {step}: {exc}") from exc
            optimizer.step()
        try:
            total, breakdown, fw = compute_scene_loss(scene, config, params)
            boxes = decode_boxes(fw.decode.blocks[-1], config.grid)
        except Exception as exc:
            if not diverged(exc):
                raise
            raise TrainingDivergenceError(steps, f"final evaluation: {exc}") from exc
    history.append(breakdown)
    return MicroFitResult(history=history, detections=run_postprocess(boxes, config),
                          final_blocks=fw.decode.blocks)


def write_history_csv(path, history: list[LossBreakdown]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "l_det", "l_kt", "total"])
    for step, item in enumerate(history):
        writer.writerow([step, repr(item.l_det), repr(item.l_kt), repr(item.total)])
    atomic_write(path, buf.getvalue())
