import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from helpers import brute_force_assignment_total, cost_matrix_oracle, encode_box_oracle
from voxdet import training
from voxdet.decoder import BlockPrediction, encode_boxes
from voxdet.geometry import VoxelGridSpec
from voxdet.numerics import Tensor
from voxdet.pipeline import PipelineConfig
from voxdet.scene import SceneConfig, generate_scene
from voxdet.scene.types import Box3D
from voxdet.training import (
    Assignment,
    cost_matrix,
    detection_loss,
    hungarian_match,
    micro_fit,
    total_loss,
    write_history_csv,
)

SPEC = VoxelGridSpec((-8.0, 8.0), (-8.0, 8.0), (-2.0, 2.0), (16, 16, 4), 32)
# spans that are not powers of two, so a reordered normalization shows in the last bit
ODD_SPEC = VoxelGridSpec((-51.2, 51.2), (-30.0, 45.0), (-5.0, 3.3), (128, 96, 10), 8)


class TestHungarian:
    def test_two_by_two(self):
        assign = hungarian_match(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert assign.pairs == ((0, 0), (1, 1))

    def test_zero_matrix_tie_break(self):
        assign = hungarian_match(np.zeros((3, 3)))
        assert assign.pairs == ((0, 0), (1, 1), (2, 2))
        assert assign.unmatched_predictions == ()

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            cost = rng.uniform(0, 10, size=(n, m))
            assign = hungarian_match(cost)
            total = sum(cost[i, j] for i, j in assign.pairs)
            assert len(assign.pairs) == min(n, m)
            assert total == pytest.approx(brute_force_assignment_total(cost), abs=1e-9)

    def test_rectangular_unmatched(self):
        cost = np.array([[5.0], [0.0], [9.0]])
        assign = hungarian_match(cost)
        assert assign.pairs == ((1, 0),)
        assert assign.unmatched_predictions == (0, 2)

    def test_scaling_preserves_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cost = rng.uniform(0, 5, size=(4, 4))
            base = hungarian_match(cost).pairs
            scaled = hungarian_match(3.7 * cost).pairs
            assert base == scaled

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hungarian_match(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    def test_empty(self):
        assign = hungarian_match(np.zeros((3, 0)))
        assert assign.pairs == ()
        assert assign.unmatched_predictions == (0, 1, 2)


SHAPES = st.one_of(
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
    st.tuples(st.integers(8, 30), st.integers(1, 5)),
    st.tuples(st.integers(1, 5), st.integers(8, 30)),
)


@st.composite
def tie_heavy_costs(draw):
    """Cost matrices whose optimal assignments are rarely unique."""
    shape = draw(SHAPES)
    whole = draw(arrays(np.int64, shape, elements=st.integers(0, 2))).astype(np.float64)
    kind = draw(st.sampled_from(["integer", "tenths", "near_tie", "tolerance_edge"]))
    if kind == "integer":
        return whole
    digits = draw(arrays(np.int64, shape, elements=st.integers(0, 3))).astype(np.float64)
    if kind == "tenths":
        return whole + digits / 10
    if kind == "near_tie":  # ties broken by 1e-10
        return whole + 1e-10 * digits
    # near-optimal alternatives a few steps of 1e-9 above the optimum
    return 0.3 * (whole > 1) + 1e-9 * digits


def tolerance_edge_costs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = tuple(int(k) for k in rng.integers(1, 8, size=2))
        yield 1e-9 * rng.integers(0, 4, shape) + 0.3 * rng.integers(0, 2, shape)


def check_optimal_one_to_one(cost):
    """One-to-one pairs in row order, and optimal against brute force up to 7x7."""
    n, m = cost.shape
    assign = hungarian_match(cost)
    rows = [i for i, _ in assign.pairs]
    cols = [j for _, j in assign.pairs]
    assert len(assign.pairs) == min(n, m)
    assert rows == sorted(set(rows)) and len(set(cols)) == len(cols)
    assert assign.unmatched_predictions == tuple(i for i in range(n) if i not in rows)
    if n <= 7 and m <= 7:  # well below the 1e-9 steps of the near-optimal alternatives
        total = float(cost[rows, cols].sum())
        assert total == pytest.approx(brute_force_assignment_total(cost), abs=1e-12)


class TestHungarianOracle:
    """Matches are one-to-one and optimal against a brute-force oracle, ties included."""

    @given(tie_heavy_costs())
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_optimal(self, cost):
        check_optimal_one_to_one(cost)

    def test_tolerance_edge_optimal(self):
        # alternatives costing the optimum plus a few 1e-9 steps; an exact
        # tie-break rule can fail to complete on these in floating point
        for cost in tolerance_edge_costs(seed=5, count=300):
            check_optimal_one_to_one(cost)

    def test_solve_count(self, monkeypatch):
        solves = []

        def counting(cost):
            solves.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(training, "linear_sum_assignment", counting)
        cost = np.random.default_rng(9).uniform(0.0, 10.0, size=(300, 20))
        assign = hungarian_match(cost)
        assert solves == [cost.shape]
        rows, cols = linear_sum_assignment(cost)
        total = sum(cost[i, j] for i, j in assign.pairs)
        assert len(assign.pairs) == 20
        assert total == pytest.approx(cost[rows, cols].sum(), abs=1e-9)


class TestMatchCost:
    GT = Box3D(center=(1.0, -2.0, 0.0), size=(2.0, 1.0, 1.5), yaw=0.5,
               velocity=(0.5, -0.5), class_id=1)

    def _block(self, logits, vectors):
        """Predictions whose 10-vectors are ``vectors`` (one row per prediction)."""
        box = np.zeros_like(vectors)
        box[:, 3:] = vectors[:, 3:]
        return make_block(np.asarray(logits, dtype=np.float64), box, vectors[:, :3].copy())

    def test_perfect_prediction_near_zero(self):
        target = encode_boxes([self.GT], SPEC)
        cost = cost_matrix(self._block([[-50.0, 50.0, -50.0]], target), [self.GT], SPEC)
        assert cost[0, 0] < 1e-12 + 1e-20

    def test_box_weight(self):
        target = encode_boxes([self.GT], SPEC)[0]
        off = target.copy()
        off[3] += 1.0  # one unit of L1
        block = self._block([[0.0, 50.0, 0.0]] * 2, np.stack([target, off]))
        cost = cost_matrix(block, [self.GT], SPEC)
        assert cost[1, 0] - cost[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_identical_predictions_equal_cost(self):
        vec = encode_boxes([self.GT], SPEC)[0] + 0.3
        block = self._block([[0.2, -0.4, 1.0]] * 2, np.stack([vec, vec]))
        a = cost_matrix(block, [self.GT], SPEC)
        b = cost_matrix(block, [self.GT], SPEC)
        assert a[0, 0] == a[1, 0] == b[0, 0]

    def test_unknown_class(self):
        block = make_block(np.zeros((1, 3)), np.zeros((1, 10)))
        for class_id in (7, 3, -1):  # -1 must not wrap to the last class
            bad = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0, class_id=class_id)
            with pytest.raises(ValueError, match=f"class id {class_id} "):
                cost_matrix(block, [bad], SPEC)


def make_block(logits, box, refs=None):
    n = logits.shape[0]
    refs = np.full((n, 3), 0.5) if refs is None else refs
    return BlockPrediction(
        class_logits=Tensor(logits), box_params=Tensor(box), reference_out=Tensor(refs.copy()),
    )


class TestDetectionLoss:
    def test_no_gt_saturated_background(self):
        block = make_block(np.full((4, 3), -50.0), np.zeros((4, 10)))
        assign = Assignment(pairs=(), unmatched_predictions=(0, 1, 2, 3))
        loss, cls, box = detection_loss([block], [], [assign], SPEC)
        assert loss.item() < 1e-20
        assert box == 0.0

    def test_exact_box_zero_box_term(self):
        gt = Box3D(center=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0), yaw=0.0, class_id=0)
        target = encode_boxes([gt], SPEC)[0]
        box = np.zeros((2, 10))
        box[0, 3:] = target[3:]
        refs = np.full((2, 3), 0.5)
        refs[0] = target[:3]
        block = make_block(np.zeros((2, 3)), box, refs)
        assign = Assignment(pairs=((0, 0),), unmatched_predictions=(1,))
        _, _, box_part = detection_loss([block], [gt], [assign], SPEC)
        assert box_part == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_block_mean_invariant(self):
        rng = np.random.default_rng(2)
        gt = Box3D(center=(1.0, 1.0, 0.0), size=(1.0, 2.0, 1.0), yaw=0.3, class_id=1)
        block = make_block(rng.standard_normal((3, 3)), rng.standard_normal((3, 10)))
        assign = Assignment(pairs=((1, 0),), unmatched_predictions=(0, 2))
        single, _, _ = detection_loss([block], [gt], [assign], SPEC)
        double, _, _ = detection_loss([block, block], [gt], [assign, assign], SPEC)
        assert double.item() == pytest.approx(single.item(), rel=1e-12)

    def test_saturated_perfect_prediction_vanishes(self):
        gt = Box3D(center=(2.0, -1.0, 0.5), size=(2.0, 1.0, 1.5), yaw=0.7,
                   velocity=(1.0, 0.0), class_id=1)
        target = encode_boxes([gt], SPEC)[0]
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        box = np.zeros((2, 10))
        box[0, 3:] = target[3:]
        refs = np.full((2, 3), 0.5)
        refs[0] = target[:3]
        block = make_block(logits, box, refs)
        assign = Assignment(pairs=((0, 0),), unmatched_predictions=(1,))
        loss, _, _ = detection_loss([block], [gt], [assign], SPEC)
        assert loss.item() >= 0.0
        assert loss.item() < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        gt = Box3D(center=(0.0, 0.0, 0.0), size=(1, 1, 1), yaw=0.0, class_id=0)
        for _ in range(20):
            block = make_block(rng.standard_normal((3, 3)), rng.standard_normal((3, 10)))
            assign = Assignment(pairs=((0, 0),), unmatched_predictions=(1, 2))
            loss, _, _ = detection_loss([block], [gt], [assign], SPEC)
            assert loss.item() >= 0.0


class TestTotalLoss:
    def test_zero_kt(self):
        assert total_loss(Tensor(1.5), Tensor(0.0)).item() == 1.5

    def test_weighting(self):
        assert total_loss(Tensor(1.0), Tensor(100.0)).item() == pytest.approx(2.0)

    def test_both_zero(self):
        assert total_loss(Tensor(0.0), Tensor(0.0)).item() == 0.0


class TestMicroFit:
    CONFIG = PipelineConfig(use_camera=False)
    SCENE = generate_scene(SceneConfig(n_objects=2, channels=32), seed=7)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            micro_fit(self.SCENE, self.CONFIG, steps=-3, learning_rate=0.02, seed=3)

    def test_zero_steps_single_entry(self):
        result = micro_fit(self.SCENE, self.CONFIG, steps=0, learning_rate=0.02, seed=3)
        assert len(result.history) == 1

    def test_deterministic(self):
        a = micro_fit(self.SCENE, self.CONFIG, steps=3, learning_rate=0.02, seed=3)
        b = micro_fit(self.SCENE, self.CONFIG, steps=3, learning_rate=0.02, seed=3)
        assert [h.total for h in a.history] == [h.total for h in b.history]

    def test_breakdown_identity(self):
        result = micro_fit(self.SCENE, self.CONFIG, steps=1, learning_rate=0.02, seed=3)
        for item in result.history:
            assert item.total == pytest.approx(item.l_det + 0.01 * item.l_kt, abs=1e-12)

    def test_history_csv(self, tmp_path):
        result = micro_fit(self.SCENE, self.CONFIG, steps=2, learning_rate=0.02, seed=3)
        path = tmp_path / "history.csv"
        write_history_csv(path, result.history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,l_det,l_kt,total"
        assert len(lines) == len(result.history) + 1

    def test_divergence_reports_step(self):
        from voxdet.training import TrainingDivergenceError

        with pytest.raises(TrainingDivergenceError) as err:
            micro_fit(self.SCENE, self.CONFIG, steps=30, learning_rate=1e8, seed=3)
        assert err.value.step >= 0

    def test_divergence_warns_nothing(self):
        """The divergence error is the fit's only report: no numpy warning leaks ahead."""
        from voxdet.training import TrainingDivergenceError

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergenceError, match="step 3"):
                micro_fit(self.SCENE, self.CONFIG, steps=30, learning_rate=1e8, seed=3)


def random_boxes(rng, count, num_classes):
    return [
        Box3D(center=tuple(rng.uniform(-10.0, 10.0, 3)), size=tuple(rng.uniform(0.2, 5.0, 3)),
              yaw=float(rng.uniform(-np.pi, np.pi)), velocity=tuple(rng.normal(size=2)),
              class_id=int(rng.integers(num_classes)))
        for _ in range(count)
    ]


class TestCostMatrix:
    def test_shape_and_consistency(self):
        """Bit-equal to the per-pair oracle over random shapes, G = 0 included."""
        rng = np.random.default_rng(3)
        shapes = [(5, 2, 3), (1, 0, 1), (7, 0, 3), (1, 1, 1), (12, 9, 4), (40, 25, 3)]
        shapes += [(int(rng.integers(1, 30)), int(rng.integers(0, 12)), int(rng.integers(1, 5)))
                   for _ in range(20)]
        for (n, g, k), spec in itertools.product(shapes, (SPEC, ODD_SPEC)):
            block = make_block(rng.standard_normal((n, k)), rng.standard_normal((n, 10)),
                               rng.uniform(0.0, 1.0, (n, 3)))
            gts = random_boxes(rng, g, k)
            vectors = np.concatenate([block.reference_out.data, block.box_params.data[:, 3:]],
                                     axis=1)
            expected = cost_matrix_oracle(block.class_logits.data, vectors, gts, spec)
            got = cost_matrix(block, gts, spec)
            assert got.shape == (n, g)
            assert np.array_equal(got, expected), (n, g, k, spec)

    @pytest.mark.parametrize("spec", [SPEC, ODD_SPEC])
    def test_encode_boxes_matches_per_box_oracle(self, spec):
        gts = random_boxes(np.random.default_rng(4), 30, 3)
        expected = np.stack([encode_box_oracle(gt, spec) for gt in gts])
        assert np.array_equal(encode_boxes(gts, spec), expected)
        assert encode_boxes([], spec).shape == (0, 10)


@pytest.mark.parametrize("class_id", [3, -1])
def test_detection_loss_rejects_out_of_range_class(class_id):
    gt = Box3D(center=(0.0, 0.0, 0.0), size=(1, 1, 1), yaw=0.0, class_id=class_id)
    block = make_block(np.zeros((2, 3)), np.zeros((2, 10)))
    assign = Assignment(pairs=((0, 0),), unmatched_predictions=(1,))
    with pytest.raises(ValueError, match=f"class id {class_id} "):
        detection_loss([block], [gt], [assign], SPEC)
