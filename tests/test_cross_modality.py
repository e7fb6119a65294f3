import numpy as np
import pytest

from voxdet import numerics as nm
from voxdet.cross_modality import (
    knowledge_transfer_loss,
    modality_switch_fuse,
    partial_l2,
)
from voxdet.geometry import VoxelGridSpec
from voxdet.modality import EncoderTap, VoxelGrid
from voxdet.numerics import Parameter, Tape, Tensor, backward

SPEC = VoxelGridSpec((-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.0), (4, 4, 2), 3)


class TestPartialL2:
    def test_identity_zero(self):
        v = np.array([0.3, -1.0, 2.0])
        assert partial_l2(Tensor(v), Tensor(v.copy())).item() == 0.0

    def test_inactive_teacher_student_below(self):
        assert partial_l2(Tensor([-1.0]), Tensor([-2.0])).item() == 0.0

    def test_active_difference(self):
        assert partial_l2(Tensor([1.0]), Tensor([0.0])).item() == 1.0

    def test_inactive_teacher_student_above(self):
        # student above a non-positive teacher is still penalized
        assert partial_l2(Tensor([-1.0]), Tensor([0.5])).item() == pytest.approx(2.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            partial_l2(Tensor([1.0, 2.0]), Tensor([1.0]))

    def test_nonnegative_and_full_l2_when_teacher_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.uniform(0.1, 2.0, size=6)
            s = rng.standard_normal(6)
            d = partial_l2(Tensor(t), Tensor(s)).item()
            assert d >= 0.0
            assert d == pytest.approx(((t - s) ** 2).sum(), rel=1e-12)

    def test_gradient_flows_to_student_only(self):
        t = Tensor(np.array([1.0, -1.0, 0.5]), requires_grad=True)
        s = Tensor(np.array([0.2, -2.0, 0.1]), requires_grad=True)
        with Tape() as tape:
            loss = partial_l2(t, s)
        backward(tape, loss)
        assert t.grad is None
        np.testing.assert_allclose(s.grad, [2 * (0.2 - 1.0), 0.0, 2 * (0.1 - 0.5)],
                                   rtol=0, atol=1e-12)


class TestKnowledgeTransfer:
    def _taps(self, seed=0):
        rng = np.random.default_rng(seed)
        teacher = EncoderTap(features=Tensor(rng.standard_normal((4, 4, 2, 3))))
        student = EncoderTap(features=Tensor(rng.standard_normal((4, 4, 2, 3)),
                                             requires_grad=True))
        return teacher, student

    def test_identical_taps_zero(self):
        teacher, _ = self._taps()
        student = EncoderTap(features=Tensor(teacher.features.data.copy(),
                                             requires_grad=True))
        positions = np.random.default_rng(1).uniform(0.0, 1.9, size=(6, 3))
        assert knowledge_transfer_loss(teacher, student, positions).item() == 0.0

    def test_corner_example(self):
        teacher = EncoderTap(features=Tensor(np.zeros((2, 2, 2, 2))))
        teacher.features.data[0, 0, 0] = [1.0, 0.0]
        student = EncoderTap(features=Tensor(np.zeros((2, 2, 2, 2))))
        loss = knowledge_transfer_loss(teacher, student, np.array([[0.0, 0.0, 0.0]]))
        assert loss.item() == 1.0

    def test_duplicate_positions_invariant(self):
        teacher, student = self._taps(2)
        pos = np.random.default_rng(3).uniform(0.0, 1.9, size=(5, 3))
        single = knowledge_transfer_loss(teacher, student, pos).item()
        doubled = knowledge_transfer_loss(teacher, student, np.vstack([pos, pos])).item()
        assert doubled == pytest.approx(single, rel=1e-12)

    def test_permutation_invariant(self):
        teacher, student = self._taps(4)
        pos = np.random.default_rng(5).uniform(0.0, 1.9, size=(7, 3))
        forward = knowledge_transfer_loss(teacher, student, pos).item()
        shuffled = knowledge_transfer_loss(teacher, student, pos[::-1].copy()).item()
        assert shuffled == pytest.approx(forward, rel=1e-12)

    def test_student_gradient_finite_difference(self):
        teacher, _ = self._taps(6)
        pos = np.random.default_rng(7).uniform(0.2, 1.7, size=(4, 3))

        def f(x):
            student = EncoderTap(features=nm.reshape(x, (4, 4, 2, 3)))
            return knowledge_transfer_loss(teacher, student, pos)

        base = np.random.default_rng(8).standard_normal(96)
        # keep samples away from the piecewise boundary
        err = nm.grad_check(f, Tensor(base), eps=1e-5)
        assert err < 1e-6

    def test_teacher_parameter_untouched(self):
        teacher_param = Parameter("teacher", np.random.default_rng(9).standard_normal((2, 2, 2, 2)))
        student = EncoderTap(features=Tensor(np.zeros((2, 2, 2, 2)), requires_grad=True))
        with Tape() as tape:
            loss = knowledge_transfer_loss(EncoderTap(features=teacher_param), student,
                                           np.array([[0.5, 0.5, 0.5]]))
        backward(tape, loss)
        np.testing.assert_array_equal(teacher_param.grad, 0.0)

    def test_empty_positions_rejected(self):
        teacher, student = self._taps()
        with pytest.raises(ValueError):
            knowledge_transfer_loss(teacher, student, np.zeros((0, 3)))


class TestModalitySwitchFuse:
    def _grid(self, value):
        return VoxelGrid(spec=SPEC, features=Tensor(np.full(SPEC.counts + (3,), value)))

    def test_camera_only_identity(self):
        vi = self._grid(1.5)
        out = modality_switch_fuse([vi])
        np.testing.assert_allclose(out.features.data, vi.features.data, rtol=0, atol=1e-12)

    def test_zero_summand(self):
        vi = VoxelGrid(spec=SPEC, features=Tensor(
            np.random.default_rng(10).standard_normal(SPEC.counts + (3,))))
        vp = self._grid(0.0)
        out = modality_switch_fuse([vi, vp])
        np.testing.assert_allclose(out.features.data, vi.features.data, rtol=0, atol=1e-12)

    def test_constant_sum(self):
        out = modality_switch_fuse([self._grid(2.0), self._grid(3.0)])
        np.testing.assert_allclose(out.features.data, 5.0, rtol=0, atol=1e-12)

    def test_absent_grid_rejected(self):
        with pytest.raises(ValueError, match="space is absent"):
            modality_switch_fuse([None, self._grid(1.0)])

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="at least one space"):
            modality_switch_fuse([])

    def test_spec_mismatch_rejected(self):
        other = VoxelGridSpec((-2.0, 2.0), (-2.0, 2.0), (-1.0, 3.0), (4, 4, 2), 3)
        vp = VoxelGrid(spec=other, features=Tensor(np.zeros(other.counts + (3,))))
        with pytest.raises(ValueError, match="share a grid spec"):
            modality_switch_fuse([self._grid(1.0), vp])

    def test_linear_in_inputs(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(SPEC.counts + (3,))
        b = rng.standard_normal(SPEC.counts + (3,))

        def fuse(x, y):
            return modality_switch_fuse(
                [VoxelGrid(spec=SPEC, features=Tensor(x)),
                 VoxelGrid(spec=SPEC, features=Tensor(y))],
            ).features.data

        # the fusion map acts on the decoder's samples, so this is the plain sum
        np.testing.assert_array_equal(fuse(a, b), a + b)
        np.testing.assert_array_equal(fuse(2.0 * a, 2.0 * b), 2.0 * fuse(a, b))
