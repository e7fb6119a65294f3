"""Central-difference validation of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autograd import Parameter, Tape, Tensor, backward

__all__ = ["grad_check", "central_difference", "max_relative_error"]


def grad_check(function: Callable[[Tensor], Tensor], point, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``function`` must map a tensor to a scalar tensor and be re-evaluable;
    it gets one tensor, whose storage the central differences perturb in
    place.  A :class:`Parameter` ``point`` is that tensor, its gradient reset
    first, so a function may also reach it through a model it closes over;
    any other point is copied into a fresh tensor.  The relative error per
    coordinate uses an absolute floor of 1e-8 in the denominator so
    near-zero gradients compare on an absolute scale.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(point, Parameter):
        point.reset_gradient()
        x = point
    else:
        data = point.data if isinstance(point, Tensor) else point
        x = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        out = function(x)
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    backward(tape, out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    numeric = central_difference(x.data.reshape(-1), lambda: function(x).item(), eps)
    return max_relative_error(analytic.reshape(-1), numeric)


def central_difference(
    values: np.ndarray, evaluate: Callable[[], float], eps: float
) -> np.ndarray:
    """Numeric gradient of ``evaluate()`` w.r.t. the flat view ``values``.

    Each entry is perturbed in place by +-eps and restored afterwards.
    """
    numeric = np.zeros_like(values)
    for i in range(values.size):
        orig = values[i]
        values[i] = orig + eps
        f_plus = evaluate()
        values[i] = orig - eps
        f_minus = evaluate()
        values[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * eps)
    return numeric


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max per-coordinate relative error, with a 1e-8 denominator floor."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max()) if rel.size else 0.0
