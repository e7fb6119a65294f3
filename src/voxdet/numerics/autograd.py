"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is a classic explicit tape: differentiable operations executed
while a :class:`Tape` is active append themselves to it, and
:func:`backward` replays the records in exact reverse execution order,
accumulating gradients additively into every reachable node.  Tapes are
single-use.  When no tape is active, operations run as plain forward
computations with no recording overhead.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "Tensor",
    "Parameter",
    "parameters_of",
    "Tape",
    "backward",
    "active_tape",
    "record_op",
    "accumulate_grad",
    "as_tensor",
]


class NumericsError(ArithmeticError):
    """Raised when an operation would produce or propagate non-finite values."""


# below this many elements the elementwise finiteness check is cheaper than
# entering ``np.errstate`` to sum first
_SUM_FIRST_SIZE = 65_536


class Tensor:
    """A dense float64 array node.

    ``data`` is always a C-contiguous float64 ndarray.  ``grad`` is lazily
    allocated during backward for nodes that participate in differentiation.
    ``data`` must be finite; ``checked`` skips that check for values already
    known to be finite.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward")

    def __init__(self, data, requires_grad: bool = False, *, checked: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if checked:
            finite = True
        elif arr.size < _SUM_FIRST_SIZE:
            finite = np.isfinite(arr).all()
        else:
            # any NaN or inf makes the sum non-finite; finite values can overflow
            # it too, so only then is every element checked
            with np.errstate(over="ignore", invalid="ignore"):
                total = arr.sum()
            finite = np.isfinite(total) or np.isfinite(arr).all()
        if not finite:
            raise NumericsError("tensor holds non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named learnable tensor whose gradient persists across backward calls.

    The gradient buffer always exists, is zero right after construction or
    :meth:`reset_gradient`, and accumulates additively during backward.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def reset_gradient(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.shape})"


def parameters_of(obj) -> list[Parameter]:
    """Every Parameter under ``obj``, walking dataclass fields and lists in order."""
    if isinstance(obj, Parameter):
        return [obj]
    if isinstance(obj, list):
        return [p for item in obj for p in parameters_of(item)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        return [p for f in fields for p in parameters_of(getattr(obj, f.name))]
    return []


_STATE = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of differentiable operations, single-use for backward."""

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"

    def _record(self, node: Tensor) -> None:
        self._nodes.append(node)


def accumulate_grad(node: Tensor, grad: np.ndarray) -> None:
    """Add ``grad`` into ``node.grad``, allocating the buffer on first use."""
    if not node.requires_grad:
        return
    if node.grad is None:
        # a copy, never ``grad`` itself: one gradient array may reach several parents
        node.grad = np.empty_like(node.data)
        node.grad[...] = grad
    else:
        node.grad += grad


def record_op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward_fn: Callable[[np.ndarray], None],
    checked: bool = False,
) -> Tensor:
    """Create the output node of a primitive and register it on the active tape.

    ``backward_fn`` receives the output gradient and must accumulate into the
    parents via :func:`accumulate_grad`.  Recording only happens when a tape
    is active and at least one parent requires gradients.  ``checked`` skips
    the finiteness check: for ops whose values are copies of their parents'
    values, which were checked when those tensors were built, or that the
    caller has checked itself.
    """
    requires = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires, checked=checked)
    tape = active_tape()
    if tape is not None and requires:
        out._backward = backward_fn
        tape._record(out)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into every node recorded on ``tape``.

    ``loss`` must be a scalar produced under the tape.  Each tape can be
    replayed once; the reverse sweep visits operations in exact reverse
    execution order so fan-out gradients accumulate additively.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if tape._consumed:
        raise RuntimeError("tape already replayed; tapes are single-use")
    tape._consumed = True
    accumulate_grad(loss, np.ones_like(loss.data))
    for node in reversed(tape._nodes):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node.grad)


def as_tensor(value) -> Tensor:
    """Wrap plain arrays/scalars as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
