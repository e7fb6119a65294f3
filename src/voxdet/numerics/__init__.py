"""Dense float64 arrays with reverse-mode differentiation."""

from .autograd import (
    NumericsError,
    Parameter,
    Tape,
    Tensor,
    accumulate_grad,
    active_tape,
    as_tensor,
    backward,
    parameters_of,
    record_op,
)
from .gradcheck import grad_check, set_gradient_corruption
from .ops import (
    absolute,
    add,
    affine,
    concat,
    conv,
    exp,
    getitem,
    inverse_sigmoid,
    layer_norm,
    log,
    matmul,
    mul,
    neg,
    nn_upsample3d,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax,
    softplus,
    square,
    sub,
    tmean,
    transpose,
    trilinear_sample,
    tsum,
)

__all__ = [
    "NumericsError", "Parameter", "Tape", "Tensor", "accumulate_grad",
    "active_tape", "as_tensor", "backward", "parameters_of", "record_op",
    "grad_check", "set_gradient_corruption", "absolute", "add", "affine",
    "concat", "conv", "exp", "getitem", "inverse_sigmoid", "layer_norm",
    "log", "matmul", "mul", "neg", "nn_upsample3d", "relu", "reshape",
    "scale", "sigmoid", "softmax", "softplus", "square", "sub", "tmean",
    "transpose", "trilinear_sample", "tsum",
]
