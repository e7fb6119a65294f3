"""Dense float64 arrays with reverse-mode differentiation."""

from . import autograd, gradcheck, ops
from .autograd import *
from .gradcheck import *
from .ops import *

__all__ = autograd.__all__ + gradcheck.__all__ + ops.__all__
