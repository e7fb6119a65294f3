"""Synthetic scene generation and the on-disk scene format."""

from . import generate, io, types
from .generate import *
from .io import *
from .types import *

__all__ = generate.__all__ + io.__all__ + types.__all__
