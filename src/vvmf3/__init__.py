"""Exact computation for 3-dimensional vector-valued modular forms.

The library builds the order-3 modular differential system attached to a
triple of leading exponents (A, B, C) at level N, solves it by the Frobenius
recursion in exact rational arithmetic, analyses the p-adic valuations of the
coefficients, and classifies the representation data (congruence small levels,
level-7 primitives, induced families, unbounded-denominator primes).
"""

from . import arith, mde, qseries, reps, valuation
from .arith import *
from .mde import *
from .qseries import *
from .reps import *
from .valuation import *

__version__ = "0.1.0"

__all__ = sorted({name for m in (arith, mde, qseries, reps, valuation) for name in m.__all__})
