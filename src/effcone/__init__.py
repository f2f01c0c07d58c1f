"""Exact-arithmetic verification of divisor-class computations and
extremality certificates on moduli spaces of marked genus-one curves."""

__version__ = "0.1.0"

from .picard import (  # noqa: F401
    CurveProfile,
    DivisorClassM1n,
    DivisorClassMg,
    MarkingIndexError,
    ResourceGuardError,
    SpaceMismatchError,
    pair,
)
from .scalars import A, Poly, binom, poly_eval  # noqa: F401
