"""Fuzzy conjunction (t-norm) and disjunction (t-conorm) operators on [0, 1].

The shipped operators are a closed enumeration, so the axiom test suite can
cover every variant exhaustively. Each t-norm is associative, commutative,
monotone, and satisfies the boundary conditions T(0, 0) = 0 and T(x, 1) = x.

The focal-pair kernel relies on the IEEE implementations being exactly
nonnegative and monotone, not just within rounding: it ends a row at its
first zero t-norm, so ``T(x, y) == 0.0`` and ``y2 <= y`` must give
``T(x, y2) == 0.0``. The shipped forms hold this because rounding is
monotone (``fl(x * y)``, ``min`` and ``max(0, fl(fl(x + y) - 1))``); a new
t-norm must keep it, and ``tests/test_operators.py`` checks it exactly.

Note that :attr:`TConorm.SUM` is the *unclamped* arithmetic sum, which leaves
[0, 1] for x + y > 1. That is deliberate: only the unclamped sum makes the
TCN rule with the algebraic-product t-norm reduce exactly to PCR5's
proportional conflict split. A bounded sum is intentionally not offered.
"""

from __future__ import annotations

import enum
from operator import add, mul


class TNorm(enum.Enum):
    """Shipped t-norm variants; values are the CLI spellings."""

    MIN = "min"
    PRODUCT = "product"
    BOUNDED = "bounded"


class TConorm(enum.Enum):
    """Shipped t-conorm variants; values are the CLI spellings."""

    MAX = "max"
    SUM = "sum"


def _min(x: float, y: float) -> float:
    return x if x < y else y


def _bounded_product(x: float, y: float) -> float:
    return max(0.0, x + y - 1.0)


def _max(x: float, y: float) -> float:
    return x if x > y else y


# Scalar operators by kind, as the focal-pair kernel calls them.
TNORM_FUNCS = {
    TNorm.MIN: _min,
    TNorm.PRODUCT: mul,
    TNorm.BOUNDED: _bounded_product,
}

TCONORM_FUNCS = {
    TConorm.MAX: _max,
    TConorm.SUM: add,
}
