"""Fuzzy conjunction (t-norm) and disjunction (t-conorm) operators on [0, 1].

The shipped operators are a closed enumeration, so the axiom test suite can
cover every variant exhaustively. Each t-norm is associative, commutative,
monotone, and satisfies the boundary conditions T(0, 0) = 0 and T(x, 1) = x.

Note that :attr:`TConorm.SUM` is the *unclamped* arithmetic sum, which leaves
[0, 1] for x + y > 1. That is deliberate: only the unclamped sum makes the
TCN rule with the algebraic-product t-norm reduce exactly to PCR5's
proportional conflict split. A bounded sum is intentionally not offered.
"""

from __future__ import annotations

import enum
from operator import add, mul

import numpy as np


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


def _bounded_product_array(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(0.0, x + y - 1.0, out=out)


# Elementwise forms of the tables above for the batch simulation engine; each
# performs the same IEEE operations as its scalar entry, so results match bit
# for bit on finite inputs in [0, 1], and takes the ufunc ``out`` argument.
TNORM_ARRAYS = {
    TNorm.MIN: np.minimum,
    TNorm.PRODUCT: np.multiply,
    TNorm.BOUNDED: _bounded_product_array,
}

TCONORM_ARRAYS = {
    TConorm.MAX: np.maximum,
    TConorm.SUM: np.add,
}

