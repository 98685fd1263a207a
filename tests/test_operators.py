"""Fuzzy conjunction/disjunction operators and their algebraic laws."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evidfuse import TConorm, TNorm
from evidfuse.operators import TCONORM_FUNCS, TNORM_FUNCS

units = st.floats(0.0, 1.0, allow_nan=False)

ALL_TNORMS = list(TNorm)
ALL_TCONORMS = list(TConorm)


def test_tnorm_values():
    assert TNORM_FUNCS[TNorm.MIN](0.3, 0.7) == 0.3
    assert TNORM_FUNCS[TNorm.PRODUCT](0.3, 0.7) == pytest.approx(0.21, abs=1e-15)
    assert TNORM_FUNCS[TNorm.BOUNDED](0.3, 0.7) == 0.0
    assert TNORM_FUNCS[TNorm.BOUNDED](0.8, 0.7) == pytest.approx(0.5, abs=1e-15)


def test_tconorm_values():
    assert TCONORM_FUNCS[TConorm.MAX](0.3, 0.7) == 0.7
    assert TCONORM_FUNCS[TConorm.SUM](0.3, 0.7) == 1.0
    # the sum variant is deliberately unclamped
    assert TCONORM_FUNCS[TConorm.SUM](0.9, 0.9) == pytest.approx(1.8, abs=1e-15)


@pytest.mark.parametrize("kind", ALL_TNORMS)
@given(x=units, y=units, z=units)
def test_tnorm_associativity(kind, x, y, z):
    t = TNORM_FUNCS[kind]
    left = t(t(x, y), z)
    right = t(x, t(y, z))
    assert left == pytest.approx(right, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_TNORMS)
@given(x=units, y=units)
def test_tnorm_commutativity(kind, x, y):
    assert TNORM_FUNCS[kind](x, y) == TNORM_FUNCS[kind](y, x)


@pytest.mark.parametrize("kind", ALL_TNORMS)
@given(x=units, y=units, a=units, b=units)
def test_tnorm_monotonicity(kind, x, y, a, b):
    t = TNORM_FUNCS[kind]
    lo = t(min(x, a), min(y, b))
    hi = t(max(x, a), max(y, b))
    assert lo <= hi + 1e-12


#: Masses in [0, 1] that reach the subnormals and the products that round to zero.
fine_units = st.one_of(units, st.floats(0.0, 1e-150), st.floats(0.0, sys.float_info.min))


@pytest.mark.parametrize("kind", ALL_TNORMS)
@given(x=fine_units, y=fine_units, y2=fine_units)
def test_tnorm_zero_stays_zero_below_exactly(kind, x, y, y2):
    # the focal-pair kernel ends a row at its first zero t-norm, visiting the
    # second argument in descending order: that is exact only if the IEEE
    # operator is nonnegative and a zero stays zero below, with no slack
    t = TNORM_FUNCS[kind]
    y2, y = sorted((y, y2))
    assert t(x, y2) >= 0.0
    if t(x, y) == 0.0:
        assert t(x, y2) == 0.0


@pytest.mark.parametrize("kind", ALL_TNORMS)
@given(x=units)
def test_tnorm_boundary(kind, x):
    assert TNORM_FUNCS[kind](0.0, 0.0) == 0.0
    assert TNORM_FUNCS[kind](x, 1.0) == pytest.approx(x, abs=1e-12)


@given(x=units, y=units)
def test_tnorm_ordering(x, y):
    # bounded <= product <= min pointwise
    bounded = TNORM_FUNCS[TNorm.BOUNDED](x, y)
    product = TNORM_FUNCS[TNorm.PRODUCT](x, y)
    assert bounded <= product + 1e-12
    assert product <= TNORM_FUNCS[TNorm.MIN](x, y) + 1e-12


@given(x=units, y=units, z=units)
def test_tconorm_max_associativity(x, y, z):
    s = TCONORM_FUNCS[TConorm.MAX]
    assert s(s(x, y), z) == s(x, s(y, z))


@given(x=units, y=units, z=units)
def test_tconorm_sum_associativity(x, y, z):
    # checked on the raw operator: composed values leave [0, 1] by design
    s = TCONORM_FUNCS[TConorm.SUM]
    assert s(s(x, y), z) == pytest.approx(s(x, s(y, z)), abs=1e-12)


@pytest.mark.parametrize("kind", ALL_TCONORMS)
@given(x=units, y=units)
def test_tconorm_commutativity(kind, x, y):
    assert TCONORM_FUNCS[kind](x, y) == TCONORM_FUNCS[kind](y, x)


@pytest.mark.parametrize("kind", ALL_TCONORMS)
@given(x=units)
def test_tconorm_zero_is_neutral(kind, x):
    assert TCONORM_FUNCS[kind](x, 0.0) == x


@pytest.mark.parametrize("kind", ALL_TCONORMS)
@given(x=units, y=units, a=units, b=units)
def test_tconorm_monotonicity(kind, x, y, a, b):
    s = TCONORM_FUNCS[kind]
    lo = s(min(x, a), min(y, b))
    hi = s(max(x, a), max(y, b))
    assert lo <= hi + 1e-12
