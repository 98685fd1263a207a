"""Shared frames, mass-function generators and trace builders for the test suite."""

import math

import hypothesis.strategies as st
import numpy as np

from evidfuse import AveragedTrace, Frame, FrameError, MassFunctionError, make_bba

FC_FRAME = Frame(("Fighter", "Cargo"))
ABC_FRAME = Frame(("Alpha", "Bravo", "Charlie"))

_SCALE_BITS = 12

#: Mass entries over FC_FRAME that the MassFunction constructor rejects, each
#: with its error type and message: bits 0b01 are Fighter, 0b11 Fighter|Cargo.
INVALID_OPERANDS = {
    "nan": ({0b01: math.nan, 0b11: 1.0}, MassFunctionError, "masses: mass nan on Fighter is not a number in [0, 1]"),
    "inf": ({0b01: math.inf, 0b11: 1.0}, MassFunctionError, "masses: mass inf on Fighter is not a number in [0, 1]"),
    "-inf": ({0b01: -math.inf, 0b11: 1.0}, MassFunctionError,
             "masses: mass -inf on Fighter is not a number in [0, 1]"),
    "negative": ({0b01: -0.5, 0b11: 1.5}, MassFunctionError,
                 "masses: mass -0.5 on Fighter is not a number in [0, 1]"),
    "total-1.5": ({0b01: 0.5, 0b11: 1.0}, MassFunctionError, "masses sum to 1.5, not 1"),
    "overflow": ({0b01: 1e308, 0b11: 1e308}, MassFunctionError,  # their fsum overflows
                 "masses: mass 1e+308 on Fighter is not a number in [0, 1]"),
    "outside-frame": ({0b101: 1.0}, FrameError, "masses: focal set 5 is not a bitmask over 2 labels"),
    "empty-set": ({0: 0.5, 0b11: 0.5}, MassFunctionError, "masses: mass assigned to the empty set"),
}


@st.composite
def dyadic_bbas(draw, frame):
    """Masses of the form k / 2**12: float-exact and summing to exactly 1.0.

    make_bba sees a total of exactly 1.0 and keeps every mass bit-for-bit,
    which lets tests assert byte identity instead of tolerances.
    """
    subsets = list(frame.nonempty_subsets())
    total = 1 << _SCALE_BITS
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, total),
                min_size=len(subsets) - 1,
                max_size=len(subsets) - 1,
            )
        )
    )
    weights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return make_bba(
        frame, {s: w / total for s, w in zip(subsets, weights) if w}
    )


@st.composite
def float_bbas(draw, frame):
    """Arbitrary-float masses normalized to sum to 1 within one rounding."""
    subsets = list(frame.nonempty_subsets())
    values = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=len(subsets),
            max_size=len(subsets),
        ).filter(lambda vs: math.fsum(vs) > 1e-3)
    )
    total = math.fsum(values)
    return make_bba(frame, {s: v / total for s, v in zip(subsets, values) if v})


def trace_from_dense(rule, frame, truth, dense, rate):
    """The AveragedTrace of dense ``(scans, 2^M - 1)`` means, column ``bits - 1``
    per subset ``bits``. A trace holds only the singleton and full-set columns,
    so a set bit (even -0.0's) in any other column raises instead of being dropped."""
    dense = np.asarray(dense, dtype=float)
    reached = [(1 << i) - 1 for i in range(frame.size)] + [frame.full_set - 1]
    dropped = np.delete(dense, reached, axis=1)
    if dropped.view(np.uint64).any():
        raise ValueError("the dense means carry mass outside the singleton and full-set columns")
    return AveragedTrace(rule, frame, tuple(truth), dense[:, reached], rate)
