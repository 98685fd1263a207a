"""Deterministic 64-bit random number generation for the simulator.

Platform generators are deliberately avoided: the Monte-Carlo contract is
that a (master seed, run index) pair identifies one declaration stream, byte
for byte, on any machine. The generator here is splitmix64 (Steele, Lea &
Flood's SplittableRandom recurrence): state advances by a fixed odd constant
and the output is an avalanche mix of the state. It is trivially portable --
a dozen integer operations -- and statistically solid for this workload.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: Odd increment of the splitmix64 state ("golden gamma").
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB

# The array path holds every operand as an ``np.uint64``, so its arithmetic
# wraps modulo 2**64 and no numpy promotion rule (which changed between 1.x
# and 2.x for Python ints) takes part; no mask is needed.
_GAMMA_U64 = np.uint64(GOLDEN_GAMMA)
_MULT_1_U64 = np.uint64(_MIX_MULT_1)
_MULT_2_U64 = np.uint64(_MIX_MULT_2)
_U11, _U27, _U30, _U31 = (np.uint64(n) for n in (11, 27, 30, 31))


def mix64(value: int) -> int:
    """splitmix64 finalizer: xor-shift/multiply avalanche of a 64-bit value."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U30)) * _MULT_1_U64
    z = (z ^ (z >> _U27)) * _MULT_2_U64
    return z ^ (z >> _U31)


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Per-run seed: avalanche of master_seed offset by run_index gammas.

    Deterministic, and distinct run indices give distinct seeds in practice
    (the mix is a bijection of the 64-bit offsets).
    """
    return mix64((master_seed + run_index * GOLDEN_GAMMA) & _MASK64)


def run_floats(master_seed: int, start: int, stop: int, draws: int) -> np.ndarray:
    """``[r, k]`` is draw ``k + 1`` of ``SplitMix64(derive_run_seed(master_seed,
    start + r)).next_float()``: run i's seed is ``mix64(master_seed + i * GOLDEN_GAMMA)``
    and draw k of a stream seeded s is ``mix64(s + k * GOLDEN_GAMMA)``: two array mixes."""
    offsets = np.arange(start, stop, dtype=np.uint64) * _GAMMA_U64
    seeds = _mix64_array(np.uint64(master_seed & _MASK64) + offsets)
    steps = np.arange(1, draws + 1, dtype=np.uint64) * _GAMMA_U64
    bits = _mix64_array(seeds[:, None] + steps) >> _U11
    return bits.astype(np.float64) * 2.0**-53


class SplitMix64:
    """Sequential splitmix64 stream seeded with a 64-bit value."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + GOLDEN_GAMMA) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Next uniform double in [0, 1) with 53 random mantissa bits."""
        return (self.next_uint64() >> 11) * 1.1102230246251565e-16  # 2**-53
