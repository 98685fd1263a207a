"""Deterministic 64-bit random number generation for the simulator.

Platform generators are deliberately avoided: the Monte-Carlo contract is
that a (master seed, run index) pair identifies one declaration stream, byte
for byte, on any machine. The generator here is splitmix64 (Steele, Lea &
Flood's SplittableRandom recurrence): state advances by a fixed odd constant
and the output is an avalanche mix of the state. It is trivially portable --
a dozen integer operations -- and statistically solid for this workload.
The batch engine, :mod:`evidfuse.engine`, draws the same streams in closed
form over numpy arrays.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

#: Odd increment of the splitmix64 state ("golden gamma").
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """splitmix64 finalizer: xor-shift/multiply avalanche of a 64-bit value."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
    return z ^ (z >> 31)


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Per-run seed: avalanche of master_seed offset by run_index gammas.

    Deterministic, and distinct run indices give distinct seeds in practice
    (the mix is a bijection of the 64-bit offsets).
    """
    return mix64((master_seed + run_index * GOLDEN_GAMMA) & _MASK64)


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
