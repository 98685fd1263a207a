"""Frozen scalar reference of the three combination rules.

A line-for-line transcription of the package's original focal-pair loops
(Dempster, PCR5, TCN) on plain ``{bitmask: mass}`` dicts. The benchmark
checks every ``combine`` output of the dense-fuse workload against it, so a
later rewrite of the package's rules is compared with the behaviour they had
when the benchmark was defined, not with itself.

Each function returns the fused masses, or ``None`` for a degenerate fusion
(total conflict under Dempster, vanishing consensus under TCN).
"""

from __future__ import annotations

from collections import defaultdict
from math import fsum

TOTAL_CONFLICT_MARGIN = 1e-12


def _tnorm(kind: str):
    if kind == "min":
        return lambda x, y: x if x < y else y
    if kind == "product":
        return lambda x, y: x * y
    if kind == "bounded":
        return lambda x, y: max(0.0, x + y - 1.0)
    raise ValueError("unknown t-norm %r" % kind)


def _tconorm(kind: str):
    if kind == "max":
        return lambda x, y: x if x > y else y
    if kind == "sum":
        return lambda x, y: x + y
    raise ValueError("unknown t-conorm %r" % kind)


def _pruned(masses: dict[int, float]) -> dict[int, float]:
    return {bits: v for bits, v in masses.items() if v != 0.0}


def dempster(m1: dict[int, float], m2: dict[int, float]) -> dict[int, float] | None:
    terms: dict[int, list[float]] = defaultdict(list)
    for a, va in m1.items():
        for b, vb in m2.items():
            terms[a & b].append(va * vb)
    consensus = {bits: fsum(values) for bits, values in terms.items()}
    nonempty = {bits: v for bits, v in consensus.items() if bits != 0 and v != 0.0}
    remaining = fsum(nonempty.values())
    if remaining <= TOTAL_CONFLICT_MARGIN:
        return None
    return _pruned({bits: value / remaining for bits, value in nonempty.items()})


def pcr5(m1: dict[int, float], m2: dict[int, float]) -> dict[int, float]:
    terms: dict[int, list[float]] = defaultdict(list)
    for a, va in m1.items():
        for b, vb in m2.items():
            x = a & b
            if x:
                terms[x].append(va * vb)
                continue
            denominator = va + vb
            if denominator == 0.0:
                continue
            share = va * vb / denominator
            terms[a].append(va * share)
            terms[b].append(vb * share)
    return _pruned({bits: fsum(values) for bits, values in terms.items()})


def tcn(m1: dict[int, float], m2: dict[int, float], tnorm: str,
        tconorm: str) -> dict[int, float] | None:
    tn = _tnorm(tnorm)
    tc = _tconorm(tconorm)
    terms: dict[int, list[float]] = defaultdict(list)
    for a, va in m1.items():
        for b, vb in m2.items():
            x = a & b
            if x:
                value = tn(va, vb)
                if value != 0.0:
                    terms[x].append(value)
                continue
            denominator = tc(va, vb)
            if denominator == 0.0:
                continue
            ratio = tn(va, vb) / denominator
            if ratio != 0.0:
                terms[a].append(va * ratio)
                terms[b].append(vb * ratio)
    masses = {bits: fsum(values) for bits, values in terms.items()}
    total = fsum(masses.values())
    if total <= 0.0:
        return None
    return _pruned({bits: value / total for bits, value in masses.items()})


def combine(rule: dict, m1: dict[int, float], m2: dict[int, float]) -> dict[int, float] | None:
    """Fuse under a rule given in the simulation-config spelling, e.g.
    ``{"rule": "tcn", "tnorm": "min", "tconorm": "max"}``."""
    if rule["rule"] == "dempster":
        return dempster(m1, m2)
    if rule["rule"] == "pcr5":
        return pcr5(m1, m2)
    if rule["rule"] == "tcn":
        return tcn(m1, m2, rule["tnorm"], rule["tconorm"])
    raise ValueError("unknown rule %r" % (rule,))
