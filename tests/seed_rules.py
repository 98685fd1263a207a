"""The scalar rules exactly as they were before the focal-pair kernel.

A verbatim copy of the original ``conjunctive_consensus``,
``dempster_combine``, ``pcr5_combine`` and ``tcn_combine`` loops and of the
operator tables they used. The differential tests in ``test_rules.py``
compare the package's kernel-based rules against these bit for bit, so a
rewrite of the kernel is checked against the original behaviour and not
against itself.
"""

from __future__ import annotations

from collections import defaultdict
from math import fsum

from evidfuse import Rule, RuleConfig, TConorm, TNorm, TotalConflictError, VanishingConsensusError
from evidfuse.core import ConsensusResult, MassFunction, _require_same_frame

#: A surviving consensus at or below this counts as total conflict.
TOTAL_CONFLICT_MARGIN = 1e-12


def _min(x: float, y: float) -> float:
    return x if x < y else y


def _product(x: float, y: float) -> float:
    return x * y


def _bounded_product(x: float, y: float) -> float:
    return max(0.0, x + y - 1.0)


def _max(x: float, y: float) -> float:
    return x if x > y else y


def _sum(x: float, y: float) -> float:
    return x + y


# Dispatch tables; rule internals use these directly to skip re-validation.
TNORM_FUNCS = {
    TNorm.MIN: _min,
    TNorm.PRODUCT: _product,
    TNorm.BOUNDED: _bounded_product,
}

TCONORM_FUNCS = {
    TConorm.MAX: _max,
    TConorm.SUM: _sum,
}


def conjunctive_consensus(m1: MassFunction, m2: MassFunction) -> ConsensusResult:
    """Unnormalized conjunctive combination of two sources.

    Every pair of focal sets contributes the product of its masses to the
    intersection; mass on the empty set is kept and equals the total conflict.
    Per-subset accumulation uses an accurately rounded sum, which makes the
    result independent of argument order bit for bit.
    """
    frame = _require_same_frame(m1, m2)
    terms: dict[int, list[float]] = defaultdict(list)
    for a, va in m1.masses.items():
        for b, vb in m2.masses.items():
            terms[a & b].append(va * vb)
    masses = {bits: fsum(values) for bits, values in terms.items()}
    return ConsensusResult(frame, {bits: v for bits, v in masses.items() if v != 0.0})


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: conjunctive consensus rescaled by 1/(1 - K).

    The divisor is computed as the surviving consensus total rather than
    literally 1 - K: the two coincide for normalized inputs, but the
    literal form amplifies the inputs' rounding drift by 1/(1 - K) at
    every step of a fusion chain, which matters under heavy conflict.

    Raises :class:`TotalConflictError` instead of dividing by (almost) zero
    when the sources are totally conflicting.
    """
    consensus = conjunctive_consensus(m1, m2)
    nonempty = consensus.nonempty()
    remaining = fsum(nonempty.values())
    if remaining <= TOTAL_CONFLICT_MARGIN:
        raise TotalConflictError(
            "total conflict between sources (K=%.17g); Dempster's rule is undefined"
            % consensus.conflict
        )
    masses = {bits: value / remaining for bits, value in nonempty.items()}
    return MassFunction(consensus.frame, masses)


def pcr5_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Proportional conflict redistribution rule no. 5 for two sources.

    Starts from the conjunctive consensus; every partial conflict
    m1(A)*m2(B) with A and B disjoint is then split back onto A and B
    proportionally to m1(A) and m2(B):

        A gains m1(A)^2 m2(B) / (m1(A) + m2(B))
        B gains m2(B)^2 m1(A) / (m1(A) + m2(B))

    Pairs whose masses are both zero contribute nothing. The output is not
    renormalized: redistribution conserves mass by construction, and the
    constructor's sum audit turns any implementation error into a failure
    rather than hiding it.
    """
    frame = _require_same_frame(m1, m2)
    terms: dict[int, list[float]] = defaultdict(list)
    for a, va in m1.masses.items():
        for b, vb in m2.masses.items():
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
    masses = {bits: fsum(values) for bits, values in terms.items()}
    return MassFunction(frame, masses)


def tcn_combine(
    m1: MassFunction,
    m2: MassFunction,
    tnorm: TNorm,
    tconorm: TConorm,
) -> MassFunction:
    """The fuzzy T-Conorm/T-Norm combination rule.

    Four steps:

    1. conjunctive consensus with the t-norm in place of the product:
       every focal pair (A, B) contributes tnorm(m1(A), m2(B)) to A&B;
    2. partial conflicts are identified (disjoint focal pairs);
    3. each conflicting pair returns mass to its two members, A gaining
       m1(A)*r and B gaining m2(B)*r with
       r = tnorm(m1(A), m2(B)) / tconorm(m1(A), m2(B))
       (a vanishing t-conorm means a vanishing t-norm, and contributes
       nothing);
    4. the result is divided by its total over nonempty subsets.

    Raises :class:`VanishingConsensusError` when step 4 would divide by
    zero, which can happen for degenerate inputs (e.g. the bounded product
    of masses that never exceed 1 pairwise).

    With the algebraic-product t-norm and the unclamped-sum t-conorm the
    steps above reproduce PCR5 exactly.
    """
    frame = _require_same_frame(m1, m2)
    tn = TNORM_FUNCS[tnorm]
    tc = TCONORM_FUNCS[tconorm]
    terms: dict[int, list[float]] = defaultdict(list)
    for a, va in m1.masses.items():
        for b, vb in m2.masses.items():
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
        raise VanishingConsensusError(
            "TCN consensus vanished for tnorm=%s, tconorm=%s (nothing to normalize)"
            % (tnorm.value, tconorm.value)
        )
    normalized = {bits: value / total for bits, value in masses.items()}
    return MassFunction(frame, normalized)


def combine(cfg: RuleConfig, m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dispatch to the configured combination rule."""
    if cfg.rule is Rule.DEMPSTER:
        return dempster_combine(m1, m2)
    if cfg.rule is Rule.PCR5:
        return pcr5_combine(m1, m2)
    if cfg.rule is Rule.TCN:
        return tcn_combine(m1, m2, cfg.tnorm, cfg.tconorm)
    raise ValueError("unknown rule %r" % (cfg.rule,))
