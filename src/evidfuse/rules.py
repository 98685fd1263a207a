"""The three combination rules under comparison: Dempster, PCR5, and TCN.

All rules consume two normalized assignments over the same frame and return
a valid :class:`~evidfuse.core.MassFunction`. None of them mutates its
inputs, and all are commutative: per-subset accumulation uses accurately
rounded sums, so swapping the arguments yields bit-identical output.

Every rule is one pass of the focal-pair kernel :func:`~evidfuse.core._fuse_pairs`
followed by an optional normalize step. The rules differ in three choices:

* the conjunction op, applied to the masses of every focal pair (A, B):
  the product for Dempster and PCR5, the configured t-norm for TCN;
* the conflict step for a disjoint pair: Dempster leaves the partial
  conflict on the empty set and then drops it; PCR5 returns m1(A)*m2(B) to
  A and B in proportion to the masses that created it; TCN returns the
  t-norm to A and B scaled by a t-norm/t-conorm ratio;
* the normalize step: Dempster rescales the surviving mass by its total
  and fails loudly when nothing survives, TCN divides by its total, PCR5
  conserves mass by construction and is not normalized.

With the product t-norm and the sum t-conorm, TCN runs the same kernel as
PCR5 and differs from it only by the final normalization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import fsum
from operator import add, mul

from .core import Frame, MassFunction, _combined, _fuse_pairs
from .errors import ConfigError, TotalConflictError, VanishingConsensusError
from .operators import TCONORM_FUNCS, TNORM_FUNCS, TConorm, TNorm

#: A surviving consensus at or below this counts as total conflict.
TOTAL_CONFLICT_MARGIN = 1e-12


class Rule(enum.Enum):
    """Shipped combination rules; values are the CLI spellings."""

    DEMPSTER = "dempster"
    PCR5 = "pcr5"
    TCN = "tcn"


@dataclass(frozen=True)
class RuleConfig:
    """A rule selection plus the operator pair required by TCN.

    ``tnorm``/``tconorm`` must be given exactly when ``rule`` is TCN. This is
    the only check of that pairing; its messages name the fields ``rule``,
    ``tnorm`` and ``tconorm`` so the CLI and config loader only relabel them.
    """

    rule: Rule
    tnorm: TNorm | None = None
    tconorm: TConorm | None = None

    def __post_init__(self) -> None:
        if self.rule is Rule.TCN:
            if self.tnorm is None or self.tconorm is None:
                raise ConfigError("rule tcn needs both tnorm and tconorm")
        elif self.tnorm is not None or self.tconorm is not None:
            raise ConfigError("tnorm/tconorm are only meaningful with rule tcn")

    def describe(self) -> str:
        if self.rule is Rule.TCN:
            return "tcn(%s, %s)" % (self.tnorm.value, self.tconorm.value)
        return self.rule.value


def _normalized(frame: Frame, masses: dict[int, float], floor: float, where: str) -> MassFunction | None:
    """Divide `masses` by their accurate total, or None when the total is at
    or below `floor` and the caller must report a degenerate fusion."""
    total = fsum(masses.values())
    if total <= floor:
        return None
    return _combined(frame, {bits: value / total for bits, value in masses.items()}, where=where)


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: conjunctive consensus rescaled by 1/(1 - K).

    The divisor is computed as the surviving consensus total rather than
    literally 1 - K: the two coincide for normalized inputs, but the
    literal form amplifies the inputs' rounding drift by 1/(1 - K) at
    every step of a fusion chain, which matters under heavy conflict.

    Raises :class:`TotalConflictError` instead of dividing by (almost) zero
    when the sources are totally conflicting.
    """
    masses = _fuse_pairs(m1, m2, mul)
    conflict = masses.pop(0, 0.0)
    fused = _normalized(m1.frame, masses, TOTAL_CONFLICT_MARGIN, "dempster_combine")
    if fused is None:
        raise TotalConflictError(
            "total conflict between sources (K=%.17g); Dempster's rule is undefined" % conflict
        )
    return fused


def pcr5_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Proportional conflict redistribution rule no. 5 for two sources.

    Starts from the conjunctive consensus; every partial conflict
    m1(A)*m2(B) with A and B disjoint is then split back onto A and B
    proportionally to m1(A) and m2(B):

        A gains m1(A)^2 m2(B) / (m1(A) + m2(B))
        B gains m2(B)^2 m1(A) / (m1(A) + m2(B))

    Pairs whose product is zero contribute nothing. The output is not
    renormalized: redistribution conserves mass by construction, and the
    constructor's sum audit turns any implementation error into a failure
    rather than hiding it.
    """
    return _combined(m1.frame, _fuse_pairs(m1, m2, mul, add), where="pcr5_combine")


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
       (a vanishing t-norm contributes nothing);
    4. the result is divided by its total over nonempty subsets.

    Raises :class:`VanishingConsensusError` when step 4 would divide by
    zero, which can happen for degenerate inputs (e.g. the bounded product
    of masses that never exceed 1 pairwise).

    With the algebraic-product t-norm and the unclamped-sum t-conorm the
    steps above reproduce PCR5 exactly.
    """
    masses = _fuse_pairs(m1, m2, TNORM_FUNCS[tnorm], TCONORM_FUNCS[tconorm])
    fused = _normalized(m1.frame, masses, 0.0, "tcn_combine")
    if fused is None:
        raise VanishingConsensusError(
            "TCN consensus vanished for tnorm=%s, tconorm=%s (nothing to normalize)"
            % (tnorm.value, tconorm.value)
        )
    return fused


def combine(cfg: RuleConfig, m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dispatch to the configured combination rule."""
    if cfg.rule is Rule.DEMPSTER:
        return dempster_combine(m1, m2)
    if cfg.rule is Rule.PCR5:
        return pcr5_combine(m1, m2)
    if cfg.rule is Rule.TCN:
        return tcn_combine(m1, m2, cfg.tnorm, cfg.tconorm)
    raise ValueError("unknown rule %r" % (cfg.rule,))
