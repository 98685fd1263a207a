"""The three combination rules under comparison: Dempster, PCR5, and TCN.

All rules consume two normalized assignments over the same frame and return
a valid :class:`~evidfuse.core.MassFunction`. None of them mutates its
inputs, and all are commutative: per-subset accumulation uses accurately
rounded sums, so swapping the arguments yields bit-identical output.

A rule is one description, :attr:`RuleConfig.fusion`: the arguments of the
focal-pair kernel :func:`~evidfuse.core._fuse_pairs` plus a normalization
floor. Dempster is ``(product, None, TOTAL_CONFLICT_MARGIN)``, PCR5 is
``(product, sum, None)`` and TCN is ``(tnorm, tconorm, 0.0)`` with its
configured operator pair.

* The t-norm conjoins the masses of every focal pair (A, B).
* The t-conorm settles a partial conflict (A and B disjoint): None leaves
  it on the empty set, from where it is dropped; otherwise A and B get it
  back in proportion to their masses, scaled by the t-norm/t-conorm ratio.
* A floor of None leaves the result as it is: PCR5 conserves mass by
  construction, and the :class:`~evidfuse.core.MassFunction` constructor,
  which checks every result, turns any drift into an error. Any
  other floor divides the result by its accurate total and reports a
  degenerate fusion when that total is at or below the floor.

:func:`combine` is the only implementation, and the batch engine of
:mod:`~evidfuse.engine` reads the same description. With the product
t-norm and the sum t-conorm, TCN differs from PCR5 only by its floor.
"""

from __future__ import annotations

import enum
from functools import cached_property
from math import fsum

from .core import MassFunction, Value, _fuse_pairs
from .errors import ConfigError, TotalConflictError, VanishingConsensusError
from .operators import TCONORM_FUNCS, TNORM_FUNCS, TConorm, TNorm

#: A surviving consensus at or below this counts as total conflict.
TOTAL_CONFLICT_MARGIN = 1e-12


class Rule(enum.Enum):
    """Shipped combination rules; values are the CLI spellings."""

    DEMPSTER = "dempster"
    PCR5 = "pcr5"
    TCN = "tcn"


class RuleConfig(Value):
    """A rule selection plus the operator pair required by TCN.

    ``tnorm``/``tconorm`` must be given exactly when ``rule`` is TCN. This is
    the only check of that pairing; its messages name the fields ``rule``,
    ``tnorm`` and ``tconorm`` so the CLI and config loader only relabel them.
    """

    rule: Rule
    tnorm: TNorm | None = None
    tconorm: TConorm | None = None

    def __post_init__(self) -> None:
        for field, kind in (("rule", Rule), ("tnorm", TNorm), ("tconorm", TConorm)):
            value = getattr(self, field)  # only the operators may be None
            if not isinstance(value, kind) and (kind is Rule or value is not None):
                raise ConfigError("%s must be a %s, got %r" % (field, kind.__name__, value))
        if self.rule is Rule.TCN:
            if self.tnorm is None or self.tconorm is None:
                raise ConfigError("rule tcn needs both tnorm and tconorm")
        elif self.tnorm is not None or self.tconorm is not None:
            raise ConfigError("tnorm/tconorm are only meaningful with rule tcn")

    def describe(self) -> str:
        if self.rule is Rule.TCN:
            return "tcn(%s, %s)" % (self.tnorm.value, self.tconorm.value)
        return self.rule.value

    @cached_property
    def fusion(self) -> tuple[TNorm, TConorm | None, float | None]:
        """``(tnorm, tconorm, floor)``, the rule's description (see the module
        docstring): tconorm None keeps a partial conflict on the empty set,
        floor None means the result is not normalized."""
        if self.rule is Rule.DEMPSTER:
            return TNorm.PRODUCT, None, TOTAL_CONFLICT_MARGIN
        if self.rule is Rule.PCR5:
            return TNorm.PRODUCT, TConorm.SUM, None
        return self.tnorm, self.tconorm, 0.0


def combine(cfg: RuleConfig, m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Fuse two assignments under the configured rule.

    Runs the focal-pair kernel with the rule's operators, drops the conflict
    left on the empty set, then either keeps the result as it is (no floor)
    or divides it by its accurate total; the :class:`MassFunction`
    constructor checks it either way. Raises :class:`TotalConflictError`
    (Dempster) or :class:`VanishingConsensusError` (TCN) instead of dividing
    by a total at or below the rule's floor.
    """
    if not isinstance(cfg, RuleConfig):
        raise ConfigError("cfg must be a RuleConfig, got %r" % (cfg,))
    tnorm, tconorm, floor = cfg.fusion
    masses = _fuse_pairs(m1, m2, TNORM_FUNCS[tnorm], None if tconorm is None else TCONORM_FUNCS[tconorm])
    conflict = masses.pop(0, 0.0)
    if floor is not None:
        total = fsum(masses.values())
        if total <= floor:
            if cfg.rule is Rule.DEMPSTER:
                raise TotalConflictError(
                    "total conflict between sources (K=%.17g); Dempster's rule is undefined" % conflict
                )
            raise VanishingConsensusError(
                "TCN consensus vanished for tnorm=%s, tconorm=%s (nothing to normalize)"
                % (tnorm.value, tconorm.value)
            )
        masses = {bits: value / total for bits, value in masses.items()}
    return MassFunction(m1.frame, masses)


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: conjunctive consensus rescaled by 1/(1 - K).

    The divisor is computed as the surviving consensus total rather than
    literally 1 - K: the two coincide for normalized inputs, but the
    literal form amplifies the inputs' rounding drift by 1/(1 - K) at
    every step of a fusion chain, which matters under heavy conflict.

    Raises :class:`TotalConflictError` instead of dividing by (almost) zero
    when the sources are totally conflicting.
    """
    return combine(RuleConfig(Rule.DEMPSTER), m1, m2)


def pcr5_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Proportional conflict redistribution rule no. 5 for two sources.

    Starts from the conjunctive consensus; every partial conflict
    m1(A)*m2(B) with A and B disjoint is then split back onto A and B
    proportionally to m1(A) and m2(B):

        A gains m1(A)^2 m2(B) / (m1(A) + m2(B))
        B gains m2(B)^2 m1(A) / (m1(A) + m2(B))

    Pairs whose product is zero contribute nothing. The output is not
    renormalized: redistribution conserves mass by construction, and the
    :class:`MassFunction` constructor's total check turns any implementation
    error into a failure rather than hiding it.
    """
    return combine(RuleConfig(Rule.PCR5), m1, m2)


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
    return combine(RuleConfig(Rule.TCN, tnorm, tconorm), m1, m2)
