"""Combination rules: hand oracles, algebraic laws, and error paths."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidfuse import (
    ConfigError,
    EvidenceError,
    Frame,
    Rule,
    RuleConfig,
    TConorm,
    TNorm,
    TotalConflictError,
    VanishingConsensusError,
    FrameMismatchError,
    MassFunctionError,
    combine,
    conjunctive_consensus,
    dempster_combine,
    make_bba,
    pcr5_combine,
    tcn_combine,
    vacuous_bba,
)
from evidfuse import rules
from evidfuse.core import MassFunction

import seed_rules
from conftest import ABC_FRAME, FC_FRAME, INVALID_OPERANDS, dyadic_bbas, float_bbas

ALL_RULE_CONFIGS = [
    RuleConfig(Rule.DEMPSTER),
    RuleConfig(Rule.PCR5),
] + [
    RuleConfig(Rule.TCN, tnorm, tconorm)
    for tnorm in TNorm
    for tconorm in TConorm
]


def _fc_pair():
    m1 = make_bba(FC_FRAME, {"Fighter": 0.9, "Fighter|Cargo": 0.1})
    m2 = make_bba(FC_FRAME, {"Cargo": 0.9, "Fighter|Cargo": 0.1})
    return m1, m2


def _max_deviation(a, b):
    keys = set(a.masses) | set(b.masses)
    return max(abs(a.mass(k) - b.mass(k)) for k in keys)


# ---------------------------------------------------------------------------
# hand oracles
# ---------------------------------------------------------------------------

def test_dempster_oracle():
    fused = dempster_combine(*_fc_pair())
    assert fused.mass("Fighter") == pytest.approx(0.09 / 0.19, abs=1e-12)
    assert fused.mass("Cargo") == pytest.approx(0.09 / 0.19, abs=1e-12)
    assert fused.mass("Fighter|Cargo") == pytest.approx(0.01 / 0.19, abs=1e-12)


def test_pcr5_oracle():
    fused = pcr5_combine(*_fc_pair())
    assert fused.mass("Fighter") == pytest.approx(0.495, abs=1e-12)
    assert fused.mass("Cargo") == pytest.approx(0.495, abs=1e-12)
    assert fused.mass("Fighter|Cargo") == pytest.approx(0.01, abs=1e-12)


def test_tcn_min_max_oracle():
    fused = tcn_combine(*_fc_pair(), TNorm.MIN, TConorm.MAX)
    assert fused.mass("Fighter") == pytest.approx(1.0 / 2.1, abs=1e-12)
    assert fused.mass("Cargo") == pytest.approx(1.0 / 2.1, abs=1e-12)
    assert fused.mass("Fighter|Cargo") == pytest.approx(0.1 / 2.1, abs=1e-12)


def test_pcr5_splits_pure_conflict_evenly():
    m1 = make_bba(FC_FRAME, {"Fighter": 1.0})
    m2 = make_bba(FC_FRAME, {"Cargo": 1.0})
    fused = pcr5_combine(m1, m2)
    assert fused.mass("Fighter") == 0.5
    assert fused.mass("Cargo") == 0.5


def test_tcn_min_max_splits_pure_conflict_evenly():
    m1 = make_bba(FC_FRAME, {"Fighter": 1.0})
    m2 = make_bba(FC_FRAME, {"Cargo": 1.0})
    fused = tcn_combine(m1, m2, TNorm.MIN, TConorm.MAX)
    assert fused.mass("Fighter") == 0.5
    assert fused.mass("Cargo") == 0.5


# ---------------------------------------------------------------------------
# degenerate inputs
# ---------------------------------------------------------------------------

def test_dempster_total_conflict_error():
    m1 = make_bba(FC_FRAME, {"Fighter": 1.0})
    m2 = make_bba(FC_FRAME, {"Cargo": 1.0})
    with pytest.raises(TotalConflictError, match="total conflict"):
        dempster_combine(m1, m2)


def test_tcn_vanishing_consensus_error():
    # every pairwise bounded product of masses <= 0.5 is zero
    m = make_bba(FC_FRAME, {"Fighter": 0.5, "Cargo": 0.5})
    with pytest.raises(VanishingConsensusError):
        tcn_combine(m, m, TNorm.BOUNDED, TConorm.MAX)


def test_rules_reject_frame_mismatch():
    with pytest.raises(FrameMismatchError):
        pcr5_combine(vacuous_bba(FC_FRAME), vacuous_bba(ABC_FRAME))
    with pytest.raises(FrameMismatchError):
        dempster_combine(vacuous_bba(FC_FRAME), vacuous_bba(ABC_FRAME))
    with pytest.raises(FrameMismatchError):
        tcn_combine(
            vacuous_bba(FC_FRAME), vacuous_bba(ABC_FRAME), TNorm.MIN, TConorm.MAX
        )


# ---------------------------------------------------------------------------
# RuleConfig
# ---------------------------------------------------------------------------

def test_rule_config_requires_operators_for_tcn():
    with pytest.raises(ValueError):
        RuleConfig(Rule.TCN)
    with pytest.raises(ValueError):
        RuleConfig(Rule.TCN, TNorm.MIN)


def test_rule_config_rejects_operators_elsewhere():
    with pytest.raises(ValueError):
        RuleConfig(Rule.PCR5, tnorm=TNorm.MIN)
    with pytest.raises(ValueError):
        RuleConfig(Rule.DEMPSTER, tconorm=TConorm.MAX)


@pytest.mark.parametrize("args, message", [
    (("pcr5",), r"^rule must be a Rule, got 'pcr5'$"),
    ((Rule.TCN, "min", "max"), r"^tnorm must be a TNorm, got 'min'$"),
    ((Rule.TCN, TNorm.MIN, "max"), r"^tconorm must be a TConorm, got 'max'$"),
], ids=["rule", "tnorm", "tconorm"])
def test_rule_config_rejects_members_of_other_types(args, message):
    # the field name leads, as the CLI and the config loader relabel it
    with pytest.raises(ConfigError, match=message):
        RuleConfig(*args)


def test_rule_config_describe():
    assert RuleConfig(Rule.DEMPSTER).describe() == "dempster"
    assert RuleConfig(Rule.TCN, TNorm.BOUNDED, TConorm.MAX).describe() == "tcn(bounded, max)"


def test_combine_dispatch():
    m1, m2 = _fc_pair()
    assert combine(RuleConfig(Rule.PCR5), m1, m2).masses == pcr5_combine(m1, m2).masses
    assert combine(RuleConfig(Rule.DEMPSTER), m1, m2).masses == dempster_combine(m1, m2).masses
    cfg = RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX)
    assert combine(cfg, m1, m2).masses == tcn_combine(m1, m2, TNorm.MIN, TConorm.MAX).masses


@pytest.mark.parametrize("cfg", ["pcr5", Rule.PCR5, None])
def test_combine_rejects_a_cfg_that_is_not_a_rule_config(cfg):
    with pytest.raises(ConfigError, match=r"^cfg must be a RuleConfig, got %r$" % (cfg,)):
        combine(cfg, *_fc_pair())


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", ALL_RULE_CONFIGS, ids=lambda c: c.describe())
@given(m1=dyadic_bbas(FC_FRAME), m2=dyadic_bbas(FC_FRAME))
def test_combine_commutes(cfg, m1, m2):
    try:
        a = combine(cfg, m1, m2)
    except (TotalConflictError, VanishingConsensusError) as exc:
        with pytest.raises(type(exc)):
            combine(cfg, m2, m1)
        return
    b = combine(cfg, m2, m1)
    assert a.masses == b.masses


@pytest.mark.parametrize("cfg", ALL_RULE_CONFIGS, ids=lambda c: c.describe())
@given(m=dyadic_bbas(ABC_FRAME))
def test_combine_vacuous_is_neutral(cfg, m):
    fused = combine(cfg, m, vacuous_bba(ABC_FRAME))
    assert _max_deviation(fused, m) <= 1e-12


@given(m1=float_bbas(FC_FRAME), m2=float_bbas(FC_FRAME))
def test_tcn_product_sum_equals_pcr5(m1, m2):
    fused = tcn_combine(m1, m2, TNorm.PRODUCT, TConorm.SUM)
    assert _max_deviation(fused, pcr5_combine(m1, m2)) <= 1e-12


@given(m1=float_bbas(FC_FRAME), m2=float_bbas(FC_FRAME))
def test_pcr5_conserves_conflict(m1, m2):
    # everything Dempster would discard is returned to the conflict's sources
    consensus = conjunctive_consensus(m1, m2)
    fused = pcr5_combine(m1, m2)
    redistributed = math.fsum(
        fused.mass(k) - consensus.mass(k)
        for k in set(fused.masses) | set(consensus.nonempty())
    )
    assert redistributed == pytest.approx(consensus.conflict, abs=1e-12)


@st.composite
def chain_bbas(draw):
    # focal sets form a nested chain, so no pair of them is disjoint
    subsets = [0b001, 0b011, 0b111]
    values = draw(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)
    )
    total = math.fsum(values)
    return make_bba(ABC_FRAME, {s: v / total for s, v in zip(subsets, values)})


@given(m1=chain_bbas(), m2=chain_bbas())
def test_zero_conflict_fixpoint(m1, m2):
    # without conflict, Dempster and PCR5 are the plain conjunctive consensus
    consensus = conjunctive_consensus(m1, m2)
    assert consensus.conflict == 0.0
    dempster = dempster_combine(m1, m2)
    pcr5 = pcr5_combine(m1, m2)
    for bits, value in consensus.nonempty().items():
        assert dempster.mass(bits) == pytest.approx(value, abs=1e-12)
        assert pcr5.mass(bits) == pytest.approx(value, abs=1e-12)


@settings(max_examples=50)
@given(
    m1=float_bbas(FC_FRAME),
    m2=float_bbas(FC_FRAME),
    m3=float_bbas(FC_FRAME),
)
def test_dempster_associativity(m1, m2, m3):
    try:
        left = dempster_combine(dempster_combine(m1, m2), m3)
        right = dempster_combine(m1, dempster_combine(m2, m3))
    except TotalConflictError:
        return
    assert _max_deviation(left, right) <= 1e-9


def test_every_output_is_normalized():
    m1, m2 = _fc_pair()
    for cfg in ALL_RULE_CONFIGS:
        fused = combine(cfg, m1, m2)
        assert math.fsum(fused.masses.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0.0 for v in fused.masses.values())
        assert 0 not in fused.masses


@pytest.mark.parametrize("cfg, masses, message", [
    (RuleConfig(Rule.PCR5), {0b01: 1.1400000000000001, 0b11: 0.06},
     "masses: mass 1.1400000000000001 on Fighter is not a number in [0, 1]"),
    (RuleConfig(Rule.DEMPSTER), {0b01: math.nan, 0b11: 1.0}, "masses: mass nan on Fighter is not a number in [0, 1]"),
    (RuleConfig(Rule.PCR5), {0b01: math.nan, 0b11: 1.0}, "masses: mass nan on Fighter is not a number in [0, 1]"),
    (RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX), {0b01: math.nan, 0b11: 1.0},
     "masses: mass nan on Fighter is not a number in [0, 1]"),
], ids=["pcr5-sum", "dempster-nan", "pcr5-nan", "tcn-nan"])
def test_the_output_audit_names_the_rule(cfg, masses, message, monkeypatch):
    # a valid operand gives valid masses, so a stand-in kernel returns the bad
    # ones (pcr5-sum: what PCR5's kernel gave for {Fighter: 0.6, Fighter|Cargo: 0.6});
    # the MassFunction constructor checks a rule's output as it checks every input
    monkeypatch.setattr(rules, "_fuse_pairs", lambda *args: dict(masses))
    with pytest.raises(MassFunctionError, match="^%s$" % re.escape(message)):
        combine(cfg, *_fc_pair())


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize("masses, error, message", INVALID_OPERANDS.values(), ids=INVALID_OPERANDS.keys())
@pytest.mark.parametrize("cfg", ALL_RULE_CONFIGS, ids=lambda c: c.describe())
def test_an_invalid_operand_raises_in_either_order(cfg, masses, error, message, first):
    # unchecked, a NaN would pass min and max in one order only (min(nan, x) is NaN,
    # min(x, nan) is x), and a normalizing rule would hide a negative mass or a bad
    # total; the operand is refused as it is built, before any rule meets it
    valid = make_bba(FC_FRAME, {"Fighter": 0.9, "Fighter|Cargo": 0.1})
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        combine(cfg, *((MassFunction(FC_FRAME, masses), valid) if first else (valid, MassFunction(FC_FRAME, masses))))


# ---------------------------------------------------------------------------
# differential: the focal-pair kernel against the original loops
# ---------------------------------------------------------------------------

# Weight styles: "equal" makes every mass <= 1/2 once there are two focal
# sets, so the bounded t-norm is zero on every pair; "extreme" mixes weights
# whose pairwise products underflow to zero.
_WEIGHTS = {
    "float": st.floats(1e-6, 1.0),
    "equal": st.just(1.0),
    "extreme": st.sampled_from([1e-300, 1e-170, 1e-20, 0.5, 1.0, 3.0]),
}


@st.composite
def kernel_inputs(draw):
    """Two bbas over one random frame of 2..5 labels: one-focal, sparse or dense."""
    size = draw(st.integers(2, 5))
    frame = Frame(tuple("L%d" % i for i in range(size)))

    def bba():
        shape = draw(st.sampled_from(["one-focal", "some", "dense"]))
        if shape == "dense":
            subsets = list(frame.nonempty_subsets())
        else:
            subsets = draw(st.lists(st.integers(1, frame.full_set), min_size=1,
                                    max_size=1 if shape == "one-focal" else frame.full_set,
                                    unique=True))
        weight = _WEIGHTS[draw(st.sampled_from(sorted(_WEIGHTS)))]
        values = [draw(weight) for _ in subsets]
        total = math.fsum(values)
        return make_bba(frame, {s: v / total for s, v in zip(subsets, values)})

    return bba(), bba()


def _bits(fuse, *args):
    """Every output mass as float.hex, or the type and text of the error."""
    try:
        masses = fuse(*args).masses
    except EvidenceError as exc:
        return type(exc), str(exc)
    return sorted((bits, value.hex()) for bits, value in masses.items())


@settings(max_examples=400, deadline=None)
@given(pair=kernel_inputs())
def test_kernel_matches_original_loops_bit_for_bit(pair):
    m1, m2 = pair
    assert _bits(conjunctive_consensus, m1, m2) == _bits(seed_rules.conjunctive_consensus, m1, m2)
    for cfg in ALL_RULE_CONFIGS:
        assert _bits(combine, cfg, m1, m2) == _bits(seed_rules.combine, cfg, m1, m2), cfg.describe()
