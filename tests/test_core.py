"""Frames, mass functions, consensus operators, and decisions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given

from evidfuse import (
    AveragedTrace,
    ConsensusResult,
    DecisionCriterion,
    Frame,
    FrameError,
    FrameMismatchError,
    MassFunctionError,
    Rule,
    RuleConfig,
    conjunctive_consensus,
    decide,
    make_bba,
    make_frame,
    pignistic,
    total_conflict,
    vacuous_bba,
)

from conftest import ABC_FRAME, FC_FRAME, dyadic_bbas, float_bbas


# ---------------------------------------------------------------------------
# Frame
# ---------------------------------------------------------------------------

def test_frame_basics():
    frame = make_frame(["Fighter", "Cargo"])
    assert frame.size == 2
    assert frame.full_set == 0b11
    assert frame.singleton("Fighter") == 0b01
    assert frame.singleton("Cargo") == 0b10
    assert frame.index("Cargo") == 1


def test_frame_subset_round_trip():
    frame = ABC_FRAME
    bits = 0b101
    assert frame.format_subset(bits) == "Alpha|Charlie"
    assert frame.parse_subset("Alpha|Charlie") == bits
    assert frame.parse_subset("Charlie|Alpha") == bits


def test_frame_nonempty_subsets_order():
    assert list(FC_FRAME.nonempty_subsets()) == [1, 2, 3]
    assert len(list(ABC_FRAME.nonempty_subsets())) == 7


def test_frame_rejects_duplicates():
    with pytest.raises(FrameError):
        make_frame(["Fighter", "Fighter"])


def test_frame_rejects_too_small():
    with pytest.raises(FrameError):
        make_frame(["Fighter"])


def test_frame_rejects_too_large():
    labels = ["T%d" % i for i in range(17)]
    with pytest.raises(FrameError):
        make_frame(labels)


def test_frame_accepts_sixteen():
    assert make_frame(["T%d" % i for i in range(16)]).size == 16


def test_frame_rejects_separator_in_label():
    with pytest.raises(FrameError):
        make_frame(["Fighter|Cargo", "Other"])


@pytest.mark.parametrize("label", ["Fig\nhter", "Cargo\r", "\r\n"])
def test_frame_rejects_line_break_in_label(label):
    # a line break would split the CSV "# columns:" line
    with pytest.raises(FrameError, match=r"frame\[1\]: label .* may not contain a line break"):
        make_frame(["Other", label])


@pytest.mark.parametrize("labels", ["Fighter", 7], ids=["str", "int"])
def test_frame_rejects_labels_that_are_not_a_sequence(labels):
    # a string is iterable, but its characters are not the labels meant
    with pytest.raises(FrameError, match=r"^frame: expected a sequence of labels, got "):
        make_frame(labels)


def test_frame_rejects_unknown_label():
    with pytest.raises(FrameError):
        FC_FRAME.singleton("Bomber")
    with pytest.raises(FrameError):
        FC_FRAME.parse_subset("Fighter|Bomber")


def test_frame_rejects_empty_and_repeated_subset_spellings():
    with pytest.raises(FrameError, match="^empty subset spelling$"):
        FC_FRAME.parse_subset("")
    with pytest.raises(FrameError, match=r"^label 'Fighter' repeated in subset spelling 'Fighter\|Fighter'$"):
        FC_FRAME.parse_subset("Fighter|Fighter")


def test_frame_rejects_out_of_range_bits():
    with pytest.raises(FrameError):
        FC_FRAME.format_subset(0b100)
    with pytest.raises(FrameError):
        FC_FRAME.format_subset(-1)


def test_frame_rejects_a_bool_bitmask():
    # a bool is never a number, so never the bitmask 1 (Fighter)
    with pytest.raises(FrameError, match=r"^focal set True is not a bitmask over 2 labels$"):
        FC_FRAME.format_subset(True)


def test_frame_is_immutable():
    with pytest.raises(AttributeError):
        FC_FRAME.labels = ("X", "Y")


# ---------------------------------------------------------------------------
# make_bba
# ---------------------------------------------------------------------------

def test_make_bba_accepts_string_and_int_keys():
    m = make_bba(FC_FRAME, {"Fighter": 0.9, "Fighter|Cargo": 0.1})
    assert m.mass("Fighter") == 0.9
    assert m.mass(0b01) == 0.9
    assert m.mass("Cargo") == 0.0
    assert sorted(m.masses) == [0b01, 0b11]


def test_mass_function_lookup_and_spelling():
    m = make_bba(FC_FRAME, {"Fighter": 0.75, "Fighter|Cargo": 0.25})
    with pytest.raises(FrameError, match=r"^cannot interpret 1\.5 as a focal set$"):
        m.mass(1.5)
    assert str(m) == "{Fighter: 0.75, Fighter|Cargo: 0.25}"


#: Keys that are neither an int bitmask nor an "A|B" spelling; the hashable
#: ones can also be mass-entry keys.
HASHABLE_NON_KEYS = [("Fighter", "Cargo"), ("Fighter", "Fighter"), (), b"Fighter", frozenset({"Fighter"})]
NON_KEYS = HASHABLE_NON_KEYS + [["Fighter"], {"Fighter"}, {"Fighter": 1}]


def _read_focal_set(reader, key):
    if reader == "make_bba":
        return make_bba(FC_FRAME, {key: 0.5, "Cargo": 0.5})
    if reader == "MassFunction.mass":
        return vacuous_bba(FC_FRAME).mass(key)
    if reader == "ConsensusResult.mass":
        return conjunctive_consensus(*_fc_pair()).mass(key)
    trace = AveragedTrace(RuleConfig(Rule.PCR5), FC_FRAME, ("Cargo",) * 5, np.full((5, 3), 1 / 3), np.zeros(5))
    return trace.mass(1, key)


@pytest.mark.parametrize("reader, key", [("make_bba", key) for key in HASHABLE_NON_KEYS] + [
    (reader, key) for reader in ("MassFunction.mass", "ConsensusResult.mass", "AveragedTrace.mass")
    for key in NON_KEYS
], ids=str)
def test_a_focal_set_is_only_a_bitmask_or_a_spelling(reader, key):
    with pytest.raises(FrameError, match=r"^cannot interpret %s as a focal set$" % re.escape(repr(key))):
        _read_focal_set(reader, key)


@pytest.mark.parametrize("key", [True, False])
def test_make_bba_rejects_a_bool_focal_set(key):
    with pytest.raises(FrameError, match=r"^cannot interpret %s as a focal set$" % key):
        make_bba(FC_FRAME, {key: 0.5, "Cargo": 0.5})


def test_make_bba_prunes_zero_masses():
    m = make_bba(FC_FRAME, {"Fighter": 1.0, "Cargo": 0.0})
    assert m.masses == {0b01: 1.0}


def test_make_bba_rejects_negative_mass():
    with pytest.raises(MassFunctionError):
        make_bba(FC_FRAME, {"Fighter": -0.1, "Cargo": 1.1})


def test_make_bba_rejects_empty_set_mass():
    with pytest.raises(MassFunctionError):
        make_bba(FC_FRAME, {0: 0.5, "Fighter": 0.5})


def test_make_bba_rejects_nonunit_total():
    with pytest.raises(MassFunctionError):
        make_bba(FC_FRAME, {"Fighter": 0.9})
    with pytest.raises(MassFunctionError):
        make_bba(FC_FRAME, {"Fighter": 0.9, "Cargo": 0.2})


def test_make_bba_total_tolerance_boundary():
    # within 1e-9 rescales, beyond rejects
    m = make_bba(FC_FRAME, {"Fighter": 0.5, "Cargo": 0.5 + 9e-10})
    assert abs(math.fsum(m.masses.values()) - 1.0) < 1e-15
    with pytest.raises(MassFunctionError):
        make_bba(FC_FRAME, {"Fighter": 0.5, "Cargo": 0.5 + 2e-9})


def test_make_bba_exact_rescale():
    values = {"Fighter": 0.3, "Cargo": 0.3, "Fighter|Cargo": 0.4 + 5e-10}
    m = make_bba(FC_FRAME, values)
    assert math.fsum(m.masses.values()) == pytest.approx(1.0, abs=1e-15)


def test_make_bba_keeps_exact_unit_totals_bitwise():
    m = make_bba(FC_FRAME, {"Fighter": 0.25, "Cargo": 0.25, "Fighter|Cargo": 0.5})
    assert m.mass("Fighter") == 0.25
    assert m.mass("Fighter|Cargo") == 0.5


def test_make_bba_rejects_duplicate_keys():
    with pytest.raises(MassFunctionError):
        make_bba(FC_FRAME, {"Fighter": 0.5, 0b01: 0.5})


@pytest.mark.parametrize("value", [True, np.True_, "1.0", "1", None, [1.0]])
def test_make_bba_rejects_masses_that_are_not_numbers(value):
    # float() would read True and "1.0" as a unit mass
    with pytest.raises(MassFunctionError, match=r"make_bba: mass .* on Fighter is not a number"):
        make_bba(FC_FRAME, {"Fighter": value})


@pytest.mark.parametrize("entries", [[("Fighter", 1.0)], 5])
def test_make_bba_rejects_entries_that_are_not_a_mapping(entries):
    # .items() would otherwise fail with AttributeError
    with pytest.raises(MassFunctionError, match=r"^make_bba: expected a mapping of focal sets to masses, got "):
        make_bba(FC_FRAME, entries)


@pytest.mark.parametrize("value", [1, 1.0, np.float64(1.0), np.float32(1.0), np.int64(1)])
def test_make_bba_accepts_ints_floats_and_numpy_reals(value):
    assert make_bba(FC_FRAME, {"Fighter": value}).masses == {FC_FRAME.singleton("Fighter"): 1.0}


def test_vacuous_bba():
    m = vacuous_bba(FC_FRAME)
    assert m.masses == {0b11: 1.0}


# ---------------------------------------------------------------------------
# conjunctive consensus
# ---------------------------------------------------------------------------

def _fc_pair():
    m1 = make_bba(FC_FRAME, {"Fighter": 0.9, "Fighter|Cargo": 0.1})
    m2 = make_bba(FC_FRAME, {"Cargo": 0.9, "Fighter|Cargo": 0.1})
    return m1, m2


def test_conjunctive_consensus_oracle():
    m1, m2 = _fc_pair()
    result = conjunctive_consensus(m1, m2)
    assert result.mass(0) == pytest.approx(0.81, abs=1e-12)
    assert result.mass("Fighter") == pytest.approx(0.09, abs=1e-12)
    assert result.mass("Cargo") == pytest.approx(0.09, abs=1e-12)
    assert result.mass("Fighter|Cargo") == pytest.approx(0.01, abs=1e-12)
    assert result.conflict == pytest.approx(0.81, abs=1e-12)
    assert total_conflict(m1, m2) == result.conflict


def test_conjunctive_consensus_no_conflict():
    m1 = make_bba(FC_FRAME, {"Fighter": 0.6, "Fighter|Cargo": 0.4})
    m2 = make_bba(FC_FRAME, {"Fighter": 0.5, "Fighter|Cargo": 0.5})
    result = conjunctive_consensus(m1, m2)
    assert result.conflict == 0.0
    assert result.mass("Fighter") == pytest.approx(0.8, abs=1e-12)
    assert result.mass("Fighter|Cargo") == pytest.approx(0.2, abs=1e-12)


@given(dyadic_bbas(FC_FRAME), dyadic_bbas(FC_FRAME))
def test_conjunctive_consensus_commutes_bitwise(m1, m2):
    a = conjunctive_consensus(m1, m2)
    b = conjunctive_consensus(m2, m1)
    assert a.masses == b.masses


@given(dyadic_bbas(ABC_FRAME))
def test_conjunctive_consensus_vacuous_is_identity(m):
    result = conjunctive_consensus(m, vacuous_bba(ABC_FRAME))
    assert result.masses == m.masses


@pytest.mark.parametrize("key", [False, True])
def test_consensus_result_reads_the_empty_set_only_from_zero_or_its_empty_spelling(key):
    result = conjunctive_consensus(*_fc_pair())
    assert result.mass(0) == result.mass("") == result.conflict
    with pytest.raises(FrameError, match=r"^cannot interpret %s as a focal set$" % key):
        result.mass(key)


def test_consensus_result_rejects_masses_that_do_not_sum_to_one():
    with pytest.raises(MassFunctionError, match=r"^consensus masses sum to 0\.90000000000000002, not 1$"):
        ConsensusResult(FC_FRAME, {0: 0.5, 0b11: 0.4})


def test_conjunctive_consensus_frame_mismatch():
    with pytest.raises(FrameMismatchError):
        conjunctive_consensus(vacuous_bba(FC_FRAME), vacuous_bba(ABC_FRAME))


# ---------------------------------------------------------------------------
# pignistic transform and decisions
# ---------------------------------------------------------------------------

def test_pignistic_oracle():
    m = make_bba(FC_FRAME, {"Fighter": 0.2, "Cargo": 0.3, "Fighter|Cargo": 0.5})
    bet = pignistic(m)
    assert bet["Fighter"] == pytest.approx(0.45, abs=1e-12)
    assert bet["Cargo"] == pytest.approx(0.55, abs=1e-12)


def test_pignistic_on_bayesian_bba_is_identity():
    m = make_bba(ABC_FRAME, {"Alpha": 0.2, "Bravo": 0.5, "Charlie": 0.3})
    bet = pignistic(m)
    assert bet == {"Alpha": 0.2, "Bravo": 0.5, "Charlie": 0.3}


@given(float_bbas(ABC_FRAME))
def test_pignistic_is_a_probability(m):
    bet = pignistic(m)
    assert all(v >= 0.0 for v in bet.values())
    assert math.fsum(bet.values()) == pytest.approx(1.0, abs=1e-9)


def test_decide_max_belief():
    m = make_bba(FC_FRAME, {"Fighter": 0.3, "Cargo": 0.6, "Fighter|Cargo": 0.1})
    assert decide(m) == "Cargo"


def test_decide_tie_breaks_to_lowest_index():
    m = make_bba(FC_FRAME, {"Fighter": 0.4, "Cargo": 0.4, "Fighter|Cargo": 0.2})
    assert decide(m) == "Fighter"
    m = make_bba(FC_FRAME, {"Fighter|Cargo": 1.0})
    assert decide(m) == "Fighter"


def test_decide_rejects_a_criterion_of_another_type():
    with pytest.raises(ValueError, match="^unknown decision criterion 'belief'$"):
        decide(vacuous_bba(FC_FRAME), "belief")


def test_decide_criteria_can_disagree():
    # Bravo holds most of its mass inside a pair, invisible to max-belief
    m = make_bba(
        ABC_FRAME, {"Alpha": 0.3, "Bravo": 0.25, "Bravo|Charlie": 0.45}
    )
    assert decide(m, DecisionCriterion.MAX_BELIEF) == "Alpha"
    assert decide(m, DecisionCriterion.MAX_PIGNISTIC) == "Bravo"
