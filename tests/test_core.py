"""Frames, mass functions, consensus operators, and decisions."""

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evidfuse import (
    AveragedTrace,
    ConfigError,
    ConfusionMatrix,
    ConsensusResult,
    DecisionCriterion,
    Frame,
    FrameError,
    FrameMismatchError,
    MassFunction,
    MassFunctionError,
    MonteCarloConfig,
    ReadaptationDelay,
    Rule,
    RuleConfig,
    Scenario,
    TrackRecord,
    conjunctive_consensus,
    decide,
    default_config,
    make_bba,
    make_frame,
    pignistic,
    total_conflict,
    vacuous_bba,
)
from evidfuse.core import _fuse_pairs, replace
from evidfuse.operators import TCONORM_FUNCS, TNORM_FUNCS, TConorm, TNorm
from evidfuse.rng import SplitMix64

from conftest import ABC_FRAME, FC_FRAME, INVALID_OPERANDS, dyadic_bbas, float_bbas


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


SIXTEEN = make_frame(["T%d" % i for i in range(16)])


@given(st.integers(1, SIXTEEN.full_set), st.randoms(use_true_random=False))
def test_frame_parses_a_spelling_in_any_label_order(bits, random):
    labels = SIXTEEN.format_subset(bits).split("|")
    random.shuffle(labels)
    assert SIXTEEN.parse_subset("|".join(labels)) == bits


def test_frame_label_table_is_cached_and_not_a_field():
    frame = make_frame(["Fighter", "Cargo"])
    assert frame.index("Cargo") == 1 and "_positions" in vars(frame)
    twin = Frame(["Fighter", "Cargo"])  # no lookup yet: no table
    assert frame == twin and hash(frame) == hash(twin) and repr(frame) == repr(twin)
    assert vars(replace(frame)) == vars(twin) == {"labels": ("Fighter", "Cargo")}
    assert pickle.loads(pickle.dumps(frame)).parse_subset("Cargo|Fighter") == 0b11


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
    message = "^unknown label %s \\(frame is \\['Fighter', 'Cargo'\\]\\)$"
    for spelling, unknown in [("Bomber", "Bomber"), ("Fighter|Bomber", "Bomber"), ("Fighter||Cargo", ""),
                              ("Fighter|", "")]:
        for lookup in (FC_FRAME.singleton, FC_FRAME.index):
            with pytest.raises(FrameError, match=message % re.escape(repr(spelling))):
                lookup(spelling)
        with pytest.raises(FrameError, match=message % re.escape(repr(unknown))):
            FC_FRAME.parse_subset(spelling)
    with pytest.raises(FrameError, match=message % re.escape(repr(["Fighter"]))):
        FC_FRAME.index(["Fighter"])  # unhashable


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
    field = "masses: " if reader == "make_bba" else ""  # the constructor names its field
    with pytest.raises(FrameError, match=r"^%scannot interpret %s as a focal set$" % (field, re.escape(repr(key)))):
        _read_focal_set(reader, key)


@pytest.mark.parametrize("key", [True, False])
def test_make_bba_rejects_a_bool_focal_set(key):
    with pytest.raises(FrameError, match=r"^masses: cannot interpret %s as a focal set$" % key):
        make_bba(FC_FRAME, {key: 0.5, "Cargo": 0.5})


def test_make_bba_prunes_zero_masses():
    for zero in (0.0, -0.0, 0, np.float64(-0.0)):
        m = make_bba(FC_FRAME, {"Fighter": 1.0, "Cargo": zero})
        assert m.masses == {0b01: 1.0}


def test_make_bba_rejects_negative_mass():
    for value in (-0.1, -1.0, math.nan, math.inf, -math.inf, np.float64(math.nan), -1, 10 ** 400):
        text = r"^masses: mass %s on Fighter is not a number in \[0, 1\]$" % re.escape(repr(value))
        with pytest.raises(MassFunctionError, match=text):
            make_bba(FC_FRAME, {"Fighter": value, "Cargo": 1.1})


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
    for entries in ({"Fighter": 0.5, 0b01: 0.5}, {"Fighter": 0.0, 0b01: 1.0}):  # a zero mass names its subset too
        with pytest.raises(MassFunctionError, match=r"^masses: duplicate focal set Fighter$"):
            make_bba(FC_FRAME, entries)


@pytest.mark.parametrize("value", [True, np.True_, "1.0", "1", None, [1.0]])
def test_make_bba_rejects_masses_that_are_not_numbers(value):
    # float() would read True and "1.0" as a unit mass
    with pytest.raises(MassFunctionError, match=r"^masses: mass .* on Fighter is not a number"):
        make_bba(FC_FRAME, {"Fighter": value})


@pytest.mark.parametrize("entries", [[("Fighter", 1.0)], 5])
def test_make_bba_rejects_entries_that_are_not_a_mapping(entries):
    # .items() would otherwise fail with AttributeError
    with pytest.raises(MassFunctionError, match=r"^masses: expected a mapping of focal sets to masses, got "):
        make_bba(FC_FRAME, entries)


class Label(str):
    pass


@pytest.mark.parametrize("value", [1, 1.0, np.float64(1.0), np.float32(1.0), np.int64(1)])
def test_make_bba_accepts_ints_floats_and_numpy_reals(value):
    for key in ("Fighter", Label("Fighter"), np.str_("Fighter"), 0b01):  # str subclasses spell as str
        masses = make_bba(FC_FRAME, {key: value}).masses
        assert masses == {FC_FRAME.singleton("Fighter"): 1.0} and type(masses[0b01]) is float


@pytest.mark.parametrize("masses, error, message", INVALID_OPERANDS.values(), ids=INVALID_OPERANDS.keys())
def test_an_invalid_mass_function_cannot_be_built(masses, error, message):
    # the one check: a bad key or mass raises here, so no rule meets it
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        MassFunction(FC_FRAME, masses)
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        replace(vacuous_bba(FC_FRAME), masses=masses)


def test_mass_function_rejects_a_frame_that_is_not_a_frame():
    with pytest.raises(FrameError, match=r"^frame: expected a Frame, got \('Fighter', 'Cargo'\)$"):
        MassFunction(("Fighter", "Cargo"), {0b01: 1.0})


def test_a_mass_function_keeps_its_own_copy_of_the_entries():
    entries = {0b01: 0.75, 0b10: 0.0, 0b11: 0.25}
    m = MassFunction(FC_FRAME, entries)
    entries[0b01] = math.nan
    entries[0b10] = 0.5
    assert m.masses == {0b01: 0.75, 0b11: 0.25}


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


def test_consensus_result_rejects_a_nan_total():
    with pytest.raises(MassFunctionError, match=r"^consensus masses sum to nan, not 1$"):
        ConsensusResult(FC_FRAME, {0: math.nan, 0b11: 1.0})


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize("masses, error, message", INVALID_OPERANDS.values(), ids=INVALID_OPERANDS.keys())
def test_conjunctive_consensus_rejects_an_invalid_operand_in_either_order(masses, error, message, first):
    # the operand is refused as it is built, before the kernel could meet it
    valid = make_bba(FC_FRAME, {"Fighter": 0.9, "Fighter|Cargo": 0.1})
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        conjunctive_consensus(*((MassFunction(FC_FRAME, masses), valid) if first
                                else (valid, MassFunction(FC_FRAME, masses))))


def test_conjunctive_consensus_frame_mismatch():
    with pytest.raises(FrameMismatchError):
        conjunctive_consensus(vacuous_bba(FC_FRAME), vacuous_bba(ABC_FRAME))


def _dense_bba(frame, seed, dominant):
    """Every nonempty subset focal; a dominant set, when asked for, takes about
    two thirds of the mass."""
    rng = SplitMix64(seed)
    weights = [rng.next_float() + 1.0 / 1024 for _ in frame.nonempty_subsets()]
    if dominant:
        weights[int(rng.next_float() * len(weights))] += 2.0 * math.fsum(weights)
    total = math.fsum(weights)
    return make_bba(frame, {bits: w / total for bits, w in zip(frame.nonempty_subsets(), weights)})


@pytest.mark.parametrize("tconorm", [None, TCONORM_FUNCS[TConorm.MAX]], ids=["conflict-kept", "max"])
@pytest.mark.parametrize("dominant", [(False, False), (True, False), (True, True)], ids=str)
def test_fuse_pairs_ends_each_row_at_its_first_zero_tnorm(tconorm, dominant):
    frame = Frame(tuple("L%d" % i for i in range(6)))
    m1, m2 = (_dense_bba(frame, seed, d) for seed, d in zip((1, 2), dominant))
    bounded = TNORM_FUNCS[TNorm.BOUNDED]
    calls = []

    def counting(x, y):
        calls.append(None)
        return bounded(x, y)

    nonzero = sum(bounded(va, vb) != 0.0 for va in m1.masses.values() for vb in m2.masses.values())
    assert _fuse_pairs(m1, m2, counting, tconorm) == _fuse_pairs(m1, m2, bounded, tconorm)
    # all 63 * 63 pairs without the cut
    assert len(calls) <= len(m1.masses) + nonzero < len(m1.masses) * len(m2.masses)


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


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

AB = Frame(["A", "B"])  # a list, which __post_init__ turns into a tuple
AB_TEXT = "Frame(labels=('A', 'B'))"
AB_MASS = MassFunction(AB, {1: 0.75, 3: 0.25})
AB_MASS_TEXT = "MassFunction(frame=%s, masses={1: 0.75, 3: 0.25})" % AB_TEXT
AB_CONFUSION = ConfusionMatrix(AB, [[0.75, 0.25], [0.5, 0.5]])
AB_CONFUSION_TEXT = "ConfusionMatrix(frame=%s, rows=((0.75, 0.25), (0.5, 0.5)))" % AB_TEXT
AB_SCENARIO_TEXT = "Scenario(frame=%s, segments=(('A', 2), ('B', 1)))" % AB_TEXT
PCR5_TEXT = "RuleConfig(rule=<Rule.PCR5: 'pcr5'>, tnorm=None, tconorm=None)"
#: Shared by both builds of the trace, so that the two compare equal field by field.
TRACE_MASSES, TRACE_RATES = np.array([[0.5, 0.25, 0.25]]), np.array([1.0])

#: One value of each of the ten types, by a builder and its repr as a frozen dataclass gave it.
VALUES = {
    "Frame": (lambda: Frame(["A", "B"]), AB_TEXT),
    "MassFunction": (lambda: MassFunction(AB, {1: 0.75, 3: 0.25}), AB_MASS_TEXT),
    "ConsensusResult": (lambda: ConsensusResult(AB, {0: 0.5, 1: 0.5}),
                        "ConsensusResult(frame=%s, masses={0: 0.5, 1: 0.5})" % AB_TEXT),
    "RuleConfig": (lambda: RuleConfig(Rule.PCR5), PCR5_TEXT),
    "ConfusionMatrix": (lambda: ConfusionMatrix(AB, [[0.75, 0.25], [0.5, 0.5]]), AB_CONFUSION_TEXT),
    "TrackRecord": (lambda: TrackRecord(1, "A", AB_MASS, "A"),
                    "TrackRecord(scan=1, declared='A', posterior=%s, decision='A')" % AB_MASS_TEXT),
    "Scenario": (lambda: Scenario(AB, [["A", 2], ["B", 1]]), AB_SCENARIO_TEXT),
    "MonteCarloConfig": (
        lambda: MonteCarloConfig(Scenario(AB, [["A", 2], ["B", 1]]), AB_CONFUSION, [RuleConfig(Rule.PCR5)], 8, 1),
        "MonteCarloConfig(scenario=%s, confusion=%s, rules=(%s,), runs=8, master_seed=1, "
        "criterion=<DecisionCriterion.MAX_BELIEF: 'belief'>)" % (AB_SCENARIO_TEXT, AB_CONFUSION_TEXT, PCR5_TEXT)),
    "AveragedTrace": (
        lambda: AveragedTrace(RuleConfig(Rule.PCR5), AB, ("A",), TRACE_MASSES, TRACE_RATES),
        "AveragedTrace(rule=%s, frame=%s, truth=('A',), masses=array([[0.5 , 0.25, 0.25]]), "
        "correct_rate=array([1.]))" % (PCR5_TEXT, AB_TEXT)),
    "ReadaptationDelay": (lambda: ReadaptationDelay(3, "B", math.inf),
                          "ReadaptationDelay(switch_scan=3, new_type='B', delay=inf)"),
}


@pytest.mark.parametrize("build, text", VALUES.values(), ids=VALUES.keys())
def test_value_types_behave_as_frozen_dataclasses(build, text):
    value, twin = build(), build()
    assert repr(value) == text
    assert value == twin and not value != twin and value is not twin
    assert value != object() and value != tuple(vars(value).values())
    fields = dict(vars(value))
    if any(isinstance(v, (dict, np.ndarray)) or v is AB_MASS for v in fields.values()):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(tuple(fields.values()))
    for name in fields:
        with pytest.raises(AttributeError, match="cannot assign to field %r" % name):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete field %r" % name):
            delattr(value, name)
    assert vars(value) == fields
    first = next(iter(fields))
    for args, kwargs in [((), {}), ((*fields.values(), None), {}), ((), {**fields, "extra": 1}),
                         ((fields[first],), fields)]:
        with pytest.raises(TypeError, match=type(value).__name__):
            type(value)(*args, **kwargs)
    assert repr(type(value)(**fields)) == repr(replace(value)) == text
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and repr(copy) == text


def test_replace_revalidates_and_a_rule_config_keys_dicts_and_pickles_with_its_fusion_cached():
    cfg = default_config(runs=8)
    assert replace(cfg, runs=9) == default_config(runs=9)
    with pytest.raises(ConfigError, match="runs must be a positive integer"):
        replace(cfg, runs=0)
    with pytest.raises(TypeError, match="rnus"):
        replace(cfg, rnus=9)
    pcr5 = RuleConfig(Rule.PCR5)
    assert {pcr5: 1}[RuleConfig(rule=Rule.PCR5)] == 1
    fusion = pcr5.fusion
    assert vars(pcr5)["fusion"] is fusion and pcr5 == RuleConfig(Rule.PCR5)
    copy = pickle.loads(pickle.dumps(pcr5))
    assert copy == pcr5 and hash(copy) == hash(pcr5) and vars(copy)["fusion"] == fusion
    tcn = RuleConfig(Rule.TCN, tnorm=TNorm.MIN, tconorm=TConorm.MAX)
    assert replace(tcn, tnorm=TNorm.BOUNDED).fusion == (TNorm.BOUNDED, TConorm.MAX, 0.0)
    with pytest.raises(ConfigError, match="rule tcn needs both"):
        replace(tcn, tconorm=None)
