"""Confusion matrices, observation construction, and sequential tracking."""

import numpy as np
import pytest

from evidfuse import (
    ConfigError,
    ConfusionMatrix,
    DecisionCriterion,
    EvidenceError,
    FrameError,
    Rule,
    RuleConfig,
    TConorm,
    TNorm,
    TotalConflictError,
    decide,
    identity_confusion,
    observation_bba,
    run_track,
    uniform_diagonal_confusion,
)

from conftest import ABC_FRAME, FC_FRAME

PCR5 = RuleConfig(Rule.PCR5)
DEMPSTER = RuleConfig(Rule.DEMPSTER)
ALL_RULE_CONFIGS = [
    DEMPSTER,
    PCR5,
    RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX),
    RuleConfig(Rule.TCN, TNorm.MIN, TConorm.SUM),
    RuleConfig(Rule.TCN, TNorm.PRODUCT, TConorm.SUM),
    RuleConfig(Rule.TCN, TNorm.BOUNDED, TConorm.MAX),
]


def fc_confusion(diagonal=0.9):
    return uniform_diagonal_confusion(FC_FRAME, diagonal)


# ---------------------------------------------------------------------------
# ConfusionMatrix
# ---------------------------------------------------------------------------

def test_confusion_matrix_basics():
    cm = ConfusionMatrix(FC_FRAME, ((0.9, 0.1), (0.2, 0.8)))
    assert cm.diagonal("Fighter") == 0.9
    assert cm.diagonal("Cargo") == 0.8
    assert cm.row("Cargo") == (0.2, 0.8)


def test_confusion_matrix_rejects_bad_shapes():
    with pytest.raises(EvidenceError):
        ConfusionMatrix(FC_FRAME, ((0.9, 0.1),))
    with pytest.raises(EvidenceError):
        ConfusionMatrix(FC_FRAME, ((0.9, 0.05, 0.05), (0.1, 0.8, 0.1)))
    # members that are not sequences at all: FrameError, not TypeError
    with pytest.raises(FrameError, match="^confusion matrix: expected a sequence of rows, got 5$"):
        ConfusionMatrix(FC_FRAME, 5)
    with pytest.raises(FrameError, match="^confusion matrix row 1: expected a sequence of entries, got 5$"):
        ConfusionMatrix(FC_FRAME, ((0.9, 0.1), 5))


def test_confusion_matrix_rejects_nonstochastic_rows():
    with pytest.raises(EvidenceError):
        ConfusionMatrix(FC_FRAME, ((0.9, 0.2), (0.1, 0.9)))
    with pytest.raises(EvidenceError):
        ConfusionMatrix(FC_FRAME, ((1.1, -0.1), (0.1, 0.9)))


def test_confusion_matrix_rejects_a_frame_that_is_not_a_frame():
    # frame.size would otherwise fail with AttributeError
    with pytest.raises(FrameError, match=r"^frame: expected a Frame, got \('Fighter', 'Cargo'\)$"):
        ConfusionMatrix(("Fighter", "Cargo"), ((0.9, 0.1), (0.1, 0.9)))


@pytest.mark.parametrize("rows", [((True, False), (False, True)), ((1.0, 0.0), ("0", "1")),
                                  ((1.0, 0.0), (0.0, np.True_)), ((1.0, 0.0), (None, 1.0))])
def test_confusion_matrix_rejects_entries_that_are_not_numbers(rows):
    with pytest.raises(FrameError, match="has entry .*, not a number in \\[0, 1\\]"):
        ConfusionMatrix(FC_FRAME, rows)


def test_confusion_matrix_accepts_ints_and_numpy_reals():
    cm = ConfusionMatrix(FC_FRAME, ((1, 0), (np.float32(0.5), np.float64(0.5))))
    assert cm.rows == ((1.0, 0.0), (0.5, 0.5))
    assert all(type(v) is float for row in cm.rows for v in row)


def test_identity_confusion():
    cm = identity_confusion(FC_FRAME)
    assert cm.rows == ((1.0, 0.0), (0.0, 1.0))


def test_uniform_diagonal_confusion():
    cm = uniform_diagonal_confusion(ABC_FRAME, 0.8)
    for label in ABC_FRAME.labels:
        assert cm.diagonal(label) == 0.8
    off = cm.rows[0][1]
    assert off == pytest.approx(0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# observation_bba
# ---------------------------------------------------------------------------

def test_observation_bba_from_declared_type():
    obs = observation_bba("Fighter", fc_confusion())
    assert obs.mass("Fighter") == 0.9
    assert obs.mass("Fighter|Cargo") == pytest.approx(0.1, abs=1e-12)

    obs = observation_bba("Cargo", fc_confusion())
    assert obs.mass("Cargo") == 0.9


def test_observation_bba_perfect_classifier():
    obs = observation_bba("Cargo", identity_confusion(FC_FRAME))
    assert obs.masses == {FC_FRAME.singleton("Cargo"): 1.0}


def test_observation_bba_rejects_unknown_label():
    with pytest.raises(FrameError):
        observation_bba("Bomber", fc_confusion())


# ---------------------------------------------------------------------------
# run_track
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", ALL_RULE_CONFIGS, ids=lambda c: c.describe())
def test_first_step_from_vacuous_prior(cfg):
    [record] = run_track(["Fighter"], fc_confusion(), cfg)
    assert record.scan == 1
    assert record.declared == "Fighter"
    assert record.decision == "Fighter"
    assert record.posterior.mass("Fighter") == pytest.approx(0.9, abs=1e-12)
    assert record.posterior.mass("Fighter|Cargo") == pytest.approx(0.1, abs=1e-12)


def test_two_step_dempster_tie_decides_first_label():
    records = run_track(["Fighter", "Cargo"], fc_confusion(), DEMPSTER)
    final = records[-1].posterior
    assert final.mass("Fighter") == pytest.approx(0.09 / 0.19, abs=1e-12)
    assert final.mass("Cargo") == pytest.approx(0.09 / 0.19, abs=1e-12)
    assert final.mass("Fighter|Cargo") == pytest.approx(0.01 / 0.19, abs=1e-12)
    assert records[-1].decision == "Fighter"


def test_two_step_pcr5():
    records = run_track(["Fighter", "Cargo"], fc_confusion(), PCR5)
    final = records[-1].posterior
    assert final.mass("Fighter") == pytest.approx(0.495, abs=1e-12)
    assert final.mass("Cargo") == pytest.approx(0.495, abs=1e-12)
    assert final.mass("Fighter|Cargo") == pytest.approx(0.01, abs=1e-12)


def test_run_track_lengths_and_scans():
    records = run_track(["Cargo"] * 7, fc_confusion(), PCR5)
    assert [r.scan for r in records] == list(range(1, 8))


def test_run_track_rejects_a_cfg_that_is_not_a_rule_config():
    with pytest.raises(ConfigError, match=r"^scan 1: cfg must be a RuleConfig, got 'pcr5'$"):
        run_track(["Fighter"], fc_confusion(), "pcr5")


def test_run_track_rejects_empty_sequence():
    with pytest.raises(EvidenceError):
        run_track([], fc_confusion(), PCR5)


@pytest.mark.parametrize("cfg", ALL_RULE_CONFIGS, ids=lambda c: c.describe())
def test_constant_declarations_reinforce(cfg):
    records = run_track(["Fighter"] * 100, fc_confusion(), cfg)
    series = [r.posterior.mass("Fighter") for r in records]
    assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
    assert series[-1] >= 0.9
    assert all(r.decision == "Fighter" for r in records)


@pytest.mark.parametrize("cfg", ALL_RULE_CONFIGS, ids=lambda c: c.describe())
def test_perfect_classifier_constant_truth(cfg):
    records = run_track(["Cargo"] * 10, identity_confusion(FC_FRAME), cfg)
    assert all(r.decision == "Cargo" for r in records)


def test_dempster_ignorance_never_increases():
    declarations = (["Cargo"] * 10 + ["Fighter"] * 5) * 4
    records = run_track(declarations, fc_confusion(), DEMPSTER)
    ignorance = [r.posterior.mass("Fighter|Cargo") for r in records]
    assert all(b <= a for a, b in zip(ignorance, ignorance[1:]))


@pytest.mark.parametrize("cfg", ALL_RULE_CONFIGS, ids=lambda c: c.describe())
def test_posterior_always_valid(cfg):
    import math

    declarations = ["Fighter", "Cargo", "Cargo", "Fighter", "Fighter", "Cargo"]
    for record in run_track(declarations, fc_confusion(0.7), cfg):
        masses = record.posterior.masses
        assert all(v >= 0.0 for v in masses.values())
        assert math.fsum(masses.values()) == pytest.approx(1.0, abs=1e-9)


def test_run_track_is_pure():
    declarations = ["Fighter", "Cargo", "Fighter"]
    a = run_track(declarations, fc_confusion(), PCR5)
    b = run_track(declarations, fc_confusion(), PCR5)
    assert [r.posterior.masses for r in a] == [r.posterior.masses for r in b]
    assert [r.decision for r in a] == [r.decision for r in b]


def test_run_track_annotates_failing_scan():
    # a perfect classifier makes the second, contradicting scan impossible
    with pytest.raises(TotalConflictError, match="scan 2"):
        run_track(["Fighter", "Cargo"], identity_confusion(FC_FRAME), DEMPSTER)


def test_run_track_honors_decision_criterion():
    declarations = ["Fighter", "Cargo", "Fighter", "Fighter"]
    records = run_track(
        declarations, fc_confusion(), PCR5, DecisionCriterion.MAX_PIGNISTIC
    )
    for record in records:
        assert record.decision == decide(record.posterior, DecisionCriterion.MAX_PIGNISTIC)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 30])
def test_the_count_race_after_n_cargo_declarations(n):
    # the paper's headline: Dempster needs n + 1 Fighter scans to undo n Cargo
    # scans, while PCR5 and every TCN pairing switch on the second
    for cfg in ALL_RULE_CONFIGS:
        records = run_track(["Cargo"] * n + ["Fighter"] * (n + 2), fc_confusion(), cfg)
        first = next(k for k, r in enumerate(records[n:], start=1) if r.posterior.mass("Fighter") > 0.5)
        assert first == (n + 1 if cfg is DEMPSTER else 2), cfg.describe()
