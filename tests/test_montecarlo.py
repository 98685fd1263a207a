"""Scenario expansion, declaration sampling, and Monte Carlo averaging."""

import math

import numpy as np
import pytest

from evidfuse import (
    AveragedTrace,
    ConfigError,
    EvidenceError,
    FrameError,
    MonteCarloConfig,
    Rule,
    RuleConfig,
    Scenario,
    SplitMix64,
    TConorm,
    TNorm,
    default_config,
    default_confusion,
    default_frame,
    default_rules,
    default_scenario,
    derive_run_seed,
    identity_confusion,
    readaptation_delays,
    run_monte_carlo,
    run_track,
    sample_decision,
    uniform_diagonal_confusion,
)

from conftest import FC_FRAME


def small_config(runs=70, master_seed=1234, rules=None):
    return MonteCarloConfig(
        scenario=default_scenario(),
        confusion=default_confusion(),
        rules=tuple(rules) if rules is not None else default_rules(),
        runs=runs,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

def test_scenario_expand():
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 3)))
    assert scenario.total_scans == 5
    assert scenario.expand() == ("Cargo", "Cargo", "Fighter", "Fighter", "Fighter")


def test_scenario_single_segment():
    scenario = Scenario(FC_FRAME, (("Cargo", 1),))
    assert scenario.expand() == ("Cargo",)
    assert scenario.switches() == []


def test_scenario_switches():
    assert default_scenario().switches() == [
        (31, "Fighter"),
        (51, "Cargo"),
        (71, "Fighter"),
        (86, "Cargo"),
    ]
    assert default_scenario().total_scans == 100


def test_scenario_rejects_bad_segments():
    with pytest.raises(EvidenceError):
        Scenario(FC_FRAME, ())
    with pytest.raises(EvidenceError):
        Scenario(FC_FRAME, (("Cargo", 0),))
    with pytest.raises(EvidenceError):
        Scenario(FC_FRAME, (("Bomber", 5),))


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(runs=0)
    with pytest.raises(ConfigError):
        small_config(rules=())


# ---------------------------------------------------------------------------
# sample_decision
# ---------------------------------------------------------------------------

def test_sample_decision_degenerate_row():
    rng = SplitMix64(5)
    confusion = identity_confusion(FC_FRAME)
    assert all(
        sample_decision("Fighter", confusion, rng) == "Fighter" for _ in range(100)
    )


def test_sample_decision_is_seed_deterministic():
    confusion = default_confusion()
    a = SplitMix64(314159)
    b = SplitMix64(314159)
    seq_a = [sample_decision("Fighter", confusion, a) for _ in range(200)]
    seq_b = [sample_decision("Fighter", confusion, b) for _ in range(200)]
    assert seq_a == seq_b


def test_sample_decision_frequency():
    rng = SplitMix64(2718)
    confusion = default_confusion()
    n = 20000
    hits = sum(sample_decision("Cargo", confusion, rng) == "Cargo" for _ in range(n))
    assert abs(hits / n - 0.9) < 0.02


def test_sample_decision_consumes_one_draw():
    confusion = default_confusion()
    a = SplitMix64(99)
    b = SplitMix64(99)
    sample_decision("Fighter", confusion, a)
    b.next_float()
    assert a.next_uint64() == b.next_uint64()


# ---------------------------------------------------------------------------
# run_monte_carlo
# ---------------------------------------------------------------------------

def test_single_run_equals_one_track():
    cfg = small_config(runs=1, master_seed=77)
    traces = run_monte_carlo(cfg)
    truth = cfg.scenario.expand()
    rng = SplitMix64(derive_run_seed(cfg.master_seed, 0))
    declarations = [sample_decision(t, cfg.confusion, rng) for t in truth]
    for rule_cfg, trace in zip(cfg.rules, traces):
        records = run_track(declarations, cfg.confusion, rule_cfg, cfg.criterion)
        for k, record in enumerate(records):
            for bits in cfg.frame.nonempty_subsets():
                assert trace.mean_masses[k, bits - 1] == record.posterior.mass(bits)
            assert trace.correct_rate[k] == float(record.decision == truth[k])


def test_worker_count_does_not_change_output():
    cfg = small_config(runs=70)
    inline = run_monte_carlo(cfg, workers=1)
    pooled = run_monte_carlo(cfg, workers=4)
    for a, b in zip(inline, pooled):
        assert np.array_equal(a.mean_masses, b.mean_masses)
        assert np.array_equal(a.correct_rate, b.correct_rate)


def test_rule_order_does_not_change_traces():
    rules = list(default_rules())
    cfg = small_config(runs=40, rules=rules)
    shuffled = small_config(runs=40, rules=rules[::-1])
    forward = run_monte_carlo(cfg)
    backward = run_monte_carlo(shuffled)
    for a, b in zip(forward, backward[::-1]):
        assert a.rule == b.rule
        assert np.array_equal(a.mean_masses, b.mean_masses)
        assert np.array_equal(a.correct_rate, b.correct_rate)


def test_mean_masses_stay_normalized():
    cfg = small_config(runs=70)
    for trace in run_monte_carlo(cfg, workers=4):
        sums = trace.mean_masses.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)
        assert np.all(trace.correct_rate >= 0.0)
        assert np.all(trace.correct_rate <= 1.0)


def test_perfect_classifier_is_always_correct():
    cfg = MonteCarloConfig(
        scenario=Scenario(default_frame(), (("Cargo", 4), ("Fighter", 4))),
        confusion=identity_confusion(default_frame()),
        rules=(RuleConfig(Rule.PCR5), RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX)),
        runs=8,
        master_seed=5,
    )
    for trace in run_monte_carlo(cfg):
        assert np.all(trace.correct_rate == 1.0)


def test_errors_carry_run_rule_scan_context():
    # Dempster cannot absorb the contradiction a perfect classifier produces
    # at the truth switch
    cfg = MonteCarloConfig(
        scenario=Scenario(default_frame(), (("Cargo", 2), ("Fighter", 1))),
        confusion=identity_confusion(default_frame()),
        rules=(RuleConfig(Rule.DEMPSTER),),
        runs=1,
        master_seed=5,
    )
    with pytest.raises(EvidenceError, match=r"run 0, rule dempster: scan 3"):
        run_monte_carlo(cfg)


def test_trace_accessors():
    cfg = small_config(runs=2)
    trace = run_monte_carlo(cfg)[0]
    assert trace.mass(1, "Cargo") == trace.mean_masses[0, FC_FRAME.singleton("Cargo") - 1]
    series = trace.singleton_series("Fighter")
    assert series.shape == (100,)


@pytest.mark.parametrize("scan", [0, -1, 101])
def test_trace_mass_rejects_scans_outside_the_track(scan):
    trace = run_monte_carlo(small_config(runs=1, rules=[RuleConfig(Rule.PCR5)]))[0]
    with pytest.raises(FrameError, match="outside 1..100"):
        trace.mass(scan, "Fighter")


# ---------------------------------------------------------------------------
# re-adaptation delays
# ---------------------------------------------------------------------------

def synthetic_trace(fighter_series, cargo_series):
    n = len(fighter_series)
    mean = np.zeros((n, 3))
    mean[:, 0] = fighter_series
    mean[:, 1] = cargo_series
    mean[:, 2] = 1.0 - mean[:, 0] - mean[:, 1]
    return AveragedTrace(
        rule=RuleConfig(Rule.PCR5),
        frame=FC_FRAME,
        truth=(),
        mean_masses=mean,
        correct_rate=np.zeros(n),
    )


def test_readaptation_delay_counts_from_switch_scan():
    scenario = Scenario(FC_FRAME, (("Cargo", 3), ("Fighter", 5)))
    fighter = [0.1, 0.1, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9]
    cargo = [0.8, 0.8, 0.8, 0.7, 0.5, 0.3, 0.1, 0.0]
    delays = readaptation_delays(synthetic_trace(fighter, cargo), scenario)
    assert len(delays) == 1
    assert delays[0].switch_scan == 4
    assert delays[0].new_type == "Fighter"
    assert delays[0].delay == 3.0  # crossed at scan 6


def test_readaptation_delay_immediate_crossing():
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 2)))
    delays = readaptation_delays(
        synthetic_trace([0.1, 0.6, 0.7, 0.8], [0.8, 0.3, 0.2, 0.1]), scenario
    )
    assert delays[0].delay == 1.0


def test_readaptation_delay_never_crossing_is_inf():
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 3)))
    delays = readaptation_delays(
        synthetic_trace([0.1] * 5, [0.8] * 5), scenario
    )
    assert delays[0].delay == math.inf


def test_readaptation_delay_is_limited_to_the_new_segment():
    # the crossing after the segment ends must not count
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 2), ("Cargo", 2)))
    fighter = [0.1, 0.1, 0.2, 0.3, 0.9, 0.9]
    cargo = [0.8, 0.8, 0.7, 0.6, 0.05, 0.05]
    delays = readaptation_delays(synthetic_trace(fighter, cargo), scenario)
    assert delays[0].new_type == "Fighter"
    assert delays[0].delay == math.inf


def test_readaptation_delay_threshold_parameter():
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 3)))
    trace = synthetic_trace([0.1, 0.1, 0.3, 0.45, 0.6], [0.8, 0.8, 0.5, 0.3, 0.2])
    assert readaptation_delays(trace, scenario, threshold=0.5)[0].delay == 3.0
    assert readaptation_delays(trace, scenario, threshold=0.4)[0].delay == 2.0


# ---------------------------------------------------------------------------
# cross-diagonal sanity (slow: three 2000-run simulations)
# ---------------------------------------------------------------------------

def _mean_delay(trace, scenario):
    delays = [d.delay for d in readaptation_delays(trace, scenario)]
    return sum(delays) / len(delays)


def test_better_classifiers_readapt_no_slower():
    scenario = default_scenario()
    mean_delays = {}
    for diagonal in (0.7, 0.8, 0.9):
        cfg = MonteCarloConfig(
            scenario=scenario,
            confusion=default_confusion(diagonal),
            rules=default_rules(),
            runs=2000,
            master_seed=20061215,
        )
        for trace in run_monte_carlo(cfg, workers=4):
            mean_delays.setdefault(trace.rule.describe(), []).append(
                _mean_delay(trace, scenario)
            )
    for rule_name, series in mean_delays.items():
        assert len(series) == 3
        # weakly decreasing as the diagonal grows (inf == inf is allowed)
        assert series[0] >= series[1] >= series[2], (rule_name, series)


def test_default_config_shape():
    cfg = default_config()
    assert cfg.runs == 10000
    assert cfg.master_seed == 20061215
    assert len(cfg.rules) == 6
    assert cfg.scenario.total_scans == 100
    assert cfg.confusion.diagonal("Fighter") == 0.9
