"""Scenario expansion, declaration sampling, and Monte Carlo averaging."""

import hashlib
import math
import multiprocessing
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seed_fileio
import seed_montecarlo
from evidfuse import (
    AveragedTrace,
    ConfigError,
    ConfusionMatrix,
    DecisionCriterion,
    EvidenceError,
    FrameError,
    FrameMismatchError,
    MassFunctionError,
    MAX_FRAME_SIZE,
    MonteCarloConfig,
    Rule,
    RuleConfig,
    Scenario,
    SplitMix64,
    TConorm,
    TNorm,
    VanishingConsensusError,
    default_config,
    default_confusion,
    default_frame,
    default_rules,
    default_scenario,
    derive_run_seed,
    identity_confusion,
    make_frame,
    readaptation_delays,
    run_monte_carlo,
    run_track,
    sample_decision,
    uniform_diagonal_confusion,
)
from evidfuse import core, montecarlo
from evidfuse.cli import main
from evidfuse.fileio import traces_to_csv
from evidfuse.montecarlo import DEFAULT_SEGMENTS

from conftest import FC_FRAME

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
    # durations are never truncated: 2.5 and True are not scan counts
    for duration in (2.5, True):
        with pytest.raises(FrameError, match="duration must be a positive integer"):
            Scenario(FC_FRAME, (("Cargo", duration),))
    for segment in (("Cargo",), ("Cargo", 3, 4), "Cargo", "C3", 5):
        with pytest.raises(FrameError, match=r"^segments\[1\]: expected a \(label, duration\) pair, got "):
            Scenario(FC_FRAME, (("Fighter", 2), segment))
    not_a_sequence = r"^segments: expected a sequence of \(label, duration\) pairs, got 5$"
    with pytest.raises(FrameError, match=not_a_sequence):
        Scenario(FC_FRAME, 5)


def test_scenario_rejects_a_frame_that_is_not_a_frame():
    with pytest.raises(FrameError, match=r"^frame: expected a Frame, got \('Fighter', 'Cargo'\)$"):
        Scenario(("Fighter", "Cargo"), (("Cargo", 3),))


@pytest.mark.parametrize("field, value, kind", [
    ("confusion", ((0.9, 0.1), (0.1, 0.9)), "ConfusionMatrix"),
    ("scenario", DEFAULT_SEGMENTS, "Scenario"),
    ("rules", 5, "sequence of RuleConfig"),
])
def test_config_rejects_members_of_other_types(field, value, kind):
    # the frame comparison would otherwise fail with AttributeError
    with pytest.raises(ConfigError, match=r"^%s must be a %s, got " % (field, kind)):
        replace(default_config(runs=8), **{field: value})


def test_config_rejects_scenario_and_confusion_over_different_frames():
    other = uniform_diagonal_confusion(make_frame(["Fighter", "Cargo", "Bomber"]), 0.8)
    with pytest.raises(FrameMismatchError, match="^scenario and confusion matrix use different frames$"):
        replace(default_config(runs=8), confusion=other)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(runs=0)
    with pytest.raises(ConfigError):
        small_config(rules=())
    for runs in (64.0, True):
        with pytest.raises(ConfigError, match="runs must be a positive integer"):
            small_config(runs=runs)
        with pytest.raises(ConfigError, match="runs"):
            default_config(runs=runs)
    for seed in ("x", 2.5):
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            small_config(master_seed=seed)
    pcr5, min_max = RuleConfig(Rule.PCR5), RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX)
    with pytest.raises(ConfigError, match=r"^rules\[2\]: rule pcr5 is listed twice, first as rules\[0\]$"):
        small_config(rules=[pcr5, min_max, pcr5])
    with pytest.raises(ConfigError, match=r"^rules\[1\]: rule tcn\(min, max\) is listed twice"):
        small_config(rules=[min_max, RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX)])
    assert len(small_config(rules=[pcr5, RuleConfig(Rule.TCN, TNorm.PRODUCT, TConorm.SUM)]).rules) == 2
    # a criterion or rule of another type would decide by max belief, or fail mid-run
    with pytest.raises(ConfigError, match=r"^criterion must be a DecisionCriterion, got 'pignistic'$"):
        replace(small_config(), criterion="pignistic")
    with pytest.raises(ConfigError, match=r"^rules\[1\]: expected a RuleConfig, got 'pcr5'$"):
        small_config(rules=[min_max, "pcr5"])


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


#: Master seeds at the edges of the 64-bit ring, negative and past it.
EDGE_SEEDS = [0, -1, 2**64 - 1, 2**64 + 5]


def scalar_declarations(cfg, start, stop):
    """Label indices that sample_decision draws run by run, draw by draw."""
    truth = cfg.scenario.expand()
    runs = []
    for run_index in range(start, stop):
        rng = SplitMix64(derive_run_seed(cfg.master_seed, run_index))
        runs.append([cfg.frame.index(sample_decision(t, cfg.confusion, rng)) for t in truth])
    return runs


@st.composite
def sampling_configs(draw):
    m = draw(st.integers(2, 5))
    frame = make_frame(["L%d" % i for i in range(m)])
    if draw(st.booleans()):
        confusion = identity_confusion(frame)
    else:  # rows with zero entries, and rows that spread evenly
        rows = []
        for _ in range(m):
            weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
            rows.append(tuple(w / sum(weights) for w in weights))
        confusion = ConfusionMatrix(frame, tuple(rows))
    segments = draw(st.lists(st.tuples(st.sampled_from(frame.labels), st.integers(1, 8)),
                             min_size=1, max_size=3))
    return MonteCarloConfig(
        scenario=Scenario(frame, tuple(segments)),
        confusion=confusion,
        rules=(RuleConfig(Rule.PCR5),),
        runs=1,
        master_seed=draw(st.sampled_from(EDGE_SEEDS) | st.integers(-(2**70), 2**70)),
    )


@settings(max_examples=100, deadline=None)
@given(cfg=sampling_configs(), start=st.integers(0, 64) | st.integers(2**64 - 64, 2**64 - 33),
       runs=st.integers(1, 32))
def test_block_declarations_match_sample_decision(cfg, start, runs):
    drawn = montecarlo._declarations(cfg, start, start + runs)
    assert drawn.tolist() == scalar_declarations(cfg, start, start + runs)


class FixedDraws:
    """A stand-in stream that hands out given uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def next_float(self):
        return next(self._values)


def test_block_declarations_fall_through_to_the_last_label(monkeypatch):
    # ten 0.1 entries add up, one by one, to 1 - 2**-53: the largest draw is
    # at no running sum's left, so it falls through to the last label; ties
    # with a running sum go to the next label, zero entries are never drawn
    frame = make_frame(["L%d" % i for i in range(10)])
    rows = [(0.1,) * 10, (0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)] + [
        tuple(float(i == j) for j in range(10)) for i in range(2, 10)]
    cfg = MonteCarloConfig(
        scenario=Scenario(frame, (("L0", 1), ("L1", 1))),
        confusion=ConfusionMatrix(frame, tuple(rows)),
        rules=(RuleConfig(Rule.PCR5),),
        runs=1,
        master_seed=0,
    )
    assert sum([0.1] * 10) == 1.0 - 2**-53
    sums = [sum([0.1] * k) for k in range(1, 11)]
    draws = [0.0, 0.5, 1.0 - 2**-53, 2**-53] + sums
    u = np.array([[d, d] for d in draws])
    monkeypatch.setattr(montecarlo, "run_floats", lambda *args: u)
    drawn = montecarlo._declarations(cfg, 0, len(draws))
    expected = [[frame.index(sample_decision(t, cfg.confusion, FixedDraws(row))) for t in ("L0", "L1")]
                for row in u.tolist()]
    assert drawn.tolist() == expected
    assert expected[2] == [9, 3] and expected[1] == [5, 3]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_simulate_seed_override_matches_the_scalar_loop(tmp_path, seed):
    out = tmp_path / "results.csv"
    argv = ["simulate", str(CONFIG_DIR / "default.json"), "--runs", "40",
            "--seed", str(seed), "--threads", "1", "-o", str(out)]
    assert main(argv) == 0
    cfg = default_config(runs=40, master_seed=seed)
    expected = seed_fileio.traces_to_csv(cfg, seed_montecarlo.run_monte_carlo(cfg))
    assert out.read_text(encoding="utf-8") == expected


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


@pytest.mark.parametrize("slab_bytes", [montecarlo._SLAB_BYTES, 1], ids=["one-slab", "slab-per-block"])
@pytest.mark.parametrize("workers", [0, -1, True, 1.5, "2"])
def test_worker_count_must_be_a_positive_integer(monkeypatch, workers, slab_bytes):
    monkeypatch.setattr(montecarlo, "_SLAB_BYTES", slab_bytes)
    with pytest.raises(ConfigError, match=r"^workers must be a positive integer, got %s$" % re.escape(repr(workers))):
        run_monte_carlo(small_config(runs=70), workers=workers)


def test_pool_starts_no_more_workers_than_blocks(monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    cfg = small_config(runs=70)  # three blocks, which fit one slab: no pool
    inline = run_monte_carlo(cfg, workers=1)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
    run_monte_carlo(cfg, workers=8)
    assert started == []
    monkeypatch.setattr(montecarlo, "_SLAB_BYTES", 1)  # one block per slab
    pooled = run_monte_carlo(cfg, workers=8)
    assert started == [3]
    for a, b in zip(inline, pooled):
        assert a.mean_masses.tobytes() == b.mean_masses.tobytes()
        assert a.correct_rate.tobytes() == b.correct_rate.tobytes()


def test_slab_holds_whole_blocks_within_its_byte_budget():
    cfg = default_config()  # 100 scans, 6 rules, M = 2: 460 800 store bytes per block
    assert montecarlo._slab_runs(cfg) == 18 * montecarlo.CHUNK_RUNS
    frame = make_frame(["L%d" % i for i in range(MAX_FRAME_SIZE)])
    long_track = MonteCarloConfig(  # one block alone holds 10.4 MB: a slab is still one block
        scenario=Scenario(frame, (("L0", 400),)), confusion=uniform_diagonal_confusion(frame, 0.7),
        rules=default_rules(), runs=100, master_seed=1)
    assert montecarlo._slab_runs(long_track) == montecarlo.CHUNK_RUNS
    slab = montecarlo._run_block(cfg, 0, 70)  # a slab's blocks, each summed on its own
    assert len(slab) == 3
    for (mass_sums, correct), start in zip(slab, (0, 32, 64)):
        alone, = montecarlo._run_block(cfg, start, min(start + 32, 70))
        assert mass_sums.tobytes() == alone[0].tobytes()
        assert correct.tobytes() == alone[1].tobytes()


def first_failure_in_the_second_slab_config():
    # declaring Fighter (diagonal 0.5) on the first two scans makes the
    # bounded t-norm vanish; with this seed that first happens in run 38
    frame = default_frame()
    return MonteCarloConfig(
        scenario=Scenario(frame, (("Cargo", 6),)),
        confusion=ConfusionMatrix(frame, ((0.5, 0.5), (0.1, 0.9))),
        rules=(RuleConfig(Rule.PCR5), RuleConfig(Rule.TCN, TNorm.BOUNDED, TConorm.MAX),
               RuleConfig(Rule.DEMPSTER)),
        runs=70,
        master_seed=2,
    )


def ten_label_pignistic_config():
    frame = make_frame(["L%d" % i for i in range(10)])
    return MonteCarloConfig(
        scenario=Scenario(frame, (("L3", 4), ("L8", 3))),
        confusion=uniform_diagonal_confusion(frame, 0.7),
        rules=default_rules(),
        runs=70,
        master_seed=10,
        criterion=DecisionCriterion.MAX_PIGNISTIC,
    )


@pytest.mark.parametrize("cfg, error", [
    (small_config(runs=70), None),
    (first_failure_in_the_second_slab_config(), "run 38, rule tcn(bounded, max): scan 2: "),
    (ten_label_pignistic_config(), None),
], ids=["output", "first-failure", "ten-labels"])
def test_real_pool_over_slabs_matches_one_worker(monkeypatch, cfg, error):
    monkeypatch.setattr(montecarlo, "_SLAB_BYTES", 1)  # three one-block slabs, two workers
    assert montecarlo._slab_runs(cfg) == montecarlo.CHUNK_RUNS
    expected = outcome(run_monte_carlo, cfg, workers=1)
    assert outcome(run_monte_carlo, cfg, workers=2) == expected
    assert expected[1].startswith(error) if error else isinstance(expected, list)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_real_pool_under_other_start_methods_matches_one_worker(monkeypatch, method):
    # spawn is the default on macOS, forkserver on Linux from Python 3.14: the
    # workers import the package afresh and get the config only by pickling
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip("start method %s is not available here" % method)
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=context))
    test_real_pool_over_slabs_matches_one_worker(monkeypatch, ten_label_pignistic_config(), None)


def test_default_config_output_is_pinned(tmp_path):
    # sha256 of the CSV written by the per-run scalar loop that preceded the
    # batch engine (generated with that code, before the engine replaced it)
    out = tmp_path / "results.csv"
    argv = ["simulate", str(CONFIG_DIR / "default.json"), "--runs", "64",
            "--seed", "20061215", "--threads", "1", "-o", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4c853cb7fb592593d397e3ba977d746c520d1579fea808d5bcc3114a309e2866"
    )


@pytest.mark.parametrize("threads", ["1", "2"])
def test_default_config_at_four_slabs_is_pinned(tmp_path, threads):
    # 2000 runs are four 576-run slabs, so "2" maps them over the real pool, and
    # the array sums meet rows they cannot certify; sha256 of the CSV written
    # by the engine that kept one lane per (rule, run), before rules got an axis
    out = tmp_path / "results.csv"
    argv = ["simulate", str(CONFIG_DIR / "default.json"), "--runs", "2000",
            "--threads", threads, "-o", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9e1b23dd882e379e55c3901ee5ddb6d498c537f8f4f933dc3ab225a879e85793"
    )


@pytest.mark.parametrize("scan", [0, -1, 101, True, 1.5])
def test_trace_mass_rejects_scans_outside_the_track(scan):
    # True would index scan 1 and 1.5 would reach numpy as a float index
    trace = run_monte_carlo(small_config(runs=1, rules=[RuleConfig(Rule.PCR5)]))[0]
    with pytest.raises(FrameError, match="outside 1..100"):
        trace.mass(scan, "Fighter")


def test_trace_mass_bounds_the_scan_by_the_rows_it_reads():
    # truth and mean_masses are separate members; the scan indexes the rows
    rows = np.full((5, 3), 1 / 3)
    assert AveragedTrace(RuleConfig(Rule.PCR5), default_frame(), (), rows, np.zeros(5)).mass(1, "Fighter") == 1 / 3
    trace = AveragedTrace(RuleConfig(Rule.PCR5), default_frame(), ("Fighter",) * 9, rows, np.zeros(5))
    with pytest.raises(FrameError, match=r"^scan 7 is outside 1\.\.5$"):
        trace.mass(7, "Fighter")


def test_trace_mass_rejects_a_bool_focal_set():
    trace = run_monte_carlo(small_config(runs=1, rules=[RuleConfig(Rule.PCR5)]))[0]
    with pytest.raises(FrameError, match="^cannot interpret True as a focal set$"):
        trace.mass(1, True)


def test_trace_mass_rejects_the_empty_set():
    trace = run_monte_carlo(small_config(runs=1, rules=[RuleConfig(Rule.PCR5)]))[0]
    with pytest.raises(FrameError, match="^the empty set carries no mass$"):
        trace.mass(1, 0)


# ---------------------------------------------------------------------------
# batch engine against the scalar per-run loop (tests/seed_montecarlo.py)
# ---------------------------------------------------------------------------

ALL_RULES = [RuleConfig(Rule.DEMPSTER), RuleConfig(Rule.PCR5)] + [
    RuleConfig(Rule.TCN, tnorm, tconorm) for tnorm in TNorm for tconorm in TConorm
]


def outcome(simulate, cfg, **kwargs):
    """Bytes of every trace, or the type and text of the error raised."""
    try:
        traces = simulate(cfg, **kwargs)
    except EvidenceError as exc:
        return type(exc), str(exc)
    return [(t.rule, t.mean_masses.shape, t.mean_masses.tobytes(), t.correct_rate.tobytes())
            for t in traces]


@st.composite
def simulation_configs(draw):
    m = draw(st.integers(2, 6))
    frame = make_frame(["L%d" % i for i in range(m)])
    rows = []
    for i in range(m):
        diagonal = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
        weights = draw(st.lists(st.integers(0, 4), min_size=m - 1, max_size=m - 1))
        if not any(weights):
            weights = [1] * (m - 1)
        off = [(1.0 - diagonal) * w / sum(weights) for w in weights]
        rows.append(tuple(off[:i] + [diagonal] + off[i:]))
    segments = draw(st.lists(st.tuples(st.sampled_from(frame.labels), st.integers(1, 6)),
                             min_size=1, max_size=3))
    rules = draw(st.permutations(ALL_RULES))[: draw(st.integers(1, len(ALL_RULES)))]
    return MonteCarloConfig(
        scenario=Scenario(frame, tuple(segments)),
        confusion=ConfusionMatrix(frame, tuple(rows)),
        rules=tuple(rules),
        runs=draw(st.integers(1, 70)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        criterion=draw(st.sampled_from(DecisionCriterion)),
    )


def largest_frame_config():
    """MAX_FRAME_SIZE labels, so 2**16 - 1 subset columns, kept small."""
    frame = make_frame(["L%d" % i for i in range(MAX_FRAME_SIZE)])
    return MonteCarloConfig(
        scenario=Scenario(frame, (("L0", 2), ("L15", 2))),
        confusion=uniform_diagonal_confusion(frame, 0.7),
        rules=default_rules(),
        runs=3,
        master_seed=16,
    )


def slice_edge_config(rules):
    """Three labels and a 40-run slab (two blocks) under a given rule order."""
    frame = make_frame(["L0", "L1", "L2"])
    return MonteCarloConfig(
        scenario=Scenario(frame, (("L0", 5), ("L2", 4), ("L1", 3))),
        confusion=uniform_diagonal_confusion(frame, 0.7),
        rules=tuple(rules),
        runs=40,
        master_seed=8,
    )


#: ALL_RULES with the four product t-norm rules between the others: no two
#: neighbours share a t-norm, so every t-norm slice holds one rule.
PRODUCT_RULES = [rule for rule in ALL_RULES if rule.fusion[0] is TNorm.PRODUCT]
OTHER_RULES = [rule for rule in ALL_RULES if rule.fusion[0] is not TNorm.PRODUCT]
ALTERNATING_TNORMS = [rule for pair in zip(PRODUCT_RULES, OTHER_RULES) for rule in pair]


@settings(max_examples=60, deadline=None)
@given(cfg=simulation_configs())
@example(cfg=largest_frame_config())
@example(cfg=replace(largest_frame_config(), criterion=DecisionCriterion.MAX_PIGNISTIC))
@example(cfg=slice_edge_config([RuleConfig(Rule.DEMPSTER)]))  # no t-conorm slice
@example(cfg=slice_edge_config([RuleConfig(Rule.PCR5)]))  # no normalized rule
@example(cfg=slice_edge_config(ALTERNATING_TNORMS))
@example(cfg=slice_edge_config(sorted(ALL_RULES, key=lambda rule: rule.fusion[0].value)))  # a slice per kind
def test_batch_engine_matches_scalar_loop_bit_for_bit(cfg):
    assert outcome(run_monte_carlo, cfg) == outcome(seed_montecarlo.run_monte_carlo, cfg)


def test_largest_frame_csv_has_a_column_per_subset():
    cfg = largest_frame_config()
    header = traces_to_csv(cfg, run_monte_carlo(cfg)).split("\n")[1].split(",")
    assert sum(name.startswith("m_") for name in header) == 65535


def test_engine_sums_as_arrays_match_the_scalar_loop_and_the_pin(monkeypatch, tmp_path):
    # the two gates above, unedited, with every engine sum on the array path
    monkeypatch.setattr(montecarlo, "_EXACT_SUM_MIN_ROWS", 1)
    test_default_config_output_is_pinned(tmp_path)
    test_batch_engine_matches_scalar_loop_bit_for_bit()


# ---------------------------------------------------------------------------
# _exact_sum against math.fsum
# ---------------------------------------------------------------------------

#: 0.9 and twice the double nearest 0.1 - 0.9 / 9 sum exactly to a tie: half
#: way between two doubles, which fsum rounds to even.
TIE = (0.9, 0.09999999999999998, 0.09999999999999998)

SPECIAL_TERMS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.0**-1022 - 2.0**-1074,
                 2.0**-53, 2.0**-54, 1.0, -1.0, 0.1, 0.9, 1.0 - 2.0**-53, 1e308]

#: Pairs that cancel exactly but leave nonzero errors in the second TwoSum
#: tree of _exact_sum: a row (x, *CANCELLING, d) sums to exactly x + d, and
#: its certificate, not the exact-error clause, decides whether it needs fsum.
CANCELLING = (1e-05, -1e-05, 3e-05, -3e-05, -1e-19, 1e-19)

terms = (
    st.floats(-2.0, 2.0)
    | st.floats(0.0, 1.0)
    | st.sampled_from(SPECIAL_TERMS)
    | st.integers(-(2**12), 2**12).map(lambda i: i * 2.0**-56)  # dyadic: exact ties
    | st.floats(-1e-300, 1e-300)
    | st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def sum_rows(draw):
    k = draw(st.integers(2, MAX_FRAME_SIZE + 3))  # the declared singleton sums M + 3 terms
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(terms, min_size=k, max_size=k))
        if draw(st.booleans()):  # opposite-sign cancellation
            row[k // 2:] = [-x for x in row[: k - k // 2]]
        rows.append(row)
    return rows


def fsum_outcome(sums, rows):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.asarray(sums(np.array(rows))).tobytes()
    except (OverflowError, ValueError) as exc:  # fsum's own non-finite errors
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(rows=sum_rows(), n=st.sampled_from([1, -1, 0, 1000]))
@example(rows=[TIE, (1.0, 2.0**-54, 2.0**-54), (1.0, 2.0**-54, -(2.0**-54), 2.0**-53)], n=0)
@example(rows=[(1.0, 2.0**-53, 2.0**-100), (0.741945015713378, 0.2580549842866221, 1e-32)], n=0)  # near ties
@example(rows=[(-0.0, -0.0, -0.0), (0.0, -0.0), (1.0, -1.0, 0.0), (5e-324, 5e-324, -5e-324)], n=0)
@example(rows=[(float("inf"), 1.0), (float("nan"), 0.0, 1.0), (float("inf"), -float("inf"))], n=0)
@example(rows=[(1e308, 1e308, -1e308)], n=0)
@example(rows=[(0.0, 1e308, 1e308, -0.0, -1e308, -1e308, -1.0)], n=0)  # fsum overflows, the tree not
@example(rows=[(1.0, *CANCELLING), (-1.0, *CANCELLING)], n=0)  # exactly +-1
@example(rows=[(1.0, *CANCELLING, d) for d in (2.0**-54, 2.0**-53, -(2.0**-55), -(2.0**-54))], n=0)  # 1/4, 1/2 ulp by 1
@example(rows=[(-0.5, *CANCELLING, 0.0), (-0.5, *CANCELLING, 2.0**-56), (-2.0, *CANCELLING, 2.0**-54)], n=0)  # -2**e
@example(rows=[(x, *CANCELLING, d) for x in (2.0**-1021, 2.0**-1022) for d in (0.0, 5e-324, -5e-324)], n=0)  # tiny
def test_exact_sum_is_fsum_of_each_row(rows, n):
    # n rows cycled from the drawn ones: 1, just under the width cut, at it, and far above
    n = {1: 1, -1: montecarlo._EXACT_SUM_MIN_ROWS - 1, 0: montecarlo._EXACT_SUM_MIN_ROWS}.get(n, n)
    rows = [rows[i % len(rows)] for i in range(n)]
    expected = fsum_outcome(lambda a: [math.fsum(row) for row in a.tolist()], rows)
    assert fsum_outcome(montecarlo._exact_sum, rows) == expected


def test_exact_sum_certifies_ties_when_the_error_sum_is_exact(monkeypatch):
    # no tie row reaches fsum: every error the trees leave is exact
    calls = []
    monkeypatch.setattr(montecarlo, "fsum", lambda row: calls.append(row) or math.fsum(row))
    rows = np.array([TIE] * montecarlo._EXACT_SUM_MIN_ROWS)
    assert montecarlo._exact_sum(rows).tolist() == [math.fsum(TIE)] * len(rows)
    assert calls == []
    exact, rounded = sum(map(Fraction, TIE)), Fraction(math.fsum(TIE))
    assert abs(exact - rounded) == Fraction(float(np.spacing(math.fsum(TIE)))) / 2  # a tie


def test_certificate_decides_most_rows_of_the_default_slab(monkeypatch):
    # a certificate that certifies nothing still returns fsum's bits, only slower
    calls = []
    monkeypatch.setattr(montecarlo, "fsum", lambda row: calls.append(row) or math.fsum(row))
    montecarlo._run_block(default_config(runs=576), 0, 576)
    tree_rows = 2 * 100 * 6 * 576  # two sums per scan, each of 3456 rows (over _EXACT_SUM_MIN_ROWS)
    assert len(calls) < 0.1 * tree_rows  # about 6 %


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failure_in_a_later_block_is_reported_like_the_scalar_loop(workers):
    cfg = first_failure_in_the_second_slab_config()
    expected = outcome(seed_montecarlo.run_monte_carlo, cfg)
    assert expected[1].startswith("run 38, rule tcn(bounded, max): scan 2: ")
    assert outcome(run_monte_carlo, cfg, workers=workers) == expected


def vanishing_config():
    frame = default_frame()
    return MonteCarloConfig(
        scenario=Scenario(frame, (("Cargo", 3),)),
        confusion=uniform_diagonal_confusion(frame, 0.5),
        rules=(RuleConfig(Rule.PCR5), RuleConfig(Rule.TCN, TNorm.BOUNDED, TConorm.MAX)),
        runs=3,
        master_seed=9,
    )


def test_vanishing_tcn_consensus_names_run_rule_and_scan():
    cfg = vanishing_config()
    with pytest.raises(VanishingConsensusError, match=r"^run 0, rule tcn\(bounded, max\): scan 2: "):
        run_monte_carlo(cfg)
    assert outcome(run_monte_carlo, cfg) == outcome(seed_montecarlo.run_monte_carlo, cfg)


def test_lane_that_fails_only_the_output_audit_is_an_internal_error(monkeypatch):
    # no lane reaches its floor, but every posterior fails a negative tolerance;
    # the scalar tracker reads core's own tolerance and accepts run 0
    monkeypatch.setattr(montecarlo, "SUM_TOLERANCE", -1.0)
    with pytest.raises(RuntimeError, match=r"^internal error: the batch engine flagged run 0, rule dempster, "):
        run_monte_carlo(default_config(runs=40))
    flagged = []
    monkeypatch.setattr(montecarlo, "_replay_first_failure", lambda *args: flagged.append(args[3]))
    montecarlo._run_block(default_config(runs=40), 0, 40)
    assert flagged[0].shape == (6, 40) and flagged[0].all()  # every rule and run, in both blocks


#: What the scalar replay raises when every posterior fails a negative tolerance.
AUDIT_FAILURE = "run 0, rule dempster: scan 1: dempster_combine: output masses sum to 1, not 1"


def test_lane_that_fails_the_output_audit_raises_the_scalar_error(monkeypatch, tmp_path, capsys):
    # the engine and the scalar tracker both read a negative tolerance
    monkeypatch.setattr(core, "SUM_TOLERANCE", -1.0)
    monkeypatch.setattr(montecarlo, "SUM_TOLERANCE", -1.0)
    with pytest.raises(MassFunctionError, match="^%s$" % re.escape(AUDIT_FAILURE)):
        run_monte_carlo(default_config(runs=40))
    out = tmp_path / "x.csv"
    code = main(["simulate", str(CONFIG_DIR / "default.json"), "--runs", "40", "--threads", "1", "-o", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % AUDIT_FAILURE
    assert not out.exists()


def test_flagged_lane_the_scalar_tracker_accepts_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(montecarlo, "run_track", lambda *args: [])
    with pytest.raises(RuntimeError, match=r"internal error: .* run 0, rule tcn\(bounded, max\)"):
        run_monte_carlo(vanishing_config())


@pytest.mark.parametrize("rule", ALL_RULES, ids=RuleConfig.describe)
def test_every_floor_is_below_the_output_audits_lower_bound(rule):
    # the engine leaves a lane at or below its floor unnormalized, for the audit to fail
    floor = rule.fusion[2]
    assert floor is None or floor < 1.0 - montecarlo.SUM_TOLERANCE


#: First scan at which Dempster's m(full set) is exactly 0 on a track that
#: declares the true type at every scan with diagonal 0.9: every scan scales
#: it by 0.1 / (1 - K), and 0.1**324 is below the smallest subnormal.
DEMPSTER_IGNORANCE_UNDERFLOW_SCAN = 324


def first_zero_scan(series):
    return next(k for k, value in enumerate(series, 1) if value == 0.0)


def test_dempster_ignorance_underflows_to_an_absorbing_zero():
    frame = default_frame()
    records = run_track(["Fighter"] * 400, default_confusion(), RuleConfig(Rule.DEMPSTER))
    ignorance = [record.posterior.mass(frame.full_set) for record in records]
    scan = first_zero_scan(ignorance)
    assert scan == DEMPSTER_IGNORANCE_UNDERFLOW_SCAN
    assert all(value > 0.0 for value in ignorance[: scan - 1])
    assert all(value == 0.0 for value in ignorance[scan - 1:])
    assert frame.full_set not in records[-1].posterior.masses  # pruned, not stored as 0


def test_batch_engine_follows_the_underflow_bit_for_bit():
    # with random declarations a disagreeing scan barely shrinks m(full set),
    # so it reaches 0 later than on the agreeing track, but within 400 scans
    frame = default_frame()
    cfg = MonteCarloConfig(
        scenario=Scenario(frame, (("Fighter", 400),)),
        confusion=default_confusion(),
        rules=default_rules(),
        runs=2,
        master_seed=0,
    )
    traces = run_monte_carlo(cfg)
    for got, want in zip(traces, seed_montecarlo.run_monte_carlo(cfg)):
        assert got.mean_masses.tobytes() == want.mean_masses.tobytes()
        assert got.correct_rate.tobytes() == want.correct_rate.tobytes()
    zeros = []
    for run_index in range(cfg.runs):
        rng = SplitMix64(derive_run_seed(cfg.master_seed, run_index))
        declarations = [sample_decision(t, cfg.confusion, rng) for t in cfg.scenario.expand()]
        records = run_track(declarations, cfg.confusion, RuleConfig(Rule.DEMPSTER))
        zeros.append(first_zero_scan([r.posterior.mass(frame.full_set) for r in records]))
    assert DEMPSTER_IGNORANCE_UNDERFLOW_SCAN < min(zeros) <= max(zeros) <= 400
    ignorance = traces[0].mean_masses[:, frame.full_set - 1]
    assert traces[0].rule.rule is Rule.DEMPSTER
    assert np.all(ignorance[: max(zeros) - 1] > 0.0)
    assert np.all(ignorance[max(zeros) - 1:] == 0.0)


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


@pytest.mark.parametrize("segments", [(("Cargo", 10), ("Fighter", 10)), (("Cargo", 60), ("Fighter", 60))],
                         ids=["20 scans", "120 scans"])
def test_readaptation_delays_reject_a_scenario_of_another_length(segments):
    trace = run_monte_carlo(small_config(runs=1, rules=[RuleConfig(Rule.PCR5)]))[0]
    scenario = Scenario(FC_FRAME, segments)
    with pytest.raises(FrameMismatchError, match=r"^the scenario \(%d scans over \['Fighter', 'Cargo'\]\) "
                       r"is not the trace's \(100 scans over \['Fighter', 'Cargo'\]\)$" % scenario.total_scans):
        readaptation_delays(trace, scenario)


def test_readaptation_delays_reject_a_scenario_over_another_frame():
    trace = synthetic_trace([0.1] * 5, [0.8] * 5)
    scenario = Scenario(make_frame(["Cargo", "Fighter"]), (("Cargo", 2), ("Fighter", 3)))
    with pytest.raises(FrameMismatchError, match="is not the trace's"):
        readaptation_delays(trace, scenario)


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
