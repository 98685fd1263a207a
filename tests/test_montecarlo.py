"""Scenario expansion, declaration sampling, and Monte Carlo averaging."""

import hashlib
import math
import multiprocessing
import re
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from evidfuse.core import replace
from fractions import Fraction
from itertools import accumulate
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
from evidfuse import core, engine, montecarlo
from evidfuse.cli import main
from evidfuse.fileio import traces_csv_blocks
from evidfuse.montecarlo import DEFAULT_MASTER_SEED, DEFAULT_SEGMENTS

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
    # consecutive segments of one type are one run, so they make one switch
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 2), ("Fighter", 3), ("Cargo", 2)))
    assert scenario.switches() == [(3, "Fighter"), (8, "Cargo")]
    assert Scenario(FC_FRAME, (("Cargo", 1), ("Cargo", 2))).switches() == []


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


def block_declarations(cfg, start, stop):
    truth = np.array([cfg.frame.index(label) for label in cfg.scenario.expand()])
    return engine._declarations(cfg, truth, start, stop)


@st.composite
def sampling_configs(draw):
    m = draw(st.integers(2, 5) | st.just(MAX_FRAME_SIZE))
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
       runs=st.integers(1, 32), on_sums=st.none() | st.randoms(use_true_random=False))
def test_block_declarations_match_sample_decision(cfg, start, runs, on_sums):
    if on_sums is None:
        drawn = block_declarations(cfg, start, start + runs)
        assert drawn.tolist() == scalar_declarations(cfg, start, start + runs)
        return
    # every draw equal to 0 or to a running sum of its scan's row below 1,
    # where sample_decision's `<` and the engine's `<=` pick the next label
    truth = cfg.scenario.expand()
    u = np.array([[on_sums.choice([0.0] + [x for x in accumulate(cfg.confusion.row(label)) if x < 1.0])
                   for label in truth] for _ in range(runs)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "run_floats", lambda *args: u)
        drawn = block_declarations(cfg, start, start + runs)
    assert drawn.tolist() == [[cfg.frame.index(sample_decision(label, cfg.confusion, FixedDraws([x])))
                               for label, x in zip(truth, row)] for row in u.tolist()]


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
    monkeypatch.setattr(engine, "run_floats", lambda *args: u)
    drawn = block_declarations(cfg, 0, len(draws))
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


@pytest.mark.parametrize("slab_bytes", [engine._SLAB_BYTES, 1], ids=["one-slab", "slab-per-block"])
@pytest.mark.parametrize("workers", [0, -1, True, 1.5, "2"])
def test_worker_count_must_be_a_positive_integer(monkeypatch, workers, slab_bytes):
    monkeypatch.setattr(engine, "_SLAB_BYTES", slab_bytes)
    with pytest.raises(ConfigError, match=r"^workers must be a positive integer, got %s$" % re.escape(repr(workers))):
        run_monte_carlo(small_config(runs=70), workers=workers)


class LazyFuture(Future):
    """A future whose call runs when its result is first read."""

    def __init__(self, fn, args):
        super().__init__()
        self.call = fn, args

    def result(self, timeout=None):
        if not self.done() and self.set_running_or_notify_cancel():
            fn, args = self.call
            try:
                self.set_result(fn(*args))
            except ValueError as exc:
                self.set_exception(exc)
        return super().result(timeout)


def test_window_map_keeps_at_most_a_window_of_calls_and_cancels_them_on_an_error():
    submitted, results = [], []

    class LazyPool:
        def submit(self, fn, *args):
            submitted.append(LazyFuture(fn, args))
            return submitted[-1]

    def square(x):
        if x == 6:
            raise ValueError("slab 6")
        return x * x

    with pytest.raises(ValueError, match="^slab 6$"):
        for result in engine._window_map(LazyPool(), 3, square, range(10)):
            assert len(submitted) - len(results) <= 3
            results.append(result)
    assert results == [0, 1, 4, 9, 16, 25]  # in call order
    assert len(submitted) == 9 and [future.cancelled() for future in submitted[6:]] == [False, True, True]


def test_pool_starts_no_more_workers_than_blocks(monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    cfg = small_config(runs=70)  # three blocks, which fit one slab: no pool
    inline = run_monte_carlo(cfg, workers=1)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    run_monte_carlo(cfg, workers=8)
    assert started == []
    monkeypatch.setattr(engine, "_SLAB_BYTES", 1)  # one block per slab
    pooled = run_monte_carlo(cfg, workers=8)
    assert started == [3]
    for a, b in zip(inline, pooled):
        assert a.mean_masses.tobytes() == b.mean_masses.tobytes()
        assert a.correct_rate.tobytes() == b.correct_rate.tobytes()


def test_slab_holds_whole_blocks_within_its_byte_budget():
    cfg = default_config()  # 100 scans, 6 rules, M = 2: 460 800 store bytes per block
    assert engine._slab_runs(cfg) == 18 * montecarlo.CHUNK_RUNS
    frame = make_frame(["L%d" % i for i in range(MAX_FRAME_SIZE)])
    long_track = MonteCarloConfig(  # one block alone holds 10.4 MB: a slab is still one block
        scenario=Scenario(frame, (("L0", 400),)), confusion=uniform_diagonal_confusion(frame, 0.7),
        rules=default_rules(), runs=100, master_seed=1)
    assert engine._slab_runs(long_track) == montecarlo.CHUNK_RUNS
    slab = engine._run_block(cfg, 0, 70)  # a slab's blocks, each summed on its own
    assert slab.shape == (3, 100, 2 + 2, 6)
    for block, start in zip(slab, (0, 32, 64)):
        alone, = engine._run_block(cfg, start, min(start + 32, 70))
        assert block.tobytes() == alone.tobytes()


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
    (small_config(runs=70, rules=default_rules()[::-1]), None),  # partials cross the pool in rank order
], ids=["output", "first-failure", "ten-labels", "reversed-rules"])
def test_real_pool_over_slabs_matches_one_worker(monkeypatch, cfg, error):
    monkeypatch.setattr(engine, "_SLAB_BYTES", 1)  # three one-block slabs, two workers
    assert engine._slab_runs(cfg) == montecarlo.CHUNK_RUNS
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
    started = []

    def pool(max_workers):
        started.append(max_workers)
        return ProcessPoolExecutor(max_workers, mp_context=context)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
    test_real_pool_over_slabs_matches_one_worker(monkeypatch, ten_label_pignistic_config(), None)
    assert started == [2]


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
    # a trace owns its shape: truth and the rows of masses have one entry per scan
    rows = np.full((5, 3), 1 / 3)
    with pytest.raises(FrameError, match=r"^masses and correct_rate must have shapes \(9, 3\) and \(9,\), "
                       r"got \(5, 3\) and \(5,\)$"):
        AveragedTrace(RuleConfig(Rule.PCR5), default_frame(), ("Fighter",) * 9, rows, np.zeros(5))
    trace = AveragedTrace(RuleConfig(Rule.PCR5), default_frame(), ("Fighter",) * 5, rows, np.zeros(5))
    assert trace.mass(5, "Fighter") == 1 / 3
    with pytest.raises(FrameError, match=r"^scan 7 is outside 1\.\.5$"):
        trace.mass(7, "Fighter")


@pytest.mark.parametrize("members", [("masses", "correct_rate"), ("truth",), ("masses",), ("correct_rate",)])
def test_a_trace_cut_short_cannot_be_built(members):
    # the writer once zipped the config's truth with a trace's rows, and a
    # 100-scan config whose traces were cut to 7 rows wrote 44 lines
    trace = run_monte_carlo(default_config(runs=8))[0]
    with pytest.raises(FrameError, match=r"^masses and correct_rate must have shapes"):
        replace(trace, **{member: getattr(trace, member)[:7] for member in members})


def test_a_trace_names_a_truth_label_outside_its_frame():
    # the CSV writer looks each truth label up in the frame's cells; an
    # unknown one raised a bare KeyError there
    trace = run_monte_carlo(default_config(runs=8))[0]
    for label in ("Tank", ["A"]):  # an unhashable label gets the same message
        with pytest.raises(FrameError, match=r"^truth\[3\]: unknown label %s \(frame is \['Fighter', 'Cargo'\]\)$"
                           % re.escape(repr(label))):
            replace(trace, truth=trace.truth[:3] + (label,) * 97)


def test_a_trace_keeps_its_truth_as_a_tuple():
    # a list truth holding the scenario's labels was refused by the CSV writer
    # and by readaptation_delays, and compared unequal to the same trace
    cfg = default_config(runs=8)
    traces = run_monte_carlo(cfg)
    listed = [replace(trace, truth=list(trace.truth)) for trace in traces]
    assert listed == traces and all(type(trace.truth) is tuple for trace in listed)
    assert "".join(traces_csv_blocks(cfg, listed)) == "".join(traces_csv_blocks(cfg, traces))
    assert readaptation_delays(listed[0], cfg.scenario) == readaptation_delays(traces[0], cfg.scenario)


@pytest.mark.parametrize("truth", [5, None, "Cargo"])
def test_a_trace_whose_truth_is_no_sequence_of_labels_cannot_be_built(truth):
    # 5 raised a bare TypeError; a string would be read as one label per character
    with pytest.raises(FrameError, match=r"^truth: expected a sequence of labels, got %s$" % re.escape(repr(truth))):
        AveragedTrace(RuleConfig(Rule.PCR5), FC_FRAME, truth, np.zeros((5, 3)), np.zeros(5))


def test_a_trace_over_a_frame_that_is_not_a_frame_cannot_be_built():
    # a string frame raised a bare AttributeError ('str' object has no attribute 'size')
    with pytest.raises(FrameError, match=r"^frame: expected a Frame, got 'x'$"):
        AveragedTrace(RuleConfig(Rule.PCR5), "x", ("Cargo",) * 2, np.zeros((2, 3)), np.zeros(2))


def test_a_trace_of_a_rule_that_is_not_a_rule_config_cannot_be_built():
    # a string rule was built, and failed only in the CSV writer, with an AttributeError
    with pytest.raises(ConfigError, match=r"^rule: expected a RuleConfig, got 'pcr5'$"):
        AveragedTrace("pcr5", FC_FRAME, ("Cargo",) * 2, np.zeros((2, 3)), np.zeros(2))


@pytest.mark.parametrize("width", [2, 4, 7])
def test_a_trace_holds_one_column_per_singleton_and_the_full_set(width):
    with pytest.raises(FrameError, match=r"^masses and correct_rate must have shapes \(2, 3\) and \(2,\), "
                       r"got \(2, %d\) and \(2,\)$" % width):
        AveragedTrace(RuleConfig(Rule.PCR5), FC_FRAME, ("Cargo",) * 2, np.zeros((2, width)), np.zeros(2))


def test_trace_mass_reads_the_reached_columns_and_zero_elsewhere():
    frame = make_frame(["A", "B", "C"])
    masses = np.array([[0.125, 0.25, 0.5, 0.125], [-0.0, 0.5, 0.25, 0.25]])
    trace = AveragedTrace(RuleConfig(Rule.PCR5), frame, ("A", "B"), masses, np.zeros(2))
    dense = trace.mean_masses
    assert dense.shape == (2, 7)
    for bits in frame.nonempty_subsets():
        for scan in (1, 2):
            assert trace.mass(scan, bits) == dense[scan - 1, bits - 1]
    assert dense[:, [0, 1, 3, 6]].tobytes() == masses.tobytes()
    assert not np.delete(dense, [0, 1, 3, 6], axis=1).view(np.uint64).any()  # +0.0 everywhere else
    assert trace.mass(2, "A|B") == 0.0 and trace.mass(2, "C") == 0.25 and trace.mass(2, "A|B|C") == 0.25
    assert trace.singleton_series("B").tolist() == [0.25, 0.5]


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


def vanishing_config(rules=(RuleConfig(Rule.PCR5), RuleConfig(Rule.TCN, TNorm.BOUNDED, TConorm.MAX))):
    """The bounded t-norm vanishes at run 0, scan 2."""
    frame = default_frame()
    return MonteCarloConfig(
        scenario=Scenario(frame, (("Cargo", 3),)),
        confusion=uniform_diagonal_confusion(frame, 0.5),
        rules=tuple(rules),
        runs=3,
        master_seed=9,
    )


def tie_config(m, criterion):
    """A 0.5 diagonal, which no bounded t-norm survives: about one lane in
    ten decides between tied scores."""
    frame = make_frame(["L%d" % i for i in range(m)])
    return MonteCarloConfig(
        scenario=Scenario(frame, (("L0", 3), ("L%d" % (m - 1), 4), ("L0", 3))),
        confusion=uniform_diagonal_confusion(frame, 0.5),
        rules=tuple(rule for rule in ALL_RULES if rule.fusion[0] is not TNorm.BOUNDED),
        runs=40,
        master_seed=5,
        criterion=criterion,
    )


def tiny_diagonal_config():
    """Diagonals of 5e-324, 1e-310 and 1e-305: a ratio's den there is a t-conorm
    of the observation mass c, so any floor raised onto c above them shows."""
    frame = make_frame(["L0", "L1", "L2"])
    return MonteCarloConfig(
        scenario=Scenario(frame, (("L0", 3), ("L2", 3))),
        confusion=ConfusionMatrix(frame, ((5e-324, 0.5, 0.5), (0.5, 1e-310, 0.5), (0.25, 0.75, 1e-305))),
        # every rule with a t-conorm, whose ratios read c, but the bounded
        # t-norm ones, which vanish here
        rules=tuple(rule for rule in ALL_RULES if rule.fusion[1] is not None and rule.fusion[0] is not TNorm.BOUNDED),
        runs=40,
        master_seed=3,
    )


#: ALL_RULES with the four product t-norm rules between the others: no two
#: neighbours share a t-norm, so every t-norm slice holds one rule.
PRODUCT_RULES = [rule for rule in ALL_RULES if rule.fusion[0] is TNorm.PRODUCT]
OTHER_RULES = [rule for rule in ALL_RULES if rule.fusion[0] is not TNorm.PRODUCT]
ALTERNATING_TNORMS = [rule for pair in zip(PRODUCT_RULES, OTHER_RULES) for rule in pair]

#: ALL_RULES in the reverse of the order the engine gives a slab's rule axis.
REVERSED_RANKS = sorted(ALL_RULES, key=lambda rule: [engine._RANK[kind] for kind in rule.fusion[1::-1]],
                        reverse=True)

#: Two bounded t-norm rules, which both vanish at run 0, scan 2 of
#: vanishing_config, in either config order; the engine's rank order puts
#: tcn(bounded, sum) first.
BOUNDED_MAX, BOUNDED_SUM = (RuleConfig(Rule.TCN, TNorm.BOUNDED, tconorm) for tconorm in (TConorm.MAX, TConorm.SUM))


@settings(max_examples=60, deadline=None)
@given(cfg=simulation_configs())
@example(cfg=largest_frame_config())
@example(cfg=replace(largest_frame_config(), criterion=DecisionCriterion.MAX_PIGNISTIC))
@example(cfg=slice_edge_config([RuleConfig(Rule.DEMPSTER)]))  # no t-conorm slice
@example(cfg=slice_edge_config([RuleConfig(Rule.PCR5)]))  # no normalized rule
@example(cfg=slice_edge_config(ALTERNATING_TNORMS))
@example(cfg=slice_edge_config(sorted(ALL_RULES, key=lambda rule: rule.fusion[0].value)))  # a slice per kind
@example(cfg=slice_edge_config(REVERSED_RANKS))
@example(cfg=vanishing_config((BOUNDED_MAX, RuleConfig(Rule.PCR5), BOUNDED_SUM)))
@example(cfg=vanishing_config((BOUNDED_SUM, RuleConfig(Rule.PCR5), BOUNDED_MAX)))
@example(cfg=tie_config(2, DecisionCriterion.MAX_BELIEF))
@example(cfg=tie_config(2, DecisionCriterion.MAX_PIGNISTIC))
@example(cfg=tie_config(3, DecisionCriterion.MAX_BELIEF))
@example(cfg=tie_config(3, DecisionCriterion.MAX_PIGNISTIC))
@example(cfg=tiny_diagonal_config())
def test_batch_engine_matches_scalar_loop_bit_for_bit(cfg):
    assert outcome(run_monte_carlo, cfg) == outcome(seed_montecarlo.run_monte_carlo, cfg)


@st.composite
def decision_stores(draw):
    """A ``(scans, M + 1, rules, runs)`` store from few values, so exact ties
    and -0.0 against +0.0 are common, and truth labels that are first, in the
    middle and last."""
    m = draw(st.sampled_from([2, 3, 10]))
    shape = (draw(st.integers(1, 4)), m + 1, draw(st.integers(1, 3)), draw(st.integers(1, 5)))
    values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0 / 3]) | st.floats(0.0, 1.0)
    store = np.array(draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    truth = draw(st.lists(st.sampled_from([0, m // 2, m - 1]) | st.integers(0, m - 1),
                          min_size=shape[0], max_size=shape[0]))
    return store, np.array(truth)


@settings(max_examples=300, deadline=None)
@given(store_truth=decision_stores(), criterion=st.sampled_from(DecisionCriterion), strided=st.booleans())
@example(store_truth=(np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0]).reshape(2, 3, 1, 1), np.array([1, 1])),
         criterion=DecisionCriterion.MAX_BELIEF, strided=False)  # a signed zero is no maximum of its own
@example(store_truth=(np.array([0.5, 0.5, 0.0, 0.5, 0.5, 0.0]).reshape(2, 3, 1, 1), np.array([1, 0])),
         criterion=DecisionCriterion.MAX_PIGNISTIC, strided=False)  # the first of two tied maxima
def test_plane_decisions_are_argmax_first_maximum(store_truth, criterion, strided):
    store, truth = store_truth
    if strided:  # as the engine's block, a slice of a wider run axis
        store = np.concatenate([store, store], axis=3)[..., 1:]
    m = store.shape[1] - 1
    scores = store[:, :m]
    if criterion is DecisionCriterion.MAX_PIGNISTIC:
        scores = scores + store[:, m:] / m
    expected = scores.argmax(axis=1) == truth[:, None, None]
    assert engine._decided_right(scores, truth).tolist() == expected.tolist()


def test_largest_frame_csv_has_a_column_per_subset():
    cfg = largest_frame_config()
    header = "".join(traces_csv_blocks(cfg, run_monte_carlo(cfg))).split("\n")[1].split(",")
    assert sum(name.startswith("m_") for name in header) == 65535


def test_engine_memory_does_not_grow_with_the_subsets():
    # 16 labels have 65 535 subsets, but a trace keeps 17 columns: dense
    # (rules, scans, 2^M - 1) means alone would take 21 MB here
    frame = make_frame(["L%d" % i for i in range(MAX_FRAME_SIZE)])
    cfg = MonteCarloConfig(scenario=Scenario(frame, (("L0", 10), ("L15", 10))),
                           confusion=uniform_diagonal_confusion(frame, 0.7),
                           rules=(RuleConfig(Rule.DEMPSTER), RuleConfig(Rule.PCR5)), runs=32, master_seed=16)
    tracemalloc.start()
    try:
        traces = run_monte_carlo(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert [trace.masses.shape for trace in traces] == [(20, 17)] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_memory_does_not_grow_with_the_runs(monkeypatch, workers):
    # every 32-run block is its own slab, so partial sums kept until the end
    # would add one block's (scans, M + 2, rules) sums, 11.5 KB here, per 32
    # runs: 1.4 MB more at 4096 runs than at 256; and a pool handed every slab
    # at once holds a future and a work item per slab, about 1.3 KB each: the
    # peak rose 0.22 MB. With a bounded window it moved 0.01-0.03 MB.
    monkeypatch.setattr(engine, "_SLAB_BYTES", 1)
    frame = make_frame(["L%d" % i for i in range(MAX_FRAME_SIZE)])
    cfg = MonteCarloConfig(scenario=Scenario(frame, (("L0", 5), ("L15", 5))),
                           confusion=uniform_diagonal_confusion(frame, 0.7), rules=tuple(ALL_RULES), runs=256,
                           master_seed=16)
    run_monte_carlo(cfg, workers=workers)  # untraced: a process's first pool sets up state once
    peaks = []
    for runs in (256, 4096):
        tracemalloc.start()
        try:
            run_monte_carlo(replace(cfg, runs=runs), workers=workers)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] < 1.25e6, runs
    assert peaks[1] < peaks[0] + 0.1e6, peaks


def test_a_scan_makes_one_call_per_operator_kind_and_two_sums(monkeypatch):
    # the default rules in the engine's rank order are dempster, pcr5,
    # tcn(product, sum), tcn(min, sum), tcn(min, max), tcn(bounded, max): per
    # scan one t-norm call on each of three slices (product, min, bounded),
    # one t-conorm call on each of two (sum, max), and two exact sums
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name, table in (("tnorm", engine.TNORM_ARRAYS), ("tconorm", engine.TCONORM_ARRAYS)):
        for kind, fn in list(table.items()):
            monkeypatch.setitem(table, kind, counted(name, fn))
    monkeypatch.setattr(engine, "_exact_sum", counted("exact_sum", engine._exact_sum))
    engine._run_block(default_config(runs=8), 0, 8)
    assert calls == {"tnorm": 300, "tconorm": 200, "exact_sum": 200}


def test_slab_memory_stays_near_its_posterior_store():
    # a 576-run default slab stores 100 x 3 x 6 x 576 doubles, 7.9 MiB, and
    # peaked at 11.1-11.5 MiB; a (scans, rules, runs) index array would add 2.6 MiB
    store = 8 * 100 * 3 * 6 * 576
    tracemalloc.start()
    try:
        engine._run_block(default_config(runs=576), 0, 576)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * store


def test_engine_sums_as_arrays_match_the_scalar_loop_and_the_pin(monkeypatch, tmp_path):
    # the two gates above, unedited, with every engine sum on the array path
    monkeypatch.setattr(engine, "_EXACT_SUM_MIN_ROWS", 1)
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

#: With 3 terms per row (b = 2) and 1.0 the largest (e = 1), a row's sum is
#: exact when its smallest nonzero term is at least 2**(e + 2b - 54) = 2**-49.
#: The first row sums to a tie, 1 + 33 * 2**-53; the second, whose smallest
#: term is one ulp below that threshold, to just under it.
AT_THE_EXACT_THRESHOLD = [(1.0, 2.0**-49, 2.0**-49 + 2.0**-53), (1.0, 2.0**-49 - 2.0**-102, 2.0**-49 + 2.0**-53)]

#: The certified clause's bound B = 2**(e + 3b - 106) at its edge. In units of
#: u = 2**(e + b - 106), each low part p is at most U = 2**53 u, and the i-th
#: partial sum of the p (numpy adds the rows of a (k, n) array in order) is
#: below (i + 1) U, so it rounds by at most 1, 2, 2, 4 (x4), 8 (x8) u. The p
#: sum's error d is then at most 9u at k = 5 and 61u at k = 13, under
#: B / 4 = 16u and 64u: no row there tells B from B / 4. At k = 7, |d| <= 17u,
#: but a row B / 4 certifies has a gap of at least 64u, and |d| > 16u needs
#: |P| >= 4U, so r and half the gap are multiples of 8u: gap / 2 - |r|, which
#: |d| must reach for a wrong result, is never in (16u, 17u]. This k = 15 row
#: (the declared singleton at M = 12) has e = 1: u = 2**-101, U = 2**-48. Each
#: partial sum of its low parts is a tie that rounds down, by half its spacing,
#: and the last falls u / 16 short of one: d = 73u - u / 16, with
#: r = gap / 2 - 72u, so B / 4 would certify res, the double below fsum's,
#: where B = 256u sends the row to fsum.
WORST_LOW_PART_ERROR = (1.5 + 15 * 2.0**-52, *(2.0**-48 - c * 2.0**-101 for c in (3, 2, 6, 12, 12, 12, 12)),
                        2.0**-52 + 88 * 2.0**-101, *[2.0**-98] * 5, -(2.0**-53 + 1089 * 2.0**-105))

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
@given(rows=sum_rows(), n=st.sampled_from([1, 48, -1, 0, 1000]))
@example(rows=[(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, -0.0), (0.4, 0.5, 0.1), (1.0, 5e-324, 0.0)],
         n=48)  # the stock normalizer, 48 lanes of M + 1 = 3 masses
@example(rows=[(0.0,) * 5, (-0.0,) * 5, (-0.0, 0.0, -0.0, 0.0, -0.0), (0.045, 0.0, 0.05, 0.45, 0.45),
               (0.05, 0.05, 0.0, 0.9, 2.0**-60)], n=48)  # the stock declared singleton, 48 lanes of M + 3 terms
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
@example(rows=AT_THE_EXACT_THRESHOLD, n=0)
@example(rows=[(-(1.0 - 2.0**-53), -0.6184052532980496, -0.900637232603198)], n=0)  # q sum near -k 2**e, still exact
@example(rows=[(1.0, 2.0**-53, 2.0**-110), (1.0, 2.0**-53, -(2.0**-110)), (1.0, -(2.0**-54), -(2.0**-110)),
               (-1.0, 2.0**-54, 2.0**-110), (1.0, -(2.0**-56), 2.0**-110), (1.0, 2.0**-54, 2.0**-110)], n=0)  # res = +-1
@example(rows=[(1.0 + 2.0**-52, 2.0**-53, -(2.0**-110)), (0.5, 2.0**-54, 2.0**-110)], n=0)  # ties that one term breaks
@example(rows=[(1.0, 0.5, 0.25), (1e-200, 3e-201, 7e-215), (2.0**-40, 3 * 2.0**-45, 2.0**-48),
               (2.0**-60, 2.0**-61, 2.0**-113)], n=0)  # rows far below the array's largest term
@example(rows=[(5e-324, 1e-323, 2.0**-1030), (-5e-324, 2.0**-1023, 2.0**-1023), (2.0**-1022 - 5e-324, 5e-324, 0.0),
               (-0.0, 5e-324, -5e-324)], n=0)  # subnormal only
@example(rows=[(1.0, 2.0**-53), (1.0 + 2.0**-52, 2.0**-53), (0.5, -(2.0**-55)), (-(2.0**-1074), 2.0**-1074)],
         n=0)  # two terms
@example(rows=[(1.0, *[2.0**-57] * 16, s * 2.0**-110, 0.0) for s in (1, -1, 0)] + [(0.0,) * (MAX_FRAME_SIZE + 3)],
         n=0)  # the widest engine sum
@example(rows=[WORST_LOW_PART_ERROR], n=0)
def test_exact_sum_is_fsum_of_each_row(rows, n):
    # n rows cycled from the drawn ones: 1, the stock lane count, just under
    # the width cut, at it, and far above; as given, and as the engine's
    # transposed planes
    n = {-1: engine._EXACT_SUM_MIN_ROWS - 1, 0: engine._EXACT_SUM_MIN_ROWS}.get(n, n)
    rows = [rows[i % len(rows)] for i in range(n)]
    expected = fsum_outcome(lambda a: [math.fsum(row) for row in a.tolist()], rows)
    assert fsum_outcome(engine._exact_sum, rows) == expected
    assert fsum_outcome(lambda a: engine._exact_sum(np.ascontiguousarray(a.T).T), rows) == expected


def test_exact_sum_certifies_ties_when_the_error_sum_is_exact(monkeypatch):
    # no tie row reaches fsum: every error the trees leave is exact
    calls = []
    monkeypatch.setattr(engine, "fsum", lambda row: calls.append(row) or math.fsum(row))
    rows = np.array([TIE] * engine._EXACT_SUM_MIN_ROWS)
    assert engine._exact_sum(rows).tolist() == [math.fsum(TIE)] * len(rows)
    assert calls == []
    exact, rounded = sum(map(Fraction, TIE)), Fraction(math.fsum(TIE))
    assert abs(exact - rounded) == Fraction(float(np.spacing(math.fsum(TIE)))) / 2  # a tie


def test_certificate_decides_most_rows_of_the_default_slab(monkeypatch):
    # a certificate that certifies nothing still returns fsum's bits, only slower
    calls = []
    monkeypatch.setattr(engine, "fsum", lambda row: calls.append(row) or math.fsum(row))
    engine._run_block(default_config(runs=576), 0, 576)
    tree_rows = 2 * 100 * 6 * 576  # two sums per scan, each of 3456 rows (over _EXACT_SUM_MIN_ROWS)
    assert len(calls) < 0.1 * tree_rows  # about 6 %


def test_exact_clause_decides_ties_down_to_its_threshold(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "fsum", lambda row: calls.append(row) or math.fsum(row))
    at, below = AT_THE_EXACT_THRESHOLD
    rows = np.array([at] * (engine._EXACT_SUM_MIN_ROWS - 1) + [below])
    assert engine._exact_sum(rows).tolist() == [math.fsum(at)] * (len(rows) - 1) + [math.fsum(below)]
    assert calls == [list(below)]
    exact, rounded = sum(map(Fraction, at)), Fraction(math.fsum(at))
    assert abs(exact - rounded) == Fraction(float(np.spacing(math.fsum(at)))) / 2  # a tie, which no certificate decides


def test_split_decides_most_rows_of_a_three_label_slab(monkeypatch):
    # the config that sent 9.1 % of rows to fsum under the TwoSum trees' certificate
    calls = []
    monkeypatch.setattr(engine, "fsum", lambda row: calls.append(row) or math.fsum(row))
    frame = make_frame(["L0", "L1", "L2"])
    cfg = MonteCarloConfig(scenario=Scenario(frame, (("L0", 30), ("L2", 30), ("L1", 40))),
                           confusion=uniform_diagonal_confusion(frame, 0.7), rules=default_rules(), runs=416,
                           master_seed=DEFAULT_MASTER_SEED)
    engine._run_block(cfg, 0, 416)
    split_rows = 2 * 100 * 6 * 416  # two sums per scan, each of 2496 rows
    assert len(calls) < 0.032 * split_rows  # 2.13 %


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failure_in_a_later_block_is_reported_like_the_scalar_loop(workers):
    cfg = first_failure_in_the_second_slab_config()
    expected = outcome(seed_montecarlo.run_monte_carlo, cfg)
    assert expected[1].startswith("run 38, rule tcn(bounded, max): scan 2: ")
    assert outcome(run_monte_carlo, cfg, workers=workers) == expected


def test_vanishing_tcn_consensus_names_run_rule_and_scan():
    cfg = vanishing_config()
    with pytest.raises(VanishingConsensusError, match=r"^run 0, rule tcn\(bounded, max\): scan 2: "):
        run_monte_carlo(cfg)
    assert outcome(run_monte_carlo, cfg) == outcome(seed_montecarlo.run_monte_carlo, cfg)


def test_lane_that_fails_only_the_output_audit_is_an_internal_error(monkeypatch):
    # no lane reaches its floor, but every posterior fails a negative tolerance;
    # the scalar tracker reads core's own tolerance and accepts run 0
    monkeypatch.setattr(engine, "SUM_TOLERANCE", -1.0)
    with pytest.raises(RuntimeError, match=r"^internal error: the batch engine flagged run 0, rule dempster, "):
        run_monte_carlo(default_config(runs=40))
    flagged = []
    monkeypatch.setattr(engine, "_replay_first_failure", lambda *args: flagged.append(args[3]))
    engine._run_block(default_config(runs=40), 0, 40)
    assert flagged[0].shape == (6, 40) and flagged[0].all()  # every rule and run, in both blocks


#: What the scalar replay raises when every posterior fails a negative tolerance:
#: no mass passes the MassFunction constructor then, not even the replayed
#: track's vacuous prior, which is built before scan 1.
AUDIT_FAILURE = "run 0, rule dempster: masses: mass 1.0 on Fighter|Cargo is not a number in [0, 1]"


def test_lane_that_fails_the_output_audit_raises_the_scalar_error(monkeypatch, tmp_path, capsys):
    # the engine and the scalar tracker both read a negative tolerance
    monkeypatch.setattr(core, "SUM_TOLERANCE", -1.0)
    monkeypatch.setattr(engine, "SUM_TOLERANCE", -1.0)
    with pytest.raises(MassFunctionError, match="^%s$" % re.escape(AUDIT_FAILURE)):
        run_monte_carlo(default_config(runs=40))
    out = tmp_path / "x.csv"
    code = main(["simulate", str(CONFIG_DIR / "default.json"), "--runs", "40", "--threads", "1", "-o", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % AUDIT_FAILURE
    assert not out.exists()


def test_flagged_lane_the_scalar_tracker_accepts_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(engine, "run_track", lambda *args: [])
    with pytest.raises(RuntimeError, match=r"internal error: .* run 0, rule tcn\(bounded, max\)"):
        run_monte_carlo(vanishing_config())


@pytest.mark.parametrize("rule", ALL_RULES, ids=RuleConfig.describe)
def test_every_floor_is_below_the_output_audits_lower_bound(rule):
    # the engine leaves a lane at or below its floor unnormalized, for the audit to fail
    floor = rule.fusion[2]
    assert floor is None or floor < 1.0 - engine.SUM_TOLERANCE


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

def synthetic_trace(scenario, fighter_series, cargo_series):
    """A PCR5 trace of the scenario's truth whose singleton means are given."""
    n = len(fighter_series)
    masses = np.zeros((n, 3))
    masses[:, 0] = fighter_series
    masses[:, 1] = cargo_series
    masses[:, 2] = 1.0 - masses[:, 0] - masses[:, 1]
    return AveragedTrace(
        rule=RuleConfig(Rule.PCR5),
        frame=FC_FRAME,
        truth=scenario.expand(),
        masses=masses,
        correct_rate=np.zeros(n),
    )


def test_readaptation_delay_counts_from_switch_scan():
    scenario = Scenario(FC_FRAME, (("Cargo", 3), ("Fighter", 5)))
    fighter = [0.1, 0.1, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9]
    cargo = [0.8, 0.8, 0.8, 0.7, 0.5, 0.3, 0.1, 0.0]
    delays = readaptation_delays(synthetic_trace(scenario, fighter, cargo), scenario)
    assert len(delays) == 1
    assert delays[0].switch_scan == 4
    assert delays[0].new_type == "Fighter"
    assert delays[0].delay == 3.0  # crossed at scan 6


def test_readaptation_delay_immediate_crossing():
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 2)))
    delays = readaptation_delays(
        synthetic_trace(scenario, [0.1, 0.6, 0.7, 0.8], [0.8, 0.3, 0.2, 0.1]), scenario
    )
    assert delays[0].delay == 1.0


def test_readaptation_delay_never_crossing_is_inf():
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 3)))
    delays = readaptation_delays(
        synthetic_trace(scenario, [0.1] * 5, [0.8] * 5), scenario
    )
    assert delays[0].delay == math.inf


def test_readaptation_delay_is_limited_to_the_new_segment():
    # the crossing after the segment ends must not count
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 2), ("Cargo", 2)))
    fighter = [0.1, 0.1, 0.2, 0.3, 0.9, 0.9]
    cargo = [0.8, 0.8, 0.7, 0.6, 0.05, 0.05]
    delays = readaptation_delays(synthetic_trace(scenario, fighter, cargo), scenario)
    assert delays[0].new_type == "Fighter"
    assert delays[0].delay == math.inf
    # Fighter 2 then Fighter 3 is one run: its switch, at scan 3, has the window 3-7
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 2), ("Fighter", 3), ("Cargo", 2)))
    fighter = [0.1, 0.1, 0.1, 0.2, 0.3, 0.4, 0.6, 0.9, 0.3]
    cargo = [0.8, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.05, 0.6]
    delays = readaptation_delays(synthetic_trace(scenario, fighter, cargo), scenario)
    assert [(d.switch_scan, d.new_type, d.delay) for d in delays] == [(3, "Fighter", 5.0), (8, "Cargo", 2.0)]


@pytest.mark.parametrize("segments", [(("Cargo", 10), ("Fighter", 10)), (("Cargo", 60), ("Fighter", 60))],
                         ids=["20 scans", "120 scans"])
def test_readaptation_delays_reject_a_scenario_of_another_length(segments):
    trace = run_monte_carlo(small_config(runs=1, rules=[RuleConfig(Rule.PCR5)]))[0]
    scenario = Scenario(FC_FRAME, segments)
    with pytest.raises(FrameMismatchError, match=r"^the scenario \(%d scans over \['Fighter', 'Cargo'\]\) "
                       r"is not the trace's \(100 scans over \['Fighter', 'Cargo'\]\)$" % scenario.total_scans):
        readaptation_delays(trace, scenario)


def test_readaptation_delays_reject_a_scenario_over_another_frame():
    trace = synthetic_trace(Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 3))), [0.1] * 5, [0.8] * 5)
    scenario = Scenario(make_frame(["Cargo", "Fighter"]), (("Cargo", 2), ("Fighter", 3)))
    with pytest.raises(FrameMismatchError, match="is not the trace's"):
        readaptation_delays(trace, scenario)


def test_readaptation_delays_reject_another_scenario_of_the_same_length():
    # same frame, same 8 scans, but the truth of another track: its switch is not the trace's
    cfg = replace(small_config(runs=8, rules=[RuleConfig(Rule.PCR5)]),
                  scenario=Scenario(FC_FRAME, (("Cargo", 3), ("Fighter", 5))))
    trace = run_monte_carlo(cfg)[0]
    with pytest.raises(FrameMismatchError, match=r"^the scenario \(8 scans over \['Fighter', 'Cargo'\]\) "
                       r"is not the trace's \(8 scans over \['Fighter', 'Cargo'\]\)$"):
        readaptation_delays(trace, Scenario(FC_FRAME, (("Fighter", 3), ("Cargo", 5))))


def test_readaptation_delay_threshold_parameter():
    scenario = Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 3)))
    trace = synthetic_trace(scenario, [0.1, 0.1, 0.3, 0.45, 0.6], [0.8, 0.8, 0.5, 0.3, 0.2])
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
