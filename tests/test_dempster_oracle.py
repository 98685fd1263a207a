"""Dempster's trajectory against its closed form in the declaration counts.

Dempster's rule is commutative and associative (Shafer 1976), and every
observation is a simple support function: mass c_l, the diagonal entry of the
declared label l, on {l}, and a_l = 1 - c_l on the frame. So a track's
posterior after k scans depends only on the declaration counts
n = (n_1, ..., n_M). Before normalization m(frame) = prod a_l**n_l and
m({l}) = (1 - a_l**n_l) prod_{l' != l} a_l'**n_l'; the rest is conflict.
Dividing both by prod a_l**n_l gives

    m({l}) = (a_l**-n_l - 1) / Z,   m(frame) = 1 / Z,   Z = 1 + sum_l (a_l**-n_l - 1).

The counts at scan k follow from the confusion rows of the truths of scans
1..k: a Poisson-binomial distribution at M = 2, a multinomial-like one over
the (k + 1)(k + 2) / 2 count vectors at M = 3 (5 151 at scan 100), each built
scan by scan. That gives the exact mean and variance of every Dempster mass
column at every scan, from neither the engine, nor the scalar tracker, nor
the random streams. It catches a defect the engine and the scalar reference
would share, which the bitwise differential tests cannot see.

The correct rate's closed form is left out: where the counts tie, the exact
masses tie, and the sequential floating-point ones need not, so it does not
bound the engine's decisions there. Each decision is checked instead: where
the counts differ, the engine must decide as the count majority does.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from evidfuse import (MonteCarloConfig, Rule, RuleConfig, Scenario, engine, make_frame, run_monte_carlo,
                      uniform_diagonal_confusion)
from evidfuse.core import replace
from evidfuse.fileio import load_simulation_config
from evidfuse.montecarlo import DEFAULT_MASTER_SEED

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

#: Bound on |z| for every (scan, column). The test makes 700 comparisons: 100
#: scans x 3 columns on the default config, 100 x 4 on the 3-label one. Under
#: the normal approximation of a mean of N runs, one comparison exceeds 5
#: with probability 2 (1 - Phi(5)) = 5.7e-7, so a correct engine fails this
#: test with probability at most 700 x 5.7e-7 = 4.0e-4 over seeds. The seed
#: is fixed, so the test is deterministic.
Z_BOUND = 5.0

#: Floor on the standard error: a column with (almost) no variance, such as
#: m(frame) = 1 - c at scan 1, is compared up to rounding.
SE_FLOOR = 1e-12


def three_label_config():
    """The 3-label config of ``test_pinned_outputs.three_label_json``, whose CSV
    is pinned: a 0.7-diagonal classifier over segments L0 30, L2 30, L1 40, the
    default rules, 832 runs."""
    frame = make_frame(["L0", "L1", "L2"])
    default = load_simulation_config(str(CONFIG_DIR / "default.json"))
    return MonteCarloConfig(scenario=Scenario(frame, (("L0", 30), ("L2", 30), ("L1", 40))),
                            confusion=uniform_diagonal_confusion(frame, 0.7), rules=default.rules, runs=832,
                            master_seed=DEFAULT_MASTER_SEED)


def count_distributions(cfg):
    """For each scan k, the probabilities ``P[n_0, ..., n_{M-2}]`` of the counts
    of labels 0..M-2 among the declarations of scans 1..k; label M - 1 has the
    rest, k - sum(n). A scan moves each count vector by one declaration, drawn
    from the confusion row of that scan's truth."""
    m = cfg.frame.size
    p = np.zeros((cfg.scenario.total_scans + 1,) * (m - 1))
    p[(0,) * (m - 1)] = 1.0
    for truth in cfg.scenario.expand():
        row = cfg.confusion.rows[cfg.frame.index(truth)]
        new = p * row[m - 1]
        for label in range(m - 1):
            shifted = [slice(None)] * (m - 1)
            shifted[label] = slice(1, None)
            kept = list(shifted)
            kept[label] = slice(None, -1)
            new[tuple(shifted)] += p[tuple(kept)] * row[label]
        p = new
        yield p


def closed_form(cfg):
    """Exact ``(mean, variance)``, each ``(scans, M + 1)`` in the engine's
    column order (the singletons, then the frame), of Dempster's masses."""
    m = cfg.frame.size
    a = [1.0 - cfg.confusion.diagonal(label) for label in cfg.frame.labels]
    means, variances = [], []
    for k, p in enumerate(count_distributions(cfg), start=1):
        counts = list(np.indices(p.shape))
        counts.append(k - sum(counts))  # negative only where p is 0
        support = [a[label] ** -n - 1.0 for label, n in enumerate(counts)]
        z = 1.0 + sum(support)
        columns = [s / z for s in support] + [1.0 / z]
        mean = [float((p * col).sum()) for col in columns]
        means.append(mean)
        variances.append([float((p * (col - e) ** 2).sum()) for col, e in zip(columns, mean)])
    assert len(columns) == m + 1
    return np.array(means), np.array(variances)


@pytest.mark.parametrize("build", [lambda: load_simulation_config(str(CONFIG_DIR / "default.json")),
                                   three_label_config], ids=["default", "three-label"])
def test_engine_dempster_means_match_the_closed_form(build):
    cfg = build()
    (j, dempster), = [(j, rule) for j, rule in enumerate(cfg.rules) if rule.rule is Rule.DEMPSTER]
    got = run_monte_carlo(cfg)[j].masses
    mean, variance = closed_form(cfg)
    assert got.shape == mean.shape == (cfg.scenario.total_scans, cfg.frame.size + 1)
    assert np.allclose(mean.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    z = (got - mean) / np.maximum(np.sqrt(variance / cfg.runs), SE_FLOOR)
    worst = np.unravel_index(np.abs(z).argmax(), z.shape)
    assert math.isfinite(z[worst]) and abs(z[worst]) <= Z_BOUND, (
        "scan %d, column %d: engine %r, exact %r, z = %.2f"
        % (worst[0] + 1, worst[1], got[worst], mean[worst], z[worst]))


def test_engine_dempster_decisions_follow_the_count_majority_where_the_counts_differ(monkeypatch):
    # the declarations do not depend on the rules, so Dempster alone sees the
    # default config's; inline, each block's decisions come in run order
    cfg = replace(load_simulation_config(str(CONFIG_DIR / "default.json")), rules=(RuleConfig(Rule.DEMPSTER),))
    decided_right, kept = engine._decided_right, []

    def keep(scores, truth):
        kept.append(decided_right(scores, truth))
        return kept[-1]

    monkeypatch.setattr(engine, "_decided_right", keep)
    trace, = run_monte_carlo(cfg, workers=1)
    right = np.concatenate(kept, axis=2)[:, 0].T  # (runs, scans)
    assert np.array_equal(right.mean(axis=0), trace.correct_rate)
    truth = np.array([cfg.frame.index(label) for label in cfg.scenario.expand()])
    fighters = np.cumsum(engine._declarations(cfg, truth, 0, cfg.runs) == 0, axis=1)
    cargos = np.arange(1, len(truth) + 1) - fighters
    tied = fighters == cargos
    majority = np.where(fighters > cargos, 0, 1)
    assert right.shape == tied.shape == (10_000, 100)
    assert np.array_equal(right[~tied], (majority == truth)[~tied])
    # an exact tie is decided by rounding, which scores 1 007 of these right
    assert tied.sum() == 3_740 and right[tied].sum() == 1_007
