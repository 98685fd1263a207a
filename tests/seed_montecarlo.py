"""The Monte-Carlo block loop exactly as it was before the batch engine.

A verbatim copy of the original per-run ``_run_block`` (one ``run_track``
call per run and rule, dense accumulators over every nonempty subset) and
of the serial merge in ``run_monte_carlo``. The differential tests in
``test_montecarlo.py`` compare the package's batch engine against these bit
for bit, so the engine is checked against the original behaviour and not
against itself.
"""

from __future__ import annotations

import numpy as np

from evidfuse import EvidenceError, SplitMix64, derive_run_seed, run_track, sample_decision
from evidfuse.montecarlo import CHUNK_RUNS, AveragedTrace, MonteCarloConfig

from conftest import trace_from_dense


def _run_block(cfg: MonteCarloConfig, start: int, stop: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Accumulate mass sums and correct-decision counts for runs [start, stop)."""
    truth = cfg.scenario.expand()
    n_scans = len(truth)
    n_subsets = cfg.frame.full_set
    sums = [
        (np.zeros((n_scans, n_subsets)), np.zeros(n_scans))
        for _ in cfg.rules
    ]
    for run_index in range(start, stop):
        rng = SplitMix64(derive_run_seed(cfg.master_seed, run_index))
        declarations = [sample_decision(t, cfg.confusion, rng) for t in truth]
        for j, rule_cfg in enumerate(cfg.rules):
            try:
                records = run_track(declarations, cfg.confusion, rule_cfg, cfg.criterion)
            except EvidenceError as exc:
                raise type(exc)(
                    "run %d, rule %s: %s" % (run_index, rule_cfg.describe(), exc)
                ) from exc
            mass_sum, correct = sums[j]
            for k, record in enumerate(records):
                row = mass_sum[k]
                for bits, value in record.posterior.masses.items():
                    row[bits - 1] += value
                if record.decision == truth[k]:
                    correct[k] += 1.0
    return sums


def run_monte_carlo(cfg: MonteCarloConfig) -> list[AveragedTrace]:
    """The original serial path: blocks in order, merged in block order."""
    bounds = [(start, min(start + CHUNK_RUNS, cfg.runs)) for start in range(0, cfg.runs, CHUNK_RUNS)]
    partials = [_run_block(cfg, start, stop) for start, stop in bounds]

    truth = cfg.scenario.expand()
    n_scans = len(truth)
    n_subsets = cfg.frame.full_set
    traces = []
    for j, rule_cfg in enumerate(cfg.rules):
        mass_total = np.zeros((n_scans, n_subsets))
        correct_total = np.zeros(n_scans)
        for partial in partials:  # block order: merge is worker-count invariant
            mass_total += partial[j][0]
            correct_total += partial[j][1]
        traces.append(
            trace_from_dense(
                rule=rule_cfg,
                frame=cfg.frame,
                truth=truth,
                dense=mass_total / cfg.runs,
                rate=correct_total / cfg.runs,
            )
        )
    return traces
