"""Monte-Carlo comparison of fusion rules on a switching target-type scenario.

A scenario fixes the true type per scan. Each run draws one declaration per
scan from the classifier's confusion matrix (shared across every rule in the
run, so the rules see identical measurements), tracks the type with every
configured rule, and the per-scan masses and decision hit rates are averaged
over all runs.

Reproducibility contract: run ``i`` owns a private splitmix64 stream seeded
by :func:`~evidfuse.rng.derive_run_seed`, runs are accumulated in blocks of
:data:`CHUNK_RUNS` consecutive runs, and block partial sums are merged in
block order. The result is bit-identical no matter how many worker processes
computed the blocks.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import DecisionCriterion, Frame, _coerce_subset
from .errors import ConfigError, EvidenceError, FrameError, FrameMismatchError
from .rng import SplitMix64, derive_run_seed
from .rules import Rule, RuleConfig
from .tracker import ConfusionMatrix, run_track
from .operators import TConorm, TNorm

#: Runs per accumulation block; fixed so results do not depend on worker count.
CHUNK_RUNS = 32


@dataclass(frozen=True)
class Scenario:
    """Ground truth as (type label, duration in scans) segments."""

    frame: Frame
    segments: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        segments = tuple((label, int(duration)) for label, duration in self.segments)
        object.__setattr__(self, "segments", segments)
        if not segments:
            raise FrameError("scenario needs at least one segment")
        for label, duration in segments:
            self.frame.index(label)  # raises on unknown labels
            if duration < 1:
                raise FrameError("segment (%r, %d) has zero or negative duration" % (label, duration))

    @property
    def total_scans(self) -> int:
        return sum(duration for _, duration in self.segments)

    def expand(self) -> tuple[str, ...]:
        """True type per scan, in scan order (length = total_scans)."""
        truth: list[str] = []
        for label, duration in self.segments:
            truth.extend([label] * duration)
        return tuple(truth)

    def switches(self) -> list[tuple[int, str]]:
        """(1-based scan of each truth change, new type), first segment excluded."""
        result = []
        scan = 1
        previous = None
        for label, duration in self.segments:
            if previous is not None and label != previous:
                result.append((scan, label))
            previous = label
            scan += duration
        return result


@dataclass(frozen=True)
class MonteCarloConfig:
    """Everything a simulation needs; identical configs give identical output."""

    scenario: Scenario
    confusion: ConfusionMatrix
    rules: tuple[RuleConfig, ...]
    runs: int
    master_seed: int
    criterion: DecisionCriterion = DecisionCriterion.MAX_BELIEF

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.confusion.frame != self.scenario.frame:
            raise FrameMismatchError("scenario and confusion matrix use different frames")
        if int(self.runs) != self.runs or self.runs < 1:
            raise ConfigError("runs must be a positive integer, got %r" % (self.runs,))
        if not self.rules:
            raise ConfigError("at least one rule configuration is required")

    @property
    def frame(self) -> Frame:
        return self.scenario.frame


@dataclass(frozen=True)
class AveragedTrace:
    """Per-scan masses and decision hit rate of one rule, averaged over runs.

    ``mean_masses[k, bits - 1]`` is the mean mass of the nonempty subset
    ``bits`` at scan ``k + 1`` (columns follow canonical bitmask order).
    """

    rule: RuleConfig
    frame: Frame
    truth: tuple[str, ...]
    mean_masses: np.ndarray
    correct_rate: np.ndarray

    def mass(self, scan: int, key: object) -> float:
        """Mean mass of a focal set at a 1-based scan index."""
        if not 1 <= scan <= len(self.truth):
            raise FrameError("scan %r is outside 1..%d" % (scan, len(self.truth)))
        bits = _coerce_subset(self.frame, key)
        if bits == 0:
            raise FrameError("the empty set carries no mass")
        return float(self.mean_masses[scan - 1, bits - 1])

    def singleton_series(self, label: str) -> np.ndarray:
        """Mean mass of one singleton across all scans."""
        return self.mean_masses[:, self.frame.singleton(label) - 1]


def sample_decision(true_type: str, confusion: ConfusionMatrix, rng: SplitMix64) -> str:
    """Draw one classifier declaration given the true type.

    Inverse-CDF over the confusion row, consuming exactly one uniform draw.
    """
    row = confusion.row(true_type)
    u = rng.next_float()
    cumulative = 0.0
    for j, p in enumerate(row):
        cumulative += p
        if u < cumulative:
            return confusion.frame.labels[j]
    return confusion.frame.labels[len(row) - 1]  # guards fp residue in the row sum


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


def run_monte_carlo(cfg: MonteCarloConfig, workers: int = 1) -> list[AveragedTrace]:
    """Run the full simulation and average the traces.

    ``workers`` > 1 distributes run blocks over a process pool; the output is
    bit-identical for any worker count (see module docstring).
    """
    bounds = [(start, min(start + CHUNK_RUNS, cfg.runs)) for start in range(0, cfg.runs, CHUNK_RUNS)]
    if workers > 1 and len(bounds) > 1:
        starts = [b[0] for b in bounds]
        stops = [b[1] for b in bounds]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_block, repeat(cfg), starts, stops))
    else:
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
            AveragedTrace(
                rule=rule_cfg,
                frame=cfg.frame,
                truth=truth,
                mean_masses=mass_total / cfg.runs,
                correct_rate=correct_total / cfg.runs,
            )
        )
    return traces


@dataclass(frozen=True)
class ReadaptationDelay:
    """Scans needed after a truth switch for the mean mass to cross a threshold.

    ``delay`` counts the switch scan itself (1 = crossed immediately) and is
    ``inf`` when the mean mass never crosses within the switched-to segment.
    """

    switch_scan: int
    new_type: str
    delay: float


def readaptation_delays(
    trace: AveragedTrace,
    scenario: Scenario,
    threshold: float = 0.5,
) -> list[ReadaptationDelay]:
    """Re-adaptation delay of one rule at every truth switch of the scenario."""
    truth = scenario.expand()
    delays = []
    for switch_scan, new_type in scenario.switches():
        series = trace.singleton_series(new_type)
        end = switch_scan
        while end <= len(truth) and truth[end - 1] == new_type:
            end += 1
        delay = float("inf")
        for scan in range(switch_scan, end):
            if series[scan - 1] > threshold:
                delay = float(scan - switch_scan + 1)
                break
        delays.append(ReadaptationDelay(switch_scan, new_type, delay))
    return delays


# ---------------------------------------------------------------------------
# Stock configuration: a two-type, 100-scan scenario whose truth alternates
# between Cargo and Fighter under a 0.9-diagonal classifier. The segment
# lengths below are this package's versioned default; every entry point
# accepts overrides.
# ---------------------------------------------------------------------------

DEFAULT_MASTER_SEED = 20061215

DEFAULT_SEGMENTS: tuple[tuple[str, int], ...] = (
    ("Cargo", 30),
    ("Fighter", 20),
    ("Cargo", 20),
    ("Fighter", 15),
    ("Cargo", 15),
)


def default_frame() -> Frame:
    return Frame(("Fighter", "Cargo"))


def default_scenario() -> Scenario:
    return Scenario(default_frame(), DEFAULT_SEGMENTS)


def default_confusion(diagonal: float = 0.9) -> ConfusionMatrix:
    frame = default_frame()
    off = 1.0 - diagonal
    return ConfusionMatrix(frame, ((diagonal, off), (off, diagonal)))


def default_rules() -> tuple[RuleConfig, ...]:
    """The compared rule set: Dempster, PCR5, three TCN variants, plus the
    product/sum TCN pairing that coincides with PCR5 (kept as a cross-check)."""
    return (
        RuleConfig(Rule.DEMPSTER),
        RuleConfig(Rule.PCR5),
        RuleConfig(Rule.TCN, TNorm.BOUNDED, TConorm.MAX),
        RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX),
        RuleConfig(Rule.TCN, TNorm.MIN, TConorm.SUM),
        RuleConfig(Rule.TCN, TNorm.PRODUCT, TConorm.SUM),
    )


def default_config(runs: int = 10000, master_seed: int = DEFAULT_MASTER_SEED) -> MonteCarloConfig:
    return MonteCarloConfig(
        scenario=default_scenario(),
        confusion=default_confusion(),
        rules=default_rules(),
        runs=runs,
        master_seed=master_seed,
    )
