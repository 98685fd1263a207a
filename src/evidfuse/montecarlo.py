"""Monte-Carlo comparison of fusion rules on a switching target-type scenario.

A scenario fixes the true type per scan. Each run draws one declaration per
scan from the classifier's confusion matrix (shared across every rule in the
run, so the rules see identical measurements), tracks the type with every
configured rule, and the per-scan masses and decision hit rates are averaged
over all runs.

Reproducibility contract: run ``i`` owns a private splitmix64 stream seeded
by :func:`~evidfuse.rng.derive_run_seed`, runs are accumulated in blocks of
:data:`CHUNK_RUNS` consecutive runs, each block's sums are added in run
order, and the block sums are merged in block order. The block, not the unit
of compute, fixes every floating-point grouping, so the result is
bit-identical however the blocks are computed and on how many processes.

This module holds the model: the scenario, the config, the averaged trace,
the scalar sampler and the re-adaptation delays. :func:`run_monte_carlo`
hands the runs to the batch engine, :mod:`evidfuse.engine`, which it imports
on its first call, so numpy loads only when a simulation runs, and the
process pool only when one starts; the engine's docstring states how runs are
cut into slabs and the bitwise contract with the scalar tracker.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import DecisionCriterion, Frame, Value, _coerce_subset, _is_integer
from .errors import ConfigError, FrameError, FrameMismatchError
from .rng import SplitMix64
from .rules import Rule, RuleConfig
from .tracker import ConfusionMatrix, uniform_diagonal_confusion
from .operators import TConorm, TNorm

#: Runs per accumulation block; fixed so results do not depend on worker count.
CHUNK_RUNS = 32


class Scenario(Value):
    """Ground truth as (type label, duration in scans) segments. Messages lead
    with the field they name, ``segments[i]``, so loaders pass them on."""

    frame: Frame
    segments: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.frame, Frame):
            raise FrameError("frame: expected a Frame, got %r" % (self.frame,))
        if not isinstance(self.segments, Iterable):
            raise FrameError("segments: expected a sequence of (label, duration) pairs, got %r"
                             % (self.segments,))
        segments = tuple(self.segments)
        if not segments:
            raise FrameError("segments: scenario needs at least one segment")
        for i, segment in enumerate(segments):
            if not isinstance(segment, (tuple, list)) or len(segment) != 2:
                raise FrameError("segments[%d]: expected a (label, duration) pair, got %r" % (i, segment))
            label, duration = segment
            try:
                self.frame.index(label)
            except FrameError as exc:
                raise FrameError("segments[%d]: %s" % (i, exc)) from None
            if not _is_integer(duration) or duration < 1:
                raise FrameError("segments[%d]: duration must be a positive integer, got %r" % (i, duration))
        object.__setattr__(self, "segments", tuple(map(tuple, segments)))

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
        """(1-based scan, new type) of each switch, in scan order. A switch is a
        scan whose true type differs from the type of the scan before it, so the
        first scan is none, and consecutive segments of one type are one run."""
        truth = self.expand()
        return [(scan, label) for scan, (before, label) in enumerate(zip(truth, truth[1:]), 2) if label != before]


class MonteCarloConfig(Value):
    """Everything a simulation needs; identical configs give identical output."""

    scenario: Scenario
    confusion: ConfusionMatrix
    rules: tuple[RuleConfig, ...]
    runs: int
    master_seed: int
    criterion: DecisionCriterion = DecisionCriterion.MAX_BELIEF

    def __post_init__(self) -> None:
        if not isinstance(self.rules, Iterable):
            raise ConfigError("rules must be a sequence of RuleConfig, got %r" % (self.rules,))
        object.__setattr__(self, "rules", tuple(self.rules))
        for name, kind in (("scenario", Scenario), ("confusion", ConfusionMatrix),
                           ("criterion", DecisionCriterion)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError("%s must be a %s, got %r" % (name, kind.__name__, value))
        if self.confusion.frame != self.scenario.frame:
            raise FrameMismatchError("scenario and confusion matrix use different frames")
        if not _is_integer(self.runs) or self.runs < 1:
            raise ConfigError("runs must be a positive integer, got %r" % (self.runs,))
        if not _is_integer(self.master_seed):
            raise ConfigError("master_seed must be an integer, got %r" % (self.master_seed,))
        if not self.rules:
            raise ConfigError("at least one rule configuration is required")
        for i, rule_cfg in enumerate(self.rules):
            if not isinstance(rule_cfg, RuleConfig):
                raise ConfigError("rules[%d]: expected a RuleConfig, got %r" % (i, rule_cfg))
            first = self.rules.index(rule_cfg)
            if first < i:
                raise ConfigError("rules[%d]: rule %s is listed twice, first as rules[%d]"
                                  % (i, rule_cfg.describe(), first))

    @property
    def frame(self) -> Frame:
        return self.scenario.frame


class AveragedTrace(Value):
    """Per-scan masses and decision hit rate of one rule, averaged over runs.

    ``masses`` is ``(scans, M + 1)``, a row per scan of ``truth``, a column per subset
    of :attr:`subsets`; no other subset is reached. ``mean_masses`` builds the dense
    means on each read, column ``bits - 1`` per subset. ``truth`` is kept as a tuple,
    and every label of it is in ``frame``.
    """

    rule: RuleConfig
    frame: Frame
    truth: tuple[str, ...]
    masses: np.ndarray
    correct_rate: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        if not isinstance(self.rule, RuleConfig):
            raise ConfigError("rule: expected a RuleConfig, got %r" % (self.rule,))
        if not isinstance(self.frame, Frame):
            raise FrameError("frame: expected a Frame, got %r" % (self.frame,))
        if isinstance(self.truth, str) or not isinstance(self.truth, Iterable):
            raise FrameError("truth: expected a sequence of labels, got %r" % (self.truth,))
        truth = tuple(self.truth)
        object.__setattr__(self, "truth", truth)
        want = (len(truth), self.frame.size + 1), (len(truth),)
        if (np.shape(self.masses), np.shape(self.correct_rate)) != want:
            raise FrameError("masses and correct_rate must have shapes %s and %s, got %s and %s"
                             % (*want, np.shape(self.masses), np.shape(self.correct_rate)))
        try:
            known = self.frame._positions.keys() >= set(truth)
        except TypeError:  # an unhashable label
            known = False
        if not known:  # name the first unknown label
            for k, label in enumerate(truth):
                try:
                    self.frame.index(label)
                except FrameError as exc:
                    raise FrameError("truth[%d]: %s" % (k, exc)) from None

    @property
    def subsets(self) -> list[int]:
        """The subset of each column of ``masses``, as bitmasks: each label's
        singleton in frame order, then the full set."""
        return [1 << i for i in range(self.frame.size)] + [self.frame.full_set]

    @property
    def mean_masses(self) -> np.ndarray:
        import numpy as np

        dense = np.zeros((len(self.truth), self.frame.full_set))
        dense[:, [bits - 1 for bits in self.subsets]] = self.masses
        return dense

    def mass(self, scan: int, key: object) -> float:
        """Mean mass of a focal set at a 1-based scan index, an ``int``."""
        if not _is_integer(scan) or not 1 <= scan <= len(self.masses):
            raise FrameError("scan %r is outside 1..%d" % (scan, len(self.masses)))
        bits = _coerce_subset(self.frame, key)
        if bits == 0:
            raise FrameError("the empty set carries no mass")
        subsets = self.subsets
        return float(self.masses[scan - 1, subsets.index(bits)]) if bits in subsets else 0.0

    def singleton_series(self, label: str) -> np.ndarray:
        """Mean mass of one singleton across all scans."""
        return self.masses[:, self.frame.index(label)]


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


def run_monte_carlo(cfg: MonteCarloConfig, workers: int = 1) -> list[AveragedTrace]:
    """Run the full simulation and average the traces.

    ``workers`` is a positive ``int``; above 1 it distributes slabs over a
    process pool when there are two or more. The output is bit-identical for
    any worker count (see module docstring).
    """
    if not _is_integer(workers) or workers < 1:
        raise ConfigError("workers must be a positive integer, got %r" % (workers,))
    from .engine import run_slabs

    return run_slabs(cfg, workers)


class ReadaptationDelay(Value):
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
    """Re-adaptation delay of one rule at every truth switch of the trace's own scenario."""
    truth = scenario.expand()
    if scenario.frame != trace.frame or truth != trace.truth:
        raise FrameMismatchError("the scenario (%d scans over %s) is not the trace's (%d scans over %s)" % (
            len(truth), list(scenario.frame.labels), len(trace.truth), list(trace.frame.labels)))
    delays = []
    switches = scenario.switches()
    # a switch's window ends where the next switch starts, or after the last scan
    ends = [scan for scan, _ in switches[1:]] + [len(truth) + 1]
    for (switch_scan, new_type), end in zip(switches, ends):
        series = trace.singleton_series(new_type)
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
    return uniform_diagonal_confusion(default_frame(), diagonal)


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
