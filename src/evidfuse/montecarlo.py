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

Slabs. One engine call, :func:`_run_block`, runs a slab: as many whole blocks
as keep its ``(scans, M + 1, rules, runs)`` posterior store within
:data:`_SLAB_BYTES` (8 MiB), worked out from the config as scans x (M + 1) x
rules doubles per run, and at least one block. It returns one partial per
block. The default config (100 scans, 6 rules, M = 2) gets 18 blocks, 576
runs, per slab; a 128-run, 20-scan, 10-label config is one slab. A slab draws
all its declarations at once from the closed form of the streams
(:func:`~evidfuse.rng.run_floats`), with the inverse CDF of
:func:`sample_decision`, the scalar reference. ``run_monte_carlo`` runs the
slabs inline, and maps them over a process pool of at most ``workers``
processes only when there are two or more slabs: a run count that fits one
slab never forks.

Batch engine. A slab tracks every rule on every one of its runs at once, in
``(M + 1, rules, runs)`` arrays: plane ``i < M`` is the singleton of label
``i``, plane ``M`` is the full set. These M + 1 planes are all a track ever
reaches: the prior starts vacuous, an observation's focal sets are the
declared singleton and the full set, a singleton or the full set meets either
of them in a singleton, the full set or the empty set, and PCR5 and TCN send a
conflict back only to the pair's own focal sets. So a scan is one closed-form
update, a fixed sequence of numpy operations on planes. Observation masses are
``(scans, runs)``, broadcast over the rules, and the declarations one one-hot
``(scans, M, 1, runs)`` mask that selects the declared singleton. Rules differ
only in their description, :attr:`~evidfuse.rules.RuleConfig.fusion`: the
t-norm, the t-conorm (None: conflict is not redistributed) and the
normalization floor, the triple :func:`~evidfuse.rules.combine` runs on. Each
t-norm and t-conorm runs on one slice ``rules[a:b]`` per maximal run of
consecutive rules that share it. Every rule is normalized: a rule with no
floor divides by exactly 1.0, as a rule with no t-conorm divides by ``inf``.
Blocks return compact ``(scans, M + 1, rules)`` sums, and each rule's means
keep that plane order in its :class:`AveragedTrace`.

Bitwise contract: the output equals, bit for bit, what the scalar tracker
(:func:`~evidfuse.tracker.run_track` through :func:`~evidfuse.rules.combine`)
gives run by run. The scalar kernel sums the terms of each focal set with
``math.fsum``. With declared singleton ``s`` and observation mass ``c``, a
singleton ``i != s`` gets at most two terms, ``T(m_i, 1 - c)`` and, when
conflict is redistributed, ``m_i * r_i``; there IEEE ``+`` already is the
correctly rounded sum. The full set gets the single term ``T(m_full, 1 - c)``.
The declared singleton gets 3 + (M - 1) terms, and the normalizer of Dempster
and TCN sums M + 1 masses. Both are planes, of a term buffer allocated once
per slab and of the posterior, so they already lie as the ``(k, n)`` arrays
that the TwoSum trees of :func:`_exact_sum` read. It returns each row's
``fsum`` bit for bit from those trees and a certificate, and calls ``fsum``
for the rows it cannot certify (about 6 % on the default config) and for
arrays under :data:`_EXACT_SUM_MIN_ROWS` rows. A pair the scalar kernel skips
(t-norm 0), or the declared singleton's own ratio, enters as an exact zero,
which changes no sum.
``argmax`` (first maximum) reproduces the lowest-index tie break of
:func:`~evidfuse.core.decide` under both criteria.

Degenerate tracks: the scan loop keeps only the arithmetic the next scan
reads, with no per-lane flag or branch. A (rule, run) whose total falls to or
below its floor divides by 1.0 instead and stays unnormalized. Its masses stay
finite: they are nonnegative, and every scan divides them only by a total
above the floor or by 1.0, so they sum to about 1 or to at most the floor.
After the loop, in one pass per block of the store, every stored posterior
gets the scalar output audit (nonnegative, total within
:data:`~evidfuse.core.SUM_TOLERANCE` of 1), its decision and its block's
run-order sum. The audit is the only failure check: every floor is below
``1 - SUM_TOLERANCE``, so an unnormalized lane fails it at the scan where its
total fell, and the flagged set is the one a per-scan audit gives. The lowest
flagged run, then its first flagged rule in config order, is replayed through
the scalar ``run_track``, so the error raised is the scalar one, with its run,
rule and scan context.
"""

from __future__ import annotations

from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, repeat
from math import fsum

import numpy as np

from .core import SUM_TOLERANCE, DecisionCriterion, Frame, _coerce_subset, _is_integer
from .errors import ConfigError, EvidenceError, FrameError, FrameMismatchError
from .rng import SplitMix64, run_floats
from .rules import Rule, RuleConfig
from .tracker import ConfusionMatrix, run_track, uniform_diagonal_confusion
from .operators import TCONORM_ARRAYS, TNORM_ARRAYS, TConorm, TNorm

#: Runs per accumulation block; fixed so results do not depend on worker count.
CHUNK_RUNS = 32

#: Bytes of posterior store, ``scans x (M + 1) x rules x runs`` doubles, that one
#: engine call (a slab of whole blocks) may hold. On the 10 000-run default
#: config on one core (x86_64, numpy 2.4), 4 to 8 MiB ran fastest; 2, 16
#: and 32 MiB were slower.
_SLAB_BYTES = 8 << 20

#: Fewest rows that :func:`_exact_sum` sums as arrays. Below about 128 to 192
#: rows of 3 to 13 terms, one ``fsum`` per row is faster, as numpy's per-call
#: overhead dominates (measured on x86_64 with numpy 2.4); 256 leaves a margin.
_EXACT_SUM_MIN_ROWS = 256

#: Bound on every term's magnitude on the array path. A row of fewer than
#: 2**20 such terms overflows neither in the TwoSum trees nor in ``fsum``'s
#: partials (``fsum`` raises OverflowError on an intermediate overflow, even
#: when the sum is finite); inf and NaN fail the test too.
_EXACT_SUM_MAX_TERM = 2.0**1000


@dataclass(frozen=True)
class Scenario:
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
            if label not in self.frame.labels:
                raise FrameError("segments[%d]: unknown label %r (frame is %s)"
                                 % (i, label, list(self.frame.labels)))
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


@dataclass(frozen=True)
class AveragedTrace:
    """Per-scan masses and decision hit rate of one rule, averaged over runs.

    ``masses`` is ``(scans, M + 1)``, a row per scan of ``truth``: column ``i < M`` is
    the singleton of label ``i``, column ``M`` the full set; no other subset is reached.
    ``mean_masses`` builds the dense means on each read, column ``bits - 1`` per subset.
    """

    rule: RuleConfig
    frame: Frame
    truth: tuple[str, ...]
    masses: np.ndarray
    correct_rate: np.ndarray

    def __post_init__(self) -> None:
        want = (len(self.truth), self.frame.size + 1), (len(self.truth),)
        if (np.shape(self.masses), np.shape(self.correct_rate)) != want:
            raise FrameError("masses and correct_rate must have shapes %s and %s, got %s and %s"
                             % (*want, np.shape(self.masses), np.shape(self.correct_rate)))

    @property
    def mean_masses(self) -> np.ndarray:
        dense = np.zeros((len(self.truth), self.frame.full_set))
        dense[:, [(1 << i) - 1 for i in range(self.frame.size)] + [self.frame.full_set - 1]] = self.masses
        return dense

    def mass(self, scan: int, key: object) -> float:
        """Mean mass of a focal set at a 1-based scan index, an ``int``."""
        if not _is_integer(scan) or not 1 <= scan <= len(self.masses):
            raise FrameError("scan %r is outside 1..%d" % (scan, len(self.masses)))
        bits = _coerce_subset(self.frame, key)
        if bits == 0:
            raise FrameError("the empty set carries no mass")
        reached = [1 << i for i in range(self.frame.size)] + [self.frame.full_set]
        return float(self.masses[scan - 1, reached.index(bits)]) if bits in reached else 0.0

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


def _slices(table: dict, kinds: tuple) -> list[tuple[object, slice]]:
    """``(table[kind], rules)`` for each maximal run ``rules`` of consecutive
    rules that share a kind, skipping the kind None."""
    groups = [(kind, len(list(group))) for kind, group in groupby(kinds)]
    stops = accumulate(n for _, n in groups)
    return [(table[kind], slice(stop - n, stop))
            for (kind, n), stop in zip(groups, stops) if kind is not None]


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: ``s = fl(a + b)`` and its rounding error, ``a + b - s``
    exactly (no overflow)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _tree_sum(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of ``terms`` (k, n) by a pairwise TwoSum tree, and the
    (k - 1, n) rounding errors: the column sum is exactly the result plus the errors'."""
    errors = []
    while len(terms) > 1:
        half = len(terms) // 2
        s, e = _two_sum(terms[:half], terms[half:2 * half])
        errors.append(e)
        terms = np.concatenate((s, terms[2 * half:])) if len(terms) % 2 else s
    return terms[0], np.concatenate(errors) if errors else terms[:0]


def _exact_sum(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, bit for bit.

    With X the exact row sum: a TwoSum tree gives ``X = s + sum(e)``, a second
    tree over the errors ``sum(e) = E + sum(f)``, and a last TwoSum
    ``s + E = res + r``, all exactly (Ogita, Rump & Oishi 2005). When every
    ``f`` is 0, ``res`` is the correctly rounded ``s + E = X`` and rounds ties
    to even as ``fsum`` does. Otherwise ``X - res = r + sum(f)`` with
    ``|sum(f)| <= B = 2 fl(sum(|f|))``, and ``res`` is certified when
    ``2 (|r| + B) < g = fl(|res| 2**-53)``: X then lies strictly inside res's
    rounding interval, as g is at most the gap to either neighbour of res (the
    ufp bound, Rump, Ogita & Oishi 2008). For a normal res in [2**e, 2**(e+1))
    the product lies in [2**(e-53), 2**(e-52)), both gaps are 2**(e-52), and
    at res = 2**e, where the product is 2**(e-53), the lower gap is at least
    that. Rounded in the subnormal range to a multiple of 2**-1074, as every
    gap is, it stays at most the gap. For a subnormal or zero res, g is 0, so
    only rows whose f are all 0 pass. g is a double and the left side one
    rounding of 2 (|r| + B), so by monotone rounding a computed pass implies
    an exact one. A zero result is +0.0, as from ``fsum``: an IEEE sum is
    -0.0 only when every addend is, and no TwoSum error is. Rows that fail go
    through ``fsum`` one by one; arrays with fewer than
    :data:`_EXACT_SUM_MIN_ROWS` rows, or with a term not below
    :data:`_EXACT_SUM_MAX_TERM` in magnitude, go through it whole."""
    if len(rows) < _EXACT_SUM_MIN_ROWS or not np.abs(rows).max() < _EXACT_SUM_MAX_TERM:
        return np.array(list(map(fsum, rows.tolist())))
    s, e = _tree_sum(np.ascontiguousarray(rows.T))
    sum_e, f = _tree_sum(e)
    res, r = _two_sum(s, sum_e)
    bound = 2.0 * np.abs(f).sum(axis=0)
    uncertain = np.flatnonzero((bound != 0.0) & ~(2.0 * (np.abs(r) + bound) < np.abs(res) * 2.0**-53))
    res[uncertain] = list(map(fsum, rows[uncertain].tolist()))
    return res


def _declarations(cfg: MonteCarloConfig, start: int, stop: int) -> np.ndarray:
    """Label index ``[r, k]`` that :func:`sample_decision` declares at scan
    ``k + 1`` of run ``start + r``: the first label whose running row sum (the
    same sequential adds) exceeds the draw, which is the number of sums at or
    below it as they never decrease, or the last label when every sum is."""
    truth = [cfg.frame.index(t) for t in cfg.scenario.expand()]
    cumulative = np.array([list(accumulate(row)) for row in cfg.confusion.rows])[truth]
    u = run_floats(cfg.master_seed, start, stop, len(truth))
    return np.minimum((cumulative <= u[..., None]).sum(axis=2), cfg.frame.size - 1)


def _slab_runs(cfg: MonteCarloConfig) -> int:
    """Runs per slab: as many whole blocks as keep a slab's posterior store
    within :data:`_SLAB_BYTES`, and at least one."""
    block_bytes = 8 * CHUNK_RUNS * cfg.scenario.total_scans * len(cfg.rules) * (cfg.frame.size + 1)
    return CHUNK_RUNS * max(1, _SLAB_BYTES // block_bytes)


def _run_block(cfg: MonteCarloConfig, start: int, stop: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mass sums ``(scans, M + 1, rules)`` and correct-decision counts
    ``(scans, rules)`` of each block of the slab of runs [start, stop), in
    block order; ``start`` is a block boundary, and each block's runs are
    added in run order."""
    frame = cfg.frame
    m = frame.size
    truth = cfg.scenario.expand()
    n_scans, n_runs, n_rules = len(truth), stop - start, len(cfg.rules)

    runs = _declarations(cfg, start, stop)
    declared = runs.T[:, None, None] == np.arange(m)[:, None, None]  # (scans, M, 1, runs): one-hot s
    c = np.array([cfg.confusion.diagonal(label) for label in frame.labels])[runs.T]  # (scans, runs)
    obs = np.stack((c, 1.0 - c), axis=1)[:, :, None, None]  # (scans, 2, 1, 1, runs): mass on s, on the full set

    tnorms, tconorms, floors = zip(*(rule_cfg.fusion for rule_cfg in cfg.rules))
    tnorm_slices = _slices(TNORM_ARRAYS, tnorms)
    tconorm_slices = _slices(TCONORM_ARRAYS, tconorms)
    # a rule with no floor divides by exactly 1.0: its floor is +inf
    floors = np.array([np.inf if floor is None else floor for floor in floors])[:, None]

    truth_index = np.array([frame.index(label) for label in truth])[:, None, None]
    t = np.empty((2, m + 1, n_rules, n_runs))  # focal pairs with s (t[0]) and the full set (t[1])
    # a rule with no t-conorm keeps its conflict: dividing by inf leaves its ratio 0
    den = np.full((m, n_rules, n_runs), np.inf)
    declared_t = np.empty((2, m, n_rules, n_runs))  # t[:, :m] on the declared singleton, +0.0 elsewhere
    terms = np.empty((m + 3, n_rules, n_runs))  # the declared singleton's terms
    masses = np.empty((n_scans, m + 1, n_rules, n_runs))  # every posterior at every scan
    prior = np.broadcast_to(np.eye(m + 1)[m][:, None, None], (m + 1, n_rules, n_runs))  # vacuous
    for k in range(n_scans):
        for tnorm, rules in tnorm_slices:
            tnorm(prior[:, rules], obs[k], out=t[:, :, rules])
        for tconorm, rules in tconorm_slices:
            tconorm(prior[:m, rules], c[k], out=den[:, rules])
        ratio = np.zeros((m, n_rules, n_runs))
        np.divide(t[0, :m], den, out=ratio, where=~declared[k] & (t[0, :m] != 0.0))
        post = masses[k]
        post[...] = t[1]
        post[:m] += prior[:m] * ratio
        np.multiply(c[k], ratio, out=terms[:m])
        terms[m] = t[0, m]
        # T(m_s, c) and T(m_s, 1 - c): the mask zeroes all but one term per lane, exact as every t is finite, >= +0.0
        np.multiply(t[:, :m], declared[k], out=declared_t)
        declared_t.sum(axis=1, out=terms[m + 1:])
        np.copyto(post[:m], _exact_sum(terms.reshape(m + 3, -1).T).reshape(n_rules, n_runs), where=declared[k])
        totals = _exact_sum(post.reshape(m + 1, -1).T).reshape(n_rules, n_runs)
        # A lane at or below its floor stays unnormalized, and the output audit
        # below fails it: every floor is under 1 - SUM_TOLERANCE. It stays
        # finite: it divides only by a total above its floor or by 1.0, so its
        # nonnegative masses sum to about 1 or to at most its floor.
        post /= np.where(totals > floors, totals, 1.0)
        prior = post

    failed = np.empty((n_rules, n_runs), dtype=bool)
    blocks = []
    for b in range(0, n_runs, CHUNK_RUNS):  # the output audit, the decisions and the sums, on every stored posterior
        block = masses[..., b:b + CHUNK_RUNS]
        sound = (block >= 0.0).all(axis=1) & (np.abs(block.sum(axis=1) - 1.0) <= SUM_TOLERANCE)
        failed[:, b:b + CHUNK_RUNS] = ~sound.all(axis=0)
        scores = block[:, :m]
        if cfg.criterion is DecisionCriterion.MAX_PIGNISTIC:
            scores = scores + block[:, m:] / m
        correct = (scores.argmax(axis=1) == truth_index).sum(axis=2, dtype=float)
        mass_sums = np.zeros(block.shape[:3])
        for r in range(block.shape[3]):  # run order, as the scalar loop
            mass_sums += block[..., r]
        blocks.append((mass_sums, correct))
    if failed.any():
        _replay_first_failure(cfg, runs, start, failed)
    return blocks


def _replay_first_failure(cfg: MonteCarloConfig, runs: np.ndarray, start: int, failed: np.ndarray) -> None:
    """Raise the scalar tracker's error for the lowest failed run of a slab,
    first failed rule in config order; ``runs[r]`` are the label indices the
    slab's run ``r`` declares, ``failed`` is ``(rules, runs)``."""
    r, j = np.argwhere(failed.T)[0]
    rule_cfg = cfg.rules[j]
    try:
        run_track([cfg.frame.labels[i] for i in runs[r]], cfg.confusion, rule_cfg, cfg.criterion)
    except EvidenceError as exc:
        raise type(exc)("run %d, rule %s: %s" % (start + r, rule_cfg.describe(), exc)) from exc
    raise RuntimeError(
        "internal error: the batch engine flagged run %d, rule %s, which the scalar tracker accepts"
        % (start + r, rule_cfg.describe())
    )


def run_monte_carlo(cfg: MonteCarloConfig, workers: int = 1) -> list[AveragedTrace]:
    """Run the full simulation and average the traces.

    ``workers`` is a positive ``int``; above 1 it distributes slabs over a
    process pool when there are two or more. The output is bit-identical for
    any worker count (see module docstring).
    """
    if not _is_integer(workers) or workers < 1:
        raise ConfigError("workers must be a positive integer, got %r" % (workers,))
    step = _slab_runs(cfg)
    starts = range(0, cfg.runs, step)
    stops = [min(start + step, cfg.runs) for start in starts]
    if workers > 1 and len(starts) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            slabs = list(pool.map(_run_block, repeat(cfg), starts, stops))
    else:
        slabs = list(map(_run_block, repeat(cfg), starts, stops))

    truth = cfg.scenario.expand()
    mass_total = np.zeros((len(truth), cfg.frame.size + 1, len(cfg.rules)))
    correct_total = np.zeros((len(truth), len(cfg.rules)))
    for mass_sums, correct in chain.from_iterable(slabs):  # block order: merge is worker-count invariant
        mass_total += mass_sums
        correct_total += correct
    means = mass_total / cfg.runs  # (scans, M + 1, rules): each rule's masses keep the engine's planes
    return [AveragedTrace(rule_cfg, cfg.frame, truth, means[..., j], correct_total[:, j] / cfg.runs)
            for j, rule_cfg in enumerate(cfg.rules)]


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
    """Re-adaptation delay of one rule at every truth switch of the trace's own scenario."""
    truth = scenario.expand()
    if scenario.frame != trace.frame or truth != trace.truth:
        raise FrameMismatchError("the scenario (%d scans over %s) is not the trace's (%d scans over %s)" % (
            len(truth), list(scenario.frame.labels), len(trace.truth), list(trace.frame.labels)))
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
