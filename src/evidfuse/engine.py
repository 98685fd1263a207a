"""Batch simulation engine: the numpy path of :func:`~evidfuse.montecarlo.run_monte_carlo`.

This is the package's only module that needs numpy or a process pool, and
``run_monte_carlo`` imports it on its first call, so the scalar library
(frames, rules, tracker, loaders, ``fuse`` and ``track``) starts without
either. It follows the reproducibility contract of
:mod:`evidfuse.montecarlo`: the block of
:data:`~evidfuse.montecarlo.CHUNK_RUNS` runs fixes every floating-point
grouping.

Slabs. One engine call, :func:`_run_block`, runs a slab: as many whole blocks
as keep its ``(scans, M + 1, rules, runs)`` posterior store within
:data:`_SLAB_BYTES` (8 MiB), worked out from the config as scans x (M + 1) x
rules doubles per run, and at least one block. It returns one array, a
``(scans, M + 2, rules)`` partial per block: the run-order mass sums in planes
``0..M``, the correct-decision counts in plane ``M + 1``. The default config
(100 scans, 6 rules, M = 2) gets 18 blocks, 576 runs, per slab; a 128-run,
20-scan, 10-label config is one slab. A slab draws all its declarations at
once from the closed form of the streams (:func:`run_floats`), with the
inverse CDF of :func:`~evidfuse.montecarlo.sample_decision`, the scalar
reference. :func:`run_slabs` runs the slabs inline, and maps them over a
process pool of at most ``workers`` processes only when there are two or
more slabs: a run count that fits one slab never forks. The pool gets a
window of :data:`_SLABS_PER_WORKER` slabs per process at a time, the next
slab submitted as the oldest is merged, so the main process holds a fixed
number of futures and results however many runs there are. Either way it
adds each block's partial to one running total, in block order, as its slab
arrives. The pool's modules (``concurrent.futures.process`` and
``multiprocessing``) are imported only when a pool starts, so a simulation on
one worker or of one slab never loads them.

Batch engine. A slab tracks every rule on every one of its runs at once, in
``(M + 1, rules, runs)`` arrays: plane ``i < M`` is the singleton of label
``i``, plane ``M`` is the full set. These M + 1 planes are all a track ever
reaches: the prior starts vacuous, an observation's focal sets are the
declared singleton and the full set, a singleton or the full set meets either
of them in a singleton, the full set or the empty set, and PCR5 and TCN send a
conflict back only to the pair's own focal sets. So a scan is one closed-form
update, a fixed sequence of numpy operations on planes. Observation masses are
``(scans, runs)``, broadcast over the rules. One add per scan, of the declared
labels' plane offsets to every lane's place in a plane, gives each (rule, run)
the flat index of its declared singleton ``s`` in an ``(M + 1, rules, runs)``
stack: one ``take`` reads ``T(m_s, c)`` and ``T(m_s, 1 - c)``, one assignment
each zeroes its ratio and writes its sum. Rules differ only in their
description, :attr:`~evidfuse.rules.RuleConfig.fusion`: the t-norm, the
t-conorm (None: conflict is not redistributed) and the normalization floor,
the triple :func:`~evidfuse.rules.combine` runs on. A slab sorts its rule axis
once, stably, by t-conorm (None, sum, max), then t-norm (product, min,
bounded), so each t-conorm, and on the stock rules each t-norm, runs as one
call on one slice (three t-norm and two t-conorm calls per scan), and puts the
partial and the failure flags back in config order. A lane divides by its
total only above its floor: a rule with no floor has floor ``+inf``, as a rule
with no t-conorm divides by ``inf``. Each rule's means keep the partial's
plane order in its :class:`~evidfuse.montecarlo.AveragedTrace`, whose
:attr:`~evidfuse.montecarlo.AveragedTrace.subsets` names the planes in order.

Bitwise contract: the output equals, bit for bit, what the scalar tracker
(:func:`~evidfuse.tracker.run_track` through :func:`~evidfuse.rules.combine`)
gives run by run. The scalar kernel sums the terms of each focal set with
``math.fsum``. With declared singleton ``s`` and observation mass ``c``, a
singleton ``i != s`` gets at most two terms, ``T(m_i, 1 - c)`` and, when
conflict is redistributed, ``m_i * r_i``; there IEEE ``+`` already is the
correctly rounded sum. The full set gets the single term ``T(m_full, 1 - c)``.
The declared singleton gets 3 + (M - 1) terms, and the normalizer sums M + 1
masses. Both lie in place as the contiguous ``(k, n)`` arrays that
:func:`_exact_sum` reads: the posterior, and the first half of the slab's
``(2, M + 3, rules, runs)`` t-norm buffer, ``c * r_i`` (over ``T(m_i, c)``),
``T(m_full, c)``, ``T(m_s, c)``, ``T(m_s, 1 - c)``. It splits every term,
error free, at a power of two above the array's largest term, and returns each
row's ``fsum`` bit for bit where an exact clause or a certificate decides it.
Every other row takes one route, :func:`_fsum_rows`, an ``fsum`` per row: the
rows neither decides (about 6 % on the default config, 2 % on a 3-label one,
none on a 10-label one) and, with no split, every row of an array under
:data:`_EXACT_SUM_MIN_ROWS` rows. A pair the scalar kernel skips (t-norm 0),
or the declared singleton's own ratio, enters as an exact zero, which changes
no sum (the t-conorms read ``max(c, 5e-324)``, so no ratio is 0 / 0). A lane
decides right iff its truth label's score is above every earlier label's and
at least every later one's: ``argmax``'s first maximum, the lowest-index tie
break of :func:`~evidfuse.core.decide` under both criteria.

Degenerate tracks: the scan loop keeps only the arithmetic the next scan
reads, with no per-lane flag or branch. A (rule, run) whose total falls to or
below its floor is not divided and stays unnormalized. Its masses stay
finite: they are nonnegative, and every scan divides them only by a total
above the floor, so they sum to about 1 or to at most the floor.
After the loop, in one pass per block of the store, every stored posterior
gets the output audit, the array form of the check the scalar
:class:`~evidfuse.core.MassFunction` constructor makes (nonnegative, total
within :data:`~evidfuse.core.SUM_TOLERANCE` of 1), its decision and its block's
run-order sum. A block's runs are added, in run order, into one contiguous
``(scans, M + 1, rules)`` array, which is then copied into the partial's mass
planes: added there directly, each add would step over the count plane once
per scan. The audit is the only failure check: every floor is below
``1 - SUM_TOLERANCE``, so an unnormalized lane fails it at the scan where its
total fell, and the flagged set is the one a per-scan audit gives. The lowest
flagged run, then its first flagged rule in config order, is replayed through
the scalar ``run_track``, so the error raised is the scalar one, with its run,
rule and scan context.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from contextlib import ExitStack
from itertools import accumulate, groupby, repeat
from math import frexp, fsum, ldexp

import numpy as np

from .core import SUM_TOLERANCE, DecisionCriterion
from .errors import EvidenceError
from .montecarlo import CHUNK_RUNS, AveragedTrace, MonteCarloConfig
from .operators import TConorm, TNorm
from .rng import _MASK64, _MIX_MULT_1, _MIX_MULT_2, GOLDEN_GAMMA
from .tracker import run_track

#: Bytes of posterior store, ``scans x (M + 1) x rules x runs`` doubles, that one
#: engine call (a slab of whole blocks) may hold. On the 10 000-run default
#: config on one core (x86_64, numpy 2.4), 4 to 8 MiB ran fastest; 2, 16
#: and 32 MiB were slower.
_SLAB_BYTES = 8 << 20

#: Slabs per pool process that :func:`run_slabs` keeps submitted and not yet
#: merged: enough that a process never waits for the next slab while the
#: main process merges, and few enough that the main process holds a fixed
#: number of futures and results whatever the run count.
_SLABS_PER_WORKER = 2

#: Fewest rows that :func:`_exact_sum` sums as arrays. Below about 64 rows of
#: 11 or 13 terms, and about 128 rows of 3 or 5, one ``fsum`` per row is
#: faster, as numpy's per-call overhead dominates (measured on x86_64 with
#: numpy 2.4); 160 leaves a margin.
_EXACT_SUM_MIN_ROWS = 160

#: Bound on every term's magnitude on the array path. A row of fewer than
#: 2**20 such terms overflows neither in the split, whose sigma stays below
#: 2**1021, nor in ``fsum``'s partials (``fsum`` raises OverflowError on an
#: intermediate overflow, even when the sum is finite); inf and NaN fail the
#: test too.
_EXACT_SUM_MAX_TERM = 2.0**1000

# The splitmix64 streams of :mod:`evidfuse.rng` in closed form. Every operand
# is an ``np.uint64``, so the arithmetic wraps modulo 2**64 and no numpy
# promotion rule (which changed between 1.x and 2.x for Python ints) takes
# part; no mask is needed.
_GAMMA_U64 = np.uint64(GOLDEN_GAMMA)
_MULT_1_U64 = np.uint64(_MIX_MULT_1)
_MULT_2_U64 = np.uint64(_MIX_MULT_2)
_U11, _U27, _U30, _U31 = (np.uint64(n) for n in (11, 27, 30, 31))


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U30)) * _MULT_1_U64
    z = (z ^ (z >> _U27)) * _MULT_2_U64
    return z ^ (z >> _U31)


def run_floats(master_seed: int, start: int, stop: int, draws: int) -> np.ndarray:
    """``[r, k]`` is draw ``k + 1`` of ``SplitMix64(derive_run_seed(master_seed,
    start + r)).next_float()``: run i's seed is ``mix64(master_seed + i * GOLDEN_GAMMA)``
    and draw k of a stream seeded s is ``mix64(s + k * GOLDEN_GAMMA)``: two array mixes."""
    offsets = np.arange(start, stop, dtype=np.uint64) * _GAMMA_U64
    seeds = _mix64_array(np.uint64(master_seed & _MASK64) + offsets)
    steps = np.arange(1, draws + 1, dtype=np.uint64) * _GAMMA_U64
    bits = _mix64_array(seeds[:, None] + steps) >> _U11
    return bits.astype(np.float64) * 2.0**-53


def _bounded_product_array(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.maximum(np.subtract(np.add(x, y, out=out), 1.0, out=out), 0.0, out=out)


# Elementwise forms of :data:`~evidfuse.operators.TNORM_FUNCS` and
# :data:`~evidfuse.operators.TCONORM_FUNCS`; each performs the same IEEE
# operations as its scalar entry, so results match bit for bit on finite
# inputs in [0, 1], and writes to the ``out`` array it is given.
TNORM_ARRAYS = {
    TNorm.MIN: np.minimum,
    TNorm.PRODUCT: np.multiply,
    TNorm.BOUNDED: _bounded_product_array,
}

TCONORM_ARRAYS = {
    TConorm.MAX: np.maximum,
    TConorm.SUM: np.add,
}

#: Ranks for a stable sort of a slab's rules by t-conorm, then t-norm; stock rules then use one slice per kind.
_RANK = dict(zip((None, TConorm.SUM, TConorm.MAX, TNorm.PRODUCT, TNorm.MIN, TNorm.BOUNDED), range(6)))


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


def _exact_sum(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, bit for bit.

    One error-free split (ExtractVector, Rump, Ogita & Oishi 2008, section 3).
    Let a row have k terms, every term of the array be below 2**e in
    magnitude, 2**b > k, and sigma = 2**(e + b). A term x then splits exactly
    as x = q + p with q = (x + sigma) - sigma. x + sigma lies in
    [sigma/2, 2 sigma), where doubles are spaced 2**(e + b - 53) or twice
    that, and the subtraction is exact (Sterbenz), so q is x rounded to a
    multiple of 2**(e + b - 53), |q| <= 2**e and |p| <= 2**(e + b - 53); and
    p = x - q is a multiple of ulp(x) no larger than |x|, so a double. Every
    partial sum of the q is a multiple of 2**(e + b - 53) below sigma, which
    is 2**53 such units, in magnitude, so Q = sum(q) is exact in any order.
    With P the computed sum of the p, TwoSum gives Q + P = res + r exactly,
    and the exact row sum is X = res + r + d, where d = sum(p) - P. A row is
    then decided by one of two clauses.

    Exact: every nonzero term is at least 2**(e + 2b - 54). Each p is then a
    multiple of w = 2**(e + 2b - 106), as each q is, and every partial sum of
    the p is below k 2**(e + b - 53) < 2**53 w, so d = 0: res is X correctly
    rounded, and it rounds a tie to even as ``fsum`` does.

    Certified: 2 (|r| + B) < gap, with B = 2**(e + 3b - 106) and
    gap = |res| - nextafter(|res|, 0), the gap below |res|, never more than
    the one above it. (The next double below a positive one has the bit
    pattern one lower; for 0 that pattern reads as NaN.) In any order
    |d| <= gamma(k - 1) sum(|p|) (Higham), and gamma(k - 1) < 2**(b - 53),
    sum(|p|) < k 2**(e + b - 53), so |d| < B; X - res = r + d then lies
    strictly inside half of either gap, and res is X correctly rounded. gap
    is a power of two, computed exactly (Sterbenz), and the left side,
    2 fl(|r| + B), is one rounding of 2 (|r| + B), so by monotone rounding a
    computed pass implies an exact one. A zero res has gap NaN and never
    passes.

    Subnormals: every double is a multiple of 2**-1074, so each "multiple
    of" above holds with its unit raised to 2**-1074 where it is smaller, and
    a sum of such multiples below 2**53 units stays exact. A subnormal gap is
    exact too. B and the exact threshold are powers of two, exact unless
    below 2**-1074, where they are 0: the threshold is then below every
    nonzero term, and when B is, every partial sum of the p is below
    2**-1021, where doubles are spaced 2**-1074, so d = 0. A zero
    result is +0.0, as from ``fsum``: q is +0.0 when x + sigma rounds to
    sigma, an exact cancellation gives +0.0, so neither Q nor res is -0.0.

    One route: the clauses decide rows only on an array of at least
    :data:`_EXACT_SUM_MIN_ROWS` rows (tested first) with no term of magnitude
    :data:`_EXACT_SUM_MAX_TERM` or more, and :func:`_fsum_rows` sums every
    row they leave: all rows of any other array, the undecided ones of this."""
    if len(rows) < _EXACT_SUM_MIN_ROWS or not (top := np.abs(rows).max()) < _EXACT_SUM_MAX_TERM:
        return _fsum_rows(rows)
    terms = np.ascontiguousarray(rows.T)  # (k, n): no copy, as the engine's rows are transposed planes
    b, e = len(terms).bit_length(), frexp(top)[1]
    sigma = ldexp(1.0, e + b)
    q = terms + sigma
    q -= sigma
    res, r = _two_sum(q.sum(axis=0), (terms - q).sum(axis=0))
    gap = np.abs(res)
    gap -= (gap.view(np.int64) - 1).view(np.float64)  # nextafter(gap, 0): the bit pattern one lower
    uncertain = np.flatnonzero(~(2.0 * (np.abs(r) + ldexp(1.0, e + 3 * b - 106)) < gap))
    size = np.abs(terms[:, uncertain])  # the exact clause, on the rows the certificate leaves
    uncertain = uncertain[((size < ldexp(1.0, e + 2 * b - 54)) & (size != 0.0)).any(axis=0)]
    res[uncertain] = _fsum_rows(rows[uncertain])
    return res


def _fsum_rows(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, one call per row: the floor
    of a few dozen rows, where numpy's fixed cost per call would dominate."""
    return np.fromiter(map(fsum, rows.tolist()), float, len(rows))


def _declarations(cfg: MonteCarloConfig, truth: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Label index ``[r, k]`` that :func:`sample_decision` declares at scan
    ``k + 1`` of run ``start + r``, whose true label is ``truth[k]`` (an
    index): the first label whose running row sum (the same sequential adds)
    exceeds the draw, or the last label when none of the first M - 1 does. As
    the sums never decrease, that is the number of the first M - 1 sums at or
    below the draw, counted one label's plane of sums at a time."""
    sums = np.array([list(accumulate(row)) for row in cfg.confusion.rows]).T  # [j, i]: row i's sum through label j
    u = run_floats(cfg.master_seed, start, stop, len(truth))
    runs = np.zeros(u.shape, dtype=np.intp)
    for plane in sums[:-1, truth]:
        runs += plane <= u
    return runs


def _slab_runs(cfg: MonteCarloConfig) -> int:
    """Runs per slab: as many whole blocks as keep a slab's posterior store
    within :data:`_SLAB_BYTES`, and at least one."""
    block_bytes = 8 * CHUNK_RUNS * cfg.scenario.total_scans * len(cfg.rules) * (cfg.frame.size + 1)
    return CHUNK_RUNS * max(1, _SLAB_BYTES // block_bytes)


def _run_block(cfg: MonteCarloConfig, start: int, stop: int) -> np.ndarray:
    """The partial sums ``(blocks, scans, M + 2, rules)`` of the slab of runs
    [start, stop), a row per block in block order: planes ``0..M`` are the
    block's mass sums, each block's runs added in run order, and plane
    ``M + 1`` its correct-decision counts. ``start`` is a block boundary."""
    frame = cfg.frame
    m = frame.size
    truth = np.array([frame.index(label) for label in cfg.scenario.expand()])
    n_scans, n_runs, n_rules = len(truth), stop - start, len(cfg.rules)

    runs = _declarations(cfg, truth, start, stop)
    c = np.array([cfg.confusion.diagonal(label) for label in frame.labels])[runs.T]  # (scans, runs)
    obs = np.stack((c, 1.0 - c), axis=1)[:, :, None, None]  # (scans, 2, 1, 1, runs): mass on s, on the full set
    # the t-conorms read max(c, 5e-324), so no den is 0 and no ratio 0 / 0:
    # where c > 0 that is c itself, and where c = 0 every T(m_i, 0) is a zero,
    # which any den > 0 keeps, so the pair still enters no sum
    c_den = np.maximum(c, 5e-324)

    # the rule axis in rank order, undone on the outputs
    order = sorted(range(n_rules), key=lambda j: [_RANK[kind] for kind in cfg.rules[j].fusion[1::-1]])
    tnorms, tconorms, floors = zip(*(cfg.rules[j].fusion for j in order))
    # a rule with no floor is never divided: its floor is +inf
    floors = np.array([np.inf if floor is None else floor for floor in floors]).repeat(n_runs)  # (lanes,)

    # buf[0] is the declared singleton's M + 3 terms: c * ratio (written over
    # T(m_i, c) once the ratio is taken), T(m_full, c), T(m_s, c), T(m_s, 1 - c)
    buf = np.empty((2, m + 3, n_rules, n_runs))
    t = buf[:, :m + 1]  # focal pairs with s (t[0]) and the full set (t[1])
    flat_t = t.reshape(2, -1)  # a view: each half of t is contiguous
    term_rows = buf[0].reshape(m + 3, -1).T  # (lanes, M + 3)
    # a rule with no t-conorm keeps its conflict: dividing by inf leaves its ratio 0
    den = np.full((m, n_rules, n_runs), np.inf)
    ratio = np.empty((m, n_rules, n_runs))
    flat_ratio = ratio.reshape(-1)
    share = np.zeros((m + 1, n_rules, n_runs))  # prior * ratio, and +0.0 on the full set
    masses = np.empty((n_scans, m + 1, n_rules, n_runs))  # every posterior at every scan
    planes = masses.reshape(n_scans, m + 1, -1)  # a scan's (M + 1, lanes) view
    rows = planes.transpose(0, 2, 1)  # a scan's (lanes, M + 1) view
    flat = masses.reshape(n_scans, -1)
    prior = np.broadcast_to(np.eye(m + 1)[m][:, None, None], (m + 1, n_rules, n_runs)).copy()  # vacuous
    offsets = runs.T * (n_rules * n_runs)  # (scans, runs): where the declared singleton's plane starts
    lanes = np.arange(n_rules * n_runs).reshape(n_rules, n_runs)
    declared = np.empty_like(lanes)  # each lane's declared singleton, a flat index into an (M + 1, rules, runs) stack
    flat_declared = declared.reshape(-1)
    tnorm_calls = [(op, prior[:, rules], t[:, :, rules]) for op, rules in _slices(TNORM_ARRAYS, tnorms)]
    tconorm_calls = [(op, prior[:m, rules], den[:, rules]) for op, rules in _slices(TCONORM_ARRAYS, tconorms)]
    for obs_k, c_k, c_den_k, offset, post, post_planes, post_flat, post_rows in zip(
            obs, c, c_den, offsets, masses, planes, flat, rows):
        for op, x, out in tnorm_calls:
            op(x, obs_k, out=out)
        for op, x, out in tconorm_calls:
            op(x, c_den_k, out=out)
        np.add(offset, lanes, out=declared)
        flat_t.take(declared, axis=1, out=buf[0, m + 1:], mode="clip")  # T(m_s, c), T(m_s, 1 - c); in range
        np.divide(t[0, :m], den, out=ratio)
        flat_ratio[declared] = 0.0  # the declared singleton's own pair is no conflict
        np.multiply(prior[:m], ratio, out=share[:m])
        np.add(t[1], share, out=post)
        np.multiply(c_k, ratio, out=buf[0, :m])
        post_flat[flat_declared] = _exact_sum(term_rows)
        totals = _exact_sum(post_rows)
        # a lane at or below its floor stays unnormalized, for the output audit to fail
        np.divide(post_planes, totals, out=post_planes, where=totals > floors)
        prior[...] = post

    failed = np.empty((n_rules, n_runs), dtype=bool)
    partial = np.zeros((-(-n_runs // CHUNK_RUNS), n_scans, m + 2, n_rules))
    for b, sums in zip(range(0, n_runs, CHUNK_RUNS), partial):  # the output audit, the decisions and the sums
        block = masses[..., b:b + CHUNK_RUNS]
        sound = (block >= 0.0).all(axis=1) & (np.abs(block.sum(axis=1) - 1.0) <= SUM_TOLERANCE)
        failed[:, b:b + CHUNK_RUNS] = ~sound.all(axis=0)
        scores = block[:, :m]
        if cfg.criterion is DecisionCriterion.MAX_PIGNISTIC:
            scores = scores + block[:, m:] / m
        _decided_right(scores, truth).sum(axis=2, dtype=float, out=sums[:, m + 1])
        run_sums = np.zeros((n_scans, m + 1, n_rules))  # contiguous: one inner loop per add, not one per scan
        for r in range(block.shape[3]):  # run order, as the scalar loop
            run_sums += block[..., r]
        sums[:, :m + 1] = run_sums
    if failed.any():
        _replay_first_failure(cfg, runs, start, failed[np.argsort(order)])
    return partial[..., np.argsort(order)]


def _decided_right(scores: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """``scores.argmax(axis=1) == truth[:, None, None]`` for ``(scans, M,
    rules, runs)`` scores with no NaN, as plane operations that copy no
    strided block: the truth label's score is above every earlier label's and
    at least every later one's."""
    own = scores[np.arange(len(truth)), truth]
    label = np.arange(scores.shape[1])[:, None, None]
    earlier, later = (np.maximum.reduce(scores, axis=1, where=op(label, truth[:, None, None, None]), initial=-np.inf)
                      for op in (np.less, np.greater))
    return (own > earlier) & (own >= later)


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


def _window_map(pool, window: int, fn: Callable, *iterables: Iterable) -> Iterator:
    """``pool.map(fn, *iterables)`` on the executor ``pool``, submitting a
    call only while fewer than ``window`` results are still to be yielded, so
    the caller holds at most ``window`` futures however many calls there are.
    Results come in call order; a call that raises, or closing the iterator
    early, cancels the calls not yet started."""
    pending = deque()
    try:
        for args in zip(*iterables):
            pending.append(pool.submit(fn, *args))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_slabs(cfg: MonteCarloConfig, workers: int) -> list[AveragedTrace]:
    """The averaged traces of :func:`~evidfuse.montecarlo.run_monte_carlo`:
    the slabs inline, or over a pool of at most ``workers`` processes when
    there are two or more, with at most :data:`_SLABS_PER_WORKER` slabs per
    process submitted and not yet merged; each block is added to one running
    total, in block order, as its slab arrives."""
    step = _slab_runs(cfg)
    starts = range(0, cfg.runs, step)
    stops = [min(start + step, cfg.runs) for start in starts]
    truth = cfg.scenario.expand()
    m = cfg.frame.size
    total = np.zeros((len(truth), m + 2, len(cfg.rules)))
    with ExitStack() as stack:
        if workers > 1 and len(starts) > 1:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(workers, len(starts))
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            slabs = _window_map(pool, _SLABS_PER_WORKER * workers, _run_block, repeat(cfg), starts, stops)
        else:
            slabs = map(_run_block, repeat(cfg), starts, stops)
        for slab in slabs:
            for block in slab:  # block order: the merge is worker-count invariant
                total += block
    means = total / cfg.runs  # each rule's masses keep the engine's planes
    return [AveragedTrace(rule_cfg, cfg.frame, truth, means[:, :m + 1, j], means[:, m + 1, j])
            for j, rule_cfg in enumerate(cfg.rules)]
