"""The benchmark's three workloads: seeded inputs, the timed call, output checks.

Why these three (see also BENCHMARK.json):

* ``stock`` is the paper's experiment, ``configs/default.json`` through
  ``evidfuse simulate`` on one worker. Per-fusion overhead dominates it, so
  it shows any change to rules, core, tracker, rng or sampling.
* ``wide-frame`` is a generated 10-label frame on all cores. Posteriors stay
  sparse but every rule keeps dense ``scans x 1023`` accumulators and the CSV
  has 1023 mass columns, which puts the weight on Monte-Carlo accumulation,
  block merging, pool IPC and CSV writing. It is the only workload that
  starts the process pool.
* ``dense-fuse`` fuses dense bbas (every nonempty subset focal) over
  M = 3..6 through the public ``combine``. It runs the general quadratic
  focal-pair loop that ``simulate`` never reaches, because observations have
  only two focal sets.

Inputs are generated from the workload seed with the package's own
``SplitMix64``; the amount of work per call does not depend on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from math import floor, fsum, log10
from time import perf_counter_ns

import evidfuse
from evidfuse import cli
from evidfuse.rng import SplitMix64

import reference
from setup_probe import load_pairs

#: The stock rule set in simulation-config spelling, with its metric tags.
RULES = (
    {"rule": "dempster"},
    {"rule": "pcr5"},
    {"rule": "tcn", "tnorm": "bounded", "tconorm": "max"},
    {"rule": "tcn", "tnorm": "min", "tconorm": "max"},
    {"rule": "tcn", "tnorm": "min", "tconorm": "sum"},
    {"rule": "tcn", "tnorm": "product", "tconorm": "sum"},
)
TAGS = tuple("_".join(r.values()) for r in RULES)

#: Tolerance of the package's acceptance tests; mass-sum tolerance of the package.
TOL = 1e-12
SUM_TOLERANCE = evidfuse.SUM_TOLERANCE

DEGENERATE = (evidfuse.TotalConflictError, evidfuse.VanishingConsensusError)


def rule_tag(cfg: evidfuse.RuleConfig) -> str:
    if cfg.tnorm is None:
        return cfg.rule.value
    return "tcn_%s_%s" % (cfg.tnorm.value, cfg.tconorm.value)


def rule_config(rule: dict) -> evidfuse.RuleConfig:
    if rule["rule"] == "tcn":
        return evidfuse.RuleConfig(
            evidfuse.Rule.TCN, evidfuse.TNorm(rule["tnorm"]), evidfuse.TConorm(rule["tconorm"]))
    return evidfuse.RuleConfig(evidfuse.Rule(rule["rule"]))


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _write_json(path: str, data: object) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return path


def master_seed(seed: int) -> int:
    return SplitMix64(seed).next_uint64() >> 1  # a non-negative 63-bit int


# ---------------------------------------------------------------------------
# simulate workloads (stock, wide-frame)
# ---------------------------------------------------------------------------

def _print_unit(value: float) -> float:
    """Value of one unit in the last of the 12 significant digits the CSV prints."""
    return 10.0 ** (floor(log10(value)) - 11) if value > 0.0 else 0.0


def _first_crossing(series: list[float], start: int, end: int) -> float:
    """Scans from a switch at 1-based ``start`` until the mean mass exceeds
    0.5, within scans [start, end); inf if it never does."""
    for scan in range(start, end):
        if series[scan - 1] > 0.5:
            return float(scan - start + 1)
    return float("inf")


class Simulate:
    """A ``cli.main(["simulate", ...])`` call on a fixed config file."""

    kind = "simulate"

    def __init__(self, config_path: str, runs: int, workers: int, trace_runs: int,
                 out_path: str, override_seed: int | None, check_ordering: bool) -> None:
        self.config_path = config_path
        self.runs = runs
        self.workers = workers
        self.trace_runs = trace_runs
        self.out_path = out_path
        self.override_seed = override_seed
        self.check_ordering = check_ordering
        with open(config_path, encoding="utf-8") as handle:
            self.config = json.load(handle)
        self.n_rules = len(self.config["rules"])
        self.n_scans = sum(duration for _, duration in self.config["segments"])
        self._first: bytes | None = None

    def fusions(self, runs: int) -> int:
        return runs * self.n_rules * self.n_scans

    def argv(self, runs: int, workers: int) -> list[str]:
        argv = ["simulate", self.config_path, "--runs", str(runs), "--threads", str(workers),
                "-o", self.out_path]
        if self.override_seed is not None:
            argv += ["--seed", str(self.override_seed)]
        return argv

    def call(self, runs: int, workers: int, main=cli.main) -> int:
        """The timed call; returns the CLI exit code."""
        return main(self.argv(runs, workers))

    def verify(self, rc: int) -> list[str]:
        """Cheap check of the call just made: its output must repeat the
        first call's byte for byte. The first output is kept for check()."""
        if rc != 0:
            return ["simulate exited with code %d" % rc]
        with open(self.out_path, "rb") as handle:
            data = handle.read()
        if self._first is None:
            self._first = data
            return []
        return [] if data == self._first else ["output differs from the first call"]

    def check(self) -> list[str]:
        """Full checks of the first call's CSV."""
        if self._first is None:
            return ["no output to check"]
        text = self._first.decode("utf-8")
        failures: list[str] = []
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# columns:"):
            return ["CSV lacks the leading column-mapping comment"]
        rows = list(csv.reader(lines[1:]))
        n_masses = (1 << len(self.config["frame"])) - 1
        header = rows[0] if rows else []
        if (header[:5] != ["rule", "tnorm", "tconorm", "scan", "true_type"]
                or header[-1:] != ["correct_rate"] or len(header) != 6 + n_masses):
            return ["unexpected CSV header"]
        body = rows[1:]
        if len(body) != self.n_rules * self.n_scans:
            return ["CSV has %d rows, expected %d" % (len(body), self.n_rules * self.n_scans)]
        by_tag: dict[str, list[list[float]]] = {}
        for row in body:
            if len(row) != len(header):
                failures.append("ragged CSV row")
                continue
            masses = [float(x) for x in row[5:-1]]
            if min(masses) < 0.0 or abs(fsum(masses) - 1.0) > SUM_TOLERANCE:
                failures.append("%s scan %s: masses sum to %r" % (row[0], row[3], fsum(masses)))
            rate = float(row[-1])
            if not 0.0 <= rate <= 1.0:
                failures.append("%s scan %s: correct_rate %r" % (row[0], row[3], rate))
            tag = "_".join(x for x in row[:3] if x)
            by_tag.setdefault(tag, []).append(masses)
        pcr5, tcn = by_tag.get("pcr5"), by_tag.get("tcn_product_sum")
        if pcr5 is None or tcn is None or len(pcr5) != len(tcn):
            failures.append("missing pcr5 or tcn_product_sum rows")
        else:
            for a_row, b_row in zip(pcr5, tcn):
                for a, b in zip(a_row, b_row):
                    if abs(a - b) > TOL + _print_unit(max(a, b)):
                        failures.append("tcn_product_sum differs from pcr5: %r vs %r" % (b, a))
                        break
        if self.check_ordering and not failures:
            failures += self._check_ordering(header, by_tag)
        return failures

    def _check_ordering(self, header: list[str], by_tag: dict) -> list[str]:
        """The paper's result: PCR5 re-acquires Fighter within three scans of
        every switch, and Dempster's first Fighter delay is at least three
        times PCR5's."""
        column = header.index("m_Fighter") - 5
        switches, scan, previous = [], 1, None
        for label, duration in self.config["segments"]:
            if previous is not None and label != previous and label == "Fighter":
                switches.append((scan, scan + duration))
            previous = label
            scan += duration
        delays = {}
        for tag in ("pcr5", "dempster"):
            series = [row[column] for row in by_tag[tag]]
            delays[tag] = [_first_crossing(series, start, end) for start, end in switches]
        failures = []
        if not switches or any(d > 3.0 for d in delays["pcr5"]):
            failures.append("pcr5 Fighter delays %r exceed 3 scans" % (delays["pcr5"],))
        elif delays["dempster"][0] < 3.0 * delays["pcr5"][0]:
            failures.append("dempster first Fighter delay %r < 3 x pcr5's %r"
                            % (delays["dempster"][0], delays["pcr5"][0]))
        return failures

    def setup_args(self) -> list[str]:
        return ["config", self.config_path]


def stock(root: str, work: str, seed: int) -> tuple[Simulate, dict]:
    """configs/default.json with runs and master seed overridden. Calls are
    short (8 runs) so that some of them fall in the host's fast periods."""
    config = os.path.join(root, "configs", "default.json")
    ms = master_seed(seed)
    workload = Simulate(
        config, runs=8, workers=1, trace_runs=8, out_path=os.path.join(work, "stock.csv"),
        override_seed=ms, check_ordering=True)
    return workload, {"inputs": {"configs/default.json": sha256_file(config)},
                      "master_seed": ms}


def wide_frame(root: str, work: str, seed: int, smoke: bool, nproc: int) -> tuple[Simulate, dict]:
    """A 10-label frame, 0.7-diagonal confusion, five 4-scan segments cycling
    through four seeded labels, all six stock rules. Scans are few so that a
    call is short and a run holds many calls."""
    rng = SplitMix64(seed)
    labels = ["T%d" % i for i in range(10)]
    frame = evidfuse.make_frame(labels)
    confusion = evidfuse.uniform_diagonal_confusion(frame, 0.7)
    pool = list(labels)
    cycle = []
    for _ in range(4):
        cycle.append(pool.pop(int(rng.next_float() * len(pool))))
    runs = 128  # four 32-run blocks, two per worker on two CPUs
    config = {
        "frame": labels,
        "confusion": [list(row) for row in confusion.rows],
        "segments": [[cycle[i % len(cycle)], 4] for i in range(5)],
        "runs": runs,
        "master_seed": master_seed(seed),
        "rules": list(RULES),
        "criterion": "belief",
    }
    path = _write_json(os.path.join(work, "wide-frame.json"), config)
    workload = Simulate(
        path, runs=runs, workers=nproc, trace_runs=8 if smoke else 32,
        out_path=os.path.join(work, "wide-frame.csv"), override_seed=None,
        check_ordering=False)
    return workload, {"inputs": {"wide-frame.json": sha256_file(path)},
                      "master_seed": config["master_seed"]}


# ---------------------------------------------------------------------------
# dense-fuse
# ---------------------------------------------------------------------------

DENSE_FRAME_SIZES = (3, 4, 5, 6)


def _dense_bba(rng: SplitMix64, labels: list[str], dominant: bool) -> dict:
    """Mass-function file entry with every nonempty subset focal; a dominant
    focal set, when asked for, takes about two thirds of the mass."""
    n = (1 << len(labels)) - 1
    weights = [rng.next_float() + 1.0 / 1024 for _ in range(n)]
    if dominant:
        weights[int(rng.next_float() * n)] += 2.0 * fsum(weights)
    total = fsum(weights)
    return {
        "frame": labels,
        "masses": {"|".join(l for i, l in enumerate(labels) if (b + 1) >> i & 1): w / total
                   for b, w in enumerate(weights)},
    }


class DenseFuse:
    """Every generated pair through ``evidfuse.combine`` under every stock rule."""

    kind = "fuse"

    def __init__(self, path: str) -> None:
        self.path = path
        self.pairs = load_pairs(path)
        self.rules = [(rule, rule_config(rule)) for rule in RULES]
        self.fusions_per_pass = len(self.pairs) * len(self.rules)
        self._first: list | None = None
        self._reference = self._reference_outcomes()
        self.reference_degenerate = sum(out is None for out in self._reference)

    def _reference_outcomes(self) -> list:
        return [reference.combine(rule, a.masses, b.masses)
                for a, b in self.pairs for rule, _ in self.rules]

    def call(self, latencies: list[int] | None, combine=evidfuse.combine) -> list:
        """One pass; outputs are mass dicts, None (degenerate) or an error string.
        Per-call latency in ns is appended to ``latencies`` when given."""
        outputs = []
        append = outputs.append
        for a, b in self.pairs:
            for _, cfg in self.rules:
                start = perf_counter_ns()
                try:
                    out = combine(cfg, a, b).masses
                except DEGENERATE:
                    out = None
                except Exception as exc:  # counted as a failed fusion
                    out = "%s: %s" % (type(exc).__name__, exc)
                end = perf_counter_ns()
                if latencies is not None:
                    latencies.append(end - start)
                append(out)
        return outputs

    def verify(self, outputs: list) -> list[str]:
        """Failed fusions of one pass: each must repeat the first pass, which
        is kept for check()."""
        if self._first is None:
            self._first = outputs
            return []
        return ["fusion %d differs from the first pass" % i
                for i, (a, b) in enumerate(zip(outputs, self._first)) if a != b]

    def check(self) -> list[str]:
        """Failed fusions of the first pass: each must match the reference
        and be bitwise commutative."""
        if self._first is None:
            return ["no output to check"]
        failures = []
        swapped = self.call(None, lambda cfg, a, b: evidfuse.combine(cfg, b, a))
        for i, (out, rev, ref) in enumerate(zip(self._first, swapped, self._reference)):
            if isinstance(out, str):
                failures.append("fusion %d raised %s" % (i, out))
            elif (out is None) != (rev is None) or (out is not None and out != rev):
                failures.append("fusion %d is not commutative" % i)
            elif (out is None) != (ref is None):
                failures.append("fusion %d verdict differs from the reference" % i)
            elif out is not None and max_deviation(out, ref) > TOL:
                failures.append("fusion %d deviates from the reference by %.3g"
                                % (i, max_deviation(out, ref)))
        return failures

    def setup_args(self) -> list[str]:
        return ["pairs", self.path]


def max_deviation(a: dict[int, float], b: dict[int, float]) -> float:
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def dense_fuse(root: str, work: str, seed: int, smoke: bool) -> tuple[DenseFuse, dict]:
    rng = SplitMix64(seed)
    per_size = 2 if smoke else 8
    pairs = []
    for m in DENSE_FRAME_SIZES:
        labels = ["D%d" % i for i in range(m)]
        for i in range(per_size):
            pairs.append([_dense_bba(rng, labels, i % 2 == 0), _dense_bba(rng, labels, i % 4 < 2)])
    path = _write_json(os.path.join(work, "dense-fuse.json"), {"pairs": pairs})
    workload = DenseFuse(path)
    return workload, {"inputs": {"dense-fuse.json": sha256_file(path)},
                      "pairs_per_frame_size": per_size,
                      "reference_degenerate": workload.reference_degenerate}


# ---------------------------------------------------------------------------
# isolated layer probes (traced runs only)
# ---------------------------------------------------------------------------

SWEEP_FRAME_SIZES = (2, 3, 4, 8)


def sweep_inputs(seed: int, m: int, count: int) -> list[tuple]:
    """Simulate-shaped pairs: a seeded posterior on the singletons plus
    total ignorance (0.5 on one singleton, 0.2 on ignorance, the rest spread
    by seeded weights) fused with a two-focal observation bba."""
    rng = SplitMix64(seed * 31 + m)
    labels = ["S%d" % i for i in range(m)]
    frame = evidfuse.make_frame(labels)
    confusion = evidfuse.uniform_diagonal_confusion(frame, 0.9)
    pairs = []
    for i in range(count):
        dominant = int(rng.next_float() * m)
        weights = [rng.next_float() + 1.0 / 1024 for _ in range(m - 1)]
        rest = fsum(weights)
        masses = {frame.full_set: 0.2}
        others = [j for j in range(m) if j != dominant]
        for j, w in zip(others, weights):
            masses[1 << j] = 0.3 * w / rest
        masses[1 << dominant] = 0.5
        posterior = evidfuse.make_bba(frame, masses)
        declared = labels[dominant] if i % 2 == 0 else labels[others[0]]
        pairs.append((posterior, evidfuse.observation_bba(declared, confusion)))
    return pairs
