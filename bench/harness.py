"""Measurement, tracing glue, provenance and reporting for ``run.py``."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from math import ceil
from time import perf_counter

import numpy

import evidfuse
import reference
import tracing
import workloads
from evidfuse import cli, montecarlo, rules, tracker
from evidfuse.rng import SplitMix64

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
NOTE = ("The benchmark cannot pin CPUs or drop caches; on a shared machine every time "
        "is the best (one process) or the median (process pool) of repeated calls in one "
        "run, and runs are repeated across seeds.")

# On a shared host a call runs either at full speed or up to ~1.9x slower
# while other tenants load the machine, and the share of slow calls changes
# from run to run. A call in one process is timed as the best of the calls in
# a run: over 30 s runs of 8-run stock calls on a 2-vCPU x86_64 VM the median
# call moved by 38% (quartile spread across 4 runs) and the fastest by 7%.
# A call that also keeps a process pool busy is fast only when every CPU is
# fast at once, which is rare: over six 30 s runs of 128-run wide-frame calls
# on two workers the fastest call moved by 21% and the median call by 3%.
# Such calls are timed by the median. The other statistic is printed too,
# as wall_s_p50 or wall_s_best.

#: Fresh interpreters timed for setup_s.
SETUP_PROBES = 15

#: peak_rss_mb is read after this many timed calls, not at the end of the
#: run: the heap grows a little with every wide-frame call, and the number of
#: calls in a run depends on the host's speed.
RSS_CALLS = 10

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "runs_per_s": "runs/s",
    "fusions_per_s": "fusions/s",
    "fusion_us_p50": "us",
    "fusion_us_p99": "us",
    "fusion_samples": "count",
    "peak_rss_mb": "MB",
    "wall_s_p50": "s",
    "wall_s_best": "s",
    "timed_calls": "count",
    "failed_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name == "trace_overhead_pct":
        return "%"
    if name == "rng.draws_per_s":
        return "1/s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def setup_probe(workload) -> float:
    """Time a fresh interpreter importing evidfuse and loading the inputs."""
    argv = [sys.executable, "-I", os.path.join(BENCH_DIR, "setup_probe.py"), SRC]
    proc = subprocess.run(argv + workload.setup_args(), capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, count: int, failures: list[str]) -> None:
        self.attempted += count
        self.failed += min(count, len(failures))
        self.messages.extend(failures[: max(0, 20 - len(self.messages))])


def guarded(fn, *args, **kwargs):
    """Run one operation; an unexpected exception becomes a failure message."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the benchmark keeps going and counts it
        return None, "%s: %s" % (type(exc).__name__, exc)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def run_untraced(workload, seconds: float, smoke: bool) -> tuple[dict, Tally]:
    tally = Tally()
    walls: list[float] = []
    cpus: list[float] = []
    latencies: list[int] = []
    simulate = workload.kind == "simulate"
    per_op = 1 if simulate else workload.fusions_per_pass  # operations per call

    def once(timed: bool) -> list[str]:
        c0, t0 = cpu_now(), perf_counter()
        if simulate:
            result, error = guarded(workload.call, workload.runs, workload.workers)
        else:
            result, error = guarded(workload.call, latencies if timed else None)
        t1, c1 = perf_counter(), cpu_now()
        if timed:
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
        return [error] if error is not None else workload.verify(result)

    warm_failures = once(timed=False)  # its output is checked in full at the end
    setup_probe(workload)  # warm-up: writes the byte-code caches
    setups: list[float] = []
    probes = 1 if smoke else SETUP_PROBES
    rss = None
    start = perf_counter()
    while len(walls) < 3 or len(setups) < probes or perf_counter() - start < seconds:
        tally.add(per_op, once(timed=True))
        if len(walls) == RSS_CALLS:
            rss = peak_rss_mb()
        # spread the set-up probes over the run, between timed calls
        if len(setups) < probes * (perf_counter() - start) / seconds:
            setups.append(setup_probe(workload))
    if rss is None:  # fewer calls than RSS_CALLS; still before the output checks allocate
        rss = peak_rss_mb()
    tally.add(per_op, warm_failures or workload.check())

    pooled = simulate and workload.workers > 1
    typical = statistics.median if pooled else min
    wall = typical(walls)
    metrics = {
        "setup_s": min(setups),
        "wall_s": wall,
        "cpu_s": typical(cpus),
        "peak_rss_mb": rss,
    }
    if pooled:
        metrics["wall_s_best"] = min(walls)
    else:
        metrics["wall_s_p50"] = statistics.median(walls)
    metrics["timed_calls"] = len(walls)
    if simulate:
        metrics["runs_per_s"] = workload.runs / wall
        metrics["fusions_per_s"] = workload.fusions(workload.runs) / wall
    else:
        ordered = sorted(latencies)
        metrics["fusions_per_s"] = workload.fusions_per_pass / wall
        metrics["fusion_us_p50"] = percentile(ordered, 0.50) / 1e3
        metrics["fusion_us_p99"] = percentile(ordered, 0.99) / 1e3
        metrics["fusion_samples"] = len(ordered)
    metrics["failed_frac"] = tally.failed / tally.attempted
    return metrics, tally


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _combine_info(args, result):
    cfg, m1, m2 = args
    return workloads.rule_tag(cfg), len(m1.masses) * len(m2.masses)


def _csv_info(args, result):
    return len(result.encode("utf-8")) if isinstance(result, str) else 0


def patch_layers(tracer, simulate: bool) -> None:
    """Wrap each timed name where its caller looks it up."""
    tracer.patch(rules, "conjunctive_consensus", "rules.conjunctive_consensus")
    if simulate:
        tracer.patch(cli, "load_simulation_config", "fileio.load_simulation_config")
        tracer.patch(cli, "run_monte_carlo", "montecarlo.run_monte_carlo")
        tracer.patch(cli, "traces_to_csv", "fileio.traces_to_csv", describe=_csv_info)
        tracer.patch(montecarlo, "sample_decision", "montecarlo.sample_decision")
        tracer.patch(montecarlo, "run_track", "tracker.run_track")
        tracer.patch(tracker, "observation_bba", "tracker.observation_bba")
        tracer.patch(tracker, "combine", "rules.combine", describe=_combine_info,
                     degenerate=workloads.DEGENERATE)
        tracer.patch(tracker, "decide", "core.decide")


def layer_metrics(spans: list, simulate: bool) -> dict:
    s = tracing.SpanSummary(spans)
    calls = s.calls.get("rules.combine", 0)
    tag_ns = dict.fromkeys(workloads.TAGS, 0)
    tag_calls = dict.fromkeys(workloads.TAGS, 0)
    pairs = degenerate = 0
    for name, start, end, _, (outcome, info) in spans:
        if name == "rules.combine":
            tag, n = info
            tag_ns[tag] += end - start
            tag_calls[tag] += 1
            pairs += n
            degenerate += outcome == "degenerate"
    m = {
        "rules.combine.calls": calls,
        "rules.combine.total_s": s.total_s("rules.combine"),
    }
    for tag in workloads.TAGS:
        m["rules.combine.%s.us_per_call" % tag] = (
            tag_ns[tag] / tag_calls[tag] / 1e3 if tag_calls[tag] else 0.0)
    m["rules.focal_pairs"] = pairs
    m["rules.degenerate"] = degenerate
    m["rules.useful_frac"] = (calls - degenerate) / calls if calls else 0.0
    m["rules.conjunctive_consensus.total_s"] = s.total_s("rules.conjunctive_consensus")
    if simulate:
        csv_bytes = sum(info for name, *_, (_, info) in spans if name == "fileio.traces_to_csv")
        csv_s = s.total_s("fileio.traces_to_csv")
        m.update({
            "core.decide.us_per_call": s.us_per_call("core.decide"),
            "tracker.observation_bba.us_per_call": s.us_per_call("tracker.observation_bba"),
            "tracker.run_track.total_s": s.total_s("tracker.run_track"),
            "tracker.self_s": s.self_s("tracker.run_track"),
            "montecarlo.sample_decision.calls": s.calls.get("montecarlo.sample_decision", 0),
            "montecarlo.sample_decision.us_per_call": s.us_per_call("montecarlo.sample_decision"),
            "montecarlo.run_monte_carlo.total_s": s.total_s("montecarlo.run_monte_carlo"),
            "montecarlo.self_s": s.self_s("montecarlo.run_monte_carlo"),
            "fileio.traces_to_csv.total_s": csv_s,
            "fileio.csv_bytes": csv_bytes,
            "fileio.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
            "fileio.load_simulation_config.total_s": s.total_s("fileio.load_simulation_config"),
            "cli.main.total_s": s.total_s("cli.main"),
            "cli.self_s": s.self_s("cli.main"),
        })
    m["_accounted"] = s.accounts()
    return m


def probe_rng(seed: int, smoke: bool) -> float:
    """Draws per second of an isolated SplitMix64.next_float loop."""
    n = 20_000 if smoke else 200_000
    times = []
    for i in range(5):
        draw = SplitMix64(seed + i).next_float
        t0 = perf_counter()
        for _ in range(n):
            draw()
        times.append(perf_counter() - t0)
    return n / min(times)


def probe_frame_sizes(seed: int, smoke: bool, tally: Tally) -> dict:
    """us per combine call on simulate-shaped inputs for M in 2, 3, 4, 8."""
    count, reps, batches = (4, 5, 3) if smoke else (8, 25, 5)
    metrics = {}
    for m in workloads.SWEEP_FRAME_SIZES:
        pairs = workloads.sweep_inputs(seed, m, count)
        for tag, rule in zip(workloads.TAGS, workloads.RULES):
            cfg = workloads.rule_config(rule)
            failures = []
            for post, obs in pairs:
                out, error = guarded(evidfuse.combine, cfg, post, obs)
                ref = reference.combine(rule, post.masses, obs.masses)
                if (error is not None or ref is None
                        or workloads.max_deviation(out.masses, ref) > workloads.TOL):
                    failures.append("sweep m%d %s: %s"
                                    % (m, tag, error or "differs from the reference"))
            tally.add(len(pairs), failures)
            if failures:
                metrics["rules.combine.%s.m%d.us_per_call" % (tag, m)] = 0.0
                continue
            times = []
            for _ in range(batches):
                t0 = perf_counter()
                for _ in range(reps):
                    for post, obs in pairs:
                        evidfuse.combine(cfg, post, obs)
                times.append(perf_counter() - t0)
            metrics["rules.combine.%s.m%d.us_per_call" % (tag, m)] = (
                min(times) / (reps * len(pairs)) * 1e6)
    return metrics


def run_traced(workload, seconds: float, seed: int, smoke: bool,
               spans_path: str) -> tuple[dict, Tally]:
    tally = Tally()
    simulate = workload.kind == "simulate"
    tracer = tracing.Tracer()
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    fastest: dict = {}  # metrics and spans of the fastest traced call
    per_op = 1 if simulate else workload.fusions_per_pass

    def once(traced: bool) -> list[str]:
        if traced:
            patch_layers(tracer, simulate)
        try:
            t0 = perf_counter()
            if simulate:
                main = tracer.wrap(cli.main, "cli.main") if traced else cli.main
                result, error = guarded(workload.call, workload.trace_runs, 1, main=main)
            else:
                combine = evidfuse.combine
                if traced:
                    combine = tracer.wrap(combine, "rules.combine", describe=_combine_info,
                                          degenerate=workloads.DEGENERATE)
                result, error = guarded(workload.call, None, combine=combine)
            wall = perf_counter() - t0
        finally:
            tracer.restore()
        failures = [error] if error is not None else workload.verify(result)
        if traced:
            traced_walls.append(wall)
            metrics = layer_metrics(tracer.spans, simulate)
            if not metrics.pop("_accounted"):
                failures.append("child spans do not account for their parents")
            if not simulate and metrics["rules.degenerate"] != workload.reference_degenerate:
                failures.append("%d degenerate fusions, reference has %d"
                                % (metrics["rules.degenerate"], workload.reference_degenerate))
            if wall == min(traced_walls):
                fastest.update(metrics=metrics, spans=list(tracer.spans))
            tracer.clear()
        else:
            untraced_walls.append(wall)
        return failures

    warm_failures = once(traced=False)  # its output is checked in full below
    untraced_walls.clear()
    deadline = perf_counter() + seconds
    while not traced_walls or perf_counter() < deadline:
        tally.add(per_op, once(traced=True))
        tally.add(per_op, once(traced=False))
    tally.add(per_op, warm_failures or workload.check())

    metrics = fastest["metrics"]
    metrics["trace_overhead_pct"] = (min(traced_walls) / min(untraced_walls) - 1.0) * 100.0
    metrics["rng.draws_per_s"] = probe_rng(seed, smoke)
    metrics.update(probe_frame_sizes(seed, smoke, tally))
    tracer.spans[:] = fastest["spans"]
    tracer.write_csv(spans_path)
    return metrics, tally


# ---------------------------------------------------------------------------
# provenance, report, entry point
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, cwd=ROOT)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def provenance(args, workload, extra: dict, nproc: int) -> dict:
    simulate = workload.kind == "simulate"
    return {
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": nproc,
        "workers": {"untraced": workload.workers if simulate else 1, "traced": 1},
        "runs_per_call": ({"untraced": workload.runs, "traced": workload.trace_runs}
                          if simulate else None),
        "fusions_per_pass": None if simulate else workload.fusions_per_pass,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "evidfuse_version": evidfuse.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "machine": platform.machine(),
        "note": NOTE,
        **extra,
    }


def build_workload(name: str, work: str, seed: int, smoke: bool, nproc: int):
    if name == "stock":
        return workloads.stock(ROOT, work, seed)
    if name == "wide-frame":
        return workloads.wide_frame(ROOT, work, seed, smoke, nproc)
    return workloads.dense_fuse(ROOT, work, seed, smoke)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_one(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, "work-" + args.workload)
    os.makedirs(work, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    workload, extra = build_workload(args.workload, work, args.seed, args.smoke, nproc)

    if args.trace:
        spans_path = os.path.join(OUT, "%s-spans.csv" % args.workload)
        metrics, tally = run_traced(workload, args.seconds, args.seed, args.smoke, spans_path)
        units = {name: layer_unit(name) for name in metrics}
        listed = benchmark_spec()["per_layer"]
    else:
        metrics, tally = run_untraced(workload, args.seconds, args.smoke)
        units = {name: E2E_UNITS[name] for name in metrics}
        listed = benchmark_spec()["end_to_end"]
    if workload.kind == "simulate" and os.path.exists(workload.out_path):
        os.remove(workload.out_path)

    prov = provenance(args, workload, extra, nproc)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print("metric %s %r %s" % (name, value, units[name]))
    for message in tally.messages:
        print("failure " + message)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {},
    }
    for spec in listed:
        name = spec["name"]
        if units.get(name) != spec["unit"]:
            raise SystemExit("metric %s: measured unit %r, BENCHMARK.json says %r"
                             % (name, units.get(name), spec["unit"]))
        result["metrics"][name] = {"value": metrics[name], "unit": spec["unit"]}

    record = dict(result, provenance=prov, failures=tally.messages,
                  all_metrics={n: {"value": v, "unit": units[n]} for n, v in metrics.items()})
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for mode in (0, 1):
            argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(mode)]
            if args.smoke:
                argv.append("--smoke")
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit("%s --trace %d failed" % (name, mode))
            print("== %s --trace %d" % (name, mode))
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(summary))
    return 0
