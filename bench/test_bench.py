"""Smoke tests of the benchmark itself: tiny runs of every workload.

    python3 -m pytest bench/test_bench.py -q

Each run must pass its own output checks and print every metric the
benchmark defines, with its unit; the final JSON line must hold exactly the
metrics BENCHMARK.json lists for the mode.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

TAGS = ("dempster", "pcr5", "tcn_bounded_max", "tcn_min_max", "tcn_min_sum", "tcn_product_sum")

E2E = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "fusions_per_s": "fusions/s",
       "peak_rss_mb": "MB", "failed_frac": "ratio"}
E2E_SIMULATE = {"runs_per_s": "runs/s"}
E2E_FUSE = {"fusion_us_p50": "us", "fusion_us_p99": "us", "fusion_samples": "count"}

LAYERS = {
    "rules.combine.calls": "count",
    "rules.combine.total_s": "s",
    "rules.focal_pairs": "count",
    "rules.degenerate": "count",
    "rules.useful_frac": "ratio",
    "rules.conjunctive_consensus.total_s": "s",
    "rng.draws_per_s": "1/s",
    "trace_overhead_pct": "%",
}
LAYERS.update({"rules.combine.%s.us_per_call" % t: "us" for t in TAGS})
LAYERS.update({"rules.combine.%s.m%d.us_per_call" % (t, m): "us"
               for t in TAGS for m in (2, 3, 4, 8)})
LAYERS_SIMULATE = {
    "core.decide.us_per_call": "us",
    "tracker.observation_bba.us_per_call": "us",
    "tracker.run_track.total_s": "s",
    "tracker.self_s": "s",
    "montecarlo.sample_decision.calls": "count",
    "montecarlo.sample_decision.us_per_call": "us",
    "montecarlo.self_s": "s",
    "fileio.traces_to_csv.total_s": "s",
    "fileio.csv_bytes": "B",
    "fileio.csv_mb_per_s": "MB/s",
    "fileio.load_simulation_config.total_s": "s",
    "cli.main.total_s": "s",
}


def run_bench(argv, cwd=ROOT):
    return subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                          timeout=600, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["stock", "wide-frame", "dense-fuse"])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench([RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines

    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))

    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            printed[name] = (float(value), unit)
    simulate = workload != "dense-fuse"
    if trace:
        expected = dict(LAYERS, **(LAYERS_SIMULATE if simulate else {}))
    else:
        expected = dict(E2E, **(E2E_SIMULATE if simulate else E2E_FUSE))
    for name, unit in expected.items():
        assert name in printed, name
        assert printed[name][1] == unit, name


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench([os.path.join("bench", "run.py"), "--workload", "stock", "--seed", "1",
                      "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
