"""The evidfuse benchmark.

    python3 bench/run.py --workload {stock,wide-frame,dense-fuse} --seed N \
        --seconds S --trace {0,1} [--smoke]
    python3 bench/run.py --workload all --seed N --seconds S   # every workload, both modes

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` wraps the package's layer boundaries from outside (see
``tracing.py``) and reports per-layer metrics instead. Every metric is
printed as a ``metric NAME VALUE UNIT`` line; the last line of standard
output is one JSON object holding the metrics BENCHMARK.json lists for the
mode. Full results, provenance and the spans of the fastest traced call are
written to ``bench/out/``.

The benchmark cannot pin CPUs or drop caches, so every time is the best of
repeated calls (see harness.py).
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORKLOADS = ("stock", "wide-frame", "dense-fuse")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the evidfuse package.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "evidfuse", "__init__.py")):
        print("error: no package source at %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    if args.workload == "all":
        return harness.run_all(args, WORKLOADS)
    return harness.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
