"""Set-up probe, run in a fresh interpreter by the benchmark.

    python3 -I bench/setup_probe.py SRC_DIR {config|pairs} PATH

Times importing evidfuse from SRC_DIR and loading and validating one
workload's inputs through the public loaders, and prints the seconds taken.
"""

from __future__ import annotations

import json
import sys
import time


def load_pairs(path: str) -> list[tuple]:
    """Dense-fuse pairs from their mass-function entries, through make_bba."""
    import evidfuse

    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [
        tuple(evidfuse.make_bba(evidfuse.make_frame(mf["frame"]), mf["masses"]) for mf in pair)
        for pair in data["pairs"]
    ]


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    src, kind, path = argv
    sys.path.insert(0, src)
    from evidfuse.fileio import load_simulation_config

    if kind == "config":
        load_simulation_config(path)
    else:
        load_pairs(path)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
