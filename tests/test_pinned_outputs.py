"""The output bytes that CI pins, reproduced in-process on one worker.

Each case builds the same inputs as ``.github/workflows/ci.yml`` and checks
the sha256 of what ``cli.main`` writes against the hash CI feeds to
``sha256sum -c``; the last test checks that the two tables name one set.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from evidfuse.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: The 8 rule/operator pairings, in the order CI runs and concatenates them.
PAIRINGS = ["dempster", "pcr5"] + ["tcn --tnorm %s --tconorm %s" % pair for pair in (
    ("min", "max"), ("min", "sum"), ("product", "max"), ("product", "sum"), ("bounded", "max"), ("bounded", "sum"))]


def simulate(tmp_path, config):
    """The bytes ``simulate`` writes for a config object, on one worker."""
    path, out = tmp_path / "config.json", tmp_path / "out.csv"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["simulate", str(path), "--threads", "1", "-o", str(out)]) == 0
    return out.read_bytes()


def default_json(**fields):
    return {**json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8")), **fields}


def three_label_json(**fields):
    """CI's 3-label, 832-run config: 2 slabs."""
    off = (1 - 0.7) / 2
    return {"frame": ["L0", "L1", "L2"],
            "confusion": [[0.7 if i == j else off for j in range(3)] for i in range(3)],
            "segments": [["L0", 30], ["L2", 30], ["L1", 40]], "runs": 832, "master_seed": 20061215,
            "rules": default_json()["rules"], **fields}


def track_all(tmp_path):
    """The 60-line declarations file tracked under every pairing, CSVs joined in CI's order."""
    (tmp_path / "track-confusion.json").write_text(
        json.dumps({"frame": ["Fighter", "Cargo"], "matrix": [[0.9, 0.1], [0.2, 0.8]]}), encoding="utf-8")
    (tmp_path / "track.txt").write_text("Cargo\n" * 30 + "Fighter\n" * 20 + "Cargo\n" * 10, encoding="utf-8")
    outputs = []
    for i, rule in enumerate(PAIRINGS, 1):
        out = tmp_path / ("track-%d.csv" % i)
        assert main(["track", str(tmp_path / "track.txt"), "--confusion", str(tmp_path / "track-confusion.json"),
                     "--rule", *rule.split(), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    return b"".join(outputs)


#: name -> (sha256 that CI checks, the bytes of the output it checks)
PINNED = {
    "default": ("50285aea728945b4f6b17513700ba0bdf2610100fd03a4fd7ecbd2ca936a1212",
                lambda tmp_path: simulate(tmp_path, default_json())),
    "three-label-belief": ("4bd6002bdb29066a7a7f25a141214c856f36a507932fbd084532912c0b943dc0",
                           lambda tmp_path: simulate(tmp_path, three_label_json())),
    "three-label-pignistic": ("4bd6002bdb29066a7a7f25a141214c856f36a507932fbd084532912c0b943dc0",
                              lambda tmp_path: simulate(tmp_path, three_label_json(criterion="pignistic"))),
    "default-pignistic": ("6095901f7f1c3c8a62c77583f438177dd4f85b576c695ce0cb9bff4300d44e88",
                          lambda tmp_path: simulate(tmp_path, default_json(criterion="pignistic"))),
    "track-all-pairings": ("1ba1d6515ecae40eb107d1bbf06f7733241775ba0c88604d77c15d5209b90374", track_all),
}


@pytest.mark.parametrize("name", PINNED)
def test_an_output_ci_pins_keeps_its_bytes(name, tmp_path):
    digest, output = PINNED[name]
    assert hashlib.sha256(output(tmp_path)).hexdigest() == digest


def test_ci_pins_the_hashes_of_this_table():
    if not CI_WORKFLOW.exists():
        pytest.skip("no CI workflow in this checkout")
    checked = re.findall(r'echo "([0-9a-f]{64})  [^"]*" \| sha256sum -c', CI_WORKFLOW.read_text(encoding="utf-8"))
    assert checked and set(checked) == {digest for digest, _ in PINNED.values()}
