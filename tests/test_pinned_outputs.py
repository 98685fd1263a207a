"""The five pinned output hashes, reproduced in-process, and checks of the CI workflow.

Each ``simulate`` pin is checked on one worker and on a real two-process
pool, and so are the float64 bits of the traces behind the CSV. The last
tests check that every hash ``.github/workflows/ci.yml`` feeds to
``sha256sum -c`` is one of this table's, and that the workflow loads and each
of its scripts parses as bash.
"""

import hashlib
import json
import re
import subprocess
from pathlib import Path

import pytest

from evidfuse import cli, engine
from evidfuse.cli import main
from evidfuse.fileio import load_simulation_config

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: The 8 rule/operator pairings, in the order the track pin concatenates them.
PAIRINGS = ["dempster", "pcr5"] + ["tcn --tnorm %s --tconorm %s" % pair for pair in (
    ("min", "max"), ("min", "sum"), ("product", "max"), ("product", "sum"), ("bounded", "max"), ("bounded", "sum"))]


def simulate(tmp_path, config, threads="1"):
    """The bytes ``simulate`` writes for a config object."""
    path, out = tmp_path / "config.json", tmp_path / "out.csv"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["simulate", str(path), "--threads", threads, "-o", str(out)]) == 0
    return out.read_bytes()


def on_one_and_two_workers(config):
    """The bytes ``simulate`` writes on one worker and on two. 832 runs of
    three labels are 2 slabs and 10 000 default runs are 18, so two workers
    map them over a real pool."""
    return lambda tmp_path: [simulate(tmp_path, config, threads) for threads in ("1", "2")]


def default_json(**fields):
    return {**json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8")), **fields}


def three_label_json(**fields):
    """A 3-label, 832-run config: 2 slabs."""
    off = (1 - 0.7) / 2
    return {"frame": ["L0", "L1", "L2"],
            "confusion": [[0.7 if i == j else off for j in range(3)] for i in range(3)],
            "segments": [["L0", 30], ["L2", 30], ["L1", 40]], "runs": 832, "master_seed": 20061215,
            "rules": default_json()["rules"], **fields}


def track_all(tmp_path):
    """The 60-line declarations file tracked under every pairing, CSVs joined in order."""
    (tmp_path / "track-confusion.json").write_text(
        json.dumps({"frame": ["Fighter", "Cargo"], "matrix": [[0.9, 0.1], [0.2, 0.8]]}), encoding="utf-8")
    (tmp_path / "track.txt").write_text("Cargo\n" * 30 + "Fighter\n" * 20 + "Cargo\n" * 10, encoding="utf-8")
    outputs = []
    for i, rule in enumerate(PAIRINGS, 1):
        out = tmp_path / ("track-%d.csv" % i)
        assert main(["track", str(tmp_path / "track.txt"), "--confusion", str(tmp_path / "track-confusion.json"),
                     "--rule", *rule.split(), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    return [b"".join(outputs)]


#: name -> (pinned sha256, the outputs that must each have it)
PINNED = {
    "default": ("50285aea728945b4f6b17513700ba0bdf2610100fd03a4fd7ecbd2ca936a1212",
                on_one_and_two_workers(default_json())),
    # On posteriors that hold only singletons and the frame, m_i + m_frame / M
    # ranks the labels as m_i does except where rounding ties them, so the
    # 3-label CSV keeps its belief bytes; the default config's ties give it
    # bytes of its own
    "three-label-belief": ("4bd6002bdb29066a7a7f25a141214c856f36a507932fbd084532912c0b943dc0",
                           on_one_and_two_workers(three_label_json())),
    "three-label-pignistic": ("4bd6002bdb29066a7a7f25a141214c856f36a507932fbd084532912c0b943dc0",
                              on_one_and_two_workers(three_label_json(criterion="pignistic"))),
    "default-pignistic": ("6095901f7f1c3c8a62c77583f438177dd4f85b576c695ce0cb9bff4300d44e88",
                          on_one_and_two_workers(default_json(criterion="pignistic"))),
    "track-all-pairings": ("1ba1d6515ecae40eb107d1bbf06f7733241775ba0c88604d77c15d5209b90374", track_all),
}


#: simulate pin name -> sha256 of its traces' bits: each trace's ``masses``
#: then its ``correct_rate`` as little-endian float64, in rule order. The CSV
#: prints 12 significant digits, so a change to the order of the engine's sums
#: or of its slab merge can keep every CSV byte; it cannot keep these.
BITS = {
    "default": "4708dba221ade6b919fb64ca7d4e3af5f92ff651b641731726c4e44509c23361",
    "three-label-belief": "e5e65ed974fdb8170e5fb602af875e437d12589ac494e710a0b8d41dc742e71c",
    "three-label-pignistic": "e5e65ed974fdb8170e5fb602af875e437d12589ac494e710a0b8d41dc742e71c",
    "default-pignistic": "7c59052618c65ca1a1f1eb48daa34df5d1fc5279362977576a4d2d29e6576c47",
}


def trace_bits(traces):
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(trace.masses.astype("<f8").tobytes())
        digest.update(trace.correct_rate.astype("<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", PINNED)
def test_an_output_ci_pins_keeps_its_bytes(name, tmp_path, monkeypatch):
    # the traces of the simulations the CSV pin runs, so the bits cost no run of their own
    runs, real = [], cli.run_monte_carlo
    monkeypatch.setattr(cli, "run_monte_carlo", lambda cfg, workers: runs.append(real(cfg, workers)) or runs[-1])
    digest, outputs = PINNED[name]
    assert {hashlib.sha256(output).hexdigest() for output in outputs(tmp_path)} == {digest}
    assert [trace_bits(traces) for traces in runs] == ([BITS[name]] * 2 if name in BITS else [])


def test_reversed_rules_reverse_only_the_csv_rule_blocks(tmp_path):
    # 1 152 default runs are 2 slabs, so the reversed run on two workers goes
    # through a real pool; each rule's block is a line per scan
    forward = default_json(runs=1152)
    backward = dict(forward, rules=forward["rules"][::-1])
    assert forward["runs"] / engine._slab_runs(load_simulation_config(str(DEFAULT_CONFIG))) == 2
    one = simulate(tmp_path, forward).decode().splitlines()
    rev = simulate(tmp_path, backward, "2").decode().splitlines()
    scans = sum(length for _, length in forward["segments"])
    blocks = lambda lines: [lines[i:i + scans] for i in range(2, len(lines), scans)]
    assert one[:2] == rev[:2] and len(one) == len(rev) == 2 + scans * len(forward["rules"])
    assert blocks(rev) == blocks(one)[::-1]


def test_ci_pins_the_hashes_of_this_table():
    # CI re-checks the default's pin on the one 18-slab pool run it makes; any
    # hash it checks must be this table's, so CI and Tier-1 cannot disagree
    if not CI_WORKFLOW.exists():
        pytest.skip("no CI workflow in this checkout")
    checked = set(re.findall(r'echo "([0-9a-f]{64})  [^"]*" \| sha256sum -c', CI_WORKFLOW.read_text(encoding="utf-8")))
    assert PINNED["default"][0] in checked
    assert checked <= {digest for digest, _ in PINNED.values()}


def test_the_workflow_loads_and_each_script_parses():
    yaml = pytest.importorskip("yaml")  # PyYAML is not a dependency
    if not CI_WORKFLOW.exists():
        pytest.skip("no CI workflow in this checkout")
    workflow = yaml.safe_load(CI_WORKFLOW.read_text(encoding="utf-8"))
    scripts = [step["run"] for job in workflow["jobs"].values() for step in job["steps"] if "run" in step]
    assert scripts
    for script in scripts:
        done = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
