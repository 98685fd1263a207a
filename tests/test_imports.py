"""The scalar library starts without numpy or a process pool: only the batch
engine of ``run_monte_carlo`` loads numpy, on its first call, and the pool's
modules load only when the engine starts a pool (more than one worker and two
or more slabs). Nor does it load ``dataclasses``, ``inspect`` or ``typing``,
which cost more to import than the library itself."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Modules that only the batch engine needs.
ENGINE_ONLY = ("numpy", "multiprocessing", "concurrent.futures.process")

#: Modules that nothing in the package imports. The site module loads
#: ``typing`` itself, so only an interpreter started with ``-S`` shows it.
NEVER = ("dataclasses", "inspect")


def loaded_after(tmp_path, body, names=ENGINE_ONLY, flags=("-I",)):
    """The modules of ``names`` loaded once ``body`` has run in a fresh
    isolated interpreter, with the package imported from the checkout."""
    script = "\n".join([
        "import json, sys",
        "sys.path.insert(0, %r)" % str(ROOT / "src"),
        body,
        "print(json.dumps([name for name in %r if name in sys.modules]))" % (names,),
    ])
    done = subprocess.run([sys.executable, *flags, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


#: Loading, combining, fusing and tracking, on the files that
#: :func:`write_scalar_inputs` puts in the working directory.
SCALAR_WORKFLOW = "\n".join([
    "import evidfuse, evidfuse.cli",
    "from evidfuse.fileio import load_mass_function, load_simulation_config",
    "load_simulation_config(%r)" % str(ROOT / "configs" / "default.json"),
    "m1, m2 = load_mass_function('a.json'), load_mass_function('b.json')",
    "for rule in evidfuse.default_rules():",
    "    evidfuse.combine(rule, m1, m2)",
    "assert evidfuse.cli.main(['fuse', 'a.json', 'b.json', '--rule', 'pcr5']) == 0",
    "assert evidfuse.cli.main(['fuse', 'a.json', 'b.json', '--rule', 'pcr5', '--report', '--format', 'csv']) == 0",
    "assert evidfuse.cli.main(['track', 'decls.txt', '--confusion', 'cm.json', '--rule', 'tcn',",
    "                          '--tnorm', 'min', '--tconorm', 'max', '-o', 'trace.csv']) == 0",
])


def write_scalar_inputs(tmp_path):
    masses = {"frame": ["Fighter", "Cargo"], "masses": {"Fighter": 0.6, "Fighter|Cargo": 0.4}}
    (tmp_path / "a.json").write_text(json.dumps(masses), encoding="utf-8")
    (tmp_path / "b.json").write_text(json.dumps(dict(masses, masses={"Cargo": 0.7, "Fighter|Cargo": 0.3})),
                                     encoding="utf-8")
    (tmp_path / "cm.json").write_text(json.dumps({"frame": ["Fighter", "Cargo"],
                                                  "matrix": [[0.9, 0.1], [0.1, 0.9]]}), encoding="utf-8")
    (tmp_path / "decls.txt").write_text("Fighter\nCargo\nCargo\n", encoding="utf-8")


def test_loading_combining_fusing_and_tracking_load_no_engine_module(tmp_path):
    write_scalar_inputs(tmp_path)
    assert loaded_after(tmp_path, SCALAR_WORKFLOW, ENGINE_ONLY + NEVER) == []
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8").count("\n") == 5


def test_without_the_site_module_nothing_loads_typing(tmp_path):
    write_scalar_inputs(tmp_path)
    assert loaded_after(tmp_path, SCALAR_WORKFLOW, ("typing",) + NEVER, ("-I", "-S")) == []


#: Slabs of one 32-run block each: 70 runs are three slabs.
SLAB_PER_BLOCK = "\n".join([
    "import evidfuse, evidfuse.engine",
    "evidfuse.engine._SLAB_BYTES = 1",
    "cfg = evidfuse.default_config(runs=70)",
    "assert len(range(0, cfg.runs, evidfuse.engine._slab_runs(cfg))) == 3",
])


def test_a_simulation_loads_numpy(tmp_path):
    body = "import evidfuse\nevidfuse.run_monte_carlo(evidfuse.default_config(runs=8))"
    assert loaded_after(tmp_path, body) == ["numpy"]


@pytest.mark.parametrize("body", [
    "import evidfuse\nevidfuse.run_monte_carlo(evidfuse.default_config(runs=70), workers=4)",
    SLAB_PER_BLOCK + "\nevidfuse.run_monte_carlo(cfg, workers=1)",
    "import evidfuse.cli\nassert evidfuse.cli.main(['simulate', %r, '--runs', '64', '--threads', '4',"
    " '-o', 'out.csv']) == 0" % str(ROOT / "configs" / "default.json"),
], ids=["one-slab-four-workers", "three-slabs-one-worker", "cli-one-slab-four-threads"])
def test_a_simulation_without_a_pool_loads_only_numpy(tmp_path, body):
    assert loaded_after(tmp_path, body) == ["numpy"]


def test_a_pool_loads_its_modules(tmp_path):
    body = SLAB_PER_BLOCK + "\nevidfuse.run_monte_carlo(cfg, workers=2)"
    assert loaded_after(tmp_path, body) == list(ENGINE_ONLY)


def test_the_cli_builds_its_parser_on_its_first_call_not_at_import(tmp_path):
    write_scalar_inputs(tmp_path)
    loaded_after(tmp_path, "\n".join([
        "import evidfuse.cli as cli",
        "assert cli._parser is None",
        "assert cli.main(['fuse', 'a.json', 'b.json', '--rule', 'pcr5']) == 0",
        "assert cli._parser is not None",
    ]))
