"""End-to-end command-line behaviour, driven through ``main(argv)``."""

import csv
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from evidfuse.core import replace

import pytest

from evidfuse import (
    Rule,
    RuleConfig,
    SplitMix64,
    TConorm,
    TNorm,
    derive_run_seed,
    run_track,
    sample_decision,
    uniform_diagonal_confusion,
)
from evidfuse import cli, engine, fileio
from evidfuse.cli import main
from evidfuse.fileio import load_mass_function, load_simulation_config, track_records_to_csv

from conftest import FC_FRAME
from test_pinned_outputs import PAIRINGS


@pytest.fixture
def workdir(tmp_path):
    """Input files shared by most command invocations."""
    def dump(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    dump("m1.json", {"frame": ["Fighter", "Cargo"],
                     "masses": {"Fighter": 0.9, "Fighter|Cargo": 0.1}})
    dump("m2.json", {"frame": ["Fighter", "Cargo"],
                     "masses": {"Cargo": 0.9, "Fighter|Cargo": 0.1}})
    dump("conflict1.json", {"frame": ["Fighter", "Cargo"], "masses": {"Fighter": 1.0}})
    dump("conflict2.json", {"frame": ["Fighter", "Cargo"], "masses": {"Cargo": 1.0}})
    dump("other_frame.json", {"frame": ["Alpha", "Bravo"], "masses": {"Alpha": 1.0}})
    dump("cm.json", {"frame": ["Fighter", "Cargo"],
                     "matrix": [[0.9, 0.1], [0.1, 0.9]]})
    dump("sim.json", {
        "frame": ["Fighter", "Cargo"],
        "confusion": [[0.9, 0.1], [0.1, 0.9]],
        "segments": [["Cargo", 4], ["Fighter", 3]],
        "runs": 64,
        "master_seed": 77,
        "rules": [
            {"rule": "dempster"},
            {"rule": "pcr5"},
            {"rule": "tcn", "tnorm": "min", "tconorm": "max"},
        ],
    })
    (tmp_path / "decls.txt").write_text("Fighter\nCargo\n", encoding="utf-8")
    return tmp_path


def path(workdir, name):
    return str(workdir / name)


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------

def test_fuse_pcr5_json(workdir, capsys):
    code = main(["fuse", path(workdir, "m1.json"), path(workdir, "m2.json"),
                 "--rule", "pcr5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frame"] == ["Fighter", "Cargo"]
    assert payload["masses"]["Fighter"] == pytest.approx(0.495, abs=1e-12)
    assert payload["masses"]["Cargo"] == pytest.approx(0.495, abs=1e-12)
    assert payload["masses"]["Fighter|Cargo"] == pytest.approx(0.01, abs=1e-12)


def test_fuse_output_is_reloadable(workdir, tmp_path, capsys):
    main(["fuse", path(workdir, "m1.json"), path(workdir, "m2.json"),
          "--rule", "tcn", "--tnorm", "min", "--tconorm", "max"])
    out = tmp_path / "fused.json"
    out.write_text(capsys.readouterr().out, encoding="utf-8")
    code = main(["fuse", str(out), str(out), "--rule", "dempster"])
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_fuse_report_json(workdir, capsys):
    code = main(["fuse", path(workdir, "m1.json"), path(workdir, "m2.json"),
                 "--rule", "pcr5", "--report"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["rule"] == "pcr5"
    assert report["total_conflict"] == pytest.approx(0.81, abs=1e-12)
    assert report["redistributed"]["Fighter"] == pytest.approx(0.405, abs=1e-12)
    assert report["redistributed"]["Cargo"] == pytest.approx(0.405, abs=1e-12)


def dense_six_label_json(seed):
    """A mass on each of the 63 subsets of 6 labels, one subset holding most of it."""
    labels = ["L%d" % i for i in range(6)]
    rng = random.Random(seed)
    weights = [rng.random() + 1 / 1024 for _ in range(63)]
    weights[rng.randrange(63)] += 2 * sum(weights)
    total = sum(weights)
    return {"frame": labels, "masses": {"|".join(label for i, label in enumerate(labels) if bits >> i & 1): x / total
                                        for bits, x in enumerate(weights, 1)}}


@pytest.mark.parametrize("rule", PAIRINGS, ids=lambda rule: "-".join(rule.split()[::2]))
def test_fuse_report_prints_the_same_bytes_with_the_files_swapped(tmp_path, capsys, rule):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(dense_six_label_json(1)), encoding="utf-8")
    b.write_text(json.dumps(dense_six_label_json(2)), encoding="utf-8")
    outputs = []
    for first, second in ((a, b), (b, a)):
        assert main(["fuse", str(first), str(second), "--report", "--rule", *rule.split()]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_fuse_of_a_dense_sixteen_label_bba_with_the_vacuous_one_reloads_as_the_input(tmp_path, capsys):
    # every subset of the largest frame, each label list written high label first
    m = 16
    labels = ["L%d" % i for i in range(m)]
    weights = [1 + bits * 40503 % 97 for bits in range(1, 1 << m)]
    weights[-1] += (1 << 23) - sum(weights)
    dense, vacuous, fused = tmp_path / "dense.json", tmp_path / "vacuous.json", tmp_path / "fused.json"
    dense.write_text(json.dumps({"frame": labels, "masses": {
        "|".join(labels[i] for i in reversed(range(m)) if bits >> i & 1): x / (1 << 23)
        for bits, x in enumerate(weights, 1)}}), encoding="utf-8")
    vacuous.write_text(json.dumps({"frame": labels, "masses": {"|".join(labels): 1.0}}), encoding="utf-8")
    assert main(["fuse", str(dense), str(vacuous), "--rule", "pcr5", "--format", "json"]) == 0
    fused.write_text(capsys.readouterr().out, encoding="utf-8")
    expected = load_mass_function(str(dense)).masses
    assert len(expected) == 65535 and load_mass_function(str(fused)).masses == expected


def test_fuse_report_csv(workdir, capsys):
    code = main(["fuse", path(workdir, "m1.json"), path(workdir, "m2.json"),
                 "--rule", "dempster", "--report", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# rule: dempster"
    assert lines[1] == "# total_conflict: 0.81"
    assert "subset,mass" in lines
    data = dict(l.split(",") for l in lines[lines.index("subset,mass") + 1:])
    assert float(data["Fighter"]) == pytest.approx(0.09 / 0.19, abs=1e-12)


def test_fuse_csv_quotes_labels_with_commas_and_quotes(tmp_path, capsys):
    # unquoted, a label's "," or '"' would split its row into more cells
    frame = ["a,b", 'say "hi"']
    both = "|".join(frame)
    for name, label in (("m1.json", frame[0]), ("m2.json", frame[1])):
        (tmp_path / name).write_text(json.dumps({"frame": frame, "masses": {label: 0.9, both: 0.1}}),
                                     encoding="utf-8")
    code = main(["fuse", str(tmp_path / "m1.json"), str(tmp_path / "m2.json"),
                 "--rule", "pcr5", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["subset", "mass"]
    assert [row[0] for row in rows[1:]] == [frame[0], frame[1], both]
    assert [float(row[1]) for row in rows[1:]] == pytest.approx([0.495, 0.495, 0.01], abs=1e-12)


def test_fuse_csv_quotes_a_subset_that_starts_like_a_comment(tmp_path, capsys):
    # unquoted, "#A,0.54" reads as a comment line, like the report's "# rule:"
    frame = ["#A", "B"]
    for name, label in (("m1.json", "#A"), ("m2.json", "B")):
        (tmp_path / name).write_text(json.dumps({"frame": frame, "masses": {label: 0.6, "#A|B": 0.4}}),
                                     encoding="utf-8")
    code = main(["fuse", str(tmp_path / "m1.json"), str(tmp_path / "m2.json"),
                 "--rule", "pcr5", "--report", "--format", "csv"])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0] == ["subset", "mass"]
    assert [row[0] for row in rows[1:]] == ["#A", "B", "#A|B"]
    assert math.fsum(float(row[1]) for row in rows[1:]) == pytest.approx(1.0, abs=1e-12)


def test_fuse_total_conflict_exits_3(workdir, capsys):
    code = main(["fuse", path(workdir, "conflict1.json"),
                 path(workdir, "conflict2.json"), "--rule", "dempster"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert "total conflict" in err


def test_fuse_frame_mismatch_exits_2(workdir, capsys):
    code = main(["fuse", path(workdir, "m1.json"),
                 path(workdir, "other_frame.json"), "--rule", "pcr5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fuse_missing_file_exits_2(workdir, capsys):
    code = main(["fuse", path(workdir, "nope.json"), path(workdir, "m2.json"),
                 "--rule", "pcr5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fuse_tcn_without_operators_exits_2(workdir, capsys):
    code = main(["fuse", path(workdir, "m1.json"), path(workdir, "m2.json"),
                 "--rule", "tcn"])
    assert code == 2
    assert "--tnorm" in capsys.readouterr().err


def test_fuse_operators_with_plain_rule_exit_2(workdir, capsys):
    code = main(["fuse", path(workdir, "m1.json"), path(workdir, "m2.json"),
                 "--rule", "pcr5", "--tnorm", "min"])
    assert code == 2
    assert "--rule tcn" in capsys.readouterr().err


def test_fuse_non_utf8_file_exits_2(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_bytes(b"\xff")
    code = main(["fuse", str(bad), str(bad), "--rule", "pcr5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert str(bad) in err


@pytest.mark.parametrize("text", [
    '{"frame": ' + "[" * 100_000 + "]" * 100_000 + "}",
    pytest.param('{"frame": ' + "1" * 5_000 + "}", marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits")),
], ids=["too-deep", "too-many-digits"])
def test_fuse_json_past_the_parser_limits_exits_2(workdir, capsys, text):
    bad = workdir / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["fuse", str(bad), str(bad), "--rule", "pcr5"]) == 2
    assert capsys.readouterr().err.startswith("error: %s: invalid JSON (" % bad)


@pytest.mark.parametrize("label", ["Fig\nhter", "Fighter\r"])
def test_fuse_label_with_line_break_exits_2(workdir, capsys, label):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"frame": [label, "Cargo"], "masses": {"Cargo": 1.0}}),
                   encoding="utf-8")
    code = main(["fuse", str(bad), path(workdir, "m2.json"), "--rule", "pcr5"])
    assert code == 2
    assert "frame[0]: label %r may not contain a line break" % label in capsys.readouterr().err


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------

def test_track_writes_trace_csv(workdir, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["track", path(workdir, "decls.txt"),
                 "--confusion", path(workdir, "cm.json"),
                 "--rule", "pcr5", "-o", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "scan,declared,decision,m_Fighter,m_Cargo,m_Fighter_Cargo"
    assert lines[2].startswith("1,Fighter,Fighter,0.9,0,0.1")
    final = lines[3].split(",")
    assert float(final[3]) == pytest.approx(0.495, abs=1e-12)


def test_track_matches_library(workdir, tmp_path):
    out = tmp_path / "trace.csv"
    main(["track", path(workdir, "decls.txt"),
          "--confusion", path(workdir, "cm.json"),
          "--rule", "tcn", "--tnorm", "bounded", "--tconorm", "max",
          "-o", str(out)])
    confusion = uniform_diagonal_confusion(FC_FRAME, 0.9)
    cfg = RuleConfig(Rule.TCN, TNorm.BOUNDED, TConorm.MAX)
    expected = track_records_to_csv(run_track(["Fighter", "Cargo"], confusion, cfg),
                                    FC_FRAME)
    assert out.read_text(encoding="utf-8") == expected


def test_track_pignistic_criterion(workdir, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["track", path(workdir, "decls.txt"),
                 "--confusion", path(workdir, "cm.json"),
                 "--rule", "pcr5", "--criterion", "pignistic", "-o", str(out)])
    assert code == 0
    # after Fighter then Cargo the PCR5 masses tie, so BetP ties too and the
    # lower frame index wins either way
    assert out.read_text(encoding="utf-8").splitlines()[3].split(",")[2] == "Fighter"


def test_track_long_constant_sequence(workdir, tmp_path):
    decls = workdir / "hundred.txt"
    decls.write_text("Fighter\n" * 100, encoding="utf-8")
    out = tmp_path / "trace.csv"
    code = main(["track", str(decls), "--confusion", path(workdir, "cm.json"),
                 "--rule", "dempster", "-o", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 102
    last = lines[-1].split(",")
    assert last[0] == "100"
    assert last[2] == "Fighter"
    assert float(last[3]) >= 0.999


def test_track_unknown_label_exits_2(workdir, tmp_path, capsys):
    decls = workdir / "bad.txt"
    decls.write_text("Fighter\nBomber\n", encoding="utf-8")
    code = main(["track", str(decls), "--confusion", path(workdir, "cm.json"),
                 "--rule", "pcr5", "-o", str(tmp_path / "t.csv")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_track_refuses_an_unwritable_output_before_it_tracks(workdir, tmp_path, capsys, monkeypatch):
    def track(*args):
        raise AssertionError("tracked for an output it cannot write")

    monkeypatch.setattr(cli, "run_track", track)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "missing" / "x.csv"
    assert main(["track", path(workdir, "decls.txt"), "--confusion", path(workdir, "cm.json"),
                 "--rule", "pcr5", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: '%s'\n" % out
    assert sorted(tmp_path.rglob("*")) == before


def test_track_empty_declarations_exits_2(workdir, tmp_path, capsys):
    decls = workdir / "empty.txt"
    decls.write_text("", encoding="utf-8")
    code = main(["track", str(decls), "--confusion", path(workdir, "cm.json"),
                 "--rule", "pcr5", "-o", str(tmp_path / "t.csv")])
    assert code == 2
    assert "no declarations" in capsys.readouterr().err


def test_track_non_utf8_declarations_exits_2(workdir, tmp_path, capsys):
    decls = workdir / "bad.txt"
    decls.write_bytes(b"Fighter\n\xff\n")
    code = main(["track", str(decls), "--confusion", path(workdir, "cm.json"),
                 "--rule", "pcr5", "-o", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert str(decls) in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_repeats_are_byte_identical(workdir, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["simulate", path(workdir, "sim.json"),
                     "--threads", "1", "-o", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_thread_count_does_not_change_output(workdir, tmp_path, monkeypatch):
    # one 32-run block per slab: the fixture's 64 runs are two slabs, so
    # "--threads 4" maps them over a real pool of two processes
    monkeypatch.setattr(engine, "_SLAB_BYTES", 1)
    cfg = load_simulation_config(path(workdir, "sim.json"))
    assert len(range(0, cfg.runs, engine._slab_runs(cfg))) == 2  # slab starts
    started = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / ("t%s.csv" % threads)
        assert main(["simulate", path(workdir, "sim.json"),
                     "--threads", threads, "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert started == [2]
    assert outputs[0] == outputs[1]


def test_simulate_overrides_change_output(workdir, tmp_path):
    base = tmp_path / "base.csv"
    main(["simulate", path(workdir, "sim.json"), "--threads", "1", "-o", str(base)])

    reseeded = tmp_path / "seed.csv"
    main(["simulate", path(workdir, "sim.json"), "--seed", "78",
          "--threads", "1", "-o", str(reseeded)])
    assert reseeded.read_bytes() != base.read_bytes()

    shorter = tmp_path / "runs.csv"
    main(["simulate", path(workdir, "sim.json"), "--runs", "32",
          "--threads", "1", "-o", str(shorter)])
    assert shorter.read_bytes() != base.read_bytes()


def test_simulate_runs_and_seed_flags_write_the_bytes_of_a_config_that_holds_them(workdir, tmp_path, monkeypatch):
    config = json.loads((workdir / "sim.json").read_text(encoding="utf-8"))
    config.update(runs=32, master_seed=78)
    (workdir / "overridden.json").write_text(json.dumps(config), encoding="utf-8")
    from_file = tmp_path / "file.csv"
    assert main(["simulate", path(workdir, "overridden.json"), "--threads", "1", "-o", str(from_file)]) == 0

    rebuilds = []
    monkeypatch.setattr(cli, "replace", lambda cfg, **changes: rebuilds.append(changes) or replace(cfg, **changes))
    from_flags = tmp_path / "flags.csv"
    assert main(["simulate", path(workdir, "sim.json"), "--runs", "32", "--seed", "78",
                 "--threads", "1", "-o", str(from_flags)]) == 0
    assert from_flags.read_bytes() == from_file.read_bytes()
    assert rebuilds == [{"runs": 32, "master_seed": 78}]  # one rebuild for both flags


def test_simulate_single_run_matches_track(workdir, tmp_path):
    """--runs 1 degenerates to one ordinary tracked sequence."""
    config = json.loads((workdir / "sim.json").read_text(encoding="utf-8"))
    config["rules"] = [{"rule": "pcr5"}]
    single = workdir / "single.json"
    single.write_text(json.dumps(config), encoding="utf-8")

    out = tmp_path / "single.csv"
    assert main(["simulate", str(single), "--runs", "1",
                 "--threads", "1", "-o", str(out)]) == 0

    # regenerate the lone run's declarations with the library primitives
    confusion = uniform_diagonal_confusion(FC_FRAME, 0.9)
    truth = ["Cargo"] * 4 + ["Fighter"] * 3
    rng = SplitMix64(derive_run_seed(77, 0))
    declarations = [sample_decision(t, confusion, rng) for t in truth]
    records = run_track(declarations, confusion, RuleConfig(Rule.PCR5))

    rows = out.read_text(encoding="utf-8").splitlines()[2:]
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        fields = row.split(",")
        assert int(fields[3]) == record.scan
        assert float(fields[5]) == pytest.approx(
            record.posterior.masses.get(0b01, 0.0), abs=1e-12)
        assert float(fields[6]) == pytest.approx(
            record.posterior.masses.get(0b10, 0.0), abs=1e-12)
        assert fields[8] == ("1" if record.decision == fields[4] else "0")


@pytest.mark.parametrize("fields, names, dat_lines, csv_cells", [
    ({}, ["dempster.dat", "pcr5.dat", "tcn_min_max.dat"], 1 + 7, 5 + 3 + 1),
    # the largest frame: the CSV's 65 535 subset columns and the plot data's
    # 16 singleton columns read one build of the column names
    ({"frame": ["L%d" % i for i in range(16)], "segments": [["L0", 5], ["L15", 5]], "runs": 64, "master_seed": 1,
      "confusion": [[0.9 if i == j else 0.1 / 15 for j in range(16)] for i in range(16)], "rules": [{"rule": "pcr5"}]},
     ["pcr5.dat"], 1 + 10, 5 + 65535 + 1),
], ids=["two-labels", "sixteen-labels"])
def test_simulate_plot_data(workdir, tmp_path, fields, names, dat_lines, csv_cells):
    data = {**json.loads((workdir / "sim.json").read_text(encoding="utf-8")), **fields}
    config = workdir / "plotted.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    plotdir = tmp_path / "plots"
    out = tmp_path / "res.csv"
    assert main(["simulate", str(config), "--threads", "1",
                 "--plot-data", str(plotdir), "-o", str(out)]) == 0
    assert sorted(p.name for p in plotdir.iterdir()) == names
    lines = (plotdir / "pcr5.dat").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# scan " + " ".join("m_" + label for label in data["frame"])
    assert len(lines) == dat_lines
    assert len(out.read_text(encoding="utf-8").splitlines()[1].split(",")) == csv_cells


def test_simulate_plot_data_on_a_file_exits_2_and_writes_no_csv(workdir, tmp_path, capsys):
    taken, out = tmp_path / "taken", tmp_path / "res.csv"
    taken.write_text("", encoding="utf-8")
    assert main(["simulate", path(workdir, "sim.json"), "--threads", "1",
                 "--plot-data", str(taken), "-o", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["-o", "missing/x.csv"], "[Errno 2] No such file or directory: '{tmp}/missing/x.csv'"),
    (["--plot-data", "plots", "-o", "missing/x.csv"], "[Errno 2] No such file or directory: '{tmp}/missing/x.csv'"),
    (["-o", "taken"], "[Errno 21] Is a directory: '{tmp}/taken'"),
    (["--plot-data", "old.csv", "-o", "x.csv"], "[Errno 17] File exists: '{tmp}/old.csv'"),
    (["--plot-data", "old.csv/sub", "-o", "x.csv"], "[Errno 20] Not a directory: '{tmp}/old.csv/sub'"),
    (["--plot-data=", "-o", "x.csv"], "[Errno 2] No such file or directory: ''"),
    (["--plot-data", "plots", "-o", "plots/sub/x.csv"], "[Errno 2] No such file or directory: '{tmp}/plots/sub/x.csv'"),
    (["--plot-data", "taken", "-o", "x.csv"], "[Errno 21] Is a directory: '{tmp}/taken/pcr5.dat'"),
    (["--plot-data", "plots", "-o", "plots/pcr5.dat"], "-o and --plot-data both name {tmp}/plots/pcr5.dat"),
], ids=["csv-in-a-missing-directory", "csv-in-a-missing-directory-with-plot-data", "csv-on-a-directory",
        "plot-data-on-a-file", "plot-data-under-a-file", "empty-plot-data", "csv-in-a-missing-plot-data-subdirectory",
        "plot-data-file-on-a-directory", "csv-on-a-plot-data-file"])
def test_simulate_refuses_an_unwritable_output_before_it_simulates(workdir, tmp_path, capsys, monkeypatch,
                                                                  flags, message):
    def simulate(cfg, workers):
        raise AssertionError("simulated for an output it cannot write")

    monkeypatch.setattr(cli, "run_monte_carlo", simulate)
    (tmp_path / "taken" / "pcr5.dat").mkdir(parents=True)
    (tmp_path / "old.csv").write_text("old\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    flags = [str(tmp_path / flag) if flag[0] != "-" else flag for flag in flags]
    assert main(["simulate", path(workdir, "sim.json"), "--threads", "1", *flags]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message.format(tmp=tmp_path)
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "old.csv").read_text(encoding="utf-8") == "old\n"


def test_simulate_failing_after_the_output_check_leaves_an_old_csv_as_it_was(tmp_path, capsys):
    config, out = tmp_path / "conflict.json", tmp_path / "conflict.csv"
    config.write_text(json.dumps({  # Dempster meets total conflict at scan 3
        "frame": ["Fighter", "Cargo"], "confusion": [[1.0, 0.0], [0.0, 1.0]],
        "segments": [["Cargo", 2], ["Fighter", 2]], "runs": 40, "master_seed": 1,
        "rules": [{"rule": "dempster"}],
    }), encoding="utf-8")
    out.write_text("old\n", encoding="utf-8")
    assert main(["simulate", str(config), "--threads", "1", "--plot-data", str(tmp_path / "plots"),
                 "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: run 0, rule dempster: scan 3: total conflict")
    assert out.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conflict.csv", "conflict.json"]


def test_simulate_failing_after_the_output_check_removes_the_directories_it_made(tmp_path, capsys):
    config = tmp_path / "conflict.json"
    config.write_text(json.dumps({  # Dempster meets total conflict at scan 3
        "frame": ["Fighter", "Cargo"], "confusion": [[1.0, 0.0], [0.0, 1.0]],
        "segments": [["Cargo", 2], ["Fighter", 2]], "runs": 40, "master_seed": 1,
        "rules": [{"rule": "pcr5"}, {"rule": "dempster"}],
    }), encoding="utf-8")
    assert main(["simulate", str(config), "--threads", "1", "--plot-data", str(tmp_path / "new" / "deeper"),
                 "-o", str(tmp_path / "conflict.csv")]) == 3
    assert capsys.readouterr().err.startswith("error: run 0, rule dempster: scan 3: total conflict")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conflict.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_simulate_opens_a_named_pipe_only_to_write_it(workdir, tmp_path):
    # an early open and close would hand the pipe's reader an end of file before any line
    pipe, text = tmp_path / "pipe", []
    os.mkfifo(pipe)
    reader = threading.Thread(target=lambda: text.append(pipe.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    writer = subprocess.Popen([sys.executable, "-m", "evidfuse.cli", "simulate", path(workdir, "sim.json"),
                               "--runs", "8", "--threads", "1", "-o", str(pipe)])
    try:
        assert writer.wait(timeout=30) == 0
        reader.join(timeout=10)
        assert not reader.is_alive() and text[0].startswith("# columns: ") and text[0].count("\n") == 2 + 3 * 7
    finally:
        writer.kill()
        writer.wait()
        try:  # a reader still waiting for a writer gets its end of file
            os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass


def test_simulate_writes_its_csv_into_the_plot_data_directory_it_makes(workdir, tmp_path):
    plots = tmp_path / "new" / "plots"
    assert main(["simulate", path(workdir, "sim.json"), "--threads", "1", "--plot-data", str(plots),
                 "-o", str(plots / "res.csv")]) == 0
    assert sorted(p.name for p in plots.iterdir()) == ["dempster.dat", "pcr5.dat", "res.csv", "tcn_min_max.dat"]


def test_simulate_invalid_config_exits_2(workdir, tmp_path, capsys):
    bad = workdir / "bad.json"
    config = json.loads((workdir / "sim.json").read_text(encoding="utf-8"))
    config["rules"][0] = {"rule": "median"}
    bad.write_text(json.dumps(config), encoding="utf-8")
    code = main(["simulate", str(bad), "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert "rules[0].rule" in capsys.readouterr().err


def test_simulate_duplicate_rule_exits_2(workdir, tmp_path, capsys):
    # each rule's --plot-data file and CSV block would be written twice
    bad = workdir / "bad.json"
    config = json.loads((workdir / "sim.json").read_text(encoding="utf-8"))
    config["rules"].append({"rule": " PCR5"})
    bad.write_text(json.dumps(config), encoding="utf-8")
    code = main(["simulate", str(bad), "--plot-data", str(tmp_path / "plots"),
                 "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert "rules[3]: rule pcr5 is listed twice, first as rules[1]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("label", ["Car\ngo", "Cargo\r"])
def test_simulate_label_with_line_break_exits_2(workdir, tmp_path, capsys, label):
    # such a label would break the CSV's "# columns:" comment line
    bad = workdir / "bad.json"
    config = json.loads((workdir / "sim.json").read_text(encoding="utf-8"))
    config["frame"][1] = label
    bad.write_text(json.dumps(config), encoding="utf-8")
    code = main(["simulate", str(bad), "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert "frame[1]: label %r may not contain a line break" % label in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("labels, first, second", [(["A", "B", "A_B"], "A|B", "A_B"),
                                                   (["A-B", "A_B"], "A-B", "A_B")])
def test_a_frame_whose_subsets_share_a_column_name_exits_2_and_writes_nothing(tmp_path, capsys, labels,
                                                                              first, second):
    matrix = [[1.0 if i == j else 0.0 for j in range(len(labels))] for i in range(len(labels))]
    config, cm, decls = tmp_path / "sim.json", tmp_path / "cm.json", tmp_path / "decls.txt"
    config.write_text(json.dumps({
        "frame": labels, "confusion": matrix, "segments": [[labels[0], 2]], "runs": 2,
        "master_seed": 1, "rules": [{"rule": "pcr5"}],
    }), encoding="utf-8")
    cm.write_text(json.dumps({"frame": labels, "matrix": matrix}), encoding="utf-8")
    decls.write_text(labels[0] + "\n", encoding="utf-8")
    message = "error: subsets %s and %s share the column name m_A_B\n" % (first, second)
    out, plots = tmp_path / "x.csv", tmp_path / "plots"
    assert main(["simulate", str(config), "--plot-data", str(plots), "-o", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert main(["track", str(decls), "--confusion", str(cm), "--rule", "pcr5", "-o", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists() and not plots.exists()


def test_a_frame_whose_subsets_share_a_column_name_fails_before_the_simulation(tmp_path, capsys, monkeypatch):
    def simulate(cfg, workers):
        raise AssertionError("simulated a frame the writers refuse")

    monkeypatch.setattr(cli, "run_monte_carlo", simulate)
    config, out = tmp_path / "sim.json", tmp_path / "x.csv"
    config.write_text(json.dumps({
        "frame": ["A", "B", "A_B"], "confusion": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
        "segments": [["A", 50], ["B", 50]], "runs": 10000, "master_seed": 1,
        "rules": [{"rule": "pcr5"}, {"rule": "dempster"}, {"rule": "tcn", "tnorm": "min", "tconorm": "max"}],
    }), encoding="utf-8")
    assert main(["simulate", str(config), "--threads", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: subsets A|B and A_B share the column name m_A_B\n"
    assert not out.exists()


def test_simulate_refuses_a_trace_over_another_scenario_before_opening_its_output(workdir, tmp_path, capsys,
                                                                                 monkeypatch):
    real = cli.run_monte_carlo

    def simulate(cfg, workers):
        traces = real(cfg, workers)
        trace = traces[-1]  # reversed: Fighter 3 / Cargo 4 under Cargo 4 / Fighter 3
        traces[-1] = replace(trace, truth=trace.truth[::-1], masses=trace.masses[::-1],
                             correct_rate=trace.correct_rate[::-1])
        return traces

    monkeypatch.setattr(cli, "run_monte_carlo", simulate)
    out = tmp_path / "x.csv"
    assert main(["simulate", path(workdir, "sim.json"), "--threads", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: the trace of rule tcn(min, max) is not over the config's scenario\n"
    assert not out.exists()


def test_simulate_builds_the_column_names_once(workdir, tmp_path):
    # the early check, the CSV and each plot-data file all read one build
    fileio._subset_columns.cache_clear()
    assert main(["simulate", path(workdir, "sim.json"), "--threads", "1", "--plot-data",
                 str(tmp_path / "plots"), "-o", str(tmp_path / "x.csv")]) == 0
    assert fileio._subset_columns.cache_info().misses == 1
    assert len(list((tmp_path / "plots").iterdir())) == 3


@pytest.mark.parametrize("has_affinity, expected", [(True, 1), (False, 3)])
def test_simulate_defaults_to_the_cpus_it_may_run_on(workdir, tmp_path, monkeypatch, has_affinity, expected):
    # pinned to one CPU of several, the default must not fork onto CPUs it cannot use
    seen = []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    if has_affinity:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    real = cli.run_monte_carlo
    monkeypatch.setattr(cli, "run_monte_carlo", lambda cfg, workers: seen.append(workers) or real(cfg))
    assert main(["simulate", path(workdir, "sim.json"), "-o", str(tmp_path / "x.csv")]) == 0
    assert seen == [expected]


def test_simulate_rejects_bad_thread_count(workdir, tmp_path, capsys):
    code = main(["simulate", path(workdir, "sim.json"), "--threads", "0",
                 "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--threads" in capsys.readouterr().err


def test_simulate_degenerate_fusion_exits_3_and_writes_nothing(tmp_path, capsys):
    # a perfect classifier: Dempster meets a switch with total conflict at scan 3
    config = tmp_path / "conflict.json"
    config.write_text(json.dumps({
        "frame": ["Fighter", "Cargo"], "confusion": [[1.0, 0.0], [0.0, 1.0]],
        "segments": [["Cargo", 2], ["Fighter", 2]], "runs": 40, "master_seed": 1,
        "rules": [{"rule": "pcr5"}, {"rule": "dempster"}],
    }), encoding="utf-8")
    out = tmp_path / "conflict.csv"
    assert main(["simulate", str(config), "--threads", "1", "-o", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: run 0, rule dempster: scan 3: total conflict between sources (K=1); "
        "Dempster's rule is undefined\n")
    assert not out.exists()


def test_simulate_rejects_bad_runs_override(workdir, tmp_path, capsys):
    code = main(["simulate", path(workdir, "sim.json"), "--runs", "0",
                 "--threads", "1", "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: --runs must be a positive integer, got 0\n"


@pytest.mark.parametrize("command, data, message", [
    ("fuse", {"frame": "Fighter", "masses": {"Fighter": 1.0}}, "frame: expected list, got 'Fighter'"),
    ("fuse", [], "mass function: expected a JSON object"),
    ("track", [], "confusion file: expected a JSON object"),
    ("simulate", [], "config file: expected a JSON object"),
    ("simulate", {"rules": ["pcr5"]}, 'rules[0]: expected an object like {"rule": "pcr5"}'),
    ("simulate", {"confusion": "x"}, "confusion: expected list, got 'x'"),
    ("simulate", {"critrion": "pignistic"}, "critrion: unknown field (choose from frame, confusion, segments, "
                                            "runs, master_seed, rules, criterion)"),
])
def test_input_of_the_wrong_shape_exits_2(workdir, tmp_path, capsys, command, data, message):
    bad = workdir / "bad.json"
    if command == "simulate" and isinstance(data, dict):  # one field of a valid config replaced
        data = {**json.loads((workdir / "sim.json").read_text(encoding="utf-8")), **data}
    bad.write_text(json.dumps(data), encoding="utf-8")
    out = str(tmp_path / "x.csv")
    argv = {
        "fuse": ["fuse", str(bad), path(workdir, "m1.json"), "--rule", "pcr5"],
        "track": ["track", path(workdir, "decls.txt"), "--confusion", str(bad), "--rule", "pcr5", "-o", out],
        "simulate": ["simulate", str(bad), "-o", out],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s: %s\n" % (bad, message)


@pytest.mark.parametrize("at_fault", [0, 1], ids=["first", "second"])
def test_fuse_names_the_file_at_fault_in_either_place(workdir, capsys, at_fault):
    bad = workdir / "bad.json"
    bad.write_text("[]", encoding="utf-8")
    files = [path(workdir, "m1.json")] * 2
    files[at_fault] = str(bad)
    assert main(["fuse", *files, "--rule", "pcr5"]) == 2
    assert capsys.readouterr().err == "error: %s: mass function: expected a JSON object\n" % bad


@pytest.mark.parametrize("name, text, message", [
    ("cm.json", json.dumps({"frame": ["Fighter", "Cargo"], "matrix": [[0.9, 0.1], 0.9]}),
     "matrix[1]: expected a list of numbers"),
    ("decls.txt", "Fighter\nBomber\n", "line 2: unknown label 'Bomber' (frame is ['Fighter', 'Cargo'])"),
    ("decls.txt", "\n", "no declarations found"),
    ("decls.txt", b"\xff", "not valid UTF-8 ("),
], ids=["confusion", "declaration", "no-declaration", "not-utf-8"])
def test_track_names_the_file_at_fault_once(workdir, tmp_path, capsys, name, text, message):
    (workdir / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert main(["track", path(workdir, "decls.txt"), "--confusion", path(workdir, "cm.json"),
                 "--rule", "pcr5", "-o", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: %s: %s" % (path(workdir, name), message))


@pytest.mark.parametrize("flags, message", [
    (["fuse", "--rule", "tcn"], "--rule tcn needs both --tnorm and --tconorm"),
    (["fuse", "--rule", "pcr5", "--tnorm", "min"], "--tnorm/--tconorm are only meaningful with --rule tcn"),
    (["track", "--rule", "dempster", "--tconorm", "sum"], "--tnorm/--tconorm are only meaningful with --rule tcn"),
    (["simulate", "--threads", "0"], "--threads must be a positive integer, got 0"),
], ids=["tcn", "pcr5-tnorm", "track-dempster-tconorm", "threads"])
def test_an_error_in_a_flag_value_names_the_flag(workdir, tmp_path, capsys, flags, message):
    command, *flags = flags
    out = str(tmp_path / "x.csv")
    inputs = {"fuse": [path(workdir, "m1.json"), path(workdir, "m2.json")],
              "track": [path(workdir, "decls.txt"), "--confusion", path(workdir, "cm.json"), "-o", out],
              "simulate": [path(workdir, "sim.json"), "-o", out]}[command]
    assert main([command, *inputs, *flags]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "command, flags",
    [
        ("fuse", ["--rule", "--tnorm", "--tconorm", "--report", "--format"]),
        ("track", ["--rule", "--confusion", "--criterion", "--output"]),
        ("simulate", ["--runs", "--seed", "--threads", "--plot-data", "--output"]),
    ],
)
def test_help_mentions_every_flag(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in flags:
        assert flag in text


@pytest.fixture
def no_parser(monkeypatch):
    """``main`` with no kept parser: its next call builds one."""
    monkeypatch.setattr(cli, "_parser", None)


def test_main_builds_its_parser_once(workdir, tmp_path, monkeypatch, capsys, no_parser):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    fuse = ["fuse", path(workdir, "m1.json"), path(workdir, "m2.json"), "--rule", "pcr5"]
    assert main(fuse) == 0
    assert main(fuse + ["--format", "csv"]) == 0
    with pytest.raises(SystemExit):
        main(["track", path(workdir, "decls.txt")])
    assert main(["track", path(workdir, "decls.txt"), "--confusion", path(workdir, "cm.json"), "--rule", "pcr5",
                 "-o", str(tmp_path / "t.csv")]) == 0
    assert builds == [1]


def run_calls(calls, tmp_path, capsys, fresh):
    """Exit code, stdout, stderr and the files in ``tmp_path / "out"`` of each
    call in turn, each call's files removed before the next; ``fresh`` drops
    the kept parser before every call."""
    seen = []
    for argv in calls:
        (tmp_path / "out").mkdir()
        if fresh:
            cli._parser = None
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        files = {str(p.relative_to(tmp_path)): p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()}
        seen.append((code, *capsys.readouterr(), files))
        shutil.rmtree(tmp_path / "out")
    return seen


def test_a_kept_parser_serves_each_call_as_a_fresh_one_does(workdir, tmp_path, capsys, no_parser):
    # each pair: the flags of the first call must not reach the second
    out = str(tmp_path / "out" / "x.csv")
    fuse = ["fuse", path(workdir, "m1.json"), path(workdir, "m2.json"), "--rule", "pcr5"]
    track = ["track", path(workdir, "decls.txt"), "--confusion", path(workdir, "cm.json"), "--rule", "tcn",
             "--tnorm", "min", "--tconorm", "max", "-o", out]
    simulate = ["simulate", path(workdir, "sim.json"), "--runs", "8", "--threads", "1", "-o", out]
    calls = [
        fuse + ["--report", "--format", "csv"], fuse,
        track + ["--criterion", "pignistic"], track,
        simulate + ["--plot-data", str(tmp_path / "out" / "plots")], simulate,
        simulate[:-2], simulate,
    ]
    kept = run_calls(calls, tmp_path, capsys, fresh=False)
    assert run_calls(calls, tmp_path, capsys, fresh=True) == kept
    assert [seen[0] for seen in kept] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert kept[0][1] != kept[1][1]
    assert len(kept[4][3]) == 1 + 3 and len(kept[5][3]) == 1


@pytest.mark.parametrize("command", [[], ["fuse"], ["track"], ["simulate"]], ids=["evidfuse", "fuse", "track",
                                                                                  "simulate"])
def test_the_help_of_a_kept_parser_is_that_of_a_fresh_one(workdir, tmp_path, capsys, command):
    assert main(["fuse", path(workdir, "m1.json"), path(workdir, "m2.json"), "--rule", "pcr5"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(command + ["--help"])
    assert exc.value.code == 0
    kept = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(command + ["--help"])
    assert capsys.readouterr().out == kept


def test_module_invocation(workdir):
    result = subprocess.run(
        [sys.executable, "-m", "evidfuse.cli", "fuse",
         path(workdir, "m1.json"), path(workdir, "m2.json"), "--rule", "pcr5"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["masses"]["Fighter"] == pytest.approx(0.495)
