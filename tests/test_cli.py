"""End-to-end command-line behaviour, driven through ``main(argv)``."""

import csv
import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

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
from evidfuse import cli, montecarlo
from evidfuse.cli import main
from evidfuse.fileio import load_simulation_config, track_records_to_csv

from conftest import FC_FRAME


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
    monkeypatch.setattr(montecarlo, "_SLAB_BYTES", 1)
    cfg = load_simulation_config(path(workdir, "sim.json"))
    assert len(range(0, cfg.runs, montecarlo._slab_runs(cfg))) == 2  # slab starts
    started = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Pool)
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


def test_simulate_plot_data(workdir, tmp_path):
    plotdir = tmp_path / "plots"
    out = tmp_path / "res.csv"
    assert main(["simulate", path(workdir, "sim.json"), "--threads", "1",
                 "--plot-data", str(plotdir), "-o", str(out)]) == 0
    names = sorted(p.name for p in plotdir.iterdir())
    assert names == ["dempster.dat", "pcr5.dat", "tcn_min_max.dat"]
    header = (plotdir / "pcr5.dat").read_text(encoding="utf-8").splitlines()[0]
    assert header == "# scan m_Fighter m_Cargo"


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
    assert "runs" in capsys.readouterr().err


@pytest.mark.parametrize("command, data, message", [
    ("fuse", {"frame": "Fighter", "masses": {"Fighter": 1.0}}, "frame: expected list, got 'Fighter'"),
    ("fuse", [], "mass function: expected a JSON object"),
    ("track", [], "confusion file: expected a JSON object"),
    ("simulate", [], "config file: expected a JSON object"),
    ("simulate", {"rules": ["pcr5"]}, 'rules[0]: expected an object like {"rule": "pcr5"}'),
    ("simulate", {"confusion": "x"}, "confusion: expected list, got 'x'"),
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
    assert capsys.readouterr().err == "error: %s\n" % message


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


def test_module_invocation(workdir):
    result = subprocess.run(
        [sys.executable, "-m", "evidfuse.cli", "fuse",
         path(workdir, "m1.json"), path(workdir, "m2.json"), "--rule", "pcr5"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["masses"]["Fighter"] == pytest.approx(0.495)
