"""JSON loaders, CSV writers, and plot-data emission."""

import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import seed_fileio

from evidfuse import (
    AveragedTrace,
    ConfigError,
    DecisionCriterion,
    FrameError,
    MonteCarloConfig,
    Rule,
    RuleConfig,
    Scenario,
    TConorm,
    TNorm,
    default_config,
    make_bba,
    make_frame,
    run_monte_carlo,
    run_track,
    uniform_diagonal_confusion,
)
from evidfuse.core import MassFunction
from evidfuse.fileio import (
    format_mass,
    frame_from_json,
    load_confusion,
    load_declarations,
    load_mass_function,
    load_simulation_config,
    mass_function_to_json,
    rule_file_tag,
    sanitize_column,
    simulation_config_to_json,
    trace_plot_data,
    traces_to_csv,
    track_records_to_csv,
)

from evidfuse.tracker import TrackRecord

from conftest import FC_FRAME


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


VALID_BBA = {"frame": ["Fighter", "Cargo"], "masses": {"Fighter": 0.9, "Fighter|Cargo": 0.1}}
VALID_CONFUSION = {"frame": ["Fighter", "Cargo"], "matrix": [[0.9, 0.1], [0.1, 0.9]]}
VALID_CONFIG = {
    "frame": ["Fighter", "Cargo"],
    "confusion": [[0.9, 0.1], [0.1, 0.9]],
    "segments": [["Cargo", 3], ["Fighter", 2]],
    "runs": 10,
    "master_seed": 42,
    "rules": [
        {"rule": "dempster"},
        {"rule": "tcn", "tnorm": "min", "tconorm": "max"},
    ],
}


# ---------------------------------------------------------------------------
# mass-function files
# ---------------------------------------------------------------------------

def test_load_mass_function(tmp_path):
    m = load_mass_function(write_json(tmp_path, "m.json", VALID_BBA))
    assert m.frame == FC_FRAME
    assert m.mass("Fighter") == 0.9
    assert m.mass("Fighter|Cargo") == pytest.approx(0.1, abs=1e-15)


def test_mass_function_json_round_trip(tmp_path):
    m = make_bba(FC_FRAME, {"Fighter": 0.25, "Cargo": 0.25, "Fighter|Cargo": 0.5})
    path = write_json(tmp_path, "m.json", mass_function_to_json(m))
    again = load_mass_function(path)
    assert again.masses == m.masses


def test_load_mass_function_errors(tmp_path):
    with pytest.raises(ConfigError, match="masses"):
        load_mass_function(
            write_json(tmp_path, "a.json", {"frame": ["F", "C"], "masses": {"F": 0.5}})
        )
    with pytest.raises(ConfigError, match="frame"):
        load_mass_function(write_json(tmp_path, "b.json", {"masses": {"F": 1.0}}))
    with pytest.raises(ConfigError, match="frame"):
        load_mass_function(
            write_json(tmp_path, "c.json", {"frame": ["OnlyOne"], "masses": {}})
        )
    with pytest.raises(ConfigError):
        load_mass_function(
            write_json(
                tmp_path, "d.json", {"frame": ["F", "C"], "masses": {"F": "big"}}
            )
        )
    with pytest.raises(ConfigError, match="Bomber"):
        load_mass_function(
            write_json(
                tmp_path, "e.json", {"frame": ["F", "C"], "masses": {"Bomber": 1.0}}
            )
        )


@pytest.mark.parametrize("value", [True, "1.0", None])
def test_loaders_pass_on_the_types_number_check(tmp_path, value):
    # JSON true or "1.0" is not a mass or a probability; the message is the type's own
    with pytest.raises(ConfigError, match=r"^masses: make_bba: mass .* on F is not a number"):
        load_mass_function(write_json(tmp_path, "m.json", {"frame": ["F", "C"], "masses": {"F": value}}))
    matrix = {"frame": ["F", "C"], "matrix": [[value, 0.0], [0.0, 1.0]]}
    with pytest.raises(ConfigError, match=r"^matrix: confusion matrix row 0 has entry .*, not a number"):
        load_confusion(write_json(tmp_path, "c.json", matrix))


def test_load_mass_function_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_mass_function(str(path))


def write_with_bom(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return str(path)


def test_load_mass_function_reads_a_leading_byte_order_mark(tmp_path):
    m = load_mass_function(write_with_bom(tmp_path, "m.json", json.dumps(VALID_BBA)))
    assert m.masses == load_mass_function(write_json(tmp_path, "plain.json", VALID_BBA)).masses


def test_load_mass_function_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"frame": ["Fighter", "Cargo"], "masses": {"Fighter": 0.3, "Fighter": 0.7, "Cargo": 0.3}}',
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="^%s: duplicate key 'Fighter'$" % re.escape(str(path))):
        load_mass_function(str(path))


# ---------------------------------------------------------------------------
# confusion files
# ---------------------------------------------------------------------------

def test_load_confusion(tmp_path):
    cm = load_confusion(write_json(tmp_path, "cm.json", VALID_CONFUSION))
    assert cm.frame == FC_FRAME
    assert cm.diagonal("Cargo") == 0.9


def test_load_confusion_errors(tmp_path):
    bad_row = {"frame": ["F", "C"], "matrix": [[0.9, 0.1], [0.9, "x"]]}
    with pytest.raises(ConfigError, match=r"^matrix: confusion matrix row 1 has entry 'x', not a number"):
        load_confusion(write_json(tmp_path, "a.json", bad_row))
    not_a_row = {"frame": ["F", "C"], "matrix": [[0.9, 0.1], 0.9]}
    with pytest.raises(ConfigError, match=r"matrix\[1\]: expected a list of numbers"):
        load_confusion(write_json(tmp_path, "c.json", not_a_row))
    nonstochastic = {"frame": ["F", "C"], "matrix": [[0.9, 0.3], [0.1, 0.9]]}
    with pytest.raises(ConfigError, match="matrix"):
        load_confusion(write_json(tmp_path, "b.json", nonstochastic))


# ---------------------------------------------------------------------------
# simulation config files
# ---------------------------------------------------------------------------

def test_load_simulation_config(tmp_path):
    cfg = load_simulation_config(write_json(tmp_path, "sim.json", VALID_CONFIG))
    assert cfg.runs == 10
    assert cfg.master_seed == 42
    assert cfg.scenario.expand() == ("Cargo", "Cargo", "Cargo", "Fighter", "Fighter")
    assert cfg.rules[0] == RuleConfig(Rule.DEMPSTER)
    assert cfg.rules[1] == RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX)
    assert cfg.criterion is DecisionCriterion.MAX_BELIEF


def test_load_simulation_config_criterion(tmp_path):
    data = dict(VALID_CONFIG, criterion="pignistic")
    cfg = load_simulation_config(write_json(tmp_path, "sim.json", data))
    assert cfg.criterion is DecisionCriterion.MAX_PIGNISTIC


def test_load_simulation_config_spellings_ignore_case_and_spaces(tmp_path):
    data = dict(VALID_CONFIG, criterion=" Pignistic ", rules=[
        {"rule": " PCR5"},
        {"rule": "TCN", "tnorm": "PRODUCT", "tconorm": "max"},
        {"rule": "tcn ", "tnorm": " bounded ", "tconorm": "Sum"},
    ])
    cfg = load_simulation_config(write_json(tmp_path, "sim.json", data))
    assert cfg.rules == (
        RuleConfig(Rule.PCR5),
        RuleConfig(Rule.TCN, TNorm.PRODUCT, TConorm.MAX),
        RuleConfig(Rule.TCN, TNorm.BOUNDED, TConorm.SUM),
    )
    assert cfg.criterion is DecisionCriterion.MAX_PIGNISTIC


def test_load_simulation_config_rejects_unknown_tconorm(tmp_path):
    # an unknown t-norm is among test_load_simulation_config_field_paths' cases
    data = dict(VALID_CONFIG, rules=[{"rule": "tcn", "tnorm": "min", "tconorm": "probabilistic"}])
    with pytest.raises(ConfigError, match=r"rules\[0\]\.tconorm: unknown tconorm 'probabilistic'"):
        load_simulation_config(write_json(tmp_path, "sim.json", data))


@pytest.mark.parametrize("labels", [
    ["", "B"],
    ["A|B", "C"],
    ["A", "A"],
    ["Fig\nhter", "Cargo"],
    ["Fighter", "Cargo\r"],
    ["A"],
    ["T%d" % i for i in range(17)],
    ["A", 5],
], ids=["empty", "separator", "duplicate", "newline", "carriage-return", "one-label", "17-labels",
        "not-a-string"])
def test_frame_loader_passes_the_frame_error_on(labels):
    with pytest.raises(FrameError) as expected:
        make_frame(labels)
    with pytest.raises(ConfigError) as raised:
        frame_from_json({"frame": labels})
    assert str(raised.value).endswith(str(expected.value))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("runs"), "runs"),
        (lambda d: d.update(runs=2.5), "runs"),
        (lambda d: d.update(runs=0), "runs"),
        (lambda d: d.pop("master_seed"), "master_seed"),
        (lambda d: d.update(segments=[["Cargo", 0]]), "segments"),
        (lambda d: d.update(segments=[["Cargo"]]), r"segments\[0\]"),
        (lambda d: d.update(rules=[{"rule": "median"}]), r"rules\[0\]\.rule"),
        (
            lambda d: d.update(rules=[{"rule": "tcn", "tnorm": "min"}]),
            r"rules\[0\]",
        ),
        (
            lambda d: d.update(
                rules=[{"rule": "tcn", "tnorm": "geometric", "tconorm": "max"}]
            ),
            r"rules\[0\]\.tnorm",
        ),
        (
            lambda d: d.update(rules=[{"rule": "pcr5", "tnorm": "min"}]),
            r"rules\[0\]",
        ),
        (lambda d: d.update(criterion="entropy"), "criterion"),
        (lambda d: d.update(confusion=[[1.0, 0.0]]), "confusion"),
    ],
)
def test_load_simulation_config_field_paths(tmp_path, mutate, message):
    data = json.loads(json.dumps(VALID_CONFIG))
    mutate(data)
    with pytest.raises(ConfigError, match=message):
        load_simulation_config(write_json(tmp_path, "sim.json", data))


@pytest.mark.parametrize("segments, message", [
    ([["Cargo"]], "segments[0]: expected a (label, duration) pair, got ['Cargo']"),
    ([["Cargo", 0]], "segments[0]: duration must be a positive integer, got 0"),
    ([["Bomber", 3]], "segments[0]: unknown label 'Bomber' (frame is ['Fighter', 'Cargo'])"),
    ([], "segments: scenario needs at least one segment"),
], ids=["not-a-pair", "zero-duration", "unknown-label", "empty"])
def test_segment_errors_name_the_field_once(tmp_path, segments, message):
    # Scenario's own message, which leads with the field, is passed on unchanged
    data = dict(VALID_CONFIG, segments=segments)
    with pytest.raises(ConfigError) as raised:
        load_simulation_config(write_json(tmp_path, "sim.json", data))
    assert str(raised.value) == message


def test_load_simulation_config_reads_a_leading_byte_order_mark(tmp_path):
    cfg = load_simulation_config(write_with_bom(tmp_path, "sim.json", json.dumps(VALID_CONFIG)))
    assert cfg == load_simulation_config(write_json(tmp_path, "plain.json", VALID_CONFIG))


def test_load_simulation_config_rejects_a_repeated_key(tmp_path):
    text = json.dumps(VALID_CONFIG)[:-1] + ', "runs": 20}'
    path = tmp_path / "sim.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="^%s: duplicate key 'runs'$" % re.escape(str(path))):
        load_simulation_config(str(path))


def test_simulation_config_round_trip(tmp_path):
    cfg = default_config(runs=12, master_seed=9)
    path = write_json(tmp_path, "sim.json", simulation_config_to_json(cfg))
    assert load_simulation_config(path) == cfg


def test_committed_default_config_matches_code():
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert load_simulation_config(str(path)) == default_config()


# ---------------------------------------------------------------------------
# declaration files
# ---------------------------------------------------------------------------

def test_load_declarations(tmp_path):
    path = tmp_path / "decls.txt"
    path.write_text("Fighter\n\nCargo\n  Fighter  \n", encoding="utf-8")
    assert load_declarations(str(path), FC_FRAME) == ["Fighter", "Cargo", "Fighter"]


def test_load_declarations_unknown_label_has_line_number(tmp_path):
    path = tmp_path / "decls.txt"
    path.write_text("Fighter\nBomber\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2"):
        load_declarations(str(path), FC_FRAME)


def test_load_declarations_matches_a_label_with_outer_spaces(tmp_path):
    path = tmp_path / "decls.txt"
    path.write_text(" lead\nB\n  B \n\n", encoding="utf-8")
    assert load_declarations(str(path), make_frame([" lead", "B"])) == [" lead", "B", "B"]


def test_load_declarations_reads_a_leading_byte_order_mark(tmp_path):
    path = write_with_bom(tmp_path, "decls.txt", "Fighter\nCargo\n")
    assert load_declarations(path, FC_FRAME) == ["Fighter", "Cargo"]


def test_load_declarations_byte_order_mark_on_a_later_line_is_an_unknown_label(tmp_path):
    path = write_with_bom(tmp_path, "decls.txt", "Fighter\n\ufeffCargo\n")
    with pytest.raises(ConfigError, match=r"line 2: unknown label '\\ufeffCargo'"):
        load_declarations(path, FC_FRAME)


def test_load_declarations_rejects_empty(tmp_path):
    path = tmp_path / "decls.txt"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="no declarations"):
        load_declarations(str(path), FC_FRAME)


# ---------------------------------------------------------------------------
# CSV and plot data
# ---------------------------------------------------------------------------

def test_format_mass_uses_12_significant_digits():
    assert format_mass(1.0 / 3.0) == "0.333333333333"
    assert format_mass(0.9) == "0.9"
    assert format_mass(1e-05) == "1e-05"


def test_sanitize_column():
    assert sanitize_column("Fighter") == "Fighter"
    assert sanitize_column("Fighter|Cargo") == "Fighter_Cargo"
    assert sanitize_column("F-16 A/B") == "F_16_A_B"


def test_track_csv_layout():
    confusion = uniform_diagonal_confusion(FC_FRAME, 0.9)
    records = run_track(["Fighter", "Cargo"], confusion, RuleConfig(Rule.PCR5))
    text = track_records_to_csv(records, FC_FRAME)
    lines = text.splitlines()
    assert lines[0] == (
        "# columns: m_Fighter = Fighter, m_Cargo = Cargo, "
        "m_Fighter_Cargo = Fighter|Cargo"
    )
    assert lines[1] == "scan,declared,decision,m_Fighter,m_Cargo,m_Fighter_Cargo"
    assert lines[2] == "1,Fighter,Fighter,0.9,0,0.1"
    row = lines[3].split(",")
    assert row[0] == "2"
    assert row[1] == "Cargo"
    assert float(row[3]) == pytest.approx(0.495, abs=1e-12)
    assert float(row[5]) == pytest.approx(0.01, abs=1e-12)


def test_simulation_csv_layout():
    cfg = MonteCarloConfig(
        scenario=Scenario(FC_FRAME, (("Cargo", 2), ("Fighter", 1))),
        confusion=uniform_diagonal_confusion(FC_FRAME, 0.9),
        rules=(RuleConfig(Rule.PCR5), RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX)),
        runs=2,
        master_seed=3,
    )
    traces = run_monte_carlo(cfg)
    text = traces_to_csv(cfg, traces)
    lines = text.splitlines()
    assert lines[1] == (
        "rule,tnorm,tconorm,scan,true_type,"
        "m_Fighter,m_Cargo,m_Fighter_Cargo,correct_rate"
    )
    # one block per rule, in rule order, scans ascending
    assert [l.split(",")[:4] for l in lines[2:]] == [
        ["pcr5", "", "", "1"],
        ["pcr5", "", "", "2"],
        ["pcr5", "", "", "3"],
        ["tcn", "min", "max", "1"],
        ["tcn", "min", "max", "2"],
        ["tcn", "min", "max", "3"],
    ]
    assert lines[2].split(",")[4] == "Cargo"
    assert lines[4].split(",")[4] == "Fighter"


def test_rule_file_tags():
    assert rule_file_tag(RuleConfig(Rule.DEMPSTER)) == "dempster"
    assert rule_file_tag(RuleConfig(Rule.PCR5)) == "pcr5"
    assert (
        rule_file_tag(RuleConfig(Rule.TCN, TNorm.BOUNDED, TConorm.MAX))
        == "tcn_bounded_max"
    )


def test_plot_data_columns():
    cfg = default_config(runs=2, master_seed=3)
    trace = run_monte_carlo(cfg)[1]
    text = trace_plot_data(trace)
    lines = text.splitlines()
    assert lines[0] == "# scan m_Fighter m_Cargo"
    assert len(lines) == 101
    first = lines[1].split(" ")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(trace.mean_masses[0, 0], rel=1e-11)
    assert float(first[2]) == pytest.approx(trace.mean_masses[0, 1], rel=1e-11)
    last = lines[-1].split(" ")
    assert last[0] == "100"


def test_plot_data_is_parseable_as_floats():
    cfg = default_config(runs=2, master_seed=3)
    trace = run_monte_carlo(cfg)[0]
    for line in trace_plot_data(trace).splitlines()[1:]:
        parts = line.split(" ")
        assert len(parts) == 3
        values = [float(p) for p in parts[1:]]
        assert all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# sparse row encoder against the writers that formatted every cell
# (tests/seed_fileio.py)
# ---------------------------------------------------------------------------

#: Labels the csv writer must quote, plus spaces and non-ASCII text.
AWKWARD_LABELS = ["a,b", 'say "hi"', " lead", "two words", "Überflug", "戦闘機", "x\t", "F-16 A/B"]

#: Mass values that stress the formatter: signed zeros, subnormals, ties.
AWKWARD_MASSES = [0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, 0.1, 0.5, 1.0, 1e-05, 123456789.123]

ALL_RULE_CONFIGS = [RuleConfig(Rule.DEMPSTER), RuleConfig(Rule.PCR5)] + [
    RuleConfig(Rule.TCN, tnorm, tconorm) for tnorm in TNorm for tconorm in TConorm
]


def awkward_labels(m):
    return (st.lists(st.sampled_from(AWKWARD_LABELS) | st.text(min_size=1, max_size=4),
                     min_size=m, max_size=m, unique=True)
            .filter(lambda ls: not any(c in label for label in ls for c in "|\n\r")))


def repeats_a_column_name(frame):
    """Whether two subsets get one name from the dense writers' own naming."""
    names = seed_fileio._subset_columns(frame)[1]
    return len(set(names)) < len(names)


def awkward_frame(draw, m):
    frame = make_frame(draw(awkward_labels(m)))
    # the writers refuse such a frame: test_writers_refuse_exactly_the_frames_that_repeat_a_column_name
    assume(not repeats_a_column_name(frame))
    return frame


def sparse_masses(draw, rows, width):
    """A (rows, width) array that is zero outside a few drawn columns; a drawn
    column may still hold only +0.0 (as Dempster's underflowed ignorance)."""
    masses = np.zeros((rows, width))
    for column in draw(st.lists(st.integers(0, width - 1), max_size=6, unique=True)):
        masses[:, column] = draw(st.lists(st.sampled_from(AWKWARD_MASSES) | st.floats(0.0, 1.0),
                                          min_size=rows, max_size=rows))
    return masses


@st.composite
def simulation_outputs(draw, m):
    frame = awkward_frame(draw, m)
    segments = draw(st.lists(st.tuples(st.sampled_from(frame.labels), st.integers(1, 3)),
                             min_size=1, max_size=3))
    cfg = MonteCarloConfig(
        scenario=Scenario(frame, tuple(segments)),
        confusion=uniform_diagonal_confusion(frame, 0.9),
        rules=tuple(draw(st.lists(st.sampled_from(ALL_RULE_CONFIGS), min_size=1, max_size=4,
                                  unique=True))),
        runs=1,
        master_seed=0,
    )
    truth = cfg.scenario.expand()
    traces = [
        AveragedTrace(rule=rule, frame=frame, truth=truth,
                      mean_masses=sparse_masses(draw, len(truth), frame.full_set),
                      correct_rate=sparse_masses(draw, len(truth), 1)[:, 0])
        for rule in cfg.rules
    ]
    return cfg, traces


@st.composite
def track_outputs(draw, m):
    frame = awkward_frame(draw, m)
    masses = sparse_masses(draw, draw(st.integers(1, 4)), frame.full_set)
    # a focal set may carry an explicit +0.0 or -0.0 in the posterior dict
    shown = draw(st.sets(st.integers(1, frame.full_set), max_size=3))
    records = [
        TrackRecord(scan=k + 1, declared=draw(st.sampled_from(frame.labels)),
                    posterior=MassFunction(frame, {bits + 1: value for bits, value in enumerate(row)
                                                   if value or bits + 1 in shown}),
                    decision=draw(st.sampled_from(frame.labels)))
        for k, row in enumerate(masses.tolist())
    ]
    return frame, records


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.integers(2, 8))
def test_simulation_csv_matches_the_dense_writer_byte_for_byte(data, m):
    cfg, traces = data.draw(simulation_outputs(m))
    assert traces_to_csv(cfg, traces) == seed_fileio.traces_to_csv(cfg, traces)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.integers(2, 8))
def test_track_csv_matches_the_dense_writer_byte_for_byte(data, m):
    frame, records = data.draw(track_outputs(m))
    assert track_records_to_csv(records, frame) == seed_fileio.track_records_to_csv(records, frame)


def test_csv_writers_match_on_a_4095_column_frame():
    frame = make_frame(AWKWARD_LABELS + ["L%d" % i for i in range(4)])
    cfg = MonteCarloConfig(
        scenario=Scenario(frame, (("a,b", 2), ("Überflug", 1))),
        confusion=uniform_diagonal_confusion(frame, 0.9),
        rules=(RuleConfig(Rule.DEMPSTER), RuleConfig(Rule.TCN, TNorm.MIN, TConorm.MAX)),
        runs=1,
        master_seed=0,
    )
    truth = cfg.scenario.expand()
    masses = np.zeros((3, frame.full_set))
    masses[:, [0, 7, frame.full_set - 1]] = [[0.5, -0.0, 0.5], [1.0 / 3.0, 0.0, 2.0 / 3.0], [5e-324, 1.0, 0.0]]
    traces = [AveragedTrace(cfg.rules[0], frame, truth, masses, np.array([1.0, 0.5, -0.0])),
              AveragedTrace(cfg.rules[1], frame, truth, np.zeros_like(masses), np.zeros(3))]
    text = traces_to_csv(cfg, traces)
    assert len(text.split("\n")[1].split(",")) == 5 + 4095 + 1
    assert text == seed_fileio.traces_to_csv(cfg, traces)
    records = [TrackRecord(1, "a,b", MassFunction(frame, {1: 0.25, frame.full_set: 0.75}), "戦闘機")]
    assert track_records_to_csv(records, frame) == seed_fileio.track_records_to_csv(records, frame)


def test_negative_zero_and_all_zero_traces_print_like_the_dense_writer():
    cfg = MonteCarloConfig(
        scenario=Scenario(FC_FRAME, (("Cargo", 2),)),
        confusion=uniform_diagonal_confusion(FC_FRAME, 0.9),
        rules=(RuleConfig(Rule.DEMPSTER), RuleConfig(Rule.PCR5)),
        runs=1,
        master_seed=0,
    )
    truth = cfg.scenario.expand()
    traces = [
        AveragedTrace(cfg.rules[0], FC_FRAME, truth, np.array([[0.0, -0.0, 1.0], [0.0, 0.0, 1.0]]), np.zeros(2)),
        AveragedTrace(cfg.rules[1], FC_FRAME, truth, np.zeros((2, 3)), np.zeros(2)),
    ]
    text = traces_to_csv(cfg, traces)
    assert text.splitlines()[2:] == [
        "dempster,,,1,Cargo,0,-0,1,0",
        "dempster,,,2,Cargo,0,0,1,0",
        "pcr5,,,1,Cargo,0,0,0,0",
        "pcr5,,,2,Cargo,0,0,0,0",
    ]
    assert text == seed_fileio.traces_to_csv(cfg, traces)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.integers(2, 8))
def test_plot_data_matches_the_per_cell_writer_byte_for_byte(data, m):
    cfg, traces = data.draw(simulation_outputs(m))
    trace = traces[0]
    # any double may reach a singleton column here: NaN, infinities, -0.0, subnormals
    singleton = trace.frame.singleton(data.draw(st.sampled_from(trace.frame.labels))) - 1
    trace.mean_masses[:, singleton] = data.draw(st.lists(st.floats(), min_size=len(trace.truth),
                                                         max_size=len(trace.truth)))
    assert trace_plot_data(trace) == seed_fileio.trace_plot_data(trace)


COLLIDING_FRAMES = [(["A", "B", "A_B"], "A|B", "A_B"), (["A-B", "A_B"], "A-B", "A_B")]


def _write(writer, frame):
    """One output of ``writer`` over ``frame``, with a trace of two scans."""
    cfg = MonteCarloConfig(scenario=Scenario(frame, ((frame.labels[0], 2),)),
                           confusion=uniform_diagonal_confusion(frame, 0.9),
                           rules=(RuleConfig(Rule.PCR5),), runs=1, master_seed=0)
    trace = AveragedTrace(cfg.rules[0], frame, cfg.scenario.expand(), np.zeros((2, frame.full_set)), np.zeros(2))
    if writer == "traces_to_csv":
        return traces_to_csv(cfg, [trace])
    if writer == "track_records_to_csv":
        posterior = MassFunction(frame, {frame.full_set: 1.0})
        return track_records_to_csv([TrackRecord(1, frame.labels[0], posterior, frame.labels[0])], frame)
    return trace_plot_data(trace)


WRITERS = ["traces_to_csv", "track_records_to_csv", "trace_plot_data"]


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("labels, first, second", COLLIDING_FRAMES)
def test_writers_refuse_a_frame_whose_subsets_share_a_column_name(writer, labels, first, second):
    # a reader that goes by column name could not tell the two subsets apart
    message = r"^subsets %s and %s share the column name m_A_B$" % (re.escape(first), re.escape(second))
    with pytest.raises(FrameError, match=message):
        _write(writer, make_frame(labels))


@settings(max_examples=60, deadline=None)
@given(labels=st.integers(2, 6).flatmap(awkward_labels), writer=st.sampled_from(WRITERS))
def test_writers_refuse_exactly_the_frames_that_repeat_a_column_name(labels, writer):
    frame = make_frame(labels)
    if repeats_a_column_name(frame):
        with pytest.raises(FrameError, match="share the column name"):
            _write(writer, frame)
    else:
        _write(writer, frame)


def test_plot_data_reads_the_singleton_columns():
    frame = make_frame(["A", "B", "C"])
    masses = np.arange(1.0, 15.0).reshape(2, 7) / 16.0
    trace = AveragedTrace(RuleConfig(Rule.PCR5), frame, ("A", "B"), masses, np.zeros(2))
    assert trace_plot_data(trace) == "# scan m_A m_B m_C\n1 0.0625 0.125 0.25\n2 0.5 0.5625 0.6875\n"
