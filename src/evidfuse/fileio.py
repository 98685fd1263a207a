"""File formats consumed and produced by the command-line interface.

JSON inputs
    mass function      {"frame": [labels...], "masses": {"A|B": 0.1, ...}}
    confusion matrix   {"frame": [labels...], "matrix": [[row]...]}
    simulation config  {"frame": [...], "confusion": [[...]], "segments":
                        [["Cargo", 30], ...], "runs": N, "master_seed": S,
                        "rules": [{"rule": "tcn", "tnorm": "min",
                        "tconorm": "max"}, ...], "criterion": "belief"}

Subset keys spell the included labels joined by "|" in frame order. Loaders
check only the JSON containers (a field is present, an object, a list or a
string); every rule about a value belongs to the type that holds it, and its
error is passed on through one re-wrap that leads with the field path. Rule,
operator and criterion names ignore case and surrounding spaces. Input files
are UTF-8, with or without a leading byte-order mark, and no JSON object may
repeat a key.

CSV outputs quote with the stdlib csv module, print masses with 12
significant digits, and sanitize frame labels in column names
(non-alphanumerics become underscores); the mapping from sanitized column
names back to subsets is echoed in a leading "#" comment line. A frame in
which two subsets get the same column name (["A", "B", "A_B"] names both A|B
and A_B "m_A_B") cannot be written and raises a FrameError. Writers format
only the mass columns with a set bit in the trace (-0.0 prints as -0) and join
the zeros between them once: the bytes of formatting every cell, at a cost
that grows with the columns that carry mass, not with the 2^M - 1 subsets.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import re
from typing import Sequence

import numpy as np

from .core import SUBSET_SEPARATOR, DecisionCriterion, Frame, MassFunction, make_bba, make_frame
from .errors import ConfigError, EvidenceError, FrameError
from .montecarlo import AveragedTrace, MonteCarloConfig, Scenario
from .operators import TConorm, TNorm
from .rules import Rule, RuleConfig
from .tracker import ConfusionMatrix, TrackRecord

_MASS_FIELD = "{:.12g}"


# ---------------------------------------------------------------------------
# JSON input formats
# ---------------------------------------------------------------------------

def _require(data: dict, key: str, kind: type = object, path: str = ""):
    """The value of a field that must be present and of type ``kind``."""
    if key not in data:
        raise ConfigError("%s: missing required field" % _join(path, key))
    value = data[key]
    if not isinstance(value, kind):
        raise ConfigError("%s: expected %s, got %r" % (_join(path, key), kind.__name__, value))
    return value


def _join(path: str, key: str) -> str:
    return "%s.%s" % (path, key) if path else key


def _spelling(data: dict, key: str, kind: type[enum.Enum], path: str = "") -> enum.Enum:
    """The member of ``kind`` that a string field spells, ignoring case and
    surrounding spaces."""
    name = _require(data, key, str, path)
    try:
        return kind(name.strip().lower())
    except ValueError:
        raise ConfigError(
            "%s: unknown %s %r (choose from %s)"
            % (_join(path, key), key, name, ", ".join(k.value for k in kind))
        ) from None


def _checked(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a value type's constructor, with its
    EvidenceError re-raised as a ConfigError led by ``path`` (if any)."""
    try:
        return build(*args, **kwargs)
    except EvidenceError as exc:
        raise ConfigError("%s: %s" % (path, exc) if path else str(exc)) from exc


def frame_from_json(data: dict) -> Frame:
    """The ``frame`` field of an input object; Frame's messages name it."""
    return _checked("", make_frame, _require(data, "frame", list))


def mass_function_from_json(data: object) -> MassFunction:
    if not isinstance(data, dict):
        raise ConfigError("mass function: expected a JSON object")
    return _checked("masses", make_bba, frame_from_json(data), _require(data, "masses", dict))


def load_mass_function(path: str) -> MassFunction:
    return mass_function_from_json(_load_json(path))


def mass_function_to_json(m: MassFunction) -> dict:
    return {
        "frame": list(m.frame.labels),
        "masses": {m.frame.format_subset(bits): m.masses[bits] for bits in sorted(m.masses)},
    }


def confusion_rows_from_json(frame: Frame, data: list, path: str) -> ConfusionMatrix:
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise ConfigError("%s[%d]: expected a list of numbers" % (path, i))
    return _checked(path, ConfusionMatrix, frame, tuple(data))


def load_confusion(path: str) -> ConfusionMatrix:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ConfigError("confusion file: expected a JSON object")
    return confusion_rows_from_json(frame_from_json(data), _require(data, "matrix", list), "matrix")


def rule_config_from_json(data: object, path: str) -> RuleConfig:
    if not isinstance(data, dict):
        raise ConfigError("%s: expected an object like {\"rule\": \"pcr5\"}" % path)
    rule = _spelling(data, "rule", Rule, path)
    operators = {key: _spelling(data, key, kind, path)
                 for key, kind in (("tnorm", TNorm), ("tconorm", TConorm)) if key in data}
    return _checked(path, RuleConfig, rule, **operators)


def rule_config_to_json(cfg: RuleConfig) -> dict:
    data = {"rule": cfg.rule.value}
    if cfg.rule is Rule.TCN:
        data["tnorm"] = cfg.tnorm.value
        data["tconorm"] = cfg.tconorm.value
    return data


def simulation_config_from_json(data: object) -> MonteCarloConfig:
    if not isinstance(data, dict):
        raise ConfigError("config file: expected a JSON object")
    frame = frame_from_json(data)
    confusion = confusion_rows_from_json(frame, _require(data, "confusion", list), "confusion")
    scenario = _checked("", Scenario, frame, tuple(_require(data, "segments", list)))
    raw_rules = _require(data, "rules", list)
    rules = tuple(rule_config_from_json(item, "rules[%d]" % i) for i, item in enumerate(raw_rules))
    criterion = (_spelling(data, "criterion", DecisionCriterion) if "criterion" in data
                 else DecisionCriterion.MAX_BELIEF)
    return MonteCarloConfig(
        scenario=scenario,
        confusion=confusion,
        rules=rules,
        runs=_require(data, "runs"),
        master_seed=_require(data, "master_seed"),
        criterion=criterion,
    )


def load_simulation_config(path: str) -> MonteCarloConfig:
    return simulation_config_from_json(_load_json(path))


def simulation_config_to_json(cfg: MonteCarloConfig) -> dict:
    return {
        "frame": list(cfg.frame.labels),
        "confusion": [list(row) for row in cfg.confusion.rows],
        "segments": [[label, duration] for label, duration in cfg.scenario.segments],
        "runs": cfg.runs,
        "master_seed": cfg.master_seed,
        "rules": [rule_config_to_json(rule) for rule in cfg.rules],
        "criterion": cfg.criterion.value,
    }


def load_declarations(path: str, frame: Frame) -> list[str]:
    """One declared label per line: the line itself when it is a label (labels
    may start or end with spaces), else the line stripped; blank lines are
    skipped."""
    declarations = []
    for number, line in enumerate(_read_text(path).split("\n"), start=1):
        label = line if line in frame.labels else line.strip()
        if not label:
            continue
        if label not in frame.labels:
            raise ConfigError(
                "%s, line %d: unknown label %r (frame is %s)"
                % (path, number, label, list(frame.labels))
            )
        declarations.append(label)
    if not declarations:
        raise ConfigError("%s: no declarations found" % path)
    return declarations


def _read_text(path: str) -> str:
    """Whole file as text with universal newlines, less a leading byte-order
    mark; bad UTF-8 is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("%s: not valid UTF-8 (%s)" % (path, exc)) from exc


def _load_json(path: str) -> object:
    """A JSON file's value; invalid JSON or a key repeated in one object is a
    ConfigError."""
    def unique(pairs: list) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise ConfigError("%s: duplicate key %r" % (path, key))
            data[key] = value
        return data

    try:
        return json.loads(_read_text(path), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError("%s: invalid JSON (%s)" % (path, exc)) from exc


# ---------------------------------------------------------------------------
# CSV / plot-data output formats
# ---------------------------------------------------------------------------

def sanitize_column(name: str) -> str:
    """Replace every non-alphanumeric character with an underscore."""
    return re.sub(r"[^0-9A-Za-z]", "_", name)


def _subset_columns(frame: Frame) -> tuple[list[str], str]:
    """Column names of the nonempty subsets in canonical order, and the mapping
    comment; each subset is spelled from the subset without its top label.
    Two subsets whose sanitized names coincide are a FrameError."""
    spellings, names = [""], ["m"]
    for label in frame.labels:
        column = "_" + sanitize_column(label)
        spellings += [s + SUBSET_SEPARATOR + label if s else label for s in spellings]
        names += [name + column for name in names]
    owners = dict(zip(names, spellings))
    if len(owners) < len(names):  # the first subset whose name a later one takes
        name, spelling = next((n, s) for n, s in zip(names, spellings) if owners[n] != s)
        raise FrameError("subsets %s and %s share the column name %s" % (spelling, owners[name], name))
    mapping = ", ".join("%s = %s" % pair for pair in zip(names[1:], spellings[1:]))
    return names[1:], "# columns: %s" % mapping


def format_mass(value: float) -> str:
    return _MASS_FIELD.format(value)


def _csv_cells(cells: Sequence[str]) -> str:
    """Cells quoted and joined by the stdlib csv writer, without the line end."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()[:-1]


def _mass_lines(heads: Sequence[str], rows: list[list[float]], live: list[int], width: int) -> list[str]:
    """CSV lines: an encoded head, then ``width`` number cells. The ``live``
    columns (their values in ``rows``) are :func:`format_mass` fields of the row
    template that ``str.format`` fills; the rest are ``format_mass(0.0)``."""
    template = ["{}"] + [format_mass(0.0)] * width
    for i in live:
        template[i + 1] = _MASS_FIELD
    template = ",".join(template)
    return [template.format(head, *row) for head, row in zip(heads, rows)]


def track_records_to_csv(records: Sequence[TrackRecord], frame: Frame) -> str:
    """Trace CSV: scan, declared, decision, then one mass column per subset."""
    names, comment = _subset_columns(frame)
    live = sorted({bits - 1 for record in records for bits in record.posterior.masses})
    rows = [[record.posterior.masses.get(i + 1, 0.0) for i in live] for record in records]
    heads = [_csv_cells([str(r.scan), r.declared, r.decision]) for r in records]
    lines = [comment, _csv_cells(["scan", "declared", "decision"] + names)]
    lines += _mass_lines(heads, rows, live, frame.full_set)
    return "\n".join(lines) + "\n"


def traces_to_csv(cfg: MonteCarloConfig, traces: Sequence[AveragedTrace]) -> str:
    """Averaged-trace CSV, one row per (rule, scan), in rule order then scan."""
    names, comment = _subset_columns(cfg.frame)
    true_types = {label: _csv_cells([label]) for label in cfg.frame.labels}
    truth = [true_types[label] for label in cfg.scenario.expand()]
    lines = [comment, _csv_cells(["rule", "tnorm", "tconorm", "scan", "true_type"] + names + ["correct_rate"])]
    for trace in traces:
        rule = trace.rule
        tnorm = rule.tnorm.value if rule.tnorm is not None else ""
        tconorm = rule.tconorm.value if rule.tconorm is not None else ""
        labels = _csv_cells([rule.rule.value, tnorm, tconorm])
        # columns follow subset order (column bits - 1); a column is live when
        # a bit of it is set, so -0.0 still prints as -0
        numbers = np.column_stack((trace.mean_masses, trace.correct_rate))
        live = np.flatnonzero(numbers.view(np.uint64).any(axis=0)).tolist()
        heads = ["%s,%d,%s" % (labels, k, t) for k, t in enumerate(truth, 1)]
        lines += _mass_lines(heads, numbers[:, live].tolist(), live, numbers.shape[1])
    return "\n".join(lines) + "\n"


def rule_file_tag(cfg: RuleConfig) -> str:
    """Filesystem-safe tag for one rule configuration."""
    if cfg.rule is Rule.TCN:
        return "tcn_%s_%s" % (cfg.tnorm.value, cfg.tconorm.value)
    return cfg.rule.value


def trace_plot_data(trace: AveragedTrace) -> str:
    """Gnuplot-ready columns: scan, then the mean mass of every singleton."""
    labels = trace.frame.labels
    names, _ = _subset_columns(trace.frame)
    series = np.column_stack([trace.singleton_series(label) for label in labels])
    lines = ["# scan " + " ".join(names[(1 << i) - 1] for i in range(len(labels)))]
    template = " ".join(["{}"] + [_MASS_FIELD] * len(labels))
    lines += [template.format(k, *row) for k, row in enumerate(series.tolist(), 1)]
    return "\n".join(lines) + "\n"
