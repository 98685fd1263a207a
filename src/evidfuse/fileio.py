"""File formats consumed and produced by the command-line interface.

JSON inputs
    mass function      {"frame": [labels...], "masses": {"A|B": 0.1, ...}}
    confusion matrix   {"frame": [labels...], "matrix": [[row]...]}
    simulation config  {"frame": [...], "confusion": [[...]], "segments":
                        [["Cargo", 30], ...], "runs": N, "master_seed": S,
                        "rules": [{"rule": "tcn", "tnorm": "min",
                        "tconorm": "max"}, ...], "criterion": "belief"}

Subset keys spell the included labels joined by "|" in frame order. Each
input file has one loader, ``load_*``, which reads it through one JSON reader
that requires an object. Loaders check only the JSON containers (a field is
present, an object, a list or a string); every rule about a value belongs to
the type that holds it, and its error is passed on through one re-wrap that
leads with the field path. One wrapper then leads every error of a loader
with the path of its file. A simulation config and its rule objects may hold
only the fields above; every field of the other files is required. Rule,
operator and criterion names in a file ignore case and surrounding spaces.
The CLI's rule flags are read by the same rule reader, but argparse takes
only the exact lowercase names that ``--help`` lists (``--rule PCR5`` is
rejected before the reader runs). Input files are UTF-8, with or without a
leading byte-order mark, and no JSON object may repeat a key. A rule config
has one spelling, :func:`rule_config_to_json`, its fields that are set;
config files, the CSV's rule cells and the plot-data file tags all write it.

Every output file is written here, and the CLI writes the text it gets back.
``fuse`` prints :func:`fusion_json`, the mass-function format with an
optional ``report`` object, or :func:`fusion_csv`. CSV outputs quote with the
stdlib csv module, print masses with 12 significant digits, and sanitize
frame labels in column names (non-alphanumerics become underscores); the
mapping from sanitized column names back to subsets is echoed in a leading
"#" comment line. A frame in which two subsets get the same column name
(["A", "B", "A_B"] names both A|B and A_B "m_A_B") cannot be written and
raises a FrameError. Writers format only the columns a track reaches (-0.0
prints as -0), for a simulation the subsets of
:attr:`~evidfuse.montecarlo.AveragedTrace.subsets`, and join the zeros between
them once: the bytes of formatting every cell, at a cost that grows with the
reached columns, not with the 2^M - 1 subsets. The simulation CSV streams:
:func:`traces_csv_blocks`, its one writer, checks every trace on the call and
then formats one block of lines per trace, which the CLI writes as it comes,
so a writer holds one trace's lines, not the whole file. A frame's column
names and their CSV cells are built once: the writers share those of the last
frame they were built for, so one ``simulate`` builds them once for its CSV
and its plot data, and repeated calls over one frame build them once. The fuse
CSV quotes a subset cell that starts with "#", so a reader that skips "#"
comment lines keeps its row.
"""

from __future__ import annotations

import csv
import enum
import functools
import io
import json
import re
from collections.abc import Iterator, Sequence
from itertools import chain

from .core import SUBSET_SEPARATOR, DecisionCriterion, Frame, MassFunction, make_bba, make_frame
from .errors import ConfigError, EvidenceError, FrameError, FrameMismatchError
from .montecarlo import AveragedTrace, MonteCarloConfig, Scenario
from .operators import TConorm, TNorm
from .rules import Rule, RuleConfig
from .tracker import ConfusionMatrix, TrackRecord

_MASS_FIELD = "%.12g"


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


def _only(data: dict, fields: Sequence[str], path: str = "") -> None:
    """Refuse the first key of ``data`` that is not one of ``fields``."""
    for key in data:
        if key not in fields:
            raise ConfigError("%s: unknown field (choose from %s)" % (_join(path, key), ", ".join(fields)))


def _naming_the_file(load):
    """``load`` with every ConfigError it raises led by its first argument,
    the path of the file it reads."""
    @functools.wraps(load)
    def named(path: str, *args):
        try:
            return load(path, *args)
        except ConfigError as exc:
            raise ConfigError("%s: %s" % (path, exc)) from exc
    return named


#: The fields of a simulation config file, in the order its writer puts them.
_CONFIG_FIELDS = ("frame", "confusion", "segments", "runs", "master_seed", "rules", "criterion")


def frame_from_json(data: dict) -> Frame:
    """The ``frame`` field of an input object; Frame's messages name it."""
    return _checked("", make_frame, _require(data, "frame", list))


@_naming_the_file
def load_mass_function(path: str) -> MassFunction:
    data = _load_json(path, "mass function")
    return _checked("", make_bba, frame_from_json(data), _require(data, "masses", dict))


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


@_naming_the_file
def load_confusion(path: str) -> ConfusionMatrix:
    data = _load_json(path, "confusion file")
    return confusion_rows_from_json(frame_from_json(data), _require(data, "matrix", list), "matrix")


def rule_config_from_json(data: object, path: str) -> RuleConfig:
    if not isinstance(data, dict):
        raise ConfigError("%s: expected an object like {\"rule\": \"pcr5\"}" % path)
    _only(data, RuleConfig._fields, path)
    rule = _spelling(data, "rule", Rule, path)
    operators = {key: _spelling(data, key, kind, path)
                 for key, kind in (("tnorm", TNorm), ("tconorm", TConorm)) if key in data}
    return _checked(path, RuleConfig, rule, **operators)


def rule_config_to_json(cfg: RuleConfig) -> dict:
    """The fields of ``cfg`` that are set, by name: the one spelling of a rule
    config, which config files, CSV cells and file tags all write."""
    fields = ((key, getattr(cfg, key)) for key in RuleConfig._fields)
    return {key: value.value for key, value in fields if value is not None}


@_naming_the_file
def load_simulation_config(path: str) -> MonteCarloConfig:
    data = _load_json(path, "config file")
    _only(data, _CONFIG_FIELDS)
    frame = frame_from_json(data)
    confusion = confusion_rows_from_json(frame, _require(data, "confusion", list), "confusion")
    scenario = _checked("", Scenario, frame, tuple(_require(data, "segments", list)))
    raw_rules = _require(data, "rules", list)
    rules = tuple(rule_config_from_json(item, "rules[%d]" % i) for i, item in enumerate(raw_rules))
    # the criterion is passed only when the file has one: MonteCarloConfig holds the default
    optional = {"criterion": _spelling(data, "criterion", DecisionCriterion)} if "criterion" in data else {}
    return MonteCarloConfig(
        scenario=scenario,
        confusion=confusion,
        rules=rules,
        runs=_require(data, "runs"),
        master_seed=_require(data, "master_seed"),
        **optional,
    )


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


@_naming_the_file
def load_declarations(path: str, frame: Frame) -> list[str]:
    """One declared label per line: the line itself when it is a label (labels
    may start or end with spaces), else the line stripped; blank lines are
    skipped."""
    declarations = []
    labels = frame._positions
    for number, line in enumerate(_read_text(path).split("\n"), start=1):
        label = line if line in labels else line.strip()
        if not label:
            continue
        if label not in labels:
            raise ConfigError("line %d: %s" % (number, frame._unknown(label)))
        declarations.append(label)
    if not declarations:
        raise ConfigError("no declarations found")
    return declarations


def _read_text(path: str) -> str:
    """Whole file as text with universal newlines, less a leading byte-order
    mark; bad UTF-8 is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("not valid UTF-8 (%s)" % exc) from exc


def _load_json(path: str, kind: str) -> dict:
    """The object a JSON file holds, the one reader of every JSON input;
    invalid JSON, a key repeated in one object, or a value that is not an
    object (named as ``kind``, the kind of file) is a ConfigError."""
    def unique(pairs: list) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise ConfigError("duplicate key %r" % key)
            data[key] = value
        return data

    try:
        data = json.loads(_read_text(path), object_pairs_hook=unique)
    except ConfigError:  # a duplicate key or bad UTF-8, a ValueError but no parse failure
        raise
    except (ValueError, RecursionError) as exc:  # also too deep or too long a number
        raise ConfigError("invalid JSON (%s)" % exc) from exc
    if not isinstance(data, dict):
        raise ConfigError("%s: expected a JSON object" % kind)
    return data


# ---------------------------------------------------------------------------
# CSV / plot-data output formats
# ---------------------------------------------------------------------------

def sanitize_column(name: str) -> str:
    """Replace every non-alphanumeric character with an underscore."""
    return re.sub(r"[^0-9A-Za-z]", "_", name)


@functools.lru_cache(maxsize=1)
def _subset_columns(frame: Frame) -> tuple[tuple[str, ...], str, str]:
    """Column names of the nonempty subsets in canonical order, the same names
    as CSV cells, and the mapping comment; each subset is spelled from the
    subset without its top label. Two subsets whose sanitized names coincide
    are a FrameError. The result for the last frame is kept, so the writers of
    one frame build and encode its names once; the names are a tuple, so no
    caller can change the kept value."""
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
    return tuple(names[1:]), _csv_cells(names[1:]), "# columns: %s" % mapping


def format_mass(value: float) -> str:
    return _MASS_FIELD % value


def _csv_cells(cells: Sequence[str]) -> str:
    """Cells quoted and joined by the stdlib csv writer, without the line end."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()[:-1]


def _mass_lines(heads: Sequence[str], rows: list[list[float]], live: list[int], width: int) -> list[str]:
    """CSV lines: an encoded head, then ``width`` number cells. The ``live``
    columns (their values in ``rows``) are :func:`format_mass` fields of the row
    template that ``%`` fills; the rest are ``format_mass(0.0)``."""
    template = ["%s"] + [format_mass(0.0)] * width
    for i in live:
        template[i + 1] = _MASS_FIELD
    template = ",".join(template)
    return [template % (head, *row) for head, row in zip(heads, rows)]


def fusion_json(fused: MassFunction, report: dict | None) -> str:
    """``fuse``'s JSON output: the mass function, which :func:`load_mass_function`
    reads back, with the report, if any, under ``report``."""
    payload = mass_function_to_json(fused)
    return json.dumps(dict(payload, report=report) if report else payload, indent=2) + "\n"


def fusion_csv(fused: MassFunction, report: dict | None) -> str:
    """``fuse``'s CSV output: the report, if any, as "#" lines, then one
    ``subset,mass`` row per focal set in canonical order."""
    lines = []
    if report:
        lines += ["# rule: %s" % report["rule"], "# total_conflict: %s" % format_mass(report["total_conflict"])]
        lines += ["# redistributed %s: %s" % (s, format_mass(d)) for s, d in report["redistributed"].items()]
    lines.append("subset,mass")
    for bits in sorted(fused.masses):
        subset = _csv_cells([fused.frame.format_subset(bits)])
        if subset.startswith("#"):  # quoted, or a reader that skips "#" comments drops the row
            subset = '"%s"' % subset
        lines.append("%s,%s" % (subset, format_mass(fused.masses[bits])))
    return "\n".join(lines) + "\n"


def track_records_to_csv(records: Sequence[TrackRecord], frame: Frame) -> str:
    """Trace CSV: scan, declared, decision, then one mass column per subset."""
    _, cells, comment = _subset_columns(frame)
    live = sorted({bits - 1 for record in records for bits in record.posterior.masses})
    rows = [[record.posterior.masses.get(i + 1, 0.0) for i in live] for record in records]
    heads = [_csv_cells([str(r.scan), r.declared, r.decision]) for r in records]
    lines = [comment, "scan,declared,decision," + cells]
    lines += _mass_lines(heads, rows, live, frame.full_set)
    return "\n".join(lines) + "\n"


def traces_csv_blocks(cfg: MonteCarloConfig, traces: Sequence[AveragedTrace]) -> Iterator[str]:
    """Averaged-trace CSV in blocks of whole lines: the column comment and the
    header, then one block per trace, one row per (rule, scan), in rule order
    then scan. Every trace is checked against ``cfg`` by the call itself,
    before any block is formatted, so that for a refused trace an existing
    file is not half rewritten."""
    _, cells, comment = _subset_columns(cfg.frame)
    truth = cfg.scenario.expand()
    for trace in traces:
        if trace.frame != cfg.frame:
            raise FrameMismatchError("the trace of rule %s is not over the config's frame" % trace.rule.describe())
        if trace.truth != truth:
            raise FrameMismatchError("the trace of rule %s is not over the config's scenario" % trace.rule.describe())
    true_types = {label: _csv_cells([label]) for label in cfg.frame.labels}
    scans = [",%d,%s" % (k, true_types[t]) for k, t in enumerate(truth, 1)]  # each trace's, after its rule
    header = "%s,%s,correct_rate" % (_csv_cells([*RuleConfig._fields, "scan", "true_type"]), cells)

    def block(trace: AveragedTrace) -> str:
        spelling = rule_config_to_json(trace.rule)
        labels = _csv_cells([spelling.get(key, "") for key in RuleConfig._fields])
        heads = [labels + scan for scan in scans]
        rows = [row + [rate] for row, rate in zip(trace.masses.tolist(), trace.correct_rate.tolist())]
        live = [bits - 1 for bits in trace.subsets] + [cfg.frame.full_set]  # then correct_rate
        return "\n".join(_mass_lines(heads, rows, live, cfg.frame.full_set + 1)) + "\n"

    return chain(["%s\n%s\n" % (comment, header)], map(block, traces))


def rule_file_tag(cfg: RuleConfig) -> str:
    """Filesystem-safe tag for one rule configuration."""
    return "_".join(rule_config_to_json(cfg).values())


def trace_plot_data(trace: AveragedTrace) -> str:
    """Gnuplot-ready columns: scan, then the mean mass of every singleton."""
    names = _subset_columns(trace.frame)[0]
    singletons = trace.subsets[:-1]
    lines = ["# scan " + " ".join(names[bits - 1] for bits in singletons)]
    template = " ".join(["%d"] + [_MASS_FIELD] * len(singletons))
    lines += [template % (k, *row[:-1]) for k, row in enumerate(trace.masses.tolist(), 1)]
    return "\n".join(lines) + "\n"
