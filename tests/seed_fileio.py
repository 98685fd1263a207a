"""The CSV and plot-data writers exactly as they were before the row templates.

Verbatim copies of ``_subset_columns``, ``traces_to_csv`` and
``track_records_to_csv`` from ``evidfuse.fileio``: every cell of every row
formatted and handed to the stdlib csv writer, each subset spelled twice with
``Frame.format_subset``; and of ``trace_plot_data`` as it was before its lines
were a template, each mass formatted with ``format_mass`` and joined by hand.
The byte-identity tests in ``test_fileio.py`` compare the package's writers
against these, so the encoder is checked against the original output and not
against itself.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from evidfuse.core import Frame
from evidfuse.fileio import format_mass, sanitize_column
from evidfuse.montecarlo import AveragedTrace, MonteCarloConfig
from evidfuse.tracker import TrackRecord


def _subset_columns(frame: Frame) -> tuple[list[int], list[str], str]:
    """Nonempty subsets in canonical order, their column names, and the mapping comment."""
    subsets = list(frame.nonempty_subsets())
    names = ["m_" + sanitize_column(frame.format_subset(bits)) for bits in subsets]
    mapping = ", ".join(
        "%s = %s" % (name, frame.format_subset(bits)) for name, bits in zip(names, subsets)
    )
    return subsets, names, "# columns: %s" % mapping


def track_records_to_csv(records: Sequence[TrackRecord], frame: Frame) -> str:
    """Trace CSV: scan, declared, decision, then one mass column per subset."""
    subsets, names, comment = _subset_columns(frame)
    out = io.StringIO()
    out.write(comment + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scan", "declared", "decision"] + names)
    for record in records:
        row = [str(record.scan), record.declared, record.decision]
        row += [format_mass(record.posterior.masses.get(bits, 0.0)) for bits in subsets]
        writer.writerow(row)
    return out.getvalue()


def traces_to_csv(cfg: MonteCarloConfig, traces: Sequence[AveragedTrace]) -> str:
    """Averaged-trace CSV, one row per (rule, scan), in rule order then scan."""
    frame = cfg.frame
    _, names, comment = _subset_columns(frame)
    truth = cfg.scenario.expand()
    out = io.StringIO()
    out.write(comment + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rule", "tnorm", "tconorm", "scan", "true_type"] + names + ["correct_rate"])
    for trace in traces:
        rule = trace.rule
        tnorm = rule.tnorm.value if rule.tnorm is not None else ""
        tconorm = rule.tconorm.value if rule.tconorm is not None else ""
        # mean_masses columns are already in subset order (column bits - 1),
        # and Python floats format exactly like numpy's
        masses = trace.mean_masses.tolist()
        rates = trace.correct_rate.tolist()
        for k, true_type in enumerate(truth):
            row = [rule.rule.value, tnorm, tconorm, str(k + 1), true_type]
            row += map(format_mass, masses[k])
            row.append(format_mass(rates[k]))
            writer.writerow(row)
    return out.getvalue()


def trace_plot_data(trace: AveragedTrace) -> str:
    """Gnuplot-ready columns: scan, then the mean mass of every singleton."""
    frame = trace.frame
    columns = [frame.singleton(label) - 1 for label in frame.labels]
    lines = ["# scan " + " ".join("m_" + sanitize_column(label) for label in frame.labels)]
    for k, row in enumerate(trace.mean_masses[:, columns].tolist(), 1):
        lines.append("%d %s" % (k, " ".join(map(format_mass, row))))
    return "\n".join(lines) + "\n"
