"""Command-line interface.

Three subcommands cover the library's workflows:

    evidfuse fuse A.json B.json --rule pcr5 [--report] [--format csv|json]
    evidfuse track decls.txt --confusion cm.json --rule tcn \\
        --tnorm min --tconorm max [--criterion belief|pignistic] -o trace.csv
    evidfuse simulate config.json [--runs N] [--seed S] [--threads K] \\
        [--plot-data DIR] -o results.csv

Exit codes: 0 on success, 2 for input or validation problems, 3 when the
requested fusion is degenerate (total conflict under the normalized
conjunctive rule, or a vanishing consensus total under the fuzzy rule).
All randomness comes from the configured master seed; repeated invocations
produce byte-identical outputs regardless of worker count.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress

from .core import DecisionCriterion, MassFunction, conjunctive_consensus, replace
from .errors import (
    ConfigError,
    EvidenceError,
    TotalConflictError,
    VanishingConsensusError,
)
from .fileio import (
    _subset_columns,
    fusion_csv,
    fusion_json,
    load_confusion,
    load_declarations,
    load_mass_function,
    load_simulation_config,
    rule_config_from_json,
    rule_file_tag,
    trace_plot_data,
    traces_csv_blocks,
    track_records_to_csv,
)
from .montecarlo import run_monte_carlo
from .operators import TConorm, TNorm
from .rules import Rule, RuleConfig, combine
from .tracker import run_track


def _add_rule_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rule",
        required=True,
        choices=[r.value for r in Rule],
        help="combination rule to apply",
    )
    parser.add_argument(
        "--tnorm",
        choices=[t.value for t in TNorm],
        help="t-norm for the tcn rule (required with --rule tcn)",
    )
    parser.add_argument(
        "--tconorm",
        choices=[s.value for s in TConorm],
        help="t-conorm for the tcn rule (required with --rule tcn)",
    )


#: The flag that sets each field that an error about a flag's value may name
#: (``--seed`` is an int, so ``master_seed`` never fails).
_FLAGS = {"rule": "--rule", "tnorm": "--tnorm", "tconorm": "--tconorm", "runs": "--runs", "workers": "--threads"}


def _in_flags(exc: ConfigError) -> ConfigError:
    """``exc`` about values the flags set, with each field spelled as its flag."""
    return ConfigError(re.sub(r"\b(%s)\b" % "|".join(_FLAGS), lambda match: _FLAGS[match[1]], str(exc)))


def _rule_from_args(args: argparse.Namespace) -> RuleConfig:
    """The rule the flags set, read as the config file's rule object is."""
    flags = {key: getattr(args, key) for key in RuleConfig._fields if getattr(args, key) is not None}
    try:
        return rule_config_from_json(flags, "")
    except ConfigError as exc:
        raise _in_flags(exc) from None


@contextmanager
def _outputs(files: list[str], directory: str | None = None) -> Iterator[None]:
    """Make every output before the work: the directory with its missing
    parents, then each file, opened for append, which writes nothing to a file
    that is there. A pipe or a device is not opened, as opening may wait on
    its reader. If the work or a write raises, remove what this made, newest
    first, so that an output that cannot be made fails before the work and a
    failed run leaves no file or directory of its own."""
    made = []  # (remove, path), each recorded as it is about to be made
    try:
        if directory is not None:
            head = os.path.abspath(directory)
            while not os.path.lexists(head):
                made.insert(0, (os.rmdir, head))
                head = os.path.dirname(head)
            os.makedirs(directory, exist_ok=True)
        for path in files:
            if not os.path.lexists(path):
                made.append((os.remove, path))
            elif not (os.path.isfile(path) or os.path.isdir(path)):
                continue  # a pipe or a device
            open(path, "a").close()
        yield
    except BaseException:
        for remove, path in reversed(made):
            with suppress(OSError):  # its making may have failed; the error to report ended the run
                remove(path)
        raise


def _write_blocks(path: str, blocks: Iterable[str]) -> None:
    """Write each block to the file as it comes, so one block is held at a time."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(blocks)


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------

def _fusion_report(cfg: RuleConfig, m1: MassFunction, m2: MassFunction,
                   fused: MassFunction) -> dict:
    """Total conflict and how far each subset moved from the raw consensus."""
    consensus = conjunctive_consensus(m1, m2)
    subsets = sorted(set(fused.masses) | set(consensus.nonempty()))
    redistributed = {
        m1.frame.format_subset(bits): fused.masses.get(bits, 0.0) - consensus.masses.get(bits, 0.0)
        for bits in subsets
    }
    return {
        "rule": cfg.describe(),
        "total_conflict": consensus.conflict,
        "redistributed": redistributed,
    }


def _cmd_fuse(args: argparse.Namespace) -> int:
    cfg = _rule_from_args(args)
    m1 = load_mass_function(args.first)
    m2 = load_mass_function(args.second)
    fused = combine(cfg, m1, m2)
    report = _fusion_report(cfg, m1, m2, fused) if args.report else None
    sys.stdout.write((fusion_json if args.format == "json" else fusion_csv)(fused, report))
    return 0


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------

def _cmd_track(args: argparse.Namespace) -> int:
    cfg = _rule_from_args(args)
    confusion = load_confusion(args.confusion)
    declarations = load_declarations(args.declarations, confusion.frame)
    criterion = DecisionCriterion(args.criterion)
    with _outputs([args.output]):
        records = run_track(declarations, confusion, cfg, criterion)
        _write_blocks(args.output, [track_records_to_csv(records, confusion.frame)])
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_simulation_config(args.config)
    overrides = {name: value for name, value in (("runs", args.runs), ("master_seed", args.seed)) if value is not None}
    workers = args.threads
    if workers is None:  # the CPUs this process may run on, where the platform says
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    plotted = cfg.rules if args.plot_data is not None else ()
    plots = [os.path.join(args.plot_data, rule_file_tag(rule) + ".dat") for rule in plotted]
    if plots and os.path.abspath(args.output) in map(os.path.abspath, plots):
        raise ConfigError("-o and --plot-data both name %s" % args.output)
    try:
        if overrides:  # one rebuild, validated once
            cfg = replace(cfg, **overrides)
        _subset_columns(cfg.frame)  # a frame the writers refuse fails before the simulation
        with _outputs([args.output, *plots], args.plot_data):
            traces = run_monte_carlo(cfg, workers=workers)
            _write_blocks(args.output, traces_csv_blocks(cfg, traces))
            for path, trace in zip(plots, traces):
                _write_blocks(path, [trace_plot_data(trace)])
    except ConfigError as exc:
        raise _in_flags(exc) from None
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidfuse",
        description="Combine bodies of evidence and compare combination rules "
        "on sequential target-type tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    fuse = sub.add_parser(
        "fuse",
        help="combine two mass functions",
        description="Combine two mass-function JSON files with the chosen rule "
        "and print the result to stdout.",
    )
    fuse.add_argument("first", help="mass-function JSON file")
    fuse.add_argument("second", help="mass-function JSON file")
    _add_rule_arguments(fuse)
    fuse.add_argument(
        "--report",
        action="store_true",
        help="also report the total conflict and the mass each subset gained "
        "or lost relative to the raw conjunctive consensus",
    )
    fuse.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (default: json, re-loadable as a mass-function file)",
    )
    fuse.set_defaults(func=_cmd_fuse)

    track = sub.add_parser(
        "track",
        help="fuse a declaration sequence scan by scan",
        description="Start from total ignorance and fuse one observation per "
        "scan, writing the per-scan posterior and decision as CSV.",
    )
    track.add_argument("declarations", help="text file, one declared label per scan")
    track.add_argument("--confusion", required=True, help="confusion-matrix JSON file")
    _add_rule_arguments(track)
    track.add_argument(
        "--criterion",
        choices=[c.value for c in DecisionCriterion],
        default=DecisionCriterion.MAX_BELIEF.value,
        help="decision criterion (default: %(default)s)",
    )
    track.add_argument("-o", "--output", required=True, help="trace CSV destination")
    track.set_defaults(func=_cmd_track)

    simulate = sub.add_parser(
        "simulate",
        help="run a Monte Carlo rule comparison",
        description="Average many simulated tracks per rule and write the "
        "per-scan mean masses and correct-decision rates as CSV. Output is "
        "byte-identical for a given config regardless of --threads.",
    )
    simulate.add_argument("config", help="simulation config JSON file")
    simulate.add_argument("--runs", type=int, help="override the configured number of runs")
    simulate.add_argument("--seed", type=int, help="override the configured master seed")
    simulate.add_argument(
        "--threads",
        type=int,
        help="worker processes (default: all available cores)",
    )
    simulate.add_argument(
        "--plot-data",
        metavar="DIR",
        help="also write per-rule singleton-mass columns (gnuplot style) into DIR",
    )
    simulate.add_argument("-o", "--output", required=True, help="results CSV destination")
    simulate.set_defaults(func=_cmd_simulate)

    return parser


#: The parser of :func:`main`, built on its first call and kept for the next.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (TotalConflictError, VanishingConsensusError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (EvidenceError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
