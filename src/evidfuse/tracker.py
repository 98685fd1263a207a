"""Sequential target-type estimation from unreliable classifier declarations.

The estimator maintains a running assignment over the type frame. Each scan
converts the classifier's declared type into an observation assignment using
the classifier's own confusion matrix, fuses it with the running prior under
a configured combination rule, and extracts a decision. The prior for the
first scan is always the vacuous assignment (full ignorance).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import fsum, isfinite
from typing import Sequence

from .core import (
    DecisionCriterion,
    Frame,
    MassFunction,
    SUM_TOLERANCE,
    _is_real,
    decide,
    vacuous_bba,
)
from .errors import EvidenceError, FrameError
from .rules import RuleConfig, combine


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic classifier model.

    ``rows[i][j]`` is the probability that the classifier declares type j
    when the true type is i (rows follow the frame's label order).
    """

    frame: Frame
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.frame, Frame):
            raise FrameError("frame: expected a Frame, got %r" % (self.frame,))
        if not isinstance(self.rows, Iterable):
            raise FrameError("confusion matrix: expected a sequence of rows, got %r" % (self.rows,))
        rows = tuple(self.rows)
        for i, row in enumerate(rows):
            if not isinstance(row, Iterable):
                raise FrameError("confusion matrix row %d: expected a sequence of entries, got %r" % (i, row))
        rows = tuple(map(tuple, rows))
        m = self.frame.size
        if len(rows) != m:
            raise FrameError("confusion matrix needs %d rows, got %d" % (m, len(rows)))
        for i, row in enumerate(rows):
            if len(row) != m:
                raise FrameError("confusion matrix row %d needs %d entries, got %d" % (i, m, len(row)))
            for value in row:
                if not _is_real(value) or not isfinite(value) or not 0.0 <= value <= 1.0:
                    raise FrameError(
                        "confusion matrix row %d has entry %r, not a number in [0, 1]" % (i, value))
            total = fsum(row)
            if abs(total - 1.0) > SUM_TOLERANCE:
                raise FrameError("confusion matrix row %d sums to %.17g, not 1" % (i, total))
        object.__setattr__(self, "rows", tuple(tuple(float(v) for v in row) for row in rows))

    def diagonal(self, label: str) -> float:
        """Self-declaration probability of a type."""
        i = self.frame.index(label)
        return self.rows[i][i]

    def row(self, label: str) -> tuple[float, ...]:
        """Declaration distribution for a given true type."""
        return self.rows[self.frame.index(label)]


def identity_confusion(frame: Frame) -> ConfusionMatrix:
    """A perfect classifier (identity confusion matrix)."""
    return uniform_diagonal_confusion(frame, 1.0)


def uniform_diagonal_confusion(frame: Frame, diagonal: float) -> ConfusionMatrix:
    """A symmetric classifier: `diagonal` on the diagonal, the rest spread evenly."""
    m = frame.size
    off = (1.0 - diagonal) / (m - 1)
    return ConfusionMatrix(
        frame, tuple(tuple(diagonal if i == j else off for j in range(m)) for i in range(m))
    )


def observation_bba(decision: str, confusion: ConfusionMatrix) -> MassFunction:
    """Assignment carried by one classifier declaration.

    The declared type receives the classifier's self-declaration probability
    (the diagonal entry of the declared row); the remainder goes to total
    ignorance. Off-diagonal entries only matter for simulating declarations,
    not for interpreting them.
    """
    frame = confusion.frame
    c = confusion.diagonal(decision)
    masses: dict[int, float] = {}
    if c != 0.0:
        masses[frame.singleton(decision)] = c
    if c != 1.0:
        masses[frame.full_set] = 1.0 - c
    return MassFunction(frame, masses)


@dataclass(frozen=True)
class TrackRecord:
    """Outcome of one scan: what was declared, believed, and decided."""

    scan: int
    declared: str
    posterior: MassFunction
    decision: str


def run_track(
    declarations: Sequence[str],
    confusion: ConfusionMatrix,
    cfg: RuleConfig,
    criterion: DecisionCriterion = DecisionCriterion.MAX_BELIEF,
) -> list[TrackRecord]:
    """Track a declaration sequence from full ignorance, one record per scan.

    Each scan fuses :func:`observation_bba` of the declaration into the
    running belief with :func:`~evidfuse.rules.combine`, then decides. Rule
    failures (e.g. Dempster total conflict) are re-raised with the failing
    scan index prepended, keeping the concrete exception type.
    """
    if not declarations:
        raise EvidenceError("run_track: empty declaration sequence")
    belief = vacuous_bba(confusion.frame)
    records: list[TrackRecord] = []
    for scan, declared in enumerate(declarations, 1):
        try:
            belief = combine(cfg, belief, observation_bba(declared, confusion))
            records.append(TrackRecord(scan, declared, belief, decide(belief, criterion)))
        except EvidenceError as exc:
            raise type(exc)("scan %d: %s" % (scan, exc)) from exc
    return records
