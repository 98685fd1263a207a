"""Frames, focal sets, and basic belief assignments.

This module provides the substrate shared by every combination rule:

* :class:`Frame` -- an ordered set of exclusive, exhaustive labels.
* focal sets -- subsets of the frame encoded as ``int`` bitmasks, where
  bit ``i`` set means the ``i``-th frame label is included.
* :class:`MassFunction` -- a normalized basic belief assignment over the
  nonempty subsets of a frame.
* the unnormalized conjunctive consensus of two sources, the total
  conflict, the pignistic probability transform, and decision extraction.

All values are immutable after construction and all operations are pure
functions, so everything here can be used freely from concurrent code.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from math import fsum, isfinite
from numbers import Real
from operator import mul
from collections.abc import Callable, Iterable, Mapping

from .errors import FrameError, FrameMismatchError, MassFunctionError

#: Maximum number of frame labels; keeps dense power-set enumeration cheap.
MAX_FRAME_SIZE = 16

#: Tolerance on the total mass of a normalized assignment.
SUM_TOLERANCE = 1e-9

#: Separator used when spelling a focal set as joined labels ("Fighter|Cargo").
SUBSET_SEPARATOR = "|"


@dataclass(frozen=True)
class Frame:
    """An ordered frame of discernment.

    The label order is significant: label ``i`` owns bit ``i`` in every
    focal-set bitmask built over this frame. Labels are distinct, non-empty
    strings with neither ``|`` nor a line break, in a sequence that is not a
    ``str``. This is the only check of them; its messages name the field
    ``frame`` (or ``frame[i]``), the key that holds the labels in every input
    file, so loaders pass them on.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.labels, str) or not isinstance(self.labels, Iterable):
            raise FrameError("frame: expected a sequence of labels, got %r" % (self.labels,))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise FrameError("frame needs at least 2 labels, got %d" % len(self.labels))
        if len(self.labels) > MAX_FRAME_SIZE:
            raise FrameError(
                "frame supports at most %d labels, got %d" % (MAX_FRAME_SIZE, len(self.labels))
            )
        seen = set()
        for i, label in enumerate(self.labels):
            if not isinstance(label, str) or not label:
                raise FrameError("frame[%d]: labels must be non-empty strings, got %r" % (i, label))
            if SUBSET_SEPARATOR in label:
                raise FrameError(
                    "frame[%d]: label %r may not contain %r (reserved as the subset separator)"
                    % (i, label, SUBSET_SEPARATOR)
                )
            # a line break would split the CSV "# columns:" line and cannot be
            # written in a declarations file, which holds one label per line
            if "\n" in label or "\r" in label:
                raise FrameError("frame[%d]: label %r may not contain a line break" % (i, label))
            if label in seen:
                raise FrameError("frame[%d]: duplicate label %r" % (i, label))
            seen.add(label)

    @property
    def size(self) -> int:
        """Number of labels M."""
        return len(self.labels)

    @property
    def full_set(self) -> int:
        """Bitmask of total ignorance (all labels)."""
        return (1 << len(self.labels)) - 1

    def singleton(self, label: str) -> int:
        """Bitmask of the singleton subset containing only `label`."""
        return 1 << self.index(label)

    def index(self, label: str) -> int:
        """Position of `label` in the frame, raising on unknown labels."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise FrameError("unknown label %r (frame is %s)" % (label, list(self.labels))) from None

    def format_subset(self, bits: int) -> str:
        """Spell a focal set as its labels joined by '|' in frame order."""
        self._check_bits(bits)
        return SUBSET_SEPARATOR.join(label for i, label in enumerate(self.labels) if bits >> i & 1)

    def parse_subset(self, text: str) -> int:
        """Inverse of :meth:`format_subset`; rejects empty and repeated labels."""
        if not text:
            raise FrameError("empty subset spelling")
        bits = 0
        for label in text.split(SUBSET_SEPARATOR):
            bit = self.singleton(label)
            if bits & bit:
                raise FrameError("label %r repeated in subset spelling %r" % (label, text))
            bits |= bit
        return bits

    def nonempty_subsets(self) -> range:
        """All nonempty focal-set bitmasks in canonical (numeric) order."""
        return range(1, 1 << len(self.labels))

    def _check_bits(self, bits: int) -> None:
        if not _is_integer(bits) or bits < 0 or bits > self.full_set:
            raise FrameError("focal set %r is not a bitmask over %d labels" % (bits, self.size))


def make_frame(labels: Iterable[str]) -> Frame:
    """Build a frame from an ordered sequence of distinct labels (2 <= M <= 16)."""
    return Frame(labels)


def _coerce_subset(frame: Frame, key: object) -> int:
    """Accept a focal set given as an ``int`` bitmask or a '|'-joined spelling."""
    if _is_integer(key):
        frame._check_bits(key)
        return key
    if isinstance(key, str):
        return frame.parse_subset(key)
    raise FrameError("cannot interpret %r as a focal set" % (key,))


def _is_integer(value: object) -> bool:
    """An ``int`` that is not a ``bool``: counts, seeds and bitmasks are never
    read from ``True``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """An int, a float or a numpy real scalar, but not a bool: a mass or a
    probability is never read from ``True`` or from a numeric string."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _clean_masses(frame: Frame, entries: Mapping[object, float], *, where: str) -> dict[int, float]:
    """Validate mass entries shared by all constructors; prunes zeros."""
    if not isinstance(entries, Mapping):
        raise MassFunctionError("%s: expected a mapping of focal sets to masses, got %r" % (where, entries))
    masses: dict[int, float] = {}
    for key, value in entries.items():
        bits = _coerce_subset(frame, key)
        if not _is_real(value):
            raise MassFunctionError(
                "%s: mass %r on %s is not a number"
                % (where, value, frame.format_subset(bits) if bits else "the empty set")
            )
        value = float(value)
        if not isfinite(value) or value < 0.0:
            raise MassFunctionError(
                "%s: mass %r on %s is not a finite nonnegative value"
                % (where, value, frame.format_subset(bits) if bits else "the empty set")
            )
        if bits == 0:
            raise MassFunctionError("%s: mass assigned to the empty set" % where)
        if bits in masses:
            raise MassFunctionError("%s: duplicate focal set %s" % (where, frame.format_subset(bits)))
        if value != 0.0:
            masses[bits] = value
    return masses


@dataclass(frozen=True)
class MassFunction:
    """A normalized basic belief assignment m(.) under Shafer's model.

    ``masses`` maps focal-set bitmasks to strictly positive masses; the empty
    set never appears and the total is 1 within :data:`SUM_TOLERANCE`. Treat
    instances (including the ``masses`` dict) as read-only values.

    Use :func:`make_bba` to build one from user-supplied entries; it applies
    full validation and an exact rescale.
    """

    frame: Frame
    masses: dict[int, float]

    def mass(self, key: object) -> float:
        """Mass of a focal set (0.0 for non-focal subsets)."""
        return self.masses.get(_coerce_subset(self.frame, key), 0.0)

    def __str__(self) -> str:
        parts = ", ".join(
            "%s: %g" % (self.frame.format_subset(bits), self.masses[bits])
            for bits in sorted(self.masses)
        )
        return "{%s}" % parts


def make_bba(frame: Frame, entries: Mapping[object, float]) -> MassFunction:
    """Validate user-supplied mass entries and return a canonical assignment.

    The entries must be nonnegative, avoid the empty set, and sum to 1 within
    :data:`SUM_TOLERANCE`; anything else is rejected. Accepted entries are
    exactly rescaled by their accurate sum, so the stored masses of every
    constructed assignment total 1 up to one unit in the last place.
    """
    masses = _clean_masses(frame, entries, where="make_bba")
    total = fsum(masses.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise MassFunctionError("make_bba: masses sum to %.17g, not 1" % total)
    if total != 1.0:
        masses = {bits: value / total for bits, value in masses.items()}
    return MassFunction(frame, masses)


def _combined(frame: Frame, masses: dict[int, float], *, where: str) -> MassFunction:
    """Internal constructor for rule outputs.

    Validates the same invariants as :func:`make_bba` but never rescales, so
    a rule whose masses fail to total 1 surfaces as an error instead of being
    silently renormalized. Zero entries are pruned.
    """
    masses = {bits: v for bits, v in masses.items() if v != 0.0}
    for bits, value in masses.items():
        if bits == 0:
            raise MassFunctionError("%s: mass assigned to the empty set" % where)
        if not isfinite(value) or value < 0.0:
            raise MassFunctionError("%s: invalid mass %r" % (where, value))
    total = fsum(masses.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise MassFunctionError("%s: output masses sum to %.17g, not 1" % (where, total))
    return MassFunction(frame, masses)


def vacuous_bba(frame: Frame) -> MassFunction:
    """The vacuous assignment: all mass on total ignorance."""
    return MassFunction(frame, {frame.full_set: 1.0})


def _require_same_frame(m1: MassFunction, m2: MassFunction) -> Frame:
    if m1.frame != m2.frame:
        raise FrameMismatchError(
            "cannot combine assignments over different frames: %s vs %s"
            % (list(m1.frame.labels), list(m2.frame.labels))
        )
    return m1.frame


@dataclass(frozen=True)
class ConsensusResult:
    """Unnormalized conjunctive consensus of two sources.

    Unlike :class:`MassFunction`, the empty set may carry mass here: its value
    is the total conflict K between the sources.
    """

    frame: Frame
    masses: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = fsum(self.masses.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise MassFunctionError("consensus masses sum to %.17g, not 1" % total)

    @property
    def conflict(self) -> float:
        """Total conflict K: the mass landing on the empty set."""
        return self.masses.get(0, 0.0)

    def mass(self, key: object) -> float:
        """Mass of a focal set; the empty set, the int ``0`` or ``""``, reads K."""
        if key == "":
            return self.conflict
        return self.masses.get(_coerce_subset(self.frame, key), 0.0)

    def nonempty(self) -> dict[int, float]:
        """Masses restricted to nonempty subsets, zero entries pruned."""
        return {bits: v for bits, v in self.masses.items() if bits != 0 and v != 0.0}


def _fuse_pairs(m1: MassFunction, m2: MassFunction, tnorm: Callable[[float, float], float],
                tconorm: Callable[[float, float], float] | None = None) -> dict[int, float]:
    """The focal-pair kernel shared by the consensus and every rule.

    Each pair of focal sets (A, B) with masses (va, vb) contributes
    ``t = tnorm(va, vb)``; pairs with ``t == 0`` contribute nothing. A pair
    with a nonempty intersection adds ``t`` to ``A & B``. A conflicting pair
    (``A & B`` empty) adds ``t`` to the empty set when ``tconorm`` is None;
    otherwise it is sent back to its sources, A gaining ``va * r`` and B
    gaining ``vb * r`` with ``r = t / tconorm(va, vb)``. The division is safe
    because ``t > 0`` implies ``tconorm(va, vb) >= max(va, vb) >= t``.

    Per-subset accumulation uses an accurately rounded sum, which makes the
    result independent of argument order bit for bit. Nothing is normalized.
    """
    _require_same_frame(m1, m2)
    terms: dict[int, list[float]] = defaultdict(list)
    pairs = list(m2.masses.items())
    keep_conflict = tconorm is None
    for a, va in m1.masses.items():
        for b, vb in pairs:
            t = tnorm(va, vb)
            if t == 0.0:
                continue
            x = a & b
            if x or keep_conflict:
                terms[x].append(t)
            else:
                r = t / tconorm(va, vb)
                terms[a].append(va * r)
                terms[b].append(vb * r)
    return {bits: fsum(values) for bits, values in terms.items()}


def conjunctive_consensus(m1: MassFunction, m2: MassFunction) -> ConsensusResult:
    """Unnormalized conjunctive combination of two sources.

    Every pair of focal sets contributes the product of its masses to the
    intersection; mass on the empty set is kept and equals the total conflict.
    Per-subset accumulation uses an accurately rounded sum, which makes the
    result independent of argument order bit for bit.
    """
    # every accumulated product is positive, so no zero entry survives
    return ConsensusResult(m1.frame, _fuse_pairs(m1, m2, mul))


def total_conflict(m1: MassFunction, m2: MassFunction) -> float:
    """Total conflict K between two sources (conjunctive mass on the empty set)."""
    return conjunctive_consensus(m1, m2).conflict


def pignistic(m: MassFunction) -> dict[str, float]:
    """Pignistic probability of each label.

    Each focal mass is split equally among the labels it contains; the result
    maps every frame label to its probability (zero entries included).
    """
    shares: list[list[float]] = [[] for _ in range(m.frame.size)]
    for bits, value in m.masses.items():
        share = value / bits.bit_count()
        for i in range(m.frame.size):
            if bits >> i & 1:
                shares[i].append(share)
    return {label: fsum(shares[i]) for i, label in enumerate(m.frame.labels)}


class DecisionCriterion(enum.Enum):
    """How :func:`decide` ranks the frame labels."""

    MAX_BELIEF = "belief"
    MAX_PIGNISTIC = "pignistic"


def decide(m: MassFunction, criterion: DecisionCriterion = DecisionCriterion.MAX_BELIEF) -> str:
    """Extract a single label from an assignment.

    ``MAX_BELIEF`` picks the label with the largest committed singleton mass;
    ``MAX_PIGNISTIC`` the one with the largest pignistic probability. Exact
    ties resolve to the lowest frame index, so the result is deterministic.
    """
    if criterion is DecisionCriterion.MAX_BELIEF:
        scores = [m.masses.get(1 << i, 0.0) for i in range(m.frame.size)]
    elif criterion is DecisionCriterion.MAX_PIGNISTIC:
        betp = pignistic(m)
        scores = [betp[label] for label in m.frame.labels]
    else:
        raise ValueError("unknown decision criterion %r" % (criterion,))
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return m.frame.labels[best]
