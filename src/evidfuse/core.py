"""Frames, focal sets, and basic belief assignments.

This module provides the substrate shared by every combination rule:

* :class:`Frame` -- an ordered set of exclusive, exhaustive labels.
* focal sets -- subsets of the frame encoded as ``int`` bitmasks, where
  bit ``i`` set means the ``i``-th frame label is included.
* :class:`MassFunction` -- a normalized basic belief assignment over the
  nonempty subsets of a frame. Its constructor is the one check of an
  assignment: every input and every rule's output passes through it.
* the unnormalized conjunctive consensus of two sources, the total
  conflict, the pignistic probability transform, and decision extraction.
* :class:`Value`, the base of every value type in the package, and
  :func:`replace`.

All values are immutable after construction and all operations are pure
functions, so everything here can be used freely from concurrent code.

A :class:`Value` subclass declares its fields as class annotations, in
order; a class attribute of the same name is that field's default. Calling
the class binds positional, then keyword arguments to the fields (a missing,
extra or repeated argument is a ``TypeError``), stores them in the instance
``__dict__`` and then calls ``__post_init__`` if the class has one, which
validates and may normalize a field through ``object.__setattr__``. After
that, setting or deleting any attribute raises ``AttributeError``; a
``functools.cached_property`` still works, because it writes the instance
``__dict__`` directly and is not a field. Two values are equal when they
have the same class and equal fields, a value hashes as the tuple of its
fields, and its repr is ``Name(field=value, ...)``, so all three read as
those of a frozen dataclass. Values pickle and copy through their
``__dict__``. :func:`replace` builds a changed copy through the class, so
the copy is validated again.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from functools import cached_property
from math import fsum
from numbers import Real
from operator import attrgetter, itemgetter, mul
from collections.abc import Callable, Iterable, Mapping

from .errors import FrameError, FrameMismatchError, MassFunctionError

#: Maximum number of frame labels; keeps dense power-set enumeration cheap.
MAX_FRAME_SIZE = 16

#: Tolerance on the total mass of a normalized assignment.
SUM_TOLERANCE = 1e-9

#: Separator used when spelling a focal set as joined labels ("Fighter|Cargo").
SUBSET_SEPARATOR = "|"


class Value:
    """Base of the immutable value types; the module docstring states its contract."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._key = staticmethod(attrgetter(*cls._fields))
        cls._validates = hasattr(cls, "__post_init__")

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        state = self.__dict__
        for name, value in zip(fields, args):
            state[name] = value
        if self._validates:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call that is not all-positional."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError("%s() takes %d arguments but %d were given" % (name, len(fields), len(args)))
        positional = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in positional:
                raise TypeError("%s() got an unexpected or repeated argument %r" % (name, key))
        values = {**self._defaults, **positional, **kwargs}
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError("%s() missing required arguments: %s" % (name, ", ".join(map(repr, missing))))
        return [values[key] for key in fields]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields))


def replace(obj: Value, **changes: object) -> Value:
    """A copy of ``obj`` with some fields changed, validated again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


class Frame(Value):
    """An ordered frame of discernment.

    The label order is significant: label ``i`` owns bit ``i`` in every
    focal-set bitmask built over this frame. Labels are distinct, non-empty
    strings with neither ``|`` nor a line break, in a sequence that is not a
    ``str``. This is the only check of them; its messages name the field
    ``frame`` (or ``frame[i]``), the key that holds the labels in every input
    file, so loaders pass them on.

    Every label lookup (:meth:`index`, :meth:`singleton`,
    :meth:`parse_subset`, and the loaders' membership tests) goes through one
    label-to-index dict, O(1) per label. It is a ``functools.cached_property``,
    built on the first lookup: it is not a field, so it takes no part in
    equality, hashing, the repr or :func:`replace`.
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

    @cached_property
    def _positions(self) -> dict[str, int]:
        """The label-to-index table: ``labels[i]`` maps to ``i``."""
        return {label: i for i, label in enumerate(self.labels)}

    def singleton(self, label: str) -> int:
        """Bitmask of the singleton subset containing only `label`."""
        return 1 << self.index(label)

    def index(self, label: str) -> int:
        """Position of `label` in the frame, raising on unknown labels."""
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise self._unknown(label) from None

    def _unknown(self, label: object) -> FrameError:
        return FrameError("unknown label %r (frame is %s)" % (label, list(self.labels)))

    def format_subset(self, bits: int) -> str:
        """Spell a focal set as its labels joined by '|' in frame order."""
        self._check_bits(bits)
        return SUBSET_SEPARATOR.join(label for i, label in enumerate(self.labels) if bits >> i & 1)

    def parse_subset(self, text: str) -> int:
        """Inverse of :meth:`format_subset`; rejects empty and repeated labels."""
        if not text:
            raise FrameError("empty subset spelling")
        positions = self._positions
        bits = 0
        for label in text.split(SUBSET_SEPARATOR):
            try:
                bit = 1 << positions[label]
            except KeyError:
                raise self._unknown(label) from None
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
    if isinstance(key, str):  # first: loaded files spell every focal set
        return frame.parse_subset(key)
    if _is_integer(key):
        frame._check_bits(key)
        return key
    raise FrameError("cannot interpret %r as a focal set" % (key,))


def _is_integer(value: object) -> bool:
    """An ``int`` that is not a ``bool``: counts, seeds and bitmasks are never
    read from ``True``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """An int, a float or a numpy real scalar, but not a bool: a mass or a
    probability is never read from ``True`` or from a numeric string."""
    if type(value) is float:  # what every loader gives: skip the ABC check
        return True
    return isinstance(value, Real) and not isinstance(value, bool)


class MassFunction(Value):
    """A normalized basic belief assignment m(.) under Shafer's model.

    ``masses`` maps focal-set bitmasks to strictly positive masses; the empty
    set never appears and the total is 1 within :data:`SUM_TOLERANCE`. Treat
    instances (including the ``masses`` dict) as read-only values.

    The constructor's check, :func:`_checked_masses`, is the only check of a
    mass function (:func:`make_bba` runs it itself), so the rules take
    their inputs as valid. Each key is the ``int`` bitmask of a nonempty
    subset of ``frame`` or its ``A|B`` spelling, and no subset is given
    twice; each mass is a real number (not a ``bool``) in ``[0, 1]``, and
    their accurate total is 1 within :data:`SUM_TOLERANCE` (which also
    bounds each mass). The nonzero
    masses are copied, as floats, into a fresh dict, so a later change to the
    caller's mapping does not reach the value. The messages name the field
    ``masses``, the key that holds the entries in a mass-function file, so
    loaders pass them on. An ``int`` key and a ``float`` mass skip the
    general key and number checks.
    """

    frame: Frame
    masses: dict[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "masses", _checked_masses(self.frame, self.masses)[0])

    def mass(self, key: object) -> float:
        """Mass of a focal set (0.0 for non-focal subsets)."""
        return self.masses.get(_coerce_subset(self.frame, key), 0.0)

    def __str__(self) -> str:
        parts = ", ".join(
            "%s: %g" % (self.frame.format_subset(bits), self.masses[bits])
            for bits in sorted(self.masses)
        )
        return "{%s}" % parts


def _checked_masses(frame: Frame, entries: Mapping[object, float]) -> tuple[dict[int, float], float]:
    """The check of a :class:`MassFunction`: its masses as a fresh dict of
    nonzero floats by bitmask, and their accurate total."""
    if not isinstance(frame, Frame):
        raise FrameError("frame: expected a Frame, got %r" % (frame,))
    if not isinstance(entries, Mapping):
        raise MassFunctionError("masses: expected a mapping of focal sets to masses, got %r" % (entries,))
    full, most = frame.full_set, 1.0 + SUM_TOLERANCE  # a larger mass cannot total 1
    masses: dict[int, float] = {}
    for key, value in entries.items():
        if type(key) is not int or not 0 < key <= full:
            try:
                key = _coerce_subset(frame, key)
            except FrameError as exc:
                raise FrameError("masses: %s" % exc) from None
            if not key:
                raise MassFunctionError("masses: mass assigned to the empty set")
        if type(value) is not float and _is_real(value) and 0.0 <= value <= most:
            value = float(value)  # in range, so float() cannot overflow
        if type(value) is not float or not 0.0 <= value <= most:  # NaN fails too
            raise MassFunctionError("masses: mass %r on %s is not a number in [0, 1]"
                                    % (value, frame.format_subset(key)))
        if key in masses:
            raise MassFunctionError("masses: duplicate focal set %s" % frame.format_subset(key))
        masses[key] = value
    total = fsum(masses.values())
    if not abs(total - 1.0) <= SUM_TOLERANCE:
        raise MassFunctionError("masses sum to %.17g, not 1" % total)
    if not all(masses.values()):
        masses = {bits: value for bits, value in masses.items() if value}
    return masses, total


def make_bba(frame: Frame, entries: Mapping[object, float]) -> MassFunction:
    """A :class:`MassFunction` of user-supplied entries, exactly rescaled.

    The entries pass the constructor's checks, then are divided by their
    accurate sum unless it is exactly 1.0, so the stored masses of every
    assignment built here total 1 up to one unit in the last place. The
    checks give that sum, so an input that totals 1.0 is summed once.
    """
    masses, total = _checked_masses(frame, entries)
    if total != 1.0:
        return MassFunction(frame, {bits: value / total for bits, value in masses.items()})
    m = object.__new__(MassFunction)  # its fields passed the constructor's checks above
    vars(m).update(frame=frame, masses=masses)
    return m


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


class ConsensusResult(Value):
    """Unnormalized conjunctive consensus of two sources.

    Unlike :class:`MassFunction`, the empty set may carry mass here: its value
    is the total conflict K between the sources.
    """

    frame: Frame
    masses: dict[int, float]

    def __post_init__(self) -> None:
        total = fsum(self.masses.values())
        if not abs(total - 1.0) <= SUM_TOLERANCE:  # NaN fails too
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

    Each row (one focal set A of ``m1``) visits the focal sets of ``m2`` in
    descending mass order and ends at its first pair with ``t == 0``. That
    skips exactly the pairs the rule drops: every shipped t-norm is
    nondecreasing and nonnegative, and stays so exactly in IEEE arithmetic
    (``fl(x * y)``, ``min`` and ``max(0, fl(fl(x + y) - 1))`` are monotone),
    so every later pair of the row has ``t == 0`` too. Only ``m2`` is
    sorted; a row whose first pair is zero costs one t-norm call.

    Per-subset accumulation uses an accurately rounded sum, which makes the
    result independent of argument order, and of the visiting order, bit for
    bit. Nothing is normalized.
    """
    _require_same_frame(m1, m2)
    terms: dict[int, list[float]] = defaultdict(list)
    pairs = sorted(m2.masses.items(), key=itemgetter(1), reverse=True)
    keep_conflict = tconorm is None
    for a, va in m1.masses.items():
        for b, vb in pairs:
            t = tnorm(va, vb)
            if t == 0.0:
                break
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
