"""Sparse Betti diagrams over exact rationals, plus degree-sequence utilities.

A Betti diagram is a finite table of nonzero rational values keyed by
(homological index i, internal degree j); absent entries are zero.  Diagrams
are immutable: every operation returns a new instance, and construction
prunes zero entries so that equality is plain structural equality of the
underlying tables.  No floating point is used anywhere.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .errors import (
    DomainError,
    FormatError,
    GapColumnError,
    InvalidSequenceError,
)
from .poly import Poly

DegreeSequence = Tuple[int, ...]

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")

# `table()` is dense in the row offset j - i and in the homological index i, so
# a sparse diagram with a vast degree spread or projective dimension would need
# a row or column for every value in between.  The limit bounds both counts.
MAX_TABLE_ROWS = 10_000


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-free rational literal "p" or "p/q" with q > 0."""
    if not isinstance(text, str):
        raise FormatError(f"rational literal must be a string, got {type(text).__name__}")
    match = _RATIONAL_RE.fullmatch(text.strip())
    if not match:
        raise FormatError(f"not a rational literal: {text!r}")
    numerator, denominator = match.groups()
    try:
        return Fraction(int(numerator), int(denominator) if denominator else 1)
    except ZeroDivisionError:
        raise FormatError(f"zero denominator: {text!r}") from None
    except ValueError:  # the interpreter's limit on integer string conversion
        raise FormatError(
            f"rational literal has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None


def exact_value(raw, noun: str) -> Fraction:
    """raw as a Fraction if its type is exactly int or Fraction; FormatError naming `noun` if not."""
    kind = type(raw)  # exact types: bool is an int, float a binary fraction
    if kind is Fraction:
        return raw
    if kind is int:
        return Fraction(raw)
    raise FormatError(f"{noun} must be an int or a Fraction, got {kind.__name__}")


def digit_limit_error() -> DomainError:
    """The refusal of a value with more digits than the interpreter prints."""
    return DomainError(
        f"a value has more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's limit for printing an integer"
    )


def format_rational(value) -> str:
    """Render a rational as "p" or "p/q" in lowest terms with q > 0."""
    try:
        # a Fraction is already in lowest terms with q > 0, so it prints as it is
        return str(value if type(value) is Fraction else Fraction(value))
    except ValueError:  # the interpreter's limit on integer string conversion
        raise digit_limit_error() from None


def load_json(text: str):
    """Decode JSON text, reporting malformed input as a FormatError."""
    try:
        return json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer beyond the interpreter's
    # digit limit; nesting deeper than the recursion limit is a RecursionError
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def check_table_size(rows: int, columns: int):
    """Raise DomainError when the rows, checked first, or the columns exceed MAX_TABLE_ROWS."""
    for count, what in ((rows, "rows"), (columns, "columns")):
        if count > MAX_TABLE_ROWS:
            # format_rational refuses a count beyond the interpreter's digit limit
            raise DomainError(
                f"the table would have {format_rational(count)} {what}, "
                f"more than {MAX_TABLE_ROWS}; the json format has no such limit"
            )


def format_grid(rows) -> str:
    """Rows of strings as lines, every column right-justified to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


class BettiDiagram:
    """Immutable sparse table (i, j) -> nonzero Fraction."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Union[Mapping, Iterable, None] = None):
        """Sum (i, j) -> value pairs, each value of type int or Fraction, into a table."""
        table: dict[tuple[int, int], Fraction] = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for key, raw in items:
                try:
                    i, j = key
                except (TypeError, ValueError):  # not iterable, or not of length two
                    i = j = None
                if type(i) is not int or type(j) is not int:  # bool is an int subclass
                    raise FormatError(f"diagram key must be a pair of integers, got {key!r}")
                if i < 0:
                    raise FormatError(f"homological index must be >= 0, got {i}")
                value = exact_value(raw, "diagram value")
                if (i, j) in table:
                    value += table[i, j]
                if value:
                    table[i, j] = value
                else:
                    table.pop((i, j), None)
        self._entries = table

    # -- container protocol -------------------------------------------------

    def items(self) -> tuple:
        """Entries as ((i, j), value) pairs sorted by (i, j)."""
        return tuple(sorted(self._entries.items()))

    def __getitem__(self, key) -> Fraction:
        return self._entries.get(tuple(key), Fraction(0))

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other):
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self):
        return f"BettiDiagram({dict(self.items())!r})"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        return BettiDiagram([*self._entries.items(), *other._entries.items()])

    def __sub__(self, other):
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, scalar):
        if type(scalar) not in (int, Fraction):  # exact types, as in exact_value
            return NotImplemented
        return BettiDiagram({k: scalar * v for k, v in self._entries.items()})

    __rmul__ = __mul__

    # -- derived statistics --------------------------------------------------

    def projective_dimension(self) -> int:
        if not self._entries:
            raise DomainError("empty diagram has no projective dimension")
        return max(i for i, _ in self._entries)

    def totals(self) -> tuple:
        """All column totals (index 0 through the projective dimension), in one walk.

        Each column sums the cleared numerators of `_cleared` as integers, and
        only its total becomes a Fraction.
        """
        scale, cleared = self._cleared()
        sums = [0] * (self.projective_dimension() + 1)
        for (i, _), numerator in cleared:
            sums[i] += numerator
        return tuple(Fraction(total, scale) for total in sums)

    def min_degrees(self) -> DegreeSequence:
        return self._column_extremes(min)

    def max_degrees(self) -> DegreeSequence:
        return self._column_extremes(max)

    def _column_extremes(self, pick) -> DegreeSequence:
        if not self._entries:
            raise DomainError("empty diagram")
        columns: dict[int, list[int]] = {}
        for i, j in self._entries:
            columns.setdefault(i, []).append(j)
        pdim = max(columns)
        out = []
        for i in range(pdim + 1):
            if i not in columns:
                raise GapColumnError(f"column {i} is zero but column {pdim} is not")
            out.append(pick(columns[i]))
        return tuple(out)

    def regularity(self) -> int:
        if not self._entries:
            raise DomainError("empty diagram has no regularity")
        return max(j - i for i, j in self._entries)

    def _cleared(self) -> tuple:
        """(L, ((i, j), L * value) pairs) for L the lcm of every denominator.

        Every L * value is an integer, its value's numerator times L over its
        denominator, so sums of them need no gcd.
        """
        scale = math.lcm(*(value.denominator for value in self._entries.values()))
        pairs = (
            (key, value.numerator * (scale // value.denominator))
            for key, value in self._entries.items()
        )
        return scale, pairs

    def hilbert_numerator(self) -> Poly:
        """Alternating sum over the table: sum of (-1)^i * value * t^j, with Fraction coefficients."""
        return _alternating_sum(self._entries.items())

    def codimension(self) -> int:
        """Order of vanishing of the Hilbert numerator at t = 1.

        It is read off L times the numerator, the alternating sum of the
        cleared integers of `_cleared`: a positive scale leaves the order at
        t = 1 unchanged, and no Fraction is added.
        """
        _, cleared = self._cleared()
        numerator = _alternating_sum(cleared)
        if not numerator:
            raise DomainError("Hilbert numerator is identically zero")
        return numerator.vanishing_order_at_one()

    # -- wire format -----------------------------------------------------------

    def to_json(self) -> str:
        entries = [{"i": i, "j": j, "value": format_rational(v)} for (i, j), v in self.items()]
        return json.dumps({"entries": entries})

    @classmethod
    def from_json(cls, text: str) -> "BettiDiagram":
        payload = load_json(text)
        if not isinstance(payload, dict) or "entries" not in payload:
            raise FormatError('diagram JSON must be an object with an "entries" list')
        entries = payload["entries"]
        if not isinstance(entries, list):
            raise FormatError('"entries" must be a list')
        pairs = []
        for row in entries:
            if not isinstance(row, dict) or not {"i", "j", "value"} <= set(row):
                raise FormatError(f"diagram entry must have i, j, value: {row!r}")
            pairs.append(((row["i"], row["j"]), parse_rational(row["value"])))
        diagram = cls(pairs)  # checks the indices, so every key below is hashable
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"duplicate entry at ({key[0]}, {key[1]})")
            seen.add(key)
        return diagram

    def table(self) -> str:
        """Human-readable table: rows indexed by j - i, columns by i, "." for zero.

        Raises DomainError, by `check_table_size`, when the rows or the columns
        would number more than MAX_TABLE_ROWS.
        """
        if not self._entries:
            return "(empty Betti diagram)"
        offsets = [j - i for i, j in self._entries]
        low, high = min(offsets), max(offsets)
        columns = range(self.projective_dimension() + 1)
        check_table_size(high - low + 1, columns.stop)
        grid = [[""] + [str(i) for i in columns]]
        grid.append(["total:"] + [format_rational(t) for t in self.totals()])
        for r in range(low, high + 1):
            cells = (self._entries.get((i, r + i)) for i in columns)
            grid.append([f"{r}:"] + ["." if v is None else format_rational(v) for v in cells])
        return format_grid(grid)


def _alternating_sum(pairs) -> Poly:
    """sum of (-1)^i * value * t^j over ((i, j), value) pairs."""
    return Poly((j, -value if i % 2 else value) for (i, j), value in pairs)


# -- degree sequences ----------------------------------------------------------


def check_degree_sequence(degrees: Sequence[int]) -> DegreeSequence:
    """Validate and normalize a strictly increasing integer tuple."""
    if len(degrees) == 0:
        raise InvalidSequenceError("degree sequence must be nonempty")
    out = tuple(degrees)
    for d in out:
        if type(d) is not int:  # bool is an int subclass
            raise InvalidSequenceError(f"degrees must be integers, got {d!r}")
    for prev, nxt in zip(out, out[1:]):
        if nxt <= prev:
            raise InvalidSequenceError(f"not strictly increasing: {out}")
    return out
