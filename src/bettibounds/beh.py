"""Binomial rank bounds of Buchsbaum-Eisenbud-Horrocks type on Betti diagrams.

The conjectural floor for a codimension-c module is a column total of at
least C(c, j) in every column j.  The sufficient condition checked here is a
shape condition on the diagram: generators in degrees <= 0 and regularity at
most 2*(minimal first-syzygy degree) - 2.  One predicate, `pure._shape_holds`,
decides it on those three statistics, whether `beh_check` reads them off a
diagram, lowered by a positive top generator degree, `pure_shape_check` off a
degree sequence, or `scan` off the degrees it walked.  `scan` hunts through
pure diagrams for sequences that satisfy, or provably violate, the bound,
deciding each one in integer arithmetic.  A reported row's totals come from
the pairs it was decided on and its `shape` from its degrees.  It walks the
sequences by prefix and last degree: each prefix d_1 < ... < d_{s-1} builds
its Herzog-Kuhl products once, and each last degree d_s it checks then costs
O(s).  The pairs it compares equal those of `pure.hk_pair`, the one
definition of the product; a test pins them to it.  Its shape-verify mode
visits only the sequences that meet the shape condition, the only ones it
could report.  The two violation modes skip, by one gcd, every sequence
whose last column's reduced denominator already lifts every column to the
floor: it divides the smallest integral multiple, so such a sequence has no
row.  A report's `sequences_checked` is the size of the whole domain.  The
reports are data: `cli` writes them as text, JSON and CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

from .diagram import BettiDiagram
from .errors import DomainError
from .pure import _shape_holds, herzog_kuhl

SCAN_MODES = ("shape-verify", "find-violations", "integral-violations")
_SCAN_D_MAX = 20


@dataclass(frozen=True)
class ColumnCheck:
    j: int
    actual: Fraction
    required: Fraction

    @property
    def passed(self) -> bool:
        return self.actual >= self.required


@dataclass(frozen=True)
class BehReport:
    codim: int
    beta0: Fraction
    per_j: Tuple[ColumnCheck, ...]
    hypothesis_met: bool
    notes: Tuple[str, ...] = ()

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.per_j)


def beh_check(diagram: BettiDiagram, codim: Optional[int] = None) -> BehReport:
    """Compare column totals against beta_0 * C(codim, j) for j = 0..codim.

    The comparison itself is translation-invariant; the shape hypothesis is
    judged as if a diagram generated in positive degrees were shifted so its
    top generator sits in degree 0 (noted in the report).  A codim override above
    the projective dimension is refused: codim M <= pd M over a polynomial
    ring, so such a value describes no module.
    """
    if not diagram:
        raise DomainError("empty diagram")
    c = diagram.codimension() if codim is None else codim
    if c < 0:
        raise DomainError(f"codimension must be >= 0, got {c}")
    if codim is not None and codim > diagram.projective_dimension():
        raise DomainError(
            f"codimension {codim} exceeds the projective dimension {diagram.projective_dimension()}"
        )
    # An interior zero column is refused here, before the O(c) column checks.
    top_generator = diagram.max_degrees()[0]
    # a computed codim may exceed the projective dimension; those columns are zero
    totals = diagram.totals()
    totals += (Fraction(0),) * (c + 1 - len(totals))
    beta0 = totals[0]
    per_j = tuple(ColumnCheck(j, totals[j], beta0 * math.comb(c, j)) for j in range(c + 1))
    notes = []
    shift = max(top_generator, 0)
    if shift:
        notes.append(f"translated degrees by {-shift} to place generators in degrees <= 0")
    if diagram.projective_dimension() < 1:
        hypothesis = False
        notes.append("column 1 is empty (free module); shape hypothesis vacuous")
    else:
        first = diagram.min_degrees()[1]
        hypothesis = _shape_holds(top_generator - shift, diagram.regularity() - shift, first - shift)
    return BehReport(c, beta0, per_j, hypothesis, tuple(notes))


def pure_beh_check(degrees: Sequence[int]) -> BehReport:
    """BEH report for the normalized pure diagram of a degree sequence."""
    pure = herzog_kuhl(degrees)
    return beh_check(pure, codim=pure.projective_dimension())


# -- degree-sequence scanning -------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    degrees: Tuple[int, ...]
    shape: bool
    first_violating_j: int
    betti_totals: Tuple[Fraction, ...]


@dataclass(frozen=True)
class ScanReport:
    mode: str
    s_values: Tuple[int, ...]
    d_max: int
    sequences_checked: int
    rows: Tuple[ScanRow, ...]

    @property
    def findings(self) -> int:
        return len(self.rows)


# Row d, entry e: the factor a degree e brings to the Herzog-Kuhl denominator
# of the column at degree d when d_0 = 0, that is |e - d|, or 1 for e = 0 and
# for e = d, which stay out of that product; degrees up to the guard rail.
_DEN_FACTORS = tuple(
    tuple(1 if e in (0, d) else abs(e - d) for e in range(_SCAN_D_MAX + 1))
    for d in range(_SCAN_D_MAX + 1)
)


def _walk(
    s: int, d_max: int, mode: str
) -> Iterator[Tuple[Tuple[int, ...], int, List[Tuple[int, int]]]]:
    """The sequences (0, *prefix, x) with x <= d_max that `scan` checks in mode, with their pairs.

    Lexicographic, like `combinations`.  A prefix d_1 < ... < d_{s-1} has
    P = d_1...d_{s-1}, a_j = P/d_j and b_j = prod over i != j of |d_i - d_j|,
    each b_j and each last degree's Q = prod of (x - d_i) read off
    `_DEN_FACTORS`.  Its columns (a_j, b_j, d_j) are built once, in O(s^2), at
    its first yielded x; each yielded x then costs O(s): column j < s is
    (a_j*x, b_j*(x - d_j)) and column s is (P, Q), exactly the unreduced pairs
    `pure.hk_pair` gives for columns 1..s.

    shape-verify walks exactly the sequences meeting the shape condition: x
    stops at s + 2*d_1 - 2 and only prefixes below that bound are built; at
    s = 1 the condition always holds.

    The other two modes skip, before building any pair, each sequence whose
    smallest integral multiple M cannot drop below the floor, so they drop no
    row.  M is a multiple of den_s = Q/gcd(P, Q), the reduced denominator of
    column s.  So M*total_s is a positive integer, never below C(s, s) = 1,
    and M*total_j >= den_s*total_j for j < s.  total_j = a_j*x / (b_j*(x - d_j))
    falls as x grows, so no column j < s reports once den_s >= B, where
    B = max over j < s of ceil(C(s, j)*b_j*(d_max - d_j) / (a_j*d_max)); with
    a_j = P/d_j, that is the ceiling of the largest C(s, j)*d_j*b_j*(d_max - d_j)
    over P*d_max.  integral-violations reports only M <= 2, so there B = 3.
    At s = 1 column s is the only column, so no sequence is left.  As
    den_s >= Q/P and Q grows with x, a prefix's last degrees stop at the first
    Q >= B*P.
    """
    shape_only = mode == "shape-verify"
    if s == 1:
        if shape_only:
            for x in range(1, d_max + 1):
                yield (), x, [(1, 1)]
        return
    floor = [math.comb(s, j) for j in range(s)]
    for d1 in range(1, d_max - s + 2):
        top = min(d_max, s + 2 * d1 - 2) if shape_only else d_max
        for rest in combinations(range(d1 + 1, top), s - 2):
            prefix = (d1, *rest)
            factors = itemgetter(0, *prefix)
            product = math.prod(prefix)
            if shape_only:
                bound = None
            elif mode == "integral-violations":
                bound = 3
            else:
                worst = max(
                    floor[j] * d * (d_max - d) * math.prod(factors(_DEN_FACTORS[d]))
                    for j, d in enumerate(prefix, 1)
                )
                bound = -(-worst // (product * d_max))
            columns = None
            for x in range(prefix[-1] + 1, top + 1):
                last = math.prod(factors(_DEN_FACTORS[x]))
                if bound is not None:
                    if last >= bound * product:
                        break
                    if last // math.gcd(product, last) >= bound:
                        continue
                if columns is None:
                    columns = [
                        (product // d, math.prod(factors(_DEN_FACTORS[d])), d) for d in prefix
                    ]
                pairs = [(a * x, b * (x - d)) for a, b, d in columns]
                pairs.append((product, last))
                yield prefix, x, pairs


def _totals(pairs: Sequence[Tuple[int, int]]) -> Tuple[Fraction, ...]:
    """Column totals (1, total_1, ..., total_s) from the pairs of columns 1..s."""
    return (Fraction(1),) + tuple(Fraction(num, den) for num, den in pairs)


def _first_below(
    pairs: Sequence[Tuple[int, int]], floor: Sequence[int], multiple: int
) -> Optional[int]:
    """First column j >= 1 with multiple * num_j / den_j < C(s, j), if any."""
    for j, (num, den) in enumerate(pairs, 1):
        if multiple * num < floor[j] * den:
            return j
    return None


def scan(s_min: int, s_max: int, d_max: int, mode: str) -> ScanReport:
    """Enumerate degree sequences with d_0 = 0 and s_min <= s <= s_max, and run a check.

    * shape-verify: report any shape-satisfying sequence whose raw totals drop
      below C(s, j) (none should exist).  Only the sequences meeting the shape
      condition are visited.
    * find-violations: report sequences whose smallest integral multiple of
      the pure diagram violates the binomial floor; these rays carry no
      diagram of any module satisfying the bound.
    * integral-violations: the find-violations test restricted to sequences
      whose pure diagram is integral outright or after doubling; the lcm of
      the reduced denominators stops as soon as it exceeds 2.

    `_walk` builds each prefix's products once and each sequence's pairs in
    O(s) from them; they equal the unreduced pairs of `pure.hk_pair`, which a
    test asserts.  In the two violation modes it skips, by one gcd, every
    sequence whose last column's reduced denominator, a divisor of the
    multiple, already lifts every column to the floor; `_walk` proves that
    such a sequence has no row.  Every comparison is made on the integer
    pairs, shape-verify's at the multiple 1, and every mode builds a reported
    row by one rule from them and its degrees alone.
    `sequences_checked` is the size of the domain, sum over s of C(d_max, s),
    in every mode.  An s range reaching outside [1, 8] is refused, quoting at
    most its first nine values.
    """
    if s_min > s_max:
        raise DomainError("empty s range")
    if s_min < 1 or s_max > 8:
        shown = tuple(range(s_min, min(s_max, s_min + 8) + 1))
        if s_max - s_min > 8:
            shown = f"({', '.join(map(str, shown))}, ...)"
        raise DomainError(f"s range must lie in [1, 8], got {shown}")
    if not 1 <= d_max <= _SCAN_D_MAX:
        raise DomainError(f"d_max must lie in [1, {_SCAN_D_MAX}], got {d_max}")
    if mode not in SCAN_MODES:
        raise DomainError(f"unknown mode {mode!r}; choose from {SCAN_MODES}")

    s_values = tuple(range(s_min, s_max + 1))
    scaled = mode != "shape-verify"
    integral = mode == "integral-violations"
    rows = []
    checked = 0
    for s in s_values:
        checked += math.comb(d_max, s)
        floor = [math.comb(s, j) for j in range(s + 1)]
        for prefix, x, pairs in _walk(s, d_max, mode):
            # shape-verify checks the raw totals, the multiple 1
            multiple = 1
            for num, den in pairs if scaled else ():
                multiple = math.lcm(multiple, den // math.gcd(num, den))
                if integral and multiple > 2:
                    break
            else:
                first = _first_below(pairs, floor, multiple)
                if first is not None:
                    shape = _shape_holds(0, x - s, prefix[0] if prefix else x)
                    rows.append(ScanRow((0, *prefix, x), shape, first, _totals(pairs)))
    return ScanReport(mode, s_values, d_max, checked, tuple(rows))
