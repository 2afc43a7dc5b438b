"""Binomial rank bounds of Buchsbaum-Eisenbud-Horrocks type on Betti diagrams.

The conjectural floor for a codimension-c module is a column total of at
least C(c, j) in every column j.  The sufficient condition checked here is a
shape condition on the diagram: generators in degrees <= 0 and regularity at
most 2*(minimal first-syzygy degree) - 2.  `scan` hunts through pure diagrams
for sequences that satisfy, or provably violate, the bound, deciding each one
in integer arithmetic.  Its shape-verify mode visits only the sequences that
meet the shape condition, the only ones it could report; the "N sequences"
of every scan summary is the size of the whole domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .diagram import BettiDiagram, format_rational
from .errors import DomainError, NoFirstSyzygyError
from .pure import column_totals, herzog_kuhl, hk_pair, pure_shape_check

SCAN_MODES = ("shape-verify", "find-violations", "integral-violations")


def shape_hypothesis(diagram: BettiDiagram) -> bool:
    """True when generators sit in degrees <= 0 and reg <= 2*min_deg_1 - 2."""
    if not diagram:
        raise DomainError("empty diagram")
    if diagram.projective_dimension() < 1:
        raise NoFirstSyzygyError("column 1 is empty; the hypothesis is vacuous")
    max_deg = diagram.max_degrees()
    min_deg = diagram.min_degrees()
    return max_deg[0] <= 0 and diagram.regularity() <= 2 * min_deg[1] - 2


@dataclass(frozen=True)
class ColumnCheck:
    j: int
    actual: Fraction
    required: Fraction

    @property
    def passed(self) -> bool:
        return self.actual >= self.required

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "actual": format_rational(self.actual),
            "required": format_rational(self.required),
            "pass": self.passed,
        }


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

    def failures(self) -> Tuple[ColumnCheck, ...]:
        return tuple(check for check in self.per_j if not check.passed)

    def to_json_dict(self) -> dict:
        return {
            "codim": self.codim,
            "beta0": format_rational(self.beta0),
            "per_j": [check.to_json_dict() for check in self.per_j],
            "hypothesis_met": self.hypothesis_met,
            "overall": self.overall,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def beh_check(diagram: BettiDiagram, codim: Optional[int] = None) -> BehReport:
    """Compare column totals against beta_0 * C(codim, j) for j = 0..codim.

    The comparison itself is translation-invariant; for the shape hypothesis a
    diagram generated in positive degrees is first shifted so its top
    generator sits in degree 0 (noted in the report).  A codim override above
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
    work = diagram
    if top_generator > 0:
        work = diagram.translate(-top_generator)
        notes.append(f"translated degrees by {-top_generator} to place generators in degrees <= 0")
    try:
        hypothesis = shape_hypothesis(work)
    except NoFirstSyzygyError:
        hypothesis = False
        notes.append("column 1 is empty (free module); shape hypothesis vacuous")
    return BehReport(c, beta0, per_j, hypothesis, tuple(notes))


def pure_beh_check(degrees: Sequence[int]) -> BehReport:
    """BEH report for the normalized pure diagram of a degree sequence."""
    pure = herzog_kuhl(degrees)
    return beh_check(pure, codim=pure.projective_dimension())


# -- degree-sequence scanning -------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    degrees: Tuple[int, ...]
    s: int
    shape: bool
    beh_pass: bool
    first_violating_j: int
    betti_totals: Tuple[Fraction, ...]

    def to_csv(self) -> str:
        return ";".join(
            [
                ",".join(str(d) for d in self.degrees),
                str(self.s),
                "true" if self.shape else "false",
                "true" if self.beh_pass else "false",
                str(self.first_violating_j),
                ",".join(format_rational(v) for v in self.betti_totals),
            ]
        )


CSV_HEADER = "degrees;s;shape;beh_pass;first_violating_j;betti_totals"


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

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [row.to_csv() for row in self.rows])

    def summary(self) -> str:
        return (
            f"scan mode={self.mode} s={min(self.s_values)}..{max(self.s_values)} "
            f"d_max={self.d_max}: {self.sequences_checked} sequences, "
            f"{self.findings} findings"
        )


def shape_sequences(s: int, d_max: int) -> Iterator[Tuple[int, ...]]:
    """Degree sequences 0 = d_0 < d_1 < ... < d_s <= d_max with d_s - s <= 2*d_1 - 2.

    Lexicographic, like `combinations`: for each d_1, the rest is chosen from
    (d_1, min(d_max, s + 2*d_1 - 2)].  At s = 1 that interval is empty and the
    condition d_1 >= 1 always holds, so every sequence is produced.
    """
    for d1 in range(1, d_max - s + 2):
        top = min(d_max, s + 2 * d1 - 2)
        for rest in combinations(range(d1 + 1, top + 1), s - 1):
            yield (0, d1) + rest


def _first_below(
    pairs: Sequence[Tuple[int, int]], floor: Sequence[int], multiple: int = 1
) -> Optional[int]:
    """First column j >= 1 with multiple * num_j / den_j < C(s, j), if any."""
    for j, (num, den) in enumerate(pairs, 1):
        if multiple * num < floor[j] * den:
            return j
    return None


def scan(s_range: Iterable[int], d_max: int, mode: str) -> ScanReport:
    """Enumerate degree sequences with d_0 = 0 and run the selected check.

    * shape-verify: report any shape-satisfying sequence whose raw totals drop
      below C(s, j) (none should exist).  Only the sequences meeting the shape
      condition are visited (`shape_sequences`).
    * find-violations: report sequences whose smallest integral multiple of
      the pure diagram violates the binomial floor; these rays carry no
      diagram of any module satisfying the bound.
    * integral-violations: the find-violations test restricted to sequences
      whose pure diagram is integral outright or after doubling.

    Every comparison is made on the integer pairs of `hk_pair`; column totals
    are built as fractions only for reported rows.  `sequences_checked` is the
    size of the domain, sum over s of C(d_max, s), in every mode.  An s range
    reaching outside [1, 8] is refused after reading at most nine distinct
    values from it, however long it is.
    """
    values = iter(s_range)
    distinct = set()
    for s in values:
        distinct.add(s)
        if len(distinct) > 8:  # nine distinct integers cannot all lie in [1, 8]
            break
    s_values = tuple(sorted(distinct))
    if not s_values:
        raise DomainError("empty s range")
    if s_values[0] < 1 or s_values[-1] > 8:
        shown = s_values if next(values, None) is None else f"({', '.join(map(str, s_values))}, ...)"
        raise DomainError(f"s range must lie in [1, 8], got {shown}")
    if not 1 <= d_max <= 20:
        raise DomainError(f"d_max must lie in [1, 20], got {d_max}")
    if mode not in SCAN_MODES:
        raise DomainError(f"unknown mode {mode!r}; choose from {SCAN_MODES}")

    rows = []
    checked = 0
    for s in s_values:
        checked += math.comb(d_max, s)
        floor = [math.comb(s, j) for j in range(s + 1)]
        columns = range(1, s + 1)
        if mode == "shape-verify":
            for degrees in shape_sequences(s, d_max):
                raw = _first_below([hk_pair(degrees, j) for j in columns], floor)
                if raw is not None:
                    rows.append(ScanRow(degrees, s, True, False, raw, column_totals(degrees)))
            continue
        for upper in combinations(range(1, d_max + 1), s):
            degrees = (0,) + upper
            pairs = [hk_pair(degrees, j) for j in columns]
            multiple = math.lcm(*(den // math.gcd(num, den) for num, den in pairs))
            if mode == "integral-violations" and multiple > 2:
                continue
            scaled = _first_below(pairs, floor, multiple)
            if scaled is None:
                continue
            rows.append(
                ScanRow(
                    degrees,
                    s,
                    pure_shape_check(degrees),
                    _first_below(pairs, floor) is None,
                    scaled,
                    column_totals(degrees),
                )
            )
    return ScanReport(mode, s_values, d_max, checked, tuple(rows))
