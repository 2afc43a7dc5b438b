"""Greedy decomposition of Betti diagrams into pure diagrams.

Any diagram of a graded module is a positive rational combination of
normalized pure diagrams whose degree sequences form a chain.  The greedy
loop below constructs one: read off the minimal degree of each column,
subtract the largest multiple of that pure diagram that keeps all entries
nonnegative, and repeat.  Each step zeroes at least one entry and creates
none, so the loop ends within as many steps as the diagram has entries.
Inputs outside the reach of this procedure raise NotInConeError.

The loop works on a private copy of the input, one stack of (degree,
numerator, denominator) triples per column with the minimal degree on top;
every value is kept as a reduced integer pair.  A pure step touches only the
s + 1 entries (i, d_i), which are the tops; an entry it zeroes is popped, and
no other entry ever changes.  So a step costs O(s) integer operations and one
gcd per entry it keeps, whatever the size of the diagram: no BettiDiagram is
built, and the only Fraction made is the term's coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Tuple

from .diagram import BettiDiagram, check_degree_sequence, exact_value, seq_leq
from .errors import DomainError, NotInConeError
from .pure import hk_pair


@dataclass(frozen=True)
class Decomposition:
    """Ordered (coefficient, degree sequence) terms; coefficients all positive."""

    terms: Tuple[Tuple[Fraction, Tuple[int, ...]], ...]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def decompose(diagram: BettiDiagram) -> Decomposition:
    """Greedy chain decomposition; exact, and invertible by :func:`recompose`."""
    if not diagram:
        raise DomainError("cannot decompose the zero diagram")
    # column i -> its (degree, num, den) triples, highest degree first
    columns: dict[int, list] = {}
    for (i, j), value in reversed(diagram.items()):
        if value < 0:
            raise NotInConeError("diagram has a negative entry")
        columns.setdefault(i, []).append((j, value.numerator, value.denominator))
    terms = []
    while columns:
        top = max(columns)
        if len(columns) <= top:
            gap = next(i for i in range(top) if i not in columns)
            raise NotInConeError(
                f"interior zero column: column {gap} is zero but column {top} is not"
            )
        fronts = [columns[i][-1] for i in range(top + 1)]
        degrees = tuple(d for d, _, _ in fronts)
        if any(b <= a for a, b in zip(degrees, degrees[1:])):
            raise NotInConeError(f"minimal degrees not strictly increasing: {degrees}")
        pure = [hk_pair(degrees, i) for i in range(top + 1)]
        # pure lives on the tops (i, d_i), positive on both sides, so the
        # coefficient is positive, no entry turns negative or appears, and the
        # argmin is zeroed and popped: the support shrinks every step.
        # The coefficient is the least (vn/vd) / (num/den), compared by
        # cross-multiplying, and reduced once.
        cn, cd = 0, 0
        for (_, vn, vd), (num, den) in zip(fronts, pure):
            n, m = vn * den, vd * num
            if not cd or n * cd < cn * m:
                cn, cd = n, m
        coefficient = Fraction(cn, cd)
        cn, cd = coefficient.numerator, coefficient.denominator
        for i, ((d, vn, vd), (num, den)) in enumerate(zip(fronts, pure)):
            rest = vn * cd * den - cn * num * vd
            column = columns[i]
            if rest:
                scale = vd * cd * den
                g = gcd(rest, scale)
                column[-1] = (d, rest // g, scale // g)
            else:
                column.pop()
                if not column:
                    del columns[i]
        terms.append((coefficient, degrees))
    return Decomposition(tuple(terms))


def recompose(decomposition: Decomposition) -> BettiDiagram:
    """Exact sum of coefficient * pure diagram over all terms.

    Each entry is summed as a reduced integer pair, so its size follows its
    value, not the number of terms that reach it.  Coefficients must be of
    type int or Fraction; anything else is a FormatError.
    """
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for coefficient, degrees in decomposition:
        degrees = check_degree_sequence(degrees)
        coefficient = exact_value(coefficient, "coefficient")
        cn, cd = coefficient.numerator, coefficient.denominator
        for i, d in enumerate(degrees):
            num, den = hk_pair(degrees, i)
            n, m = cn * num, cd * den
            if (i, d) in table:
                tn, tm = table[i, d]
                n, m = tn * m + n * tm, tm * m
            g = gcd(n, m)
            table[i, d] = (n // g, m // g)
    return BettiDiagram({key: Fraction(n, m) for key, (n, m) in table.items()})


@dataclass(frozen=True)
class TermBounds:
    degrees: Tuple[int, ...]
    length_ok: bool
    lower_ok: bool
    upper_ok: bool

    @property
    def passed(self) -> bool:
        return self.length_ok and self.lower_ok and self.upper_ok


@dataclass(frozen=True)
class BoundsReport:
    codim: int
    projective_dimension: int
    min_degrees: Tuple[int, ...]
    max_degrees: Tuple[int, ...]
    recompose_matches: bool
    per_term: Tuple[TermBounds, ...]

    @property
    def passed(self) -> bool:
        return self.recompose_matches and all(t.passed for t in self.per_term)


def validate_bounds(decomposition: Decomposition, diagram: BettiDiagram) -> BoundsReport:
    """Check every term against the support bounds of the source diagram.

    A term of length s + 1 must satisfy codim <= s <= projective dimension and
    lie termwise between the first s + 1 minimal and maximal degrees; the
    maximal degrees need only increase weakly.
    """
    codim = diagram.codimension()
    pdim = diagram.projective_dimension()
    dmin = diagram.min_degrees()
    dmax = diagram.max_degrees()
    per_term = []
    for _, degrees in decomposition:
        s = len(degrees) - 1
        length_ok = codim <= s <= pdim
        if s <= pdim:
            lower_ok = seq_leq(dmin[: s + 1], degrees)
            upper_ok = seq_leq(degrees, dmax[: s + 1])
        else:
            lower_ok = upper_ok = False
        per_term.append(TermBounds(degrees, length_ok, lower_ok, upper_ok))
    matches = recompose(decomposition) == diagram
    return BoundsReport(codim, pdim, dmin, dmax, matches, tuple(per_term))
