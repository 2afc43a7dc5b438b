"""Greedy decomposition of Betti diagrams into pure diagrams.

Any diagram of a graded module is a positive rational combination of
normalized pure diagrams whose degree sequences form a chain.  The greedy
loop below constructs one: read off the minimal degree of each column,
subtract the largest multiple of that pure diagram that keeps all entries
nonnegative, and repeat.  Each step zeroes at least one entry and creates
none, so the loop ends within as many steps as the diagram has entries.
Inputs outside the reach of this procedure raise NotInConeError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .diagram import BettiDiagram, format_rational, seq_leq
from .errors import DomainError, GapColumnError, InvalidSequenceError, NotInConeError
from .pure import herzog_kuhl


@dataclass(frozen=True)
class Decomposition:
    """Ordered (coefficient, degree sequence) terms; coefficients all positive."""

    terms: Tuple[Tuple[Fraction, Tuple[int, ...]], ...]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"coefficient": format_rational(c), "degrees": list(d)} for c, d in self.terms
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def decompose(diagram: BettiDiagram) -> Decomposition:
    """Greedy chain decomposition; exact, and invertible by :func:`recompose`."""
    if not diagram:
        raise DomainError("cannot decompose the zero diagram")
    if any(value < 0 for _, value in diagram.items()):
        raise NotInConeError("diagram has a negative entry")
    work = diagram
    terms = []
    while work:
        try:
            degrees = work.min_degrees()
        except GapColumnError as exc:
            raise NotInConeError(f"interior zero column: {exc}") from exc
        try:
            pure = herzog_kuhl(degrees)
        except InvalidSequenceError as exc:
            raise NotInConeError(f"minimal degrees not strictly increasing: {degrees}") from exc
        # pure lives on the entries (i, d_i) of work, positive on both sides, so
        # the coefficient is positive, no entry turns negative or appears, and
        # the argmin is zeroed and pruned: the support shrinks every step.
        coefficient = min(work[(i, d)] / pure[(i, d)] for i, d in enumerate(degrees))
        work = work - coefficient * pure
        terms.append((coefficient, degrees))
    return Decomposition(tuple(terms))


def recompose(decomposition: Decomposition) -> BettiDiagram:
    """Exact sum of coefficient * pure diagram over all terms."""
    total = BettiDiagram()
    for coefficient, degrees in decomposition:
        total = total + coefficient * herzog_kuhl(degrees)
    return total


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
