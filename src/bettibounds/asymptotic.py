"""Lower bounds for column totals of powers of an equigenerated ideal.

For an ideal of codimension c generated in a single degree delta whose
regularity reg(I^t) eventually equals delta*t + b, every pure diagram
contributing to S/I^t has first syzygy degree d_1 = delta*t, hence first gap
e_1 = d_1 - d_0 - 1 = delta*t - 1, and remaining gaps summing to at most b.
Minimizing the column-total function under those constraints gives an exact
product bound in t whose leading term is

    (b!)^2 * delta^(c-1) / ((j-1+b)! * (c-j+b)!) * t^(c-1).

Everything here is exact: the bound is exposed as a rational value at a given
power t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import DomainError
from .pure import pure_total


@dataclass(frozen=True)
class PowerBoundParams:
    """Codimension, generation degree, regularity defect, column, and power."""

    codim: int
    delta: int
    defect: int
    j: int
    t: int

    def __post_init__(self):
        fields = (self.codim, self.delta, self.defect, self.j, self.t)
        if any(type(x) is not int for x in fields):  # bool is an int subclass
            raise DomainError(f"parameters must be integers, got {fields}")
        if self.codim < 1:
            raise DomainError(f"codim must be >= 1, got {self.codim}")
        if self.delta < 1:
            raise DomainError(f"delta must be >= 1, got {self.delta}")
        if self.defect < 0:
            raise DomainError(f"defect must be >= 0, got {self.defect}")
        if not 1 <= self.j <= self.codim:
            raise DomainError(f"j must lie in 1..{self.codim}, got {self.j}")
        if self.t < 1:
            raise DomainError(f"t must be >= 1, got {self.t}")


def _first_gap(delta: int, t: int) -> int:
    """First gap e_1 = delta*t - 1 of S/I^t."""
    return delta * t - 1


def _bound_denominator(codim: int, defect: int, j: int) -> int:
    """The t-independent denominator (1+b)...(j-1+b) * (1+b)...(c-j+b) of the bound."""
    return math.perm(j - 1 + defect, j - 1) * math.perm(codim - j + defect, codim - j)


def _bound_product(codim: int, defect: int, j: int, e1: int) -> tuple[int, int]:
    """The bound at first gap e1 as the pair (numerator, `_bound_denominator`), with
    numerator (1 + e1) ... (j-1 + e1) * (j+1 + e1 + b) ... (c + e1 + b)."""
    numerator = math.perm(j - 1 + e1, j - 1) * math.perm(codim + e1 + defect, codim - j)
    return numerator, _bound_denominator(codim, defect, j)


def exact_lower_bound(params: PowerBoundParams) -> Fraction:
    """Value of the product bound at the given power."""
    e1 = _first_gap(params.delta, params.t)
    return Fraction(*_bound_product(params.codim, params.defect, params.j, e1))


def leading_coefficient(codim: int, delta: int, defect: int, j: int) -> Fraction:
    """(b!)^2 * delta^(c-1) / ((j-1+b)! * (c-j+b)!), which is delta^(c-1) over
    `_bound_denominator`."""
    PowerBoundParams(codim, delta, defect, j, 1)
    return Fraction(delta ** (codim - 1), _bound_denominator(codim, defect, j))


def leading_bound(params: PowerBoundParams) -> Fraction:
    """Leading-term value: leading coefficient times t^(c-1)."""
    lead = leading_coefficient(params.codim, params.delta, params.defect, params.j)
    return lead * Fraction(params.t) ** (params.codim - 1)


@dataclass(frozen=True)
class PowerBoundComparison:
    params: PowerBoundParams
    gap_vector: Tuple[Fraction, ...]
    pure_value: Fraction
    exact_bound: Fraction
    leading_value: Fraction

    @property
    def passed(self) -> bool:
        return self.pure_value >= self.exact_bound >= self.leading_value


def bound_vs_pure(params: PowerBoundParams, e_tail: Sequence[int]) -> PowerBoundComparison:
    """Evaluate the pure column total on a constrained gap vector and compare.

    The gap vector is (delta*t - 1, e_2, ..., e_s) with a nonnegative integer
    tail summing to at most the defect and s >= codim; the pure value must
    dominate the exact bound, which dominates its own leading term.
    """
    tail = tuple(e_tail)
    if any(type(x) is not int or x < 0 for x in tail):  # bool is an int subclass
        raise DomainError(f"gap tail must be nonnegative integers, got {tail}")
    s = len(tail) + 1
    if s < params.codim:
        raise DomainError(f"need s >= codim, got s={s} < {params.codim}")
    if sum(tail) > params.defect:
        raise DomainError(f"gap tail sums to {sum(tail)} > defect {params.defect}")
    gap_vector = tuple(map(Fraction, (_first_gap(params.delta, params.t),) + tail))
    value = pure_total(params.j, gap_vector)
    return PowerBoundComparison(
        params,
        gap_vector,
        value,
        exact_lower_bound(params),
        leading_bound(params),
    )
