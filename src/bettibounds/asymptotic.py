"""Lower bounds for column totals of powers of an equigenerated ideal.

For an ideal of codimension c generated in a single degree delta whose
regularity eventually equals delta*t + b, every pure diagram contributing to
the t-th power has first gap delta*t and remaining gaps summing to at most b.
Minimizing the column-total function under those constraints gives an exact
product bound in t whose leading term is

    (b!)^2 * delta^(c-1) / ((j-1+b)! * (c-j+b)!) * t^(c-1).

Everything here is exact: the bound is exposed both as a rational value at a
given power t and as a polynomial in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import ConstraintError, ParamError
from .poly import Poly
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
        if self.codim < 1:
            raise ParamError(f"codim must be >= 1, got {self.codim}")
        if self.delta < 1:
            raise ParamError(f"delta must be >= 1, got {self.delta}")
        if self.defect < 0:
            raise ParamError(f"defect must be >= 0, got {self.defect}")
        if not 1 <= self.j <= self.codim:
            raise ParamError(f"j must lie in 1..{self.codim}, got {self.j}")
        if self.t < 1:
            raise ParamError(f"t must be >= 1, got {self.t}")


def exact_lower_bound_poly(codim: int, delta: int, defect: int, j: int) -> Poly:
    """The pre-asymptotic bound as an exact polynomial in the power t.

    Numerator (1 + delta*t) ... (j-1 + delta*t) * (j+1 + delta*t + b) ... (c + delta*t + b)
    over the constant (1+b)...(j-1+b) * (1+b)...(c-j+b).
    """
    PowerBoundParams(codim, delta, defect, j, 1)
    numerator = Poly.constant(1)
    for i in range(1, j):
        numerator = numerator * Poly({0: i, 1: delta})
    for i in range(j + 1, codim + 1):
        numerator = numerator * Poly({0: i + defect, 1: delta})
    denominator = Fraction(1)
    for i in range(1, j):
        denominator *= i + defect
    for i in range(1, codim - j + 1):
        denominator *= i + defect
    return numerator * (1 / denominator)


def exact_lower_bound(params: PowerBoundParams) -> Fraction:
    """Value of the product bound at the given power."""
    poly = exact_lower_bound_poly(params.codim, params.delta, params.defect, params.j)
    return poly(params.t)


def leading_coefficient(codim: int, delta: int, defect: int, j: int) -> Fraction:
    """(b!)^2 * delta^(c-1) / ((j-1+b)! * (c-j+b)!)."""
    PowerBoundParams(codim, delta, defect, j, 1)
    b = defect
    return Fraction(
        math.factorial(b) ** 2 * delta ** (codim - 1),
        math.factorial(j - 1 + b) * math.factorial(codim - j + b),
    )


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

    The gap vector is (t*delta, e_2, ..., e_s) with nonnegative integer tail
    summing to at most the defect and s >= codim; the pure value must dominate
    the exact bound, which dominates its own leading term.
    """
    tail = tuple(int(x) for x in e_tail)
    if any(x < 0 for x in tail):
        raise ParamError(f"gap tail must be nonnegative, got {tail}")
    s = len(tail) + 1
    if s < params.codim:
        raise ParamError(f"need s >= codim, got s={s} < {params.codim}")
    if sum(tail) > params.defect:
        raise ConstraintError(
            f"gap tail sums to {sum(tail)} > defect {params.defect}"
        )
    gap_vector = (Fraction(params.t * params.delta),) + tuple(Fraction(x) for x in tail)
    value = pure_total(params.j, gap_vector)
    return PowerBoundComparison(
        params,
        gap_vector,
        value,
        exact_lower_bound(params),
        leading_bound(params),
    )
