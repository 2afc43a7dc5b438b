"""Lower bounds for column totals of powers of an equigenerated ideal.

For an ideal of codimension c generated in a single degree delta whose
regularity reg(I^t) eventually equals delta*t + b, every pure diagram
contributing to S/I^t has first syzygy degree d_1 = delta*t, hence first gap
e_1 = d_1 - d_0 - 1 = delta*t - 1, and remaining gaps summing to at most b.
Minimizing the column-total function under those constraints gives an exact
product bound in t whose leading term is

    (b!)^2 * delta^(c-1) / ((j-1+b)! * (c-j+b)!) * t^(c-1).

Everything here is exact: `power_bounds` tabulates the bound, its leading
term and, given a gap tail, the pure column total as rationals for t = 1..t_max.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .diagram import digit_limit_error
from .errors import DomainError
from .pure import pure_total


def _floor_log2_sum(low: int, high: int) -> int:
    """Sum of floor(log2 f) over 1 <= low <= f <= high, one bit length k at a time."""
    total = 0
    for k in range(low.bit_length(), high.bit_length() + 1):
        total += (k - 1) * (min(high, (1 << k) - 1) - max(low, 1 << (k - 1)) + 1)
    return total


class PowerBoundRow(NamedTuple):
    """The column-j bounds at power t; pure is None when no gap tail was given."""

    t: int
    leading: Fraction
    exact: Fraction
    pure: Optional[Fraction]


def power_bounds(
    codim: int, delta: int, defect: int, j: int, t_max: int, e_tail: Optional[Sequence[int]] = None
) -> Iterator[PowerBoundRow]:
    """The rows for t = 1..t_max, computed one at a time as they are read.

    leading is delta^(c-1) * t^(c-1) over the t-independent denominator
    (1+b)...(j-1+b) * (1+b)...(c-j+b); exact is the product
    (1 + e1)...(j-1 + e1) * (j+1 + e1 + b)...(c + e1 + b) over that denominator,
    with first gap e1 = delta*t - 1.  Given a gap tail (nonnegative integers
    summing to at most the defect, with s = len(tail) + 1 >= codim), pure is
    the column-j total at (e1, *tail), which dominates exact, which dominates
    leading.  Every parameter and the tail are checked before the first row, and
    a first leading value too long to print is refused as `format_rational` would.
    """
    params = (codim, delta, defect, j, t_max)
    if any(type(x) is not int for x in params):  # bool is an int subclass
        raise DomainError(f"parameters must be integers, got {params}")
    if codim < 1:
        raise DomainError(f"codim must be >= 1, got {codim}")
    if delta < 1:
        raise DomainError(f"delta must be >= 1, got {delta}")
    if defect < 0:
        raise DomainError(f"defect must be >= 0, got {defect}")
    if not 1 <= j <= codim:
        raise DomainError(f"j must lie in 1..{codim}, got {j}")
    if t_max < 1:
        raise DomainError(f"t must be >= 1, got {t_max}")
    tail = None if e_tail is None else tuple(e_tail)
    if tail is not None:
        if any(type(x) is not int or x < 0 for x in tail):
            raise DomainError(f"gap tail must be nonnegative integers, got {tail}")
        if len(tail) + 1 < codim:
            raise DomainError(f"need s >= codim, got s={len(tail) + 1} < {codim}")
        if sum(tail) > defect:
            raise DomainError(f"gap tail sums to {sum(tail)} > defect {defect}")
    # leading at t = 1 is delta^(c-1) over c - 1 factors f; in lowest terms its
    # denominator is >= 2^(floors - powers) and its numerator > 2^(powers - 2(c-1) -
    # floors), floors being the sum of floor(log2 f) and powers (c-1)*bit_length(delta).
    # 2^bits >= 2^(10/3 * limit) > 10^limit is too long to print, so it is refused
    # before any product is built (a limit of 0 is no limit)
    floors = _floor_log2_sum(1 + defect, j - 1 + defect)
    floors += _floor_log2_sum(1 + defect, codim - j + defect)
    powers = (codim - 1) * delta.bit_length()
    bits = max(floors - powers, powers - 2 * (codim - 1) - floors)
    limit = sys.get_int_max_str_digits()
    if limit and 3 * bits >= 10 * limit:
        raise digit_limit_error()
    denominator = math.perm(j - 1 + defect, j - 1) * math.perm(codim - j + defect, codim - j)
    lead = Fraction(delta ** (codim - 1), denominator)

    def row(t: int) -> PowerBoundRow:
        e1 = delta * t - 1
        numerator = math.perm(j - 1 + e1, j - 1) * math.perm(codim + e1 + defect, codim - j)
        pure = None if tail is None else pure_total(j, (e1, *tail))
        return PowerBoundRow(t, lead * t ** (codim - 1), Fraction(numerator, denominator), pure)

    return map(row, range(1, t_max + 1))
