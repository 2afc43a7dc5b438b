"""The Hilbert numerator of a diagram, an internal carrier of exact Laurent terms.

The numerator sum_{i,j} (-1)^i beta_{i,j} t^j may have negative exponents when
a module is generated in negative degrees.  The only question asked of it is
its order of vanishing at t = 1, the codimension.  Its coefficients come from
a BettiDiagram, already exact, so no type is checked here: its Fraction
values for `hilbert_numerator`, and for `codimension` those values times the
lcm L of their denominators, integers.  A positive scale leaves the order at
t = 1 unchanged, and integers sum without a gcd.
"""

from __future__ import annotations

from itertools import count

from .errors import DomainError


class Poly:
    """Exponent -> nonzero coefficient, summed from (exponent, coefficient) pairs."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data = {}
        for exp, coeff in terms:
            data[exp] = data.get(exp, 0) + coeff
        self._terms = {exp: coeff for exp, coeff in data.items() if coeff}

    def items(self):
        """Terms as (exponent, coefficient) pairs, exponent-ascending."""
        return tuple(sorted(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def vanishing_order_at_one(self) -> int:
        """Largest c such that (1 - t)^c divides this polynomial.

        With p = t^a * q, the order is the least k with q^(k)(1) != 0, that is
        with sum_e c_e * (e - a)_k != 0 for the falling factorial (x)_k.  It
        is at most the number of terms minus one, so the work does not grow
        with the degree spread.  `codimension` passes integer coefficients, so
        these sums take no gcd.
        """
        if not self._terms:
            raise DomainError("zero polynomial")
        terms = self.items()
        base = terms[0][0]
        weights = [c for _, c in terms]
        gaps = [e - base for e, _ in terms]
        for order in count():
            if sum(weights):
                return order
            weights = [w * (g - order) for w, g in zip(weights, gaps)]

    def __repr__(self):
        return f"Poly({dict(self.items())!r})"
