"""The Hilbert numerator of a diagram, an internal carrier of exact Laurent terms.

The numerator sum_{i,j} (-1)^i beta_{i,j} t^j may have negative exponents when
a module is generated in negative degrees.  The only question asked of it is
its order of vanishing at t = 1, the codimension.  `codimension` builds it from
the diagram's values times the lcm L of their denominators, integers: a
positive scale leaves the order at t = 1 unchanged, and integers sum without a
gcd.
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

    def vanishing_order_at_one(self) -> int:
        """Largest c such that (1 - t)^c divides this polynomial.

        The order is the least k with sum_e c_e * (e)_k != 0 for the falling
        factorial (x)_k: that sum is the k-th derivative at t = 1, and a unit
        t^a, which Laurent exponents may need, does not change the order there.
        It is at most the number of terms minus one, so the work does not grow
        with the degree spread.
        """
        if not self._terms:
            raise DomainError("Hilbert numerator is identically zero")
        weights = list(self._terms.values())
        exponents = list(self._terms)
        for order in count():
            if sum(weights):
                return order
            weights = [w * (e - order) for w, e in zip(weights, exponents)]
