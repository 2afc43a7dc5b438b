"""Hilbert numerators as exact Laurent polynomials with rational coefficients.

A diagram's Hilbert numerator sum_{i,j} (-1)^i beta_{i,j} t^j may have
negative exponents when a module is generated in negative degrees.  The only
question asked of it is its order of vanishing at t = 1, which is the
codimension of the module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

from .errors import DomainError, FormatError


class Poly:
    """Finitely supported map exponent -> nonzero rational coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[int, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, raw in items:
                if not isinstance(exp, int):
                    raise TypeError(f"exponent must be an integer, got {exp!r}")
                kind = type(raw)  # exact types: bool is an int, float a binary fraction
                if kind is int:
                    coeff = Fraction(raw)
                elif kind is Fraction:
                    coeff = raw
                else:
                    raise FormatError(
                        f"coefficient must be an int or a Fraction, got {kind.__name__}"
                    )
                if exp in data:
                    coeff += data[exp]
                if coeff:
                    data[exp] = coeff
                elif exp in data:
                    del data[exp]
        self._terms = data

    def items(self):
        """Terms as (exponent, coefficient) pairs, exponent-ascending."""
        return tuple(sorted(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def vanishing_order_at_one(self) -> int:
        """Largest c such that (1 - t)^c divides this polynomial.

        With p = t^a * q, the order is the least k with q^(k)(1) != 0, that is
        with sum_e c_e * (e - a)_k != 0 for the falling factorial (x)_k.  It
        is at most the number of terms minus one, so the work does not grow
        with the degree spread.  Coefficients are scaled to integers first.
        """
        if not self._terms:
            raise DomainError("zero polynomial")
        terms = self.items()
        base = terms[0][0]
        scale = math.lcm(*(c.denominator for _, c in terms))
        weights = [c.numerator * (scale // c.denominator) for _, c in terms]
        gaps = [e - base for e, _ in terms]
        for order in count():
            if sum(weights):
                return order
            weights = [w * (g - order) for w, g in zip(weights, gaps)]

    def __repr__(self):
        return f"Poly({dict(self.items())!r})"
