"""Exact univariate Laurent polynomials with rational coefficients.

Kept deliberately small: just enough ring structure for Hilbert numerators
(which may have negative exponents when a module is generated in negative
degrees) and for expanding product bounds in a formal variable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

from .errors import DomainError


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
                coeff = data.get(exp, Fraction(0)) + Fraction(raw)
                if coeff:
                    data[exp] = coeff
                elif exp in data:
                    del data[exp]
        self._terms = data

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls({0: Fraction(value)})

    @classmethod
    def variable(cls) -> "Poly":
        return cls({1: 1})

    def items(self):
        """Terms as (exponent, coefficient) pairs, exponent-ascending."""
        return tuple(sorted(self._terms.items()))

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no support")
        return min(self._terms)

    def leading_coeff(self) -> Fraction:
        return self._terms[self.degree()]

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Poly.constant(other)._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for exp, coeff in other._terms.items():
            total = merged.get(exp, Fraction(0)) + coeff
            if total:
                merged[exp] = total
            else:
                merged.pop(exp, None)
        return self._wrap(merged)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            if not factor:
                return Poly()
            return self._wrap({e: c * factor for e, c in self._terms.items()})
        if isinstance(other, Poly):
            out: dict[int, Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    exp = e1 + e2
                    total = out.get(exp, Fraction(0)) + c1 * c2
                    if total:
                        out[exp] = total
                    else:
                        del out[exp]
            return self._wrap(out)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, point):
        point = Fraction(point)
        if point == 0 and self._terms and self.min_exponent() < 0:
            raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
        return sum((c * point ** e for e, c in self._terms.items()), Fraction(0))

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

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self.items():
            if exp == 0:
                body = str(coeff)
            else:
                var = "t" if exp == 1 else f"t^{exp}"
                if coeff == 1:
                    body = var
                elif coeff == -1:
                    body = f"-{var}"
                else:
                    body = f"{coeff}*{var}"
            parts.append(body)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({dict(self.items())!r})"

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other)
        return NotImplemented

    @staticmethod
    def _wrap(terms: dict) -> "Poly":
        poly = Poly.__new__(Poly)
        poly._terms = terms
        return poly
