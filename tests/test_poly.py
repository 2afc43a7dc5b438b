import math
from fractions import Fraction

import pytest

from bettibounds import DomainError
from bettibounds.poly import Poly


def poly(terms):
    """The carrier summed from a {exponent: coefficient} dict's pairs."""
    return Poly(terms.items())


def one_minus_t_power(k):
    """(1 - t)^k = sum_i (-1)^i C(k, i) t^i, as explicit terms."""
    return {i: (-1) ** i * math.comb(k, i) for i in range(k + 1)}


def test_construction_prunes_and_merges():
    summed = Poly([(0, 1), (1, 2), (1, -2), (3, Fraction(1, 2))])
    assert summed.items() == ((0, Fraction(1)), (3, Fraction(1, 2)))
    assert not poly({2: 0})


def test_vanishing_order():
    # 2 - 3t + t^3 = (1-t)^2 (2+t)
    assert poly({0: 2, 1: -3, 3: 1}).vanishing_order_at_one() == 2
    assert poly({0: 5}).vanishing_order_at_one() == 0
    # Laurent shift does not change the order at t = 1: t^-1 (1 - t)
    assert poly({-1: 1, 0: -1}).vanishing_order_at_one() == 1
    with pytest.raises(DomainError):
        Poly().vanishing_order_at_one()


def test_vanishing_order_is_sparse_in_the_degree_spread():
    huge = 10**11
    assert poly({0: 1, huge: -1}).vanishing_order_at_one() == 1
    # (1 - t^huge) (1 - t)^2
    spread = poly({0: 1, 1: -2, 2: 1, huge: -1, huge + 1: 2, huge + 2: -1})
    assert spread.vanishing_order_at_one() == 3
    assert poly({-huge: Fraction(1, 3), huge: Fraction(2, 7)}).vanishing_order_at_one() == 0
    # the order never exceeds the number of terms minus one, and (1 - t)^k reaches it
    for k in range(1, 9):
        p = poly(one_minus_t_power(k))
        assert p.vanishing_order_at_one() == k == len(p.items()) - 1
