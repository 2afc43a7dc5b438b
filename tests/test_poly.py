import math
from fractions import Fraction

import pytest

from bettibounds import DomainError, FormatError, Poly

from helpers import NOT_EXACT_IDS, NOT_EXACT_VALUES


def one_minus_t_power(k):
    """(1 - t)^k = sum_i (-1)^i C(k, i) t^i, as explicit terms."""
    return {i: (-1) ** i * math.comb(k, i) for i in range(k + 1)}


def test_construction_prunes_and_merges():
    poly = Poly([(0, 1), (1, 2), (1, -2), (3, Fraction(1, 2))])
    assert poly.items() == ((0, Fraction(1)), (3, Fraction(1, 2)))
    assert not Poly({2: 0})
    assert all(type(c) is Fraction for _, c in Poly({0: 3, 1: Fraction(1, 2)}).items())


@pytest.mark.parametrize("value", NOT_EXACT_VALUES, ids=NOT_EXACT_IDS)
def test_coefficients_other_than_int_and_fraction_are_refused(value):
    with pytest.raises(FormatError) as excinfo:
        Poly({0: value})
    assert str(excinfo.value) == f"coefficient must be an int or a Fraction, got {type(value).__name__}"


def test_vanishing_order():
    # 2 - 3t + t^3 = (1-t)^2 (2+t)
    assert Poly({0: 2, 1: -3, 3: 1}).vanishing_order_at_one() == 2
    assert Poly({0: 5}).vanishing_order_at_one() == 0
    # Laurent shift does not change the order at t = 1: t^-1 (1 - t)
    assert Poly({-1: 1, 0: -1}).vanishing_order_at_one() == 1
    with pytest.raises(DomainError):
        Poly().vanishing_order_at_one()


def test_vanishing_order_is_sparse_in_the_degree_spread():
    huge = 10**11
    assert Poly({0: 1, huge: -1}).vanishing_order_at_one() == 1
    # (1 - t^huge) (1 - t)^2
    spread = Poly({0: 1, 1: -2, 2: 1, huge: -1, huge + 1: 2, huge + 2: -1})
    assert spread.vanishing_order_at_one() == 3
    assert Poly({-huge: Fraction(1, 3), huge: Fraction(2, 7)}).vanishing_order_at_one() == 0
    # the order never exceeds the number of terms minus one, and (1 - t)^k reaches it
    for k in range(1, 9):
        p = Poly(one_minus_t_power(k))
        assert p.vanishing_order_at_one() == k == len(p.items()) - 1
