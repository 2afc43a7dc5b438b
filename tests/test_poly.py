from fractions import Fraction

import pytest

from bettibounds import DomainError, Poly


def test_construction_prunes_and_merges():
    poly = Poly([(0, 1), (1, 2), (1, -2), (3, Fraction(1, 2))])
    assert poly.items() == ((0, Fraction(1)), (3, Fraction(1, 2)))
    assert not Poly({2: 0})


def test_ring_operations():
    t = Poly.variable()
    p = (1 - t) * (1 - t)
    assert p == Poly({0: 1, 1: -2, 2: 1})
    assert p(1) == 0
    assert p(3) == 4
    assert 2 * t - t == t
    assert (t + 1) * (t - 1) == Poly({2: 1, 0: -1})


def test_laurent_support():
    p = Poly({-2: 1, 0: 3})
    assert p.min_exponent() == -2
    assert p(2) == Fraction(1, 4) + 3
    with pytest.raises(ZeroDivisionError):
        p(0)


def test_vanishing_order():
    t = Poly.variable()
    assert ((1 - t) * (1 - t) * (2 + t)).vanishing_order_at_one() == 2
    assert Poly({0: 2, 1: -3, 3: 1}).vanishing_order_at_one() == 2
    assert Poly.constant(5).vanishing_order_at_one() == 0
    # Laurent shift does not change the order at t = 1
    assert (Poly({-1: 1}) * (1 - t)).vanishing_order_at_one() == 1
    with pytest.raises(DomainError):
        Poly().vanishing_order_at_one()


def test_vanishing_order_is_sparse_in_the_degree_spread():
    t = Poly.variable()
    huge = 10**11
    assert Poly({0: 1, huge: -1}).vanishing_order_at_one() == 1
    assert (Poly({0: 1, huge: -1}) * (1 - t) * (1 - t)).vanishing_order_at_one() == 3
    assert Poly({-huge: Fraction(1, 3), huge: Fraction(2, 7)}).vanishing_order_at_one() == 0
    # the order never exceeds the number of terms minus one, and (1 - t)^k reaches it
    p = Poly.constant(1)
    for k in range(1, 9):
        p = p * (1 - t)
        assert p.vanishing_order_at_one() == k == len(p.items()) - 1


def test_string_rendering():
    assert str(Poly({0: 2, 1: -3, 3: 1})) == "2 - 3*t + t^3"
    assert str(Poly()) == "0"
    assert str(Poly({1: Fraction(8, 3)})) == "8/3*t"
