import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from bettibounds import (
    BettiDiagram,
    DomainError,
    PowerBoundParams,
    bound_vs_pure,
    exact_lower_bound,
    leading_bound,
    leading_coefficient,
    minimalize,
    pure_total,
    shape_hypothesis,
)
from helpers import upper_koszul_betti


def direct_product_bound(codim, delta, defect, j, t):
    """The bound recomputed factor by factor, independent of the library's product."""
    value = Fraction(1)
    for i in range(1, j):
        value *= i + t * delta - 1
    for i in range(j + 1, codim + 1):
        value *= i + t * delta - 1 + defect
    for i in range(1, j):
        value /= i + defect
    for i in range(1, codim - j + 1):
        value /= i + defect
    return value


def test_exact_bound_examples():
    for t in range(1, 8):
        assert exact_lower_bound(PowerBoundParams(2, 2, 0, 1, t)) == 2 * t + 1
    assert exact_lower_bound(PowerBoundParams(1, 3, 2, 1, 9)) == 1  # empty products
    assert exact_lower_bound(PowerBoundParams(3, 1, 1, 2, 5)) == 10


def test_exact_bound_matches_direct_product():
    for codim, delta, defect, t in product(range(1, 6), (1, 2, 3), (0, 1, 3), (1, 4, 9)):
        for j in range(1, codim + 1):
            params = PowerBoundParams(codim, delta, defect, j, t)
            assert exact_lower_bound(params) == direct_product_bound(codim, delta, defect, j, t)


def test_leading_bound_examples():
    for t in range(1, 6):
        assert leading_bound(PowerBoundParams(2, 2, 0, 1, t)) == 2 * t
        assert leading_bound(PowerBoundParams(3, 1, 0, 1, t)) == Fraction(t * t, 2)
    # j = c with no defect: delta^(c-1) t^(c-1) / (c-1)!
    for c in range(1, 6):
        value = leading_bound(PowerBoundParams(c, 2, 0, c, 3))
        assert value == Fraction(2 ** (c - 1) * 3 ** (c - 1), math.factorial(c - 1))


def test_leading_coefficient_is_the_top_term():
    for codim, delta, defect in product(range(1, 7), range(1, 5), range(0, 5)):
        for j in range(1, codim + 1):
            # a product of codim - 1 factors linear in t has degree codim - 1 and
            # leading coefficient lead exactly when, over codim + 1 consecutive t,
            # its (codim-1)-th differences are (codim-1)! * lead and the next is 0
            diffs = [
                exact_lower_bound(PowerBoundParams(codim, delta, defect, j, t))
                for t in range(1, codim + 2)
            ]
            for _ in range(codim - 1):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            lead = leading_coefficient(codim, delta, defect, j)
            assert lead > 0
            assert diffs == [math.factorial(codim - 1) * lead] * 2


def test_exact_bound_dominates_leading_term():
    # every factor is i + delta*t - 1 (+ b) with i >= 1, a polynomial in t with
    # nonnegative coefficients, so the product's expansion has only nonnegative
    # coefficients and the bound beats its top term
    for codim, delta, defect in product(range(1, 6), (1, 2), (0, 2)):
        for j in range(1, codim + 1):
            for t in (1, 5, 20):
                params = PowerBoundParams(codim, delta, defect, j, t)
                assert exact_lower_bound(params) >= leading_bound(params)


def test_monotonicity_grid():
    for codim in range(1, 7):
        for j in range(1, codim + 1):
            for delta, defect, t in product(range(1, 11), range(0, 5), range(1, 11)):
                base = exact_lower_bound(PowerBoundParams(codim, delta, defect, j, t))
                if t < 10:
                    assert exact_lower_bound(PowerBoundParams(codim, delta, defect, j, t + 1)) >= base
                if delta < 10:
                    assert exact_lower_bound(PowerBoundParams(codim, delta + 1, defect, j, t)) >= base
                assert exact_lower_bound(PowerBoundParams(codim, delta, defect + 1, j, t)) <= base


def test_longer_gap_vectors_only_grow():
    # extending the sequence beyond the codimension multiplies by factors > 1
    for codim in range(1, 5):
        for j in range(1, codim + 1):
            for extra in range(1, 4):
                for t, delta, defect in ((1, 1, 0), (3, 2, 1), (5, 1, 2)):
                    short = (Fraction(t * delta),) + (Fraction(0),) * (codim - 1)
                    long = (Fraction(t * delta),) + (Fraction(0),) * (codim - 1 + extra)
                    assert pure_total(j, long) >= pure_total(j, short)


def test_bound_vs_pure_constrained_tails():
    for codim in range(1, 5):
        for j in range(1, codim + 1):
            for defect in (0, 1, 2):
                for s in (codim, codim + 1, codim + 2):
                    tail = [0] * (s - 1)
                    if s >= 2 and defect:
                        tail[min(j, s - 1) - 1] = defect  # mass at position j (or j+1 clipped)
                    for t in range(1, 21):
                        params = PowerBoundParams(codim, 2, defect, j, t)
                        comparison = bound_vs_pure(params, tuple(tail))
                        assert comparison.passed, comparison


def test_bound_vs_pure_equality_at_matching_length():
    # with no defect and s = codim the pure value equals the bound exactly
    for codim in range(1, 6):
        for j in range(1, codim + 1):
            for t in (1, 2, 7):
                params = PowerBoundParams(codim, 3, 0, j, t)
                comparison = bound_vs_pure(params, (0,) * (codim - 1))
                assert comparison.pure_value == comparison.exact_bound


def power_diagrams():
    """(delta, t, S/I^t) for powers of 150 seeded random ideals generated in one degree delta.

    Each ideal has 2-4 variables, delta in 1..3 and 2-5 generators; its powers
    stop at t = 3 or before the first with more than 14 generators.  The
    diagrams come from the helpers' upper Koszul oracle.
    """
    rng = random.Random(0)
    for _ in range(150):
        nvars, delta = rng.randint(2, 4), rng.randint(1, 3)
        monomials = [
            tuple(combo.count(v) for v in range(nvars))
            for combo in combinations_with_replacement(range(nvars), delta)
        ]
        gens = rng.sample(monomials, min(rng.randint(2, 5), len(monomials)))
        for t in range(1, 4):
            power = minimalize(
                nvars,
                [tuple(map(sum, zip(*factors))) for factors in combinations_with_replacement(gens, t)],
            )
            if len(power.generators) > 14:
                break
            yield delta, t, BettiDiagram(upper_koszul_betti(power))


def genuine_bound_checks(delta, t, diagram):
    """(total_j, exact bound) for j = 1..codim, with b(t) = reg(S/I^t) + 1 - delta*t."""
    codim = diagram.codimension()
    defect = diagram.regularity() + 1 - delta * t
    for j in range(1, codim + 1):
        yield diagram.totals()[j], exact_lower_bound(PowerBoundParams(codim, delta, defect, j, t))


def test_exact_bound_holds_on_powers_of_the_maximal_ideal():
    # S/(x, y, z)^t: beta_1 is the number of degree-t monomials, 3 and then 6
    for t, beta_1 in ((1, 3), (2, 6)):
        ideal = minimalize(3, [combo for combo in product(range(t + 1), repeat=3) if sum(combo) == t])
        diagram = BettiDiagram(upper_koszul_betti(ideal))
        assert shape_hypothesis(diagram)
        checks = list(genuine_bound_checks(1, t, diagram))
        assert checks[0] == (beta_1, beta_1)
        assert all(total >= bound for total, bound in checks)


def test_exact_bound_holds_on_genuine_powers():
    diagrams = checked = 0
    for delta, t, diagram in power_diagrams():
        diagrams += 1
        if not shape_hypothesis(diagram):
            continue
        for total, bound in genuine_bound_checks(delta, t, diagram):
            checked += 1
            assert total >= bound, (delta, t, diagram.items())
    assert (diagrams, checked) == (408, 824)


def test_parameter_validation():
    with pytest.raises(DomainError):
        PowerBoundParams(0, 1, 0, 1, 1)
    with pytest.raises(DomainError):
        PowerBoundParams(2, 0, 0, 1, 1)
    with pytest.raises(DomainError):
        PowerBoundParams(2, 1, -1, 1, 1)
    with pytest.raises(DomainError):
        PowerBoundParams(2, 1, 0, 3, 1)
    with pytest.raises(DomainError):
        PowerBoundParams(2, 1, 0, 1, 0)
    with pytest.raises(DomainError):
        bound_vs_pure(PowerBoundParams(3, 1, 1, 1, 1), ())  # s < codim
    with pytest.raises(DomainError):
        bound_vs_pure(PowerBoundParams(2, 1, 1, 1, 1), (2,))  # tail sum > defect


@pytest.mark.parametrize("args", [(2, 1.5, 0, 1, 1), (2, True, 0, 1, 2), (2, 1, 0, 1, 2.5)])
def test_parameters_must_be_integers(args):
    with pytest.raises(DomainError):
        PowerBoundParams(*args)


@pytest.mark.parametrize("tail", [(1.9, 0.5), (True, 0), (Fraction(1), 0), ("1", 0)])
def test_bound_vs_pure_refuses_non_integer_tails(tail):
    with pytest.raises(DomainError):
        bound_vs_pure(PowerBoundParams(3, 1, 2, 1, 1), tail)
