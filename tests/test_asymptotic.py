import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from bettibounds import (
    BettiDiagram,
    DomainError,
    beh_check,
    minimalize,
    power_bounds,
    pure_total,
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


def exact_column(codim, delta, defect, j, t_max):
    """The exact bounds at t = 1..t_max."""
    return [row.exact for row in power_bounds(codim, delta, defect, j, t_max)]


def test_exact_bound_examples():
    assert exact_column(2, 2, 0, 1, 7) == [2 * t + 1 for t in range(1, 8)]
    assert exact_column(1, 3, 2, 1, 9)[-1] == 1  # empty products
    assert exact_column(3, 1, 1, 2, 5)[-1] == 10


def test_exact_bound_matches_direct_product():
    for codim, delta, defect in product(range(1, 6), (1, 2, 3), (0, 1, 3)):
        for j in range(1, codim + 1):
            exact = exact_column(codim, delta, defect, j, 9)
            for t in (1, 4, 9):
                assert exact[t - 1] == direct_product_bound(codim, delta, defect, j, t)


def test_leading_bound_examples():
    for row in power_bounds(2, 2, 0, 1, 5):
        assert row.leading == 2 * row.t
    for row in power_bounds(3, 1, 0, 1, 5):
        assert row.leading == Fraction(row.t * row.t, 2)
    # j = c with no defect: delta^(c-1) t^(c-1) / (c-1)!
    for c in range(1, 6):
        *_, row = power_bounds(c, 2, 0, c, 3)
        assert row.leading == Fraction(2 ** (c - 1) * 3 ** (c - 1), math.factorial(c - 1))


def test_exact_bound_dominates_leading_term():
    # every factor is i + delta*t - 1 (+ b) with i >= 1, a polynomial in t with
    # nonnegative coefficients, so the product's expansion has only nonnegative
    # coefficients and the bound beats its top term
    for codim, delta, defect in product(range(1, 6), (1, 2), (0, 2)):
        for j in range(1, codim + 1):
            for row in power_bounds(codim, delta, defect, j, 20):
                assert row.exact >= row.leading


def test_monotonicity_grid():
    for codim in range(1, 7):
        for j in range(1, codim + 1):
            exact = {
                (delta, defect): exact_column(codim, delta, defect, j, 10)
                for delta, defect in product(range(1, 11), range(0, 6))
            }
            for delta, defect, t in product(range(1, 11), range(0, 5), range(1, 11)):
                base = exact[delta, defect][t - 1]
                if t < 10:
                    assert exact[delta, defect][t] >= base
                if delta < 10:
                    assert exact[delta + 1, defect][t - 1] >= base
                assert exact[delta, defect + 1][t - 1] <= base


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
                    for row in power_bounds(codim, 2, defect, j, 20, tail):
                        assert row.pure >= row.exact >= row.leading, row


def test_bound_vs_pure_equality_at_matching_length():
    # with no defect and s = codim the pure value equals the bound exactly
    for codim in range(1, 6):
        for j in range(1, codim + 1):
            rows = list(power_bounds(codim, 3, 0, j, 7, (0,) * (codim - 1)))
            for t in (1, 2, 7):
                assert rows[t - 1].pure == rows[t - 1].exact


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
        yield diagram.totals()[j], exact_column(codim, delta, defect, j, t)[-1]


def test_exact_bound_holds_on_powers_of_the_maximal_ideal():
    # S/(x, y, z)^t: beta_1 is the number of degree-t monomials, 3 and then 6
    for t, beta_1 in ((1, 3), (2, 6)):
        ideal = minimalize(3, [combo for combo in product(range(t + 1), repeat=3) if sum(combo) == t])
        diagram = BettiDiagram(upper_koszul_betti(ideal))
        assert beh_check(diagram).hypothesis_met
        checks = list(genuine_bound_checks(1, t, diagram))
        assert checks[0] == (beta_1, beta_1)
        assert all(total >= bound for total, bound in checks)


def test_exact_bound_holds_on_genuine_powers():
    # every power meets the binomial floor, the one that fails the shape
    # hypothesis included
    verdicts = Counter()
    checked = 0
    for delta, t, diagram in power_diagrams():
        report = beh_check(diagram)
        assert report.overall, (delta, t, diagram.items())
        verdicts[report.hypothesis_met] += 1
        if not report.hypothesis_met:
            continue
        for total, bound in genuine_bound_checks(delta, t, diagram):
            checked += 1
            assert total >= bound, (delta, t, diagram.items())
    assert (verdicts[True], verdicts[False], checked) == (407, 1, 824)


def test_parameter_validation():
    # every check runs when the table is asked for, before any row is read
    with pytest.raises(DomainError, match="codim must be >= 1"):
        power_bounds(0, 1, 0, 1, 1)
    with pytest.raises(DomainError, match="delta must be >= 1"):
        power_bounds(2, 0, 0, 1, 1)
    with pytest.raises(DomainError, match="defect must be >= 0"):
        power_bounds(2, 1, -1, 1, 1)
    with pytest.raises(DomainError, match=r"j must lie in 1\.\.2"):
        power_bounds(2, 1, 0, 3, 1)
    with pytest.raises(DomainError, match="t must be >= 1"):
        power_bounds(2, 1, 0, 1, 0)
    with pytest.raises(DomainError, match="need s >= codim"):
        power_bounds(3, 1, 1, 1, 1, ())  # s < codim
    with pytest.raises(DomainError, match="gap tail sums to 2 > defect 1"):
        power_bounds(2, 1, 1, 1, 1, (2,))  # tail sum > defect


@pytest.mark.parametrize("args", [(2, 1.5, 0, 1, 1), (2, True, 0, 1, 2), (2, 1, 0, 1, 2.5)])
def test_parameters_must_be_integers(args):
    with pytest.raises(DomainError):
        power_bounds(*args)


@pytest.mark.parametrize("tail", [(1.9, 0.5), (True, 0), (Fraction(1), 0), ("1", 0)])
def test_bound_vs_pure_refuses_non_integer_tails(tail):
    with pytest.raises(DomainError):
        power_bounds(3, 1, 2, 1, 1, tail)
