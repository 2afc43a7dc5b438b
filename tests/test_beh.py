import math
from fractions import Fraction

import pytest

from bettibounds import (
    BettiDiagram,
    DomainError,
    beh_check,
    decompose,
    herzog_kuhl,
    pure_beh_check,
    pure_shape_check,
    scan,
)
from bettibounds import beh

from helpers import corpus_diagrams, hk_equation_solve, koszul


def test_hypothesis_met_examples():
    assert beh_check(koszul(3)).hypothesis_met
    assert beh_check(BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2})).hypothesis_met
    assert not beh_check(BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})).hypothesis_met


def test_hypothesis_met_agrees_with_pure_shape_check():
    degrees_list = [(0, 1, 3), (0, 2, 3, 4), (0, 1, 2, 4), (-1, 1, 2), (0, 2, 4, 5, 6)]
    for degrees in degrees_list:
        assert beh_check(herzog_kuhl(degrees)).hypothesis_met == pure_shape_check(degrees)


def test_beh_check_refuses_a_codimension_above_the_projective_dimension():
    diagram = BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    assert beh_check(diagram, codim=2).codim == 2
    with pytest.raises(DomainError, match="exceeds the projective dimension 2"):
        beh_check(diagram, codim=3)


def test_beh_check_pads_a_computed_codimension_above_the_projective_dimension():
    # Hilbert numerator (1 - t)^2 in one column: codim 2 but projective dimension 0
    report = beh_check(BettiDiagram({(0, 0): 1, (0, 1): -2, (0, 2): 1}))
    assert report.codim == 2
    assert [check.j for check in report.per_j] == [0, 1, 2]
    assert all(check.actual == 0 for check in report.per_j)


def test_beh_check_socle_quotient_passes():
    diagram = BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2})
    report = beh_check(diagram, codim=2)
    assert report.hypothesis_met
    assert report.overall
    assert [(c.actual, c.required) for c in report.per_j] == [(1, 1), (3, 2), (2, 1)]


def test_beh_check_koszul_equality():
    for n in range(1, 6):
        report = beh_check(koszul(n))
        assert report.overall
        assert all(c.actual == c.required for c in report.per_j)


# -- scan ---------------------------------------------------------------------------


def test_scan_guard_rails():
    with pytest.raises(DomainError):
        scan(1, 2, 25, "shape-verify")
    with pytest.raises(DomainError):
        scan(1, 2, 10, "bogus")


@pytest.mark.parametrize(
    "s_min, s_max, message",
    [
        (0, 2, "s range must lie in [1, 8], got (0, 1, 2)"),
        (1, 9, "s range must lie in [1, 8], got (1, 2, 3, 4, 5, 6, 7, 8, 9)"),
        (9, 9, "s range must lie in [1, 8], got (9,)"),
        (1, 30_000_000, "s range must lie in [1, 8], got (1, 2, 3, 4, 5, 6, 7, 8, 9, ...)"),
        (3, 2, "empty s range"),
    ],
)
def test_scan_range_refusal_texts(s_min, s_max, message):
    with pytest.raises(DomainError) as excinfo:
        scan(s_min, s_max, 10, "shape-verify")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("mode", beh.SCAN_MODES)
def test_scan_rows_read_shape_off_the_walked_degrees(monkeypatch, mode):
    # no pure diagram meeting the shape condition violates the floor, so a
    # fabricated walk is the only way to see a reported row with a true shape
    def walk(s, d_max, walked_mode):
        assert (s, walked_mode) == (2, mode)
        yield (1,), 2, [(1, 1), (1, 1)]  # d_2 - 2 = 0 <= 2*d_1 - 2
        yield (2,), 5, [(1, 1), (1, 1)]  # d_2 - 2 = 3 > 2*d_1 - 2 = 2
        # raw total_1 = 3/2 < 2, but the doubled diagram (2, 3, 2) meets the floor
        yield (2,), 4, [(3, 2), (1, 1)]

    monkeypatch.setattr(beh, "_walk", walk)
    rows = scan(2, 2, 5, mode).rows
    expected = [((0, 1, 2), True, 1), ((0, 2, 5), False, 1)]
    if mode == "shape-verify":
        expected.append(((0, 2, 4), True, 1))
    assert [(row.degrees, row.shape, row.first_violating_j) for row in rows] == expected
    assert [row.shape for row in rows] == [pure_shape_check(row.degrees) for row in rows]


# -- the sufficient condition -------------------------------------------------------


def test_bound_additivity_mechanism():
    # each pure term at or above the binomial floor forces the weighted sum bound
    for name, diagram in corpus_diagrams().items():
        if not beh_check(diagram).hypothesis_met:
            continue
        codim = diagram.codimension()
        decomposition = decompose(diagram)
        beta0 = diagram.totals()[0]
        assert beta0 == sum((c for c, _ in decomposition), Fraction(0))
        for j in range(codim + 1):
            termwise = Fraction(0)
            for coefficient, degrees in decomposition:
                s = len(degrees) - 1
                pure_total_j = herzog_kuhl(degrees).totals()[j] if j <= s else Fraction(0)
                if j <= s:
                    assert pure_total_j >= math.comb(s, j)
                    assert math.comb(s, j) >= math.comb(codim, j) if s >= codim else True
                termwise += coefficient * pure_total_j
            assert termwise == diagram.totals()[j]
            assert termwise >= beta0 * math.comb(codim, j)


def test_the_shape_hypothesis_is_sharp_at_the_last_column():
    # w = (0, f, ..., f+s-2, 2f+s-1) has regularity 2f - 1, one above the
    # hypothesis, and last column total prod_k (f+k)/(f+s-1-k) = f/(f+s-1) < 1;
    # one degree lower, on the hypothesis' boundary, that total is exactly 1;
    # for f = 1 the boundary is the consecutive sequence (0, 1, ..., s)
    for s in range(2, 9):
        for f in range(1, 9):
            middle = tuple(range(f, f + s - 1))
            beyond, boundary = (0, *middle, 2 * f + s - 1), (0, *middle, 2 * f + s - 2)
            report = pure_beh_check(beyond)
            assert not pure_shape_check(beyond)
            assert report.per_j[s].actual == hk_equation_solve(beyond)[s] == Fraction(f, f + s - 1)
            # only column s fails, except for s = 2 or f = 1, where every column past 0 does
            failing = [check.j for check in report.per_j if not check.passed]
            assert failing == (list(range(1, s + 1)) if s == 2 or f == 1 else [s]), (s, f)
            report = pure_beh_check(boundary)
            assert pure_shape_check(boundary)
            assert report.per_j[s].actual == hk_equation_solve(boundary)[s] == 1
            assert report.overall
