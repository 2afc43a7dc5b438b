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
from bettibounds.cli import CSV_HEADER, _beh_json, _scan_csv

from helpers import corpus_diagrams, koszul


def test_hypothesis_met_examples():
    assert beh_check(koszul(3)).hypothesis_met
    assert beh_check(BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2})).hypothesis_met
    assert not beh_check(BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})).hypothesis_met


def test_hypothesis_met_agrees_with_pure_shape_check():
    degrees_list = [(0, 1, 3), (0, 2, 3, 4), (0, 1, 2, 4), (-1, 1, 2), (0, 2, 4, 5, 6)]
    for degrees in degrees_list:
        assert beh_check(herzog_kuhl(degrees)).hypothesis_met == pure_shape_check(degrees)


def test_beh_check_generic_2x3():
    diagram = BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    report = beh_check(diagram, codim=2)
    assert report.codim == 2
    assert report.beta0 == 2
    assert not report.hypothesis_met
    failing = [c for c in report.per_j if not c.passed]
    assert (failing[0].j, failing[0].actual, failing[0].required) == (1, 3, 4)
    assert not report.overall
    # default codimension agrees with the Hilbert-numerator computation
    assert beh_check(diagram).codim == 2


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


def test_beh_check_translates_positive_generators():
    shifted = BettiDiagram({(i, i + 2): math.comb(3, i) for i in range(4)})
    report = beh_check(shifted)
    assert report.hypothesis_met
    assert report.notes and "translated" in report.notes[0]
    assert report.overall


def test_beh_check_free_module_note():
    report = beh_check(BettiDiagram({(0, 0): 2}))
    assert report.codim == 0
    assert not report.hypothesis_met
    assert any("column 1" in note for note in report.notes)
    assert report.overall


def test_pure_beh_check_examples():
    report = pure_beh_check((0, 1, 2, 3, 5, 6))
    assert not report.overall
    first_fail = next(c for c in report.per_j if not c.passed)
    assert (first_fail.j, first_fail.actual, first_fail.required) == (1, Fraction(9, 2), 5)

    report = pure_beh_check((0, 1, 2, 4))
    assert [c.j for c in report.per_j if not c.passed] == [1, 2, 3]
    assert not pure_shape_check((0, 1, 2, 4))

    for s in range(1, 7):
        assert pure_beh_check(tuple(range(s + 1))).overall


def test_beh_report_json():
    payload = _beh_json(pure_beh_check((0, 1, 3)))
    assert payload["codim"] == 2
    assert payload["per_j"][1] == {"j": 1, "actual": "3/2", "required": "2", "pass": False}
    assert payload["overall"] is False


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


def test_scan_shape_verify_small():
    report = scan(1, 4, 8, "shape-verify")
    assert report.findings == 0
    assert report.sequences_checked == sum(math.comb(8, s) for s in range(1, 5))
    assert _scan_csv(report) == CSV_HEADER


def test_scan_find_violations_excludes_codim_two():
    report = scan(1, 2, 10, "find-violations")
    assert report.findings == 0


def test_scan_find_violations_lists_known_violator():
    report = scan(5, 5, 8, "find-violations")
    by_degrees = {row.degrees: row for row in report.rows}
    row = by_degrees[(0, 1, 2, 3, 5, 6)]
    assert row.betti_totals == (1, Fraction(9, 2), Fraction(15, 2), 5, Fraction(3, 2), Fraction(1, 2))
    # the doubled diagram (2, 9, 15, 10, 3, 1) first drops below C(5, j) at j = 4
    assert row.first_violating_j == 4
    assert not row.shape


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


def test_scan_integral_violations_includes_half_integral_class():
    report = scan(5, 5, 8, "integral-violations")
    degrees = {row.degrees for row in report.rows}
    assert (0, 1, 2, 3, 5, 6) in degrees
    # every reported class is integral after doubling at most
    find_all = {row.degrees for row in scan(5, 5, 8, "find-violations").rows}
    assert degrees <= find_all


def test_scan_csv_format():
    report = scan(5, 5, 8, "find-violations")
    lines = _scan_csv(report).splitlines()
    assert lines[0] == CSV_HEADER
    target = next(line for line in lines if line.startswith("0,1,2,3,5,6;"))
    assert target == "0,1,2,3,5,6;5;false;false;4;1,9/2,15/2,5,3/2,1/2"


def test_scan_deterministic():
    first = scan(1, 4, 9, "find-violations")
    second = scan(1, 4, 9, "find-violations")
    assert first == second


# -- the sufficient condition run end to end -------------------------------------------


def test_shape_implies_bound_on_corpus():
    diagrams = corpus_diagrams()
    exercised = 0
    for name, diagram in diagrams.items():
        report = beh_check(diagram)
        if not report.hypothesis_met:
            continue
        exercised += 1
        assert report.overall, name
        for _, degrees in decompose(diagram):
            assert pure_shape_check(degrees), (name, degrees)
            translated = tuple(d - degrees[0] for d in degrees)
            assert pure_shape_check(translated), (name, degrees)
    assert exercised >= 8


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
