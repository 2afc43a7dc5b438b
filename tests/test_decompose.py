import random
from fractions import Fraction

import pytest

from bettibounds import (
    BettiDiagram,
    Decomposition,
    DomainError,
    NotInConeError,
    decompose,
    herzog_kuhl,
    koszul,
    minimalize,
    recompose,
    taylor_betti,
    validate_bounds,
)

from helpers import (
    WEAK_MAX_DEGREE_IDEAL,
    corpus_diagrams,
    random_pure_combination,
    random_sparse_diagram,
)


def chain_on_shared_prefix(terms):
    degrees = [d for _, d in terms]
    for first, second in zip(degrees, degrees[1:]):
        shared = min(len(first), len(second))
        if any(a > b for a, b in zip(first[:shared], second[:shared])):
            return False
    return True


def test_koszul_is_a_single_term():
    for n in range(1, 6):
        terms = list(decompose(koszul(n)))
        assert terms == [(Fraction(1), tuple(range(n + 1)))]


def test_generic_2x3_single_term():
    diagram = BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    assert list(decompose(diagram)) == [(Fraction(2), (0, 1, 3))]


def test_non_cohen_macaulay_quotient():
    diagram = BettiDiagram({(0, 0): 1, (1, 2): 2, (2, 3): 1})
    terms = list(decompose(diagram))
    assert terms == [(Fraction(1, 2), (0, 2, 3)), (Fraction(1, 2), (0, 2))]
    # first greedy step by hand: pure totals of (0,2,3) are (1, 3, 2)
    assert herzog_kuhl((0, 2, 3)).totals() == (1, 3, 2)
    remainder = diagram - Fraction(1, 2) * herzog_kuhl((0, 2, 3))
    assert remainder == BettiDiagram({(0, 0): Fraction(1, 2), (1, 2): Fraction(1, 2)})


def test_scaled_pure_diagram_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        degrees = tuple(sorted(rng.sample(range(0, 12), rng.randint(2, 5))))
        coefficient = Fraction(rng.randint(1, 30), rng.randint(1, 8))
        diagram = coefficient * herzog_kuhl(degrees)
        assert list(decompose(diagram)) == [(coefficient, degrees)]


def test_recompose_inverts_decompose_on_corpus():
    for name, diagram in corpus_diagrams().items():
        decomposition = decompose(diagram)
        assert recompose(decomposition) == diagram, name
        assert all(coefficient > 0 for coefficient, _ in decomposition)
        assert chain_on_shared_prefix(decomposition.terms)
        assert len(decomposition) <= len(diagram)
        report = validate_bounds(decomposition, diagram)
        assert report.passed, (name, report)


def test_recompose_inverts_on_random_combinations():
    rng = random.Random(20240601)
    for _ in range(60):
        diagram = random_pure_combination(rng)
        assert all(value.denominator == 1 for _, value in diagram.items())
        decomposition = decompose(diagram)
        assert recompose(decomposition) == diagram
        assert all(coefficient > 0 for coefficient, _ in decomposition)
        assert chain_on_shared_prefix(decomposition.terms)
        assert len(decomposition) <= len(diagram)
        assert validate_bounds(decomposition, diagram).passed


def test_random_sparse_diagrams_decompose_or_meet_a_named_obstruction():
    # greedy zeroes an entry per step, so a decomposition has at most one term
    # per entry; otherwise it stops at an obstruction the input itself shows
    causes = (
        "diagram has a negative entry",
        "interior zero column",
        "minimal degrees not strictly increasing",
    )
    rng = random.Random(11)
    outcomes = {"decomposed": 0, **{cause: 0 for cause in causes}}
    for _ in range(400):
        diagram = random_sparse_diagram(rng, max_i=rng.randint(1, 5), entries=rng.randint(1, 8))
        try:
            decomposition = decompose(diagram)
        except NotInConeError as exc:
            cause = next(c for c in causes if str(exc).startswith(c))
            outcomes[cause] += 1
            continue
        outcomes["decomposed"] += 1
        assert recompose(decomposition) == diagram
        assert all(coefficient > 0 for coefficient, _ in decomposition)
        assert len(decomposition) <= len(diagram)
    assert outcomes["decomposed"] and outcomes["interior zero column"]
    assert outcomes["minimal degrees not strictly increasing"]


def test_empty_and_invalid_inputs():
    with pytest.raises(DomainError):
        decompose(BettiDiagram())
    assert recompose(Decomposition(())) == BettiDiagram()
    with pytest.raises(NotInConeError):
        decompose(BettiDiagram({(0, 0): 1, (1, 1): -1}))
    with pytest.raises(NotInConeError):
        decompose(BettiDiagram({(0, 0): 1, (2, 2): 1}))  # interior zero column
    with pytest.raises(NotInConeError):
        decompose(BettiDiagram({(0, 0): 1, (1, 0): 1}))  # min degrees not increasing


def test_not_in_cone_after_partial_elimination():
    # after one greedy step the top column empties while column 1 still has mass
    diagram = BettiDiagram({(0, 0): 1, (1, 1): 1, (2, 2): 5})
    with pytest.raises(NotInConeError):
        decompose(diagram)


def test_validate_bounds_report_content():
    diagram = BettiDiagram({(0, 0): 1, (1, 2): 2, (2, 3): 1})
    report = validate_bounds(decompose(diagram), diagram)
    assert report.codim == 1
    assert report.projective_dimension == 2
    assert {len(t.degrees) - 1 for t in report.per_term} == {1, 2}
    assert report.recompose_matches
    assert report.passed is True


def test_validate_bounds_weakly_increasing_max_degrees():
    ideal = minimalize(*WEAK_MAX_DEGREE_IDEAL)
    diagram = taylor_betti(ideal)
    assert diagram.max_degrees() == (0, 9, 10, 10)
    assert validate_bounds(decompose(diagram), diagram).passed
