import random
from collections import Counter
from fractions import Fraction

import pytest

from bettibounds import (
    BettiDiagram,
    Decomposition,
    DomainError,
    FormatError,
    NotInConeError,
    decompose,
    herzog_kuhl,
    minimalize,
    recompose,
    taylor_betti,
    validate_bounds,
)

from helpers import (
    NOT_EXACT_IDS,
    NOT_EXACT_VALUES,
    WEAK_MAX_DEGREE_IDEAL,
    corpus_diagrams,
    greedy_decompose,
    hk_equation_solve,
    koszul,
    random_monomial_ideal,
    random_pure_combination,
    random_sparse_diagram,
    time_limit,
    upper_koszul_betti,
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
    assert recompose(Decomposition(((2, (0, 1, 3)),))) == 2 * herzog_kuhl((0, 1, 3))


@pytest.mark.parametrize("coefficient", NOT_EXACT_VALUES, ids=NOT_EXACT_IDS)
def test_recompose_refuses_coefficients_other_than_int_and_fraction(coefficient):
    with pytest.raises(FormatError) as excinfo:
        recompose(Decomposition(((coefficient, (0, 1, 3)),)))
    assert str(excinfo.value) == (
        f"coefficient must be an int or a Fraction, got {type(coefficient).__name__}"
    )


@pytest.mark.parametrize(
    "entries, message",
    [
        ({(0, 0): 1, (1, 1): -1}, "diagram has a negative entry"),
        ({(0, 0): 1, (2, 2): 1}, "interior zero column: column 1 is zero but column 2 is not"),
        ({(0, 0): 1, (1, 0): 1}, "minimal degrees not strictly increasing: (0, 0)"),
    ],
)
def test_not_in_cone_refusals_name_their_obstruction(entries, message):
    with pytest.raises(NotInConeError) as excinfo:
        decompose(BettiDiagram(entries))
    assert str(excinfo.value) == message


def test_not_in_cone_after_partial_elimination():
    # one greedy step of (1/2)*pi(0,1,2) zeroes (1, 1) and leaves (2, 2) at 9/2
    diagram = BettiDiagram({(0, 0): 1, (1, 1): 1, (2, 2): 5})
    with pytest.raises(NotInConeError) as excinfo:
        decompose(diagram)
    assert str(excinfo.value) == "interior zero column: column 1 is zero but column 2 is not"


@pytest.mark.parametrize(
    "diagram",
    [
        BettiDiagram({(0, 0): 1, (1, 2): 2, (2, 3): 1}),
        BettiDiagram({(0, 0): 1, (1, 1): 1, (2, 2): 5}),
    ],
    ids=["decomposes", "refused-midway"],
)
def test_decompose_leaves_its_input_unchanged(diagram):
    before = (diagram.items(), hash(diagram))
    try:
        decompose(diagram)
    except NotInConeError:
        pass
    assert (diagram.items(), hash(diagram)) == before


def bumped_chain(rng, s, n_terms=30):
    """Chain of n_terms pure terms, one degree bumped per term, with
    coefficients p/q for p < 2**24 and q < 2**12."""
    degrees = [0]
    for _ in range(s):
        degrees.append(degrees[-1] + 1 + rng.randint(0, 2))
    terms = []
    for _ in range(n_terms):
        coefficient = Fraction(rng.randrange(1, 1 << 24), rng.randrange(1, 1 << 12))
        terms.append((coefficient, tuple(degrees)))
        movable = [i for i in range(1, s + 1) if i == s or degrees[i] + 1 < degrees[i + 1]]
        degrees[rng.choice(movable)] += 1
    return terms


def chain_diagram(terms):
    """Sum of coefficient * pure diagram, summed in a plain dict from the equation solver."""
    table = {}
    for coefficient, degrees in terms:
        for i, total in enumerate(hk_equation_solve(degrees)):
            table[i, degrees[i]] = table.get((i, degrees[i]), 0) + coefficient * total
    return BettiDiagram(table)


def test_decompose_recovers_long_chains_exactly():
    # each step bumps one degree, so greedy meets each term's own argmin entry
    # and must return the generating terms, in order, with their coefficients
    rng = random.Random(101)
    for s in range(3, 9):
        terms = bumped_chain(rng, s)
        diagram = chain_diagram(terms)
        decomposition = decompose(diagram)
        assert decomposition.terms == tuple(terms), s
        assert recompose(decomposition) == diagram
        assert validate_bounds(decomposition, diagram).passed


def test_a_200_term_chain_on_shared_entries_recomposes_exactly():
    # every term shares (0, 0), and each entry (i, d_i) is shared by the terms
    # until the next bump of d_i, so recompose sums up to 200 terms per entry
    terms = bumped_chain(random.Random(7), 3, n_terms=200)
    diagram = chain_diagram(terms)
    decomposition = decompose(diagram)
    assert decomposition.terms == tuple(terms)
    assert validate_bounds(decomposition, diagram).passed
    assert recompose(decomposition) == diagram


def seeded_diagrams(rng, count):
    """Sparse diagrams, integral pure combinations, genuine diagrams of
    monomial ideals and 30-term chains with s <= 4, in the ratio 2:2:1:1.

    The oracle solves a linear system per step, so longer chains are left to
    the exact-recovery tests above.
    """
    for n in range(count):
        kind = n % 6
        if kind in (0, 3):
            yield random_sparse_diagram(rng, max_i=rng.randint(1, 5), entries=rng.randint(1, 8))
        elif kind in (1, 4):
            yield random_pure_combination(rng, s_max=6, max_terms=5)
        elif kind == 2:
            yield BettiDiagram(upper_koszul_betti(random_monomial_ideal(rng)))
        else:
            yield chain_diagram(bumped_chain(rng, rng.randint(1, 4)))


def test_decompose_agrees_with_a_plain_fraction_greedy_oracle():
    # a faulty update that never zeroes an entry would loop forever; the whole
    # run takes about 2 s
    outcomes = Counter()
    with time_limit(60):
        for diagram in seeded_diagrams(random.Random(16), 600):
            try:
                expected = greedy_decompose(diagram)
            except (DomainError, NotInConeError) as refusal:
                with pytest.raises(type(refusal)) as excinfo:
                    decompose(diagram)
                assert (type(excinfo.value), str(excinfo.value)) == (type(refusal), str(refusal))
                outcomes[str(refusal).split(":")[0]] += 1
                continue
            decomposition = decompose(diagram)
            assert list(decomposition) == expected
            assert recompose(decomposition) == diagram
            outcomes["decomposed"] += 1
    assert outcomes["decomposed"] >= 400, outcomes
    assert outcomes["interior zero column"] and outcomes["minimal degrees not strictly increasing"]


def test_validate_bounds_report_content():
    diagram = BettiDiagram({(0, 0): 1, (1, 2): 2, (2, 3): 1})
    report = validate_bounds(decompose(diagram), diagram)
    assert report.codim == 1
    assert report.projective_dimension == 2
    assert {len(t.degrees) - 1 for t in report.per_term} == {1, 2}
    assert report.recompose_matches
    assert report.passed is True


def test_validate_bounds_fails_a_term_longer_than_the_projective_dimension():
    diagram = BettiDiagram({(0, 0): 1, (1, 2): 2, (2, 3): 1})
    report = validate_bounds(Decomposition(((1, (0, 1, 2, 3)),)), diagram)
    (term,) = report.per_term
    assert (term.length_ok, term.lower_ok, term.upper_ok) == (False, False, False)
    assert not report.recompose_matches and not report.passed


def test_validate_bounds_weakly_increasing_max_degrees():
    ideal = minimalize(*WEAK_MAX_DEGREE_IDEAL)
    diagram = taylor_betti(ideal)
    assert diagram.max_degrees() == (0, 9, 10, 10)
    assert validate_bounds(decompose(diagram), diagram).passed
