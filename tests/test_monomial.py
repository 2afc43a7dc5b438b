import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from bettibounds import (
    BettiDiagram,
    FormatError,
    MonomialIdeal,
    TooManyGeneratorsError,
    beh_check,
    corpus,
    decompose,
    minimalize,
    shape_hypothesis,
    taylor_betti,
    validate_bounds,
)

from helpers import (
    WEAK_MAX_DEGREE_IDEAL,
    koszul,
    monomial_corpus,
    random_equigenerated_ideal,
    random_monomial_ideal,
    subset_numerator,
    taylor_oracle_betti,
    upper_koszul_betti,
)


def test_minimalize_examples():
    # {x^2, x^2 y, y} -> {x^2, y}... the divisible generator drops
    ideal = minimalize(2, [(2, 0), (2, 1), (0, 1)])
    assert set(ideal.generators) == {(2, 0), (0, 1)}
    already = minimalize(2, [(2, 0), (1, 1), (0, 2)])
    assert minimalize(2, already.generators) == already
    # m^3 together with x reduces to {x, y^3}
    cubes = [(3, 0), (2, 1), (1, 2), (0, 3), (1, 0)]
    assert set(minimalize(2, cubes).generators) == {(1, 0), (0, 3)}


def test_minimalize_validation():
    with pytest.raises(FormatError):
        minimalize(2, [])
    with pytest.raises(FormatError):
        minimalize(2, [(1, -1)])
    with pytest.raises(FormatError):
        minimalize(2, [(1, 0, 0)])


@pytest.mark.parametrize(
    "generator",
    [(1.9, 0), (True, 0), ("3", 0), [0, None], "30", 3],
    ids=["float", "bool", "string", "none", "string-vector", "int"],
)
def test_minimalize_refuses_entries_that_are_not_ints(generator):
    with pytest.raises(FormatError):
        minimalize(2, [(0, 1), generator])


def test_taylor_betti_examples():
    assert taylor_betti(corpus("power-of-maximal(3,1)")) == koszul(3)
    assert taylor_betti(corpus("power-of-maximal(2,2)")) == BettiDiagram(
        {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    )
    two_gens = minimalize(2, [(2, 0), (1, 1)])
    assert taylor_betti(two_gens) == BettiDiagram({(0, 0): 1, (1, 2): 2, (2, 3): 1})


def test_taylor_guard():
    gens = [tuple(1 if k == i else 0 for k in range(21)) for i in range(21)]
    with pytest.raises(TooManyGeneratorsError):
        taylor_betti(MonomialIdeal(21, tuple(gens)))


def test_corpus_families():
    assert set(corpus("power-of-maximal(2,2)").generators) == {(2, 0), (1, 1), (0, 2)}
    assert set(corpus("power-of-maximal(3,1)").generators) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert set(corpus("vplusm(2,2,x0^2)").generators) == {(2, 0), (1, 2), (0, 3)}
    assert set(corpus("square-free-example(3)").generators) == {
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
    }


def test_corpus_refuses_exactly_the_families_beyond_the_guard():
    # each family rebuilt here by brute force: every degree-d monomial, or the
    # listed ones plus the degree-(d+1) monomials none of them divides
    rng = random.Random(8)

    def monomials(n, d):
        return [tuple(c.count(v) for v in range(n)) for c in combinations_with_replacement(range(n), d)]

    families = []
    for n in range(1, 5):
        for d in range(1, 7):
            families.append((f"power-of-maximal({n},{d})", set(monomials(n, d))))
            for _ in range(3):
                listed = rng.sample(monomials(n, d), rng.randint(1, min(6, len(monomials(n, d)))))
                text = ",".join("*".join(f"x{v}^{e}" for v, e in enumerate(m) if e) for m in listed)
                rest = [
                    m
                    for m in monomials(n, d + 1)
                    if not any(all(a <= b for a, b in zip(g, m)) for g in listed)
                ]
                families.append((f"vplusm({n},{d},{text})", set(listed + rest)))
    for k in range(2, 9):
        families.append((f"square-free-example({k})", {m for m in monomials(k, 2) if max(m) == 1}))
    refused = 0
    for name, gens in families:
        if len(gens) <= 20:
            assert set(corpus(name).generators) == gens, name
            continue
        refused += 1
        with pytest.raises(TooManyGeneratorsError) as excinfo:
            corpus(name)
        assert str(excinfo.value) in (
            f"{len(gens)} generators exceeds the guard of 20",
            "more than 20 generators exceeds the guard of 20",
        ), name
    assert 0 < refused < len(families)


def test_corpus_unknown_names():
    for bad in ("nope(1)", "power-of-maximal(2)", "vplusm(2,2)", "vplusm(2,2,x0)", "power-of-maximal"):
        with pytest.raises(FormatError):
            corpus(bad)


def test_euler_characteristic_cross_check():
    for name, ideal in monomial_corpus():
        diagram = taylor_betti(ideal)
        assert diagram.hilbert_numerator() == subset_numerator(ideal), name


def equigenerated_ideals():
    rng = random.Random(4321)
    return [random_equigenerated_ideal(rng) for _ in range(30)]


def oracle_ideals():
    """The corpus, 40 seeded random ideals, and the seeded equigenerated ideals."""
    ideals = [ideal for _, ideal in monomial_corpus()]
    ideals.append(minimalize(*WEAK_MAX_DEGREE_IDEAL))
    rng = random.Random(1234)
    ideals += [random_monomial_ideal(rng) for _ in range(40)]
    return ideals + equigenerated_ideals()


def test_equigenerated_ideals_have_strands_larger_than_their_koszul_cube():
    # the engine trades a Taylor strand for K^m when 2^|supp m| < strand size;
    # the oracle comparisons below cover that branch through these ideals (127 such strands)
    switched = 0
    for ideal in equigenerated_ideals():
        sizes = Counter()
        gens = ideal.generators
        for size in range(len(gens) + 1):
            for subset in combinations(gens, size):
                sizes[tuple(max((g[v] for g in subset), default=0) for v in range(ideal.nvars))] += 1
        switched += sum(1 for m, n in sizes.items() if 2 ** sum(1 for x in m if x) < n)
    assert switched >= 100


def test_taylor_betti_matches_upper_koszul_oracle():
    # the Euler characteristic above cannot see a wrong rank; this oracle can
    for ideal in oracle_ideals():
        assert dict(taylor_betti(ideal).items()) == upper_koszul_betti(ideal), ideal


def test_taylor_betti_matches_taylor_oracle():
    for ideal in oracle_ideals():
        assert dict(taylor_betti(ideal).items()) == taylor_oracle_betti(ideal), ideal


def test_column_zero_and_generator_count():
    for name, ideal in monomial_corpus():
        diagram = taylor_betti(ideal)
        zero_column = [(key, v) for key, v in diagram.items() if key[0] == 0]
        assert zero_column == [((0, 0), Fraction(1))], name
        assert diagram.totals()[1] == len(ideal.generators), name


def test_taylor_binomial_ceiling():
    for name, ideal in monomial_corpus():
        diagram = taylor_betti(ideal)
        r = len(ideal.generators)
        for i in range(diagram.projective_dimension() + 1):
            assert diagram.totals()[i] <= math.comb(r, i), name


def test_generator_order_invariance():
    rng = random.Random(99)
    for name, ideal in monomial_corpus():
        reference = taylor_betti(ideal)
        gens = list(ideal.generators)
        for _ in range(8):
            rng.shuffle(gens)
            shuffled = MonomialIdeal(ideal.nvars, tuple(gens))
            assert taylor_betti(shuffled) == reference, name


def test_pipeline_soundness():
    for name, ideal in monomial_corpus():
        diagram = taylor_betti(ideal)
        decomposition = decompose(diagram)
        assert validate_bounds(decomposition, diagram).passed, name


def test_socle_truncated_families_satisfy_shape_and_bound():
    for name in ("vplusm(2,2,x0^2)", "vplusm(2,3,x0^3)", "vplusm(3,2,x0^2,x0*x1)"):
        diagram = taylor_betti(corpus(name))
        assert shape_hypothesis(diagram), name
        report = beh_check(diagram)
        assert report.hypothesis_met and report.overall, name


def test_ideal_json_round_trip():
    ideal = corpus("power-of-maximal(2,2)")
    text = ideal.to_json()
    assert MonomialIdeal.from_json(text) == ideal
    with pytest.raises(FormatError):
        MonomialIdeal.from_json('{"nvars": 2, "generators": [[1]]}')
    with pytest.raises(FormatError):
        MonomialIdeal.from_json('{"nvars": 2}')


def test_ideal_json_rejects_booleans():
    with pytest.raises(FormatError):
        MonomialIdeal.from_json('{"nvars": true, "generators": [[1]]}')
    with pytest.raises(FormatError):
        MonomialIdeal.from_json('{"nvars": 1, "generators": [[true]]}')


def test_taylor_betti_of_principal_ideal():
    # one generator: 0 -> S(-d) -> S -> S/(m) -> 0
    ideal = minimalize(3, [(1, 2, 0)])
    assert taylor_betti(ideal) == BettiDiagram({(0, 0): 1, (1, 3): 1})


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_unit_ideal_has_the_empty_diagram(nvars):
    # S/S = 0: the zero vector generates S, and no strand carries homology
    ideal = minimalize(nvars, [[0] * nvars])
    assert taylor_betti(ideal) == BettiDiagram()
    assert upper_koszul_betti(ideal) == {}
    assert taylor_oracle_betti(ideal) == {}


def test_power_of_maximal_quotients_are_pure():
    # the quotient by m^d in two variables resolves purely at degrees (0, d, d+1)
    # with column totals (1, d+1, d); in three variables m^2 gives (1, 6, 8, 3)
    for d in range(1, 5):
        diagram = taylor_betti(corpus(f"power-of-maximal(2,{d})"))
        assert diagram == BettiDiagram({(0, 0): 1, (1, d): d + 1, (2, d + 1): d})
    assert taylor_betti(corpus("power-of-maximal(3,2)")) == BettiDiagram(
        {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}
    )


def test_complete_graph_edge_ideals_linear_resolution():
    # quotient totals k * C(n, k+1) in column k >= 1, all in row 1
    for n in (3, 4, 5):
        diagram = taylor_betti(corpus(f"square-free-example({n})"))
        expected = {(0, 0): Fraction(1)}
        for k in range(1, n):
            expected[k, k + 1] = k * math.comb(n, k + 1)
        assert diagram == BettiDiagram(expected), n


def test_power_of_maximal_3_4_matches_eagon_northcott():
    # beta_i = C(n+d-1, d+i-1) * C(d+i-2, i-1) in degree d+i-1; 15 generators
    n, d = 3, 4
    expected = {(0, 0): 1}
    for i in range(1, n + 1):
        expected[i, d + i - 1] = math.comb(n + d - 1, d + i - 1) * math.comb(d + i - 2, i - 1)
    assert taylor_betti(corpus(f"power-of-maximal({n},{d})")) == BettiDiagram(expected)


def test_square_free_example_6_linear_resolution():
    # beta_{i,i+1} = i * C(k, i+1); 15 generators
    k = 6
    expected = {(0, 0): 1}
    for i in range(1, k):
        expected[i, i + 1] = i * math.comb(k, i + 1)
    assert taylor_betti(corpus(f"square-free-example({k})")) == BettiDiagram(expected)


def test_power_of_maximal_linear_forms_is_koszul():
    for n in range(1, 11):
        assert taylor_betti(corpus(f"power-of-maximal({n},1)")) == koszul(n), n
