import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from operator import or_

import pytest

from bettibounds import (
    BettiDiagram,
    FormatError,
    MonomialIdeal,
    TooManyGeneratorsError,
    beh_check,
    corpus,
    minimalize,
    monomial,
    taylor_betti,
)

from helpers import (
    WEAK_MAX_DEGREE_IDEAL,
    _rank,
    monomial_corpus,
    random_equigenerated_ideal,
    random_monomial_ideal,
    taylor_oracle_betti,
    time_limit,
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
    # every x^a y^(30-a), twice, and their multiples by x and y: more minimal
    # generators than the guard of taylor_betti, all of them kept
    antichain = [(a, 30 - a) for a in range(31)]
    multiples = [(a + 1, b) for a, b in antichain] + [(a, b + 1) for a, b in antichain]
    assert minimalize(2, multiples + antichain[::-1] + antichain).generators == tuple(antichain)


def test_ideal_file_is_refused_at_the_first_generator_beyond_the_guard():
    # 6,001 minimal generators of one degree: no two of them are compared, so
    # reading them all is as fast as stopping at the first beyond the guard
    text = json.dumps({"nvars": 2, "generators": [[a, 6000 - a] for a in range(6001)]})
    with time_limit(5), pytest.raises(TooManyGeneratorsError) as excinfo:
        MonomialIdeal.from_json(text)
    assert str(excinfo.value) == "more than 20 generators exceeds the guard of 20"
    # 6,001 minimal generators of distinct degrees, each compared with every
    # one below it: refused in milliseconds, where reading them all takes
    # about 6 s
    text = json.dumps({"nvars": 2, "generators": [[2 * a, 6000 - a] for a in range(6001)]})
    with time_limit(1), pytest.raises(TooManyGeneratorsError) as excinfo:
        MonomialIdeal.from_json(text)
    assert str(excinfo.value) == "more than 20 generators exceeds the guard of 20"
    # 8,000 entries with 3 minimal generators are within it
    gens = [[1 + i % 40, 1 + i // 40] for i in range(8000)] + [[0, 5], [5, 0], [1, 1]]
    with time_limit(5):
        ideal = MonomialIdeal.from_json(json.dumps({"nvars": 2, "generators": gens}))
    assert ideal.generators == ((1, 1), (0, 5), (5, 0))


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


def _strands(ideal):
    """{lcm m: bitmasks of the generator subsets with lcm m}, by brute force."""
    gens = ideal.generators
    strands = {}
    for mask in range(1 << len(gens)):
        chosen = [g for b, g in enumerate(gens) if mask >> b & 1]
        m = tuple(max((g[v] for g in chosen), default=0) for v in range(ideal.nvars))
        strands.setdefault(m, []).append(mask)
    return strands


def _has_strict_divisor(ideal, m):
    return any(
        all(a < b for a, b in zip(g, m) if b)
        for g in ideal.generators
        if all(a <= b for a, b in zip(g, m))
    )


def _facets(ideal, m):
    """Bitmasks of Phi_g = {k : g_k < m_k} for each generator g dividing m: the facets of K^m."""
    return [
        sum(1 << k for k, (a, b) in enumerate(zip(g, m)) if a < b)
        for g in ideal.generators
        if all(a <= b for a, b in zip(g, m))
    ]


@pytest.fixture
def walk_only(monkeypatch):
    """Make every component miss the linear-quotient search, so the LCM-lattice walk settles it."""
    monkeypatch.setattr(monomial, "_linear_quotients", lambda codes: None)


def test_oracle_ideals_have_strands_larger_than_their_koszul_cube():
    # the walk trades a Taylor strand for K^m when a bound on its faces,
    # min(2^|supp m|, sum over g | m of 2^|Phi_g|), is below the strand size
    # and no generator divides m strictly; these ideals have 97 such strands,
    # 34 of them in the equigenerated ideals, but 91 lie on at most three
    # variables and are settled from their signed count, so 6 reach K^m (13
    # with gapped_ideals()).  Walk-only over both lists the walk settles 1,608
    # lone cells, 596 strands by the signed count, 170 Taylor strands, 68
    # strict divisors and 13 K^m strands, and the oracle comparisons below
    # cover each rule through them
    switched = 0
    for ideal in oracle_ideals():
        for m, masks in _strands(ideal).items():
            cube = 2 ** sum(1 for x in m if x)
            faces = min(cube, sum(2 ** bin(facet).count("1") for facet in _facets(ideal, m)))
            switched += faces < len(masks) and not _has_strict_divisor(ideal, m)
    assert switched >= 10


def _cap_homology_cells(monkeypatch, cap):
    """Make `monomial._homology` fail on any complex of more than `cap` cells."""
    original = monomial._homology

    def bounded(cells):
        cells = list(cells)
        assert len(cells) <= cap, len(cells)
        return original(cells)

    monkeypatch.setattr(monomial, "_homology", bounded)


def test_wide_support_strand_stays_on_its_taylor_strand(monkeypatch, walk_only):
    # a = x0..x9, b = x10..x19, c = x0*x10: the strand at m = x0..x19 is
    # {ab, abc}, two cells with no strict divisor, while c's facet of K^m has
    # 18 coordinates; K^m there would be 2^18 faces and a dense
    # C(18,9) x C(18,8) boundary matrix
    _cap_homology_cells(monkeypatch, 8)
    a, b, c = [1] * 10 + [0] * 10, [0] * 10 + [1] * 10, [1] + [0] * 9 + [1] + [0] * 9
    ideal = minimalize(20, [a, b, c])
    assert taylor_betti(ideal) == BettiDiagram({(0, 0): 1, (1, 2): 1, (1, 10): 2, (2, 11): 2})


def test_wide_strand_with_small_facets_is_taken_on_its_koszul_complex(monkeypatch, walk_only):
    # g_i = x_1...x_k / x_i: at m = x_1...x_k the Taylor strand is every subset
    # of at least two generators, 2^k - k - 1 cells, and 2^|supp m| = 2^k is not
    # below that; but g_i falls short of m only at i, so the facets of K^m are
    # k points, and K^m has k + 1 faces
    _cap_homology_cells(monkeypatch, 64)
    k = 16
    ideal = minimalize(k, [[int(v != i) for v in range(k)] for i in range(k)])
    assert taylor_betti(ideal).totals() == (1, k, k - 1)


def test_koszul_cube_below_the_facet_sum_still_picks_k_m(monkeypatch, walk_only):
    # at m = x0^2 x1^2 x2^3 x3^2 the Taylor strand has 19 cells and the five
    # facets of K^m sum to 18 faces, but 2^|supp m| = 16 bounds K^m below both;
    # on four variables the signed count does not settle the strand
    _cap_homology_cells(monkeypatch, 16)
    ideal = minimalize(4, [(1, 2, 0, 2), (1, 2, 3, 1), (2, 0, 3, 2), (2, 1, 2, 2), (2, 2, 2, 1)])
    assert dict(taylor_betti(ideal).items()) == upper_koszul_betti(ideal)


def test_a_four_variable_strand_can_have_two_homology_groups(walk_only):
    # (x2 x3, x1 x3, x0 x3, x0 x1 x2): at m = x0 x1 x2 x3 the facets of K^m are
    # the edges 01, 02 and 12 and the point 3, a hollow triangle beside a
    # point, so beta_{2,m} = beta_{3,m} = 1 and the strand's signed count is 0;
    # three variables is the most on which that count settles a strand
    ideal = minimalize(4, [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 0)])
    diagram = dict(taylor_betti(ideal).items())
    assert diagram == upper_koszul_betti(ideal) == taylor_oracle_betti(ideal)
    assert diagram[2, 4] == diagram[3, 4] == 1


def test_variables_no_generator_uses_are_dropped(monkeypatch, walk_only):
    # x_3i*x_3i+1 and x_3i+1*x_3i+2 for i < 4, in 1000 variables: each strand is
    # settled on its own component's two generators and three variables, not
    # on lcms of 1000 coordinates; each variable's field is one exponent bit
    # and a guard, so the codes span three fields, 5 bits below the last guard
    original = monomial._settle
    shapes = set()

    def recorded(top, count, union, signed, codes):
        everything = reduce(or_, codes)
        shapes.add((len(codes), (everything & ~(everything >> 1)).bit_count(), everything.bit_length()))
        return original(top, count, union, signed, codes)

    monkeypatch.setattr(monomial, "_settle", recorded)
    n = 1000
    gens = [[int(v in (3 * i + s, 3 * i + s + 1)) for v in range(n)] for i in range(4) for s in (0, 1)]
    ideal = minimalize(n, gens)
    assert dict(taylor_betti(ideal).items()) == taylor_oracle_betti(ideal)
    assert shapes == {(2, 3, 5)}


GAPPED = (0, 1, 3, 7, 10**6)


def test_compressed_polarization_turns_lcm_into_or_and_keeps_support_and_degree():
    # code(a) | code(b) is the code of lcm(a, b), g divides m exactly when
    # code(g) & ~code(m) == 0, m & ~(m >> 1) has one bit in the field of each
    # variable of supp m, and the weights give the total degree: their masks
    # split the bits the codes can set, and the next bit b above a run that
    # does not fill its field raises the degree by b's weight
    rng = random.Random(4242)
    for _ in range(400):
        nvars = rng.randint(1, 8)
        a, b = (tuple(rng.choice(GAPPED) for _ in range(nvars)) for _ in range(2))
        gcd, lcm = tuple(map(min, a, b)), tuple(map(max, a, b))
        vectors = [a, b, gcd, lcm]
        # lcm_k at coordinate k alone: the code of that is the run of field k
        fields = [tuple(x if v == k else 0 for v, x in enumerate(lcm)) for k in range(nvars)]
        codes, weights = monomial._polarization(vectors + fields)
        assert codes[0] | codes[1] == codes[3]
        masks = [mask for _, mask in weights]
        assert sum(masks) == reduce(or_, masks, 0) == reduce(or_, codes[4:], 0)
        weight = {1 << k: w for w, mask in weights for k in range(mask.bit_length()) if mask >> k & 1}
        for g, code_g in zip(vectors, codes):
            for m, code_m in zip(vectors, codes):
                assert (code_g & ~code_m == 0) == all(x <= y for x, y in zip(g, m)), (g, m)
        for m, code in zip(vectors, codes):
            top = code & ~(code >> 1)
            assert [(top & run).bit_count() for run in codes[4:]] == [int(x > 0) for x in m]
            assert top.bit_count() == sum(1 for x in m if x)
            assert monomial._degree(code, weights) == sum(m)
            for run in codes[4:]:
                if bit := (code & run) + (run & -run) & run:  # the next bit above the run, if any
                    assert monomial._degree(code | bit, weights) - sum(m) == weight[bit]


def _disjoint_union(rng, parts):
    """Seeded ideals on disjoint blocks of variables, an unused variable after each block.

    The generators are shuffled, so a component's generators need not be adjacent.
    """
    blocks = [random_monomial_ideal(rng, max_vars=3, max_gens=4) for _ in range(parts)]
    nvars = sum(block.nvars + 1 for block in blocks)
    gens, offset = [], 0
    for block in blocks:
        for g in block.generators:
            gens.append([0] * offset + list(g) + [0] * (nvars - offset - block.nvars))
        offset += block.nvars + 1
    rng.shuffle(gens)
    return MonomialIdeal(nvars, tuple(map(tuple, gens)))


def test_ideals_of_several_components_match_the_taylor_oracle():
    # the engine multiplies the components' Betti polynomials; the oracle
    # walks every subset of the whole ideal
    rng = random.Random(2024)
    for parts in (2, 2, 2, 3, 3) * 8:
        ideal = _disjoint_union(rng, parts)
        assert dict(taylor_betti(ideal).items()) == taylor_oracle_betti(ideal), ideal


@pytest.mark.parametrize(
    "nvars, uses, expected, walk",
    [
        # g_i = x_0...x_19 / x_i: the top strand has 2^20 - 21 Taylor cells and a
        # K^m of 20 points; the ideal has linear quotients, so only the walk
        # reaches that strand
        (20, lambda i, v: v != i, {(0, 0): 1, (1, 19): 20, (2, 20): 19}, True),
        # x_0, ..., x_19 in 1000 variables, 980 of which no generator uses
        (1000, lambda i, v: v == i, {(i, i): math.comb(20, i) for i in range(21)}, False),
        # x_5i...x_5i+4 in 100 variables: 20 one-generator components, where a
        # walk over the 2^20 subset lcms of 100 coordinates takes 25 s and 1 GB
        (100, lambda i, v: 5 * i <= v < 5 * i + 5, {(i, 5 * i): math.comb(20, i) for i in range(21)}, False),
    ],
    ids=["facets", "unused", "disjoint"],
)
def test_complete_intersection_of_twenty_disjoint_supports_finishes(nvars, uses, expected, walk, request):
    if walk:
        request.getfixturevalue("walk_only")
    gens = [[int(uses(i, v)) for v in range(nvars)] for i in range(20)]
    with time_limit(2):
        diagram = taylor_betti(minimalize(nvars, gens))
    assert diagram == BettiDiagram(expected)


def _wide_strand_ideal(n):
    """g_i = x_i*y for i < n, with y = x_n, and c = x_0*x_1."""
    gens = [[int(v in (i, n)) for v in range(n + 1)] for i in range(n)]
    return minimalize(n + 1, gens + [[int(v in (0, 1)) for v in range(n + 1)]])


def test_wide_strand_ideal_matches_both_oracles(walk_only):
    # at m = x_S*y with 0, 1 in S, D(m) has |S| + 1 generators but every g_i,
    # i > 1, is alone in reaching m at x_i: the strand has at most 5 cells, not a
    # subset walk over 2^(|S| + 1); x_0 is reached by g_0 and c, x_1 by g_1 and c
    ideal = _wide_strand_ideal(7)
    assert dict(taylor_betti(ideal).items()) == upper_koszul_betti(ideal)
    ideal = _wide_strand_ideal(12)
    with time_limit(2):
        diagram = taylor_betti(ideal)
    assert dict(diagram.items()) == taylor_oracle_betti(ideal)


def test_generators_alone_in_reaching_m_are_in_every_taylor_cell():
    # at the top strand m = x_0...x_11*y of the n = 12 wide-strand ideal,
    # g_2..g_11 are each alone in reaching m at their x_i, so only g_0, g_1 and
    # c are enumerated: at most 2^3 partial cells are held, not 2^13.  The
    # traced allocation peak tells the two apart, where wall time would not.
    gens = _wide_strand_ideal(12).generators
    m = tuple(map(max, *gens))
    support = (1 << len(m)) - 1
    facets = [sum(1 << k for k, (a, b) in enumerate(zip(g, m)) if a < b) for g in gens]
    tracemalloc.start()
    try:
        cells = monomial._taylor_cells(support, facets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reached = [support & ~facet for facet in facets]
    covers = [0]  # the union of E_g over each subset, indexed by its bitmask
    for e in reached:
        covers += [cover | e for cover in covers]
    assert sorted(cells) == [cell for cell, cover in enumerate(covers) if cover == support]
    assert len(cells) == 5
    assert peak < 64 * 1024, peak


def _eagon_northcott(n, d):
    """S/m^d in n variables: beta_i = C(n+d-1, d+i-1) * C(d+i-2, i-1) in degree d+i-1."""
    expected = {(0, 0): 1}
    for i in range(1, n + 1):
        expected[i, d + i - 1] = math.comb(n + d - 1, d + i - 1) * math.comb(d + i - 2, i - 1)
    return BettiDiagram(expected)


@pytest.mark.parametrize(
    "n, d, walk",
    [
        *(
            pytest.param(n, d, False, id=f"{n}-{d}")
            for n, d in [
                *((2, d) for d in range(1, 5)),
                (3, 2),
                (3, 4),
                *((n, 1) for n in (1, *range(3, 11))),  # m itself: the Koszul complex
                (4, 3),
                (2, 19),
            ]
        ),
        # 20 generators, also on the walk: the lattices have 242 and 211
        # elements, and the 2^20 subset lcms take over a second
        pytest.param(4, 3, True, id="4-3-walk"),
        pytest.param(2, 19, True, id="2-19-walk"),
    ],
)
def test_powers_of_the_maximal_ideal_match_eagon_northcott(n, d, walk, request):
    if walk:
        request.getfixturevalue("walk_only")
    ideal = corpus(f"power-of-maximal({n},{d})")
    with time_limit(0.5):
        diagram = taylor_betti(ideal)
    assert diagram == _eagon_northcott(n, d)


def test_taylor_betti_matches_upper_koszul_oracle():
    # the Euler characteristic of criterion 9 cannot see a wrong rank; this oracle can
    for ideal in oracle_ideals():
        assert dict(taylor_betti(ideal).items()) == upper_koszul_betti(ideal), ideal


def test_taylor_betti_matches_taylor_oracle():
    for ideal in oracle_ideals():
        assert dict(taylor_betti(ideal).items()) == taylor_oracle_betti(ideal), ideal


def gapped_ideals():
    """Seeded ideals whose exponents have gaps, such as 3, 7 and 10**6 without 2.

    random_monomial_ideal draws exponents up to 3; an order-preserving map
    onto 0 and three of 1, 3, 7, 10**6 keeps each ideal minimal and the shape
    of its LCM lattice.
    """
    rng = random.Random(777)
    ideals = []
    for _ in range(120):
        ideal = random_monomial_ideal(rng)
        scale = (0, *sorted(rng.sample(GAPPED[1:], 3)))
        ideals.append(minimalize(ideal.nvars, [tuple(scale[x] for x in g) for g in ideal.generators]))
    return ideals


@pytest.mark.parametrize("oracle", [upper_koszul_betti, taylor_oracle_betti], ids=["upper-koszul", "taylor"])
def test_the_walk_matches_both_oracles(oracle, walk_only):
    for ideal in oracle_ideals() + gapped_ideals():
        assert dict(taylor_betti(ideal).items()) == oracle(ideal), ideal


def test_the_closed_form_matches_both_oracles_on_seeded_ideals(monkeypatch):
    # beta_{i, deg(u * x_F)} counts each u and F in set(u) at i = |F| + 1
    # wherever the greedy search finds a linear-quotient order of the codes,
    # gapped exponents included; the count of ideals that took it is pinned,
    # so a search that always misses fails here (a search on the exponents,
    # which gaps defeat, settles 649 of these 920 ideals)
    found = []
    search = monomial._linear_quotients

    def recorded(codes):
        found.append(search(codes))
        return found[-1]

    monkeypatch.setattr(monomial, "_linear_quotients", recorded)
    rng = random.Random(11)
    closed = 0
    for ideal in [random_monomial_ideal(rng) for _ in range(800)] + gapped_ideals():
        found.clear()
        diagram = dict(taylor_betti(ideal).items())
        if found and None not in found:
            closed += 1
            assert diagram == upper_koszul_betti(ideal) == taylor_oracle_betti(ideal), ideal
    assert closed == 763


def test_the_closed_form_matches_the_walk_beyond_the_oracles_reach(monkeypatch):
    # both oracles stop near 10 generators, so at 12 to 20 the walk is the
    # check: each equigenerated ideal's diagram is taken once as is and once
    # walk-only.  The ideals that took the closed form have a floor, so a
    # search that always misses fails here
    found = []
    search = monomial._linear_quotients

    def recorded(codes):
        found.append(search(codes))
        return found[-1]

    rng = random.Random(47)
    ideals = [random_equigenerated_ideal(rng, max_gens=20) for _ in range(240)]
    ideals = [ideal for ideal in ideals if len(ideal.generators) >= 12]
    closed = 0
    for ideal in ideals:
        found.clear()
        monkeypatch.setattr(monomial, "_linear_quotients", recorded)
        diagram = taylor_betti(ideal)
        closed += None not in found
        monkeypatch.setattr(monomial, "_linear_quotients", lambda codes: None)
        assert taylor_betti(ideal) == diagram, ideal
    assert len(ideals) == 122
    assert closed >= 62


def _squarefree(nvars, *support):
    return tuple(int(v in support) for v in range(nvars))


def _but(nvars, i):
    """x_0...x_{nvars-1} / x_i."""
    return tuple(int(v != i) for v in range(nvars))


@pytest.mark.parametrize(
    "gens, order",
    [
        # mixed degrees: x0^2, x0*x1, then the degree-3 monomials none of them divides
        (
            corpus("vplusm(3,2,x0^2,x0*x1)").generators,
            [
                ((2, 0, 0), []),
                ((1, 1, 0), [(2, 1, 0)]),
                ((0, 3, 0), [(1, 3, 0)]),
                ((0, 2, 1), [(1, 2, 1), (0, 3, 1)]),
                ((1, 0, 2), [(2, 0, 2), (1, 1, 2)]),
                ((0, 1, 2), [(1, 1, 2), (0, 2, 2)]),
                ((0, 0, 3), [(1, 0, 3), (0, 1, 3)]),
            ],
        ),
        # x_0...x_5 / x_i, lowest code first: each colon is generated by x_j alone, so beta = (1, 6, 5)
        ([_but(6, i) for i in range(6)], [(_but(6, 5), []), *((_but(6, i), [(1,) * 6]) for i in range(4, -1, -1))]),
        # the wide-lattice ideal, y = x_19: x_0*x_1, then x_i*y, set sizes 0, 1, 1, 2, ..., 18
        (
            _wide_strand_ideal(19).generators,
            [
                (_squarefree(20, 0, 1), []),
                (_squarefree(20, 0, 19), [_squarefree(20, 0, 1, 19)]),
                (_squarefree(20, 1, 19), [_squarefree(20, 0, 1, 19)]),
                *((_squarefree(20, i, 19), [_squarefree(20, j, i, 19) for j in range(i)]) for i in range(2, 19)),
            ],
        ),
        # (x0^2, x1^2): each exponent is its variable's only one, so x0^2 is one bit
        (((2, 0), (0, 2)), [((2, 0), []), ((0, 2), [(2, 2)])]),
        # (x^3, y^5): a complete intersection, its syzygy u * x_b 3 degrees above y^5
        (((3, 0), (0, 5)), [((3, 0), []), ((0, 5), [(3, 5)])]),
        # (x^5, x^3y^2, xy^4, y^7): a two-variable staircase, each colon the previous x step
        (((5, 0), (3, 2), (1, 4), (0, 7)), [((5, 0), []), ((3, 2), [(5, 2)]), ((1, 4), [(3, 4)]), ((0, 7), [(1, 7)])]),
        # (x^2, y^2, xyz^3): x^2 and y^2 are two bits each and xyz^3 is x, y and
        # z, so in any order the second generator's colon has a two-bit w
        (((2, 0, 0), (0, 2, 0), (1, 1, 3)), None),
        # a generator another divides, or repeats, has the colon (1)
        (((1, 0), (1, 1), (0, 2)), None),
        (((1, 0), (1, 0), (0, 1)), None),
    ],
    ids=[
        "mixed-degree",
        "facets",
        "wide-lattice",
        "squares",
        "gapped-complete-intersection",
        "gapped-staircase",
        "gapped-miss",
        "redundant",
        "repeated",
    ],
)
def test_linear_quotient_search(gens, order):
    # each u comes with u * x_b for b in set(u): the code of that step, less
    # the code of u, is the bit b; the steps' exponents occur among the
    # generators, so polarizing them with the generators moves no field
    steps = [step for _, multiples in order or () for step in multiples]
    vectors = [*gens, *steps]
    codes = monomial._polarization(vectors)[0]
    assert codes[: len(gens)] == monomial._polarization(list(gens))[0]
    code = dict(zip(vectors, codes))
    expected = order and [(code[u], reduce(or_, (code[s] & ~code[u] for s in multiples), 0)) for u, multiples in order]
    assert monomial._linear_quotients(codes[: len(gens)]) == expected


@pytest.mark.parametrize(
    "minimal, extra",
    [
        (corpus("power-of-maximal(2,2)").generators, [(2, 1)]),
        (corpus("power-of-maximal(2,2)").generators, [(1, 1)]),
        (corpus("square-free-example(4)").generators, [(1, 1, 1, 0), (0, 0, 1, 1)]),
        (corpus("vplusm(3,2,x0^2,x0*x1)").generators, [(2, 0, 0), (3, 0, 1)]),
    ],
    ids=["redundant", "repeated", "both", "mixed-degree"],
)
def test_a_directly_built_ideal_with_a_redundant_or_repeated_generator(minimal, extra):
    # the closed form counts generators, so such a set must miss the search
    nvars = len(minimal[0])
    direct = taylor_betti(MonomialIdeal(nvars, tuple(minimal) + tuple(extra)))
    assert direct == taylor_betti(minimalize(nvars, minimal))
    assert direct == BettiDiagram(upper_koszul_betti(minimalize(nvars, minimal)))


def test_wide_lattice_ideal_takes_the_closed_form():
    # g_i = x_i*y for i < 19, and x_0*x_1: 20 generators whose lattice walk
    # takes about 9 s and 220 MB; in the order x_0*x_1, x_0*y, x_1*y, ...,
    # x_18*y the set sizes are 0, 1, 1, 2, ..., 18
    with time_limit(1):
        diagram = taylor_betti(_wide_strand_ideal(19))
    sizes = [0, 1, *range(1, 19)]
    expected = {(0, 0): 1}
    for i in range(1, 21):
        expected[i, i + 1] = sum(math.comb(size, i - 1) for size in sizes)
    assert diagram == BettiDiagram(expected)
    assert diagram.totals()[:4] == (1, 20, 172, 969)
    assert diagram.totals()[-4:] == (969, 171, 19, 1)


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


def test_socle_truncated_families_satisfy_shape_and_bound():
    for name in ("vplusm(2,2,x0^2)", "vplusm(2,3,x0^3)", "vplusm(3,2,x0^2,x0*x1)"):
        diagram = taylor_betti(corpus(name))
        report = beh_check(diagram)
        assert report.hypothesis_met and report.overall, name


def test_every_seeded_quotient_meets_the_floor_with_or_without_the_shape_hypothesis():
    # for S/I the floor beta_j >= C(c, j) holds for every multigraded module
    # (Charalambous, J. Algebra 1991), so a Betti number computed too low fails it
    rng = random.Random(41)
    verdicts = Counter()
    for _ in range(300):
        ideal = random_monomial_ideal(rng, max_vars=5, max_gens=9, max_exponent=3)
        report = beh_check(taylor_betti(ideal))
        assert report.overall, ideal
        verdicts[report.hypothesis_met] += 1
    assert verdicts[True] and verdicts[False]


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


def test_complete_graph_edge_ideals_linear_resolution():
    # quotient totals k * C(n, k+1) in column k >= 1, all in row 1
    for n in (3, 4, 5):
        diagram = taylor_betti(corpus(f"square-free-example({n})"))
        expected = {(0, 0): Fraction(1)}
        for k in range(1, n):
            expected[k, k + 1] = k * math.comb(n, k + 1)
        assert diagram == BettiDiagram(expected), n


def test_square_free_example_6_linear_resolution():
    # beta_{i,i+1} = i * C(k, i+1); 15 generators
    k = 6
    expected = {(0, 0): 1}
    for i in range(1, k):
        expected[i, i + 1] = i * math.comb(k, i + 1)
    assert taylor_betti(corpus(f"square-free-example({k})")) == BettiDiagram(expected)


def test_strands_with_a_strict_divisor_carry_no_homology():
    # a generator g | m with g_k < m_k on supp m makes K^m the full simplex on supp m
    skipped = 0
    for ideal in oracle_ideals():
        for m, masks in _strands(ideal).items():
            if len(masks) == 1 or not _has_strict_divisor(ideal, m):
                continue
            skipped += 1
            assert any(m), ideal  # m = 0 has two cells only for the unit ideal
            faces = monomial._upper_koszul_faces(_facets(ideal, m))
            assert not any(monomial._homology(faces).values())
            assert not any(monomial._homology(masks).values())
    assert skipped >= 300


def test_rank_calls_on_the_corpus_families(monkeypatch, walk_only):
    # strands on at most three variables, and on more with a strict divisor,
    # take no rank; a rule that skips fewer strands can give the same
    # diagrams, and these counts show it
    calls = Counter()
    original = monomial._rational_rank

    def counted(rows):
        calls[name] += 1
        return original(rows)

    monkeypatch.setattr(monomial, "_rational_rank", counted)
    for name, ideal in monomial_corpus():
        taylor_betti(ideal)
    assert dict(calls) == {"square-free-example(4)": 2}
    assert not any(calls[name] for name, ideal in monomial_corpus() if ideal.nvars <= 3)


def _seeded_matrix(rng):
    """An integer matrix with entries -3..3, up to 10 x 10, often rank-deficient."""
    nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
    density = rng.choice((0.2, 0.5, 1.0))
    rows = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        kind, n = rng.randrange(3), rng.randrange(nrows)
        if kind == 0:
            rows[n] = [0] * ncols
        elif kind == 1:
            col = rng.randrange(ncols)
            for row in rows:
                row[col] = 0
        else:
            rows.insert(rng.randrange(nrows + 1), list(rows[n]))
    return rows


def test_integer_rank_matches_fraction_elimination():
    # helpers._rank eliminates over Fraction; the engine's rank stays on integers
    assert monomial._rational_rank([]) == 0
    rng = random.Random(2024)
    deficient = 0
    for _ in range(3000):
        rows = _seeded_matrix(rng)
        copy = [list(row) for row in rows]
        rank = monomial._rational_rank(rows)
        assert rank == _rank(rows), rows
        assert rows == copy  # the benchmark's hook reads the rows it was given
        deficient += rank < min(len(rows), len(rows[0]))
    assert deficient >= 1000
