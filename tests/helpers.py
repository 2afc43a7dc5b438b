"""Shared oracles and corpus builders for the test suite.

The oracles here deliberately avoid the library's own code paths: pure
diagrams are solved from their defining linear equations, diagram statistics
are recomputed from dense tables, monomial Betti numbers come from upper
Koszul complexes and from a Taylor complex over generator subsets, both with
this module's own rank, Hilbert numerators come from inclusion-exclusion over
generator subsets, partial derivatives of column totals come from the product
and quotient rules over the linear forms of the product, interior column
totals on a two-parameter slice come from their closed product form, and the
greedy decomposition is repeated in plain Fractions on the solved pure
diagrams.
"""

from __future__ import annotations

import contextlib
import math
import random
import signal
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from bettibounds import (
    BettiDiagram,
    DomainError,
    NotInConeError,
    corpus,
    minimalize,
    taylor_betti,
)


# values of every kind but int and Fraction, each once: a binary float, a
# bool (an int subclass), NaN, infinity, None, a string and a Decimal
NOT_EXACT_VALUES = (0.1, True, float("nan"), float("inf"), None, "1", Decimal(1))
NOT_EXACT_IDS = ("float", "bool", "nan", "inf", "none", "str", "decimal")


class _TimeLimitExpired(BaseException):
    """Raised by `time_limit`.  Not an `Exception`: `cli.main` would report a
    `TimeoutError`, an `OSError`, as a failed write and return 2."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise `_TimeLimitExpired` in the main thread when the block outlasts `seconds` (POSIX).

    Turns a loop that never ends into a test failure instead of a hung run.
    """

    def expire(signum, frame):
        raise _TimeLimitExpired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def koszul(n):
    """Diagram with entry C(n, i) at (i, i): the Koszul complex, the gap-zero pure diagram."""
    return BettiDiagram({(i, i): math.comb(n, i) for i in range(n + 1)})


def from_gaps(gap_vector, d0):
    """Degree sequence d_j = d0 + j + e_1 + ... + e_j of nonnegative integer gaps."""
    degrees = [d0]
    for e in gap_vector:
        degrees.append(degrees[-1] + 1 + e)
    return tuple(degrees)


def hk_equation_solve(degrees):
    """Column totals of the normalized pure diagram, from the linear system.

    Solves sum_i (-1)^i * d_i^t * x_i = 0 for t = 0..s-1 with x_0 = 1 by
    exact Gaussian elimination.
    """
    degrees = tuple(degrees)
    s = len(degrees) - 1
    if s == 0:
        return (Fraction(1),)
    rows = []
    for t in range(s):
        row = [Fraction((-1) ** i * degrees[i] ** t) for i in range(1, s + 1)]
        row.append(Fraction(-(degrees[0] ** t)))
        rows.append(row)
    for col in range(s):
        pivot = next(r for r in range(col, s) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, s):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    xs = [Fraction(0)] * s
    for r in range(s - 1, -1, -1):
        acc = rows[r][s] - sum((rows[r][c] * xs[c] for c in range(r + 1, s)), Fraction(0))
        xs[r] = acc / rows[r][r]
    return (Fraction(1),) + tuple(xs)


def greedy_decompose(diagram):
    """Greedy chain decomposition in plain Fractions, as a list of (coefficient, degrees).

    Each step reads the minimal degree of every column, solves that pure
    diagram with :func:`hk_equation_solve`, and subtracts the largest multiple
    that keeps every entry nonnegative.  Refusals raise the library's error
    classes with its texts, so both can be compared.
    """
    table = dict(diagram.items())
    if not table:
        raise DomainError("cannot decompose the zero diagram")
    if any(value < 0 for value in table.values()):
        raise NotInConeError("diagram has a negative entry")
    terms = []
    while table:
        top = max(i for i, _ in table)
        degrees = []
        for i in range(top + 1):
            column = [j for k, j in table if k == i]
            if not column:
                raise NotInConeError(
                    f"interior zero column: column {i} is zero but column {top} is not"
                )
            degrees.append(min(column))
        degrees = tuple(degrees)
        if any(b <= a for a, b in zip(degrees, degrees[1:])):
            raise NotInConeError(f"minimal degrees not strictly increasing: {degrees}")
        totals = hk_equation_solve(degrees)
        coefficient = min(table[i, d] / total for i, (d, total) in enumerate(zip(degrees, totals)))
        for i, (d, total) in enumerate(zip(degrees, totals)):
            rest = table[i, d] - coefficient * total
            if rest:
                table[i, d] = rest
            else:
                del table[i, d]
        terms.append((coefficient, degrees))
    return terms


def column_total_partial(j, k, e):
    """d(total_j)/de_k of the normalized pure diagram with gap vector e.

    Each factor of the Herzog-Kuhl product is a linear form d_b - d_a, with
    d_i = i + e_1 + ... + e_i, whose e_k-derivative is 1 when a < k <= b and 0
    otherwise; the product and quotient rules then give the derivative exactly.
    """
    d = [Fraction(0)]
    for x in e:
        d.append(d[-1] + 1 + Fraction(x))
    s = len(e)
    numerator_forms = [(0, i) for i in range(1, s + 1) if i != j]
    denominator_forms = [(i, j) for i in range(1, j)] + [(j, i) for i in range(j + 1, s + 1)]

    def product_and_derivative(forms):
        value, derivative = Fraction(1), Fraction(0)
        for a, b in forms:
            form = d[b] - d[a]
            derivative = derivative * form + (value if a < k <= b else 0)
            value *= form
        return value, derivative

    n, dn = product_and_derivative(numerator_forms)
    m, dm = product_and_derivative(denominator_forms)
    return (dn * m - n * dm) / (m * m)


def pure_total_split(j, s, t, e1):
    """Column-j total, 1 < j < s, on the slice e = e1*u_1 + t*e1*u_j + (1-t)*e1*u_{j+1}.

    Closed product form for 0 <= t <= 1 and e1 >= 0:

        [(1+e1)...(j-1+e1) * (j+1+2e1)...(s+2e1)]
        / [(j-1+t*e1)...(1+t*e1) * (1+(1-t)*e1)...((s-j)+(1-t)*e1)]
    """
    t, e1 = Fraction(t), Fraction(e1)
    value = Fraction(1)
    for i in range(1, j):
        value *= (i + e1) / (i + t * e1)
    for i in range(j + 1, s + 1):
        value *= i + 2 * e1
    for i in range(1, s - j + 1):
        value /= i + (1 - t) * e1
    return value


def dense_scan(diagram):
    """Recompute column totals, extreme degrees, and regularity from a dense table."""
    items = diagram.items()
    imax = max(i for (i, _), _ in items)
    jmin = min(j for (_, j), _ in items)
    jmax = max(j for (_, j), _ in items)
    dense = [[Fraction(0)] * (jmax - jmin + 1) for _ in range(imax + 1)]
    for (i, j), value in items:
        dense[i][j - jmin] += value
    totals = [sum(row, Fraction(0)) for row in dense]
    min_deg = []
    max_deg = []
    for row in dense:
        support = [jmin + c for c, v in enumerate(row) if v]
        if not support:
            min_deg = max_deg = None
            break
        min_deg.append(min(support))
        max_deg.append(max(support))
    reg = max(j - i for i in range(imax + 1) for j in range(jmin, jmax + 1) if dense[i][j - jmin])
    return {
        "totals": totals,
        "min_degrees": tuple(min_deg) if min_deg is not None else None,
        "max_degrees": tuple(max_deg) if max_deg is not None else None,
        "regularity": reg,
    }


def random_sparse_diagram(rng: random.Random, max_i=4, max_j=8, entries=6):
    cells = (max_i + 1) * (max_j + 3)
    if entries > cells:
        raise ValueError(f"{entries} entries do not fit in {cells} cells")
    table = {}
    while len(table) < entries:
        i = rng.randint(0, max_i)
        j = rng.randint(-2, max_j)
        table[i, j] = Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 4, 6)))
    return BettiDiagram(table)


def random_chain(rng: random.Random, s: int, n_terms: int, step=2):
    """Chain of degree sequences of fixed length, nondecreasing termwise."""
    current = [0]
    for _ in range(s):
        current.append(current[-1] + 1 + rng.randint(0, step))
    chain = [tuple(current)]
    for _ in range(n_terms - 1):
        bumped = list(chain[-1])
        for idx in range(s, 0, -1):
            ceiling = bumped[idx + 1] - 1 if idx < s else bumped[idx] + step
            bumped[idx] = rng.randint(bumped[idx], max(bumped[idx], ceiling))
        chain.append(tuple(bumped))
    return chain


def pure_sum(terms):
    """The diagram sum of c * pi(d) over (c, d) in terms, summed in a plain dict
    from the equation solver."""
    table = {}
    for coefficient, degrees in terms:
        for i, total in enumerate(hk_equation_solve(degrees)):
            table[i, degrees[i]] = table.get((i, degrees[i]), 0) + coefficient * total
    return BettiDiagram(table)


def random_pure_combination(rng: random.Random, s_max=4, max_terms=3):
    """Integral multiple of a random nonnegative-integer chain combination."""
    s = rng.randint(1, s_max)
    chain = random_chain(rng, s, rng.randint(1, max_terms))
    terms = [(rng.randint(1, 5), degrees) for degrees in chain]
    clear = math.lcm(*(value.denominator for _, value in pure_sum(terms).items()))
    return pure_sum((clear * c, degrees) for c, degrees in terms)


def _rank(rows):
    """Rank over Q: eliminate with the last row until no row is left."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next((c for c, x in enumerate(pivot) if x), None)
        if col is None:
            continue
        rank += 1
        for n, row in enumerate(rows):
            if row[col]:
                factor = row[col] / pivot[col]
                rows[n] = [a - factor * b for a, b in zip(row, pivot)]
    return rank


def upper_koszul_betti(ideal):
    """Betti numbers {(i, degree): count} of S/I from upper Koszul complexes.

    For a multidegree m, K^m = {F subset of supp m : x^(m - F) lies in I} and
    beta_{i,m}(S/I) = dim reduced H_{i-2}(K^m) for i >= 1 (Miller-Sturmfels,
    Combinatorial Commutative Algebra, Thm 1.34).  Only lcms of generators
    can carry Betti numbers, so m runs over the LCM lattice, built by closing
    the generators under lcm; beta_{0,0} = 1 is added by hand.  The formula
    needs m != 0, which holds unless I is the unit ideal, whose S/S = 0 has
    no Betti numbers.
    """
    gens = [tuple(g) for g in ideal.generators]
    if (0,) * ideal.nvars in gens:
        return {}
    lattice = set(gens)
    frontier = lattice
    while frontier:
        frontier = {tuple(map(max, m, g)) for m in frontier for g in gens} - lattice
        lattice |= frontier
    betti = {(0, 0): 1}
    for m in lattice:
        support = [k for k, x in enumerate(m) if x]

        def in_ideal(face):
            point = [x - (k in face) for k, x in enumerate(m)]
            return any(all(a <= b for a, b in zip(g, point)) for g in gens)

        # faces[k]: the k-dimensional faces, as sorted vertex tuples; k = -1 is the empty face
        faces = {}
        for size in range(len(support) + 1):
            for face in combinations(support, size):
                if in_ideal(face):
                    faces.setdefault(size - 1, []).append(face)

        def boundary_rank(k):
            if k not in faces or k - 1 not in faces:
                return 0
            position = {face: n for n, face in enumerate(faces[k - 1])}
            rows = []
            for face in faces[k]:
                row = [0] * len(position)
                for v in range(len(face)):
                    row[position[face[:v] + face[v + 1 :]]] = (-1) ** v
                rows.append(row)
            return _rank(rows)

        for k, level in faces.items():
            homology = len(level) - boundary_rank(k) - boundary_rank(k + 1)
            if homology:
                key = (k + 2, sum(m))
                betti[key] = betti.get(key, 0) + homology
    return betti


def taylor_oracle_betti(ideal):
    """Betti numbers {(i, degree): count} of S/I from the Taylor complex.

    The i-subsets of generators sit in the multidegree of their lcm; tensored
    with the field, the boundary keeps the face dropping the v-th generator
    with sign (-1)^v when its lcm is the same.  Each multidegree's strand is
    split off and its homology taken with this module's own rank.  Meant for
    at most about 10 generators.
    """
    gens = [tuple(g) for g in ideal.generators]
    strands = {}
    for size in range(len(gens) + 1):
        for subset in combinations(range(len(gens)), size):
            m = tuple(max((gens[k][v] for k in subset), default=0) for v in range(ideal.nvars))
            strands.setdefault(m, {}).setdefault(size, []).append(subset)
    betti = {}
    for m, levels in strands.items():

        def boundary_rank(size):
            if size not in levels or size - 1 not in levels:
                return 0
            position = {subset: n for n, subset in enumerate(levels[size - 1])}
            rows = []
            for subset in levels[size]:
                row = [0] * len(position)
                for v in range(size):
                    face = subset[:v] + subset[v + 1 :]
                    if face in position:
                        row[position[face]] = (-1) ** v
                rows.append(row)
            return _rank(rows)

        for size, level in levels.items():
            homology = len(level) - boundary_rank(size) - boundary_rank(size + 1)
            if homology:
                key = (size, sum(m))
                betti[key] = betti.get(key, 0) + homology
    return betti


def subset_numerator(ideal):
    """Hilbert numerator of S/I by inclusion-exclusion: sum of (-1)^|A| t^(deg lcm A).

    Returned as a plain {degree: nonzero int} dict, merged and pruned here, not
    by the library.

    A runs over all 2^r subsets of the r generators, so r is held to at most 20.
    """
    gens = [tuple(g) for g in ideal.generators]
    if len(gens) > 20:
        raise ValueError(f"{len(gens)} generators: 2^r subsets is too many")
    terms = {}
    for size in range(len(gens) + 1):
        for subset in combinations(gens, size):
            degree = sum(max((g[v] for g in subset), default=0) for v in range(ideal.nvars))
            terms[degree] = terms.get(degree, 0) + (-1) ** size
    return {degree: coefficient for degree, coefficient in terms.items() if coefficient}


def random_monomial_ideal(rng: random.Random, max_vars=4, max_gens=8, max_exponent=3):
    """Up to max_gens random nonconstant monomials, none dividing another."""
    nvars = rng.randint(1, max_vars)
    count = rng.randint(1, max_gens)
    gens = []
    for _ in range(50 * count):
        g = tuple(rng.randint(0, max_exponent) for _ in range(nvars))
        comparable = any(
            all(a <= b for a, b in zip(g, h)) or all(a >= b for a, b in zip(g, h)) for h in gens
        )
        if any(g) and not comparable:
            gens.append(g)
            if len(gens) == count:
                break
    return minimalize(nvars, gens)


def random_equigenerated_ideal(rng: random.Random, max_gens=9):
    """Between 3 and max_gens distinct monomials of one degree in 2 or 3 variables.

    Many subsets of such generators share an lcm with a small support, which
    is where a Betti engine can trade a Taylor strand for an upper Koszul
    complex.
    """
    nvars = rng.randint(2, 3)
    count = rng.randint(3, max_gens)
    degree = rng.randint(2, 6)
    while math.comb(degree + nvars - 1, nvars - 1) < count:
        degree += 1
    monomials = [
        tuple(combo.count(v) for v in range(nvars))
        for combo in combinations_with_replacement(range(nvars), degree)
    ]
    return minimalize(nvars, rng.sample(monomials, count))


# an 8-variable ideal whose maximal degrees (0, 9, 10, 10) increase only weakly
WEAK_MAX_DEGREE_IDEAL = (
    8,
    (
        (0, 0, 2, 1, 0, 0, 0, 0),
        (1, 2, 1, 0, 1, 0, 0, 0),
        (0, 0, 2, 0, 1, 2, 0, 1),
        (2, 1, 1, 2, 0, 1, 0, 0),
        (1, 2, 0, 2, 1, 2, 0, 1),
    ),
)


MONOMIAL_FAMILIES = (
    "power-of-maximal(2,2)",
    "power-of-maximal(2,3)",
    "power-of-maximal(3,1)",
    "power-of-maximal(3,2)",
    "power-of-maximal(4,1)",
    "vplusm(2,2,x0^2)",
    "vplusm(2,3,x0^3)",
    "vplusm(3,2,x0^2,x0*x1)",
    "square-free-example(3)",
    "square-free-example(4)",
)


def monomial_corpus():
    ideals = [(name, corpus(name)) for name in MONOMIAL_FAMILIES]
    ideals.append(("two-generators", minimalize(2, [(2, 0), (1, 1)])))
    return ideals


def corpus_diagrams():
    """Named module diagrams exercised across the pipeline tests."""
    diagrams = {f"koszul-{n}": koszul(n) for n in range(1, 7)}
    diagrams["quotient-x2-xy"] = BettiDiagram({(0, 0): 1, (1, 2): 2, (2, 3): 1})
    diagrams["generic-2x3"] = BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    for name, ideal in monomial_corpus():
        diagrams[f"monomial-{name}"] = taylor_betti(ideal)
    return diagrams
