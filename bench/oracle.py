"""Expected results for the benchmark's checks, computed without the library.

Nothing here imports `bettibounds`.  Pure-diagram totals come from the
Herzog-Kuhl product in integer arithmetic; Betti numbers of monomial
quotients come from upper Koszul simplicial complexes on the LCM lattice
(Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), a different
algorithm from the library's Taylor complex; Hilbert numerators come from
inclusion-exclusion over generator subsets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


# -- pure diagrams ---------------------------------------------------------------


def pure_totals(degrees):
    """Column totals of the normalized pure diagram of a strictly increasing sequence."""
    s = len(degrees) - 1
    out = [Fraction(1)]
    for j in range(1, s + 1):
        num = den = 1
        for i in range(1, s + 1):
            if i != j:
                num *= degrees[i] - degrees[0]
                den *= abs(degrees[i] - degrees[j])
        out.append(Fraction(num, den))
    return tuple(out)


def combine_pure(terms):
    """Sparse diagram {(i, d_i): value} of sum of coefficient * pure diagram."""
    table = {}
    for coefficient, degrees in terms:
        for i, total in enumerate(pure_totals(degrees)):
            key = (i, degrees[i])
            table[key] = table.get(key, Fraction(0)) + coefficient * total
    return {k: v for k, v in table.items() if v}


# -- scan ------------------------------------------------------------------------

SCAN_HEADER = "degrees;s;shape;beh_pass;first_violating_j;betti_totals"


def _first_below_floor(values, s):
    for j in range(s + 1):
        if values[j] < math.comb(s, j):
            return j
    return None


def _flag(value):
    return "true" if value else "false"


def scan_rows(mode, s, d_max):
    """CSV finding rows of one `scan` mode at a single s, in enumeration order.

    Each row is paired with the last degree of its sequence, so a slice with a
    smaller d_max is a filter of this list.
    """
    rows = []
    for upper in combinations(range(1, d_max + 1), s):
        degrees = (0,) + upper
        totals = pure_totals(degrees)
        shape = degrees[s] - s <= 2 * degrees[1] - 2
        raw = _first_below_floor(totals, s)
        if mode == "shape-verify":
            if not (shape and raw is not None):
                continue
            row = (True, False, raw)
        else:
            multiple = math.lcm(*(v.denominator for v in totals))
            scaled = _first_below_floor([multiple * v for v in totals], s)
            if scaled is None or (mode == "integral-violations" and multiple > 2):
                continue
            row = (shape, raw is None, scaled)
        text = ";".join(
            [
                ",".join(map(str, degrees)),
                str(s),
                _flag(row[0]),
                _flag(row[1]),
                str(row[2]),
                ",".join(map(str, totals)),
            ]
        )
        rows.append((degrees[s], text))
    return rows


# -- diagrams ----------------------------------------------------------------------


def hilbert_numerator(table):
    """{degree: coefficient} of sum (-1)^i * value * t^j over a diagram table."""
    out = {}
    for (i, j), value in table.items():
        out[j] = out.get(j, 0) + (-value if i % 2 else value)
    return {k: v for k, v in out.items() if v}


def vanishing_order_at_one(poly):
    """Largest c with (1 - t)^c dividing a nonzero Laurent polynomial."""
    low, high = min(poly), max(poly)
    coeffs = [poly.get(k, 0) for k in range(low, high + 1)]
    order = 0
    while sum(coeffs) == 0:
        # divide by (1 - t): the quotient's coefficients are prefix sums
        running, quotient = 0, []
        for c in coeffs[:-1]:
            running += c
            quotient.append(running)
        coeffs = quotient
        order += 1
    return order


def column_extremes(table, pick):
    columns = {}
    for i, j in table:
        columns.setdefault(i, []).append(j)
    return tuple(pick(columns[i]) for i in range(max(columns) + 1))


def beh_report_lines(table, codim):
    """Expected `check-beh` table output and exit code for a diagram whose
    generators sit in degrees <= 0 and whose column 1 is nonempty."""
    totals = [sum((v for (i, _), v in table.items() if i == c), Fraction(0))
              for c in range(max(i for i, _ in table) + 1)]
    beta0 = totals[0]
    low = column_extremes(table, min)
    regularity = max(j - i for i, j in table)
    hypothesis = column_extremes(table, max)[0] <= 0 and regularity <= 2 * low[1] - 2
    lines = [f"codim: {codim}", f"beta0: {beta0}", f"hypothesis met: {_flag(hypothesis)}"]
    passed = True
    for j in range(codim + 1):
        actual = totals[j] if j < len(totals) else Fraction(0)
        required = beta0 * math.comb(codim, j)
        passed &= actual >= required
        lines.append(f"j={j}: {actual} {'>=' if actual >= required else '<'} {required}")
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    return lines, 0 if passed else 1


# -- monomial ideals -------------------------------------------------------------------


def minimal_generators(generators):
    vectors = {tuple(g) for g in generators}
    return sorted(
        g for g in vectors
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in vectors)
    )


def subset_lcms(generators):
    """lcm of every subset (the empty one included), indexed by bit mask."""
    nvars = len(generators[0])
    lcm_of = [(0,) * nvars]
    for mask in range(1, 1 << len(generators)):
        low = mask & -mask
        g = generators[low.bit_length() - 1]
        lcm_of.append(tuple(map(max, lcm_of[mask ^ low], g)))
    return lcm_of


def subset_numerator(generators):
    """Hilbert numerator of S/I by inclusion-exclusion over generator subsets."""
    out = {}
    for mask, lcm in enumerate(subset_lcms(generators)):
        degree = sum(lcm)
        out[degree] = out.get(degree, 0) + (-1 if bin(mask).count("1") % 2 else 1)
    return {k: v for k, v in out.items() if v}


def _rank(rows):
    """Rank over the rationals of an integer matrix, by fraction-free elimination."""
    matrix = [list(row) for row in rows]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col]
            if factor:
                row = [top[col] * a - factor * b for a, b in zip(matrix[r], top)]
                common = math.gcd(*row)
                matrix[r] = [x // common for x in row] if common > 1 else row
        rank += 1
    return rank


def _reduced_homology(faces):
    """{k: dim of reduced homology in dimension k - 1} for faces given as bit masks."""
    by_size = {}
    for face in faces:
        by_size.setdefault(bin(face).count("1"), []).append(face)
    ranks = {}
    for size, group in by_size.items():
        below = {face: n for n, face in enumerate(by_size.get(size - 1, ()))}
        if not below:
            continue
        rows = []
        for face in group:
            row = [0] * len(below)
            sign = 1
            for bit in range(face.bit_length()):
                if face >> bit & 1:
                    row[below[face ^ (1 << bit)]] = sign
                    sign = -sign
            rows.append(row)
        ranks[size] = _rank(rows)
    return {
        size: len(group) - ranks.get(size, 0) - ranks.get(size + 1, 0)
        for size, group in by_size.items()
    }


def betti_table(generators):
    """Graded Betti numbers {(i, degree): count} of S/I, I the monomial ideal.

    beta_{i,m}(S/I) = dim H~_{i-2}(K^m) for m in the LCM lattice, where K^m is
    the set of squarefree F within supp(m) with x^(m - F) in I.
    """
    generators = minimal_generators(generators)
    table = {(0, 0): 1}
    for m in set(subset_lcms(generators)[1:]):
        support = [v for v, e in enumerate(m) if e]
        facets = set()
        for g in generators:
            if all(a <= b for a, b in zip(g, m)):
                facets.add(sum(1 << k for k, v in enumerate(support) if g[v] < m[v]))
        if (1 << len(support)) - 1 in facets:
            continue  # K^m is a full simplex, hence acyclic
        faces = [f for f in range(1 << len(support)) if any(f & ~a == 0 for a in facets)]
        for size, dim in _reduced_homology(faces).items():
            if dim:
                key = (size + 1, sum(m))
                table[key] = table.get(key, 0) + dim
    return table


def eagon_northcott(n, d):
    """Betti table of S/m^d in n variables."""
    table = {(0, 0): 1}
    for i in range(1, n + 1):
        table[i, d + i - 1] = math.comb(n + d - 1, d + i - 1) * math.comb(d + i - 2, i - 1)
    return table


def square_free_pairs(k):
    """Betti table of S/I, I generated by all x_a x_b with a < b among k variables."""
    table = {(0, 0): 1}
    for i in range(1, k):
        table[i, i + 1] = i * math.comb(k, i + 1)
    return table
