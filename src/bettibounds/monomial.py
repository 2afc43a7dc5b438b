"""Exact Betti diagrams of monomial quotients, in closed form or strand by strand.

The generators are first split into components that share no variable.  With
J and K in disjoint variables, Tor_i(S/J, S/K) = 0 for i > 0, so the tensor
product of minimal free resolutions of S/J and S/K is a minimal free
resolution of their tensor product S/(J + K), and the graded Betti
polynomials sum beta_{i,j} u^i t^j of the components multiply.  Variables
that no generator uses are in no component.

Each component is coded once as a compressed polarization (Herzog-Hibi,
Monomial Ideals, Sec. 1.6): variable k gets a field of one bit per distinct
nonzero exponent it has among the generators, then a zero guard bit, and its
j-th smallest exponent is coded as the field's lowest j bits.  The map keeps
the order of exponents and the run of max(a, b) is the or of the two runs, so
code(lcm(a, b)) = code(a) | code(b) and g divides m exactly when
code(g) & ~code(m) == 0.  Each lcm of generators takes, at each k, some
generator's exponent, and a run's length gives it back.

The closed form takes four steps.  (1) So the codes are an isomorphism of LCM
lattices.  (2) The square-free ideal of the codes then has the same
multigraded Betti numbers, beta_{i,m} = beta_{i,code(m)} (Gasharov-Peeva-
Welker, The lcm-lattice in monomial resolutions, 1999).  (3) If the codes
have an order of nondecreasing popcount in which each colon
(u_1, ..., u_{j-1}) : u_j is generated by a set of bits, set(u_j), a minimal
resolution has one basis element in multidegree u * x_F at level |F| + 1 for
each u and F in set(u) (Herzog-Takayama, Resolutions by mapping cones, 2002).
(4) The j-th bit b of a field weighs w_b, the field's j-th smallest exponent
less its (j-1)-th, and guard bits weigh nothing, so a code's degree is the
sum of its bits' weights.  A bit b is in set(u) only when v & ~u = b for an earlier v,
so b is the next bit above u's run in its field: the bits of set(u) lie in
distinct fields, and u * x_F has degree deg u + sum over b in F of w_b.  So
u adds s t^(deg u) prod over w of (1 + s t^w)^n_w, n_w the number of bits of
set(u) of weight w, to the Betti polynomial of S/I: C(|set(u)|, i-1) at
(i, i-1+deg u) when every weight is 1.  Every ideal in two variables
qualifies.  A miss of the greedy search, as for a generator that another
divides or repeats, costs only speed.

Otherwise only the elements m of the LCM lattice carry Betti numbers.  In the
code of m, top = m & ~(m >> 1) holds the top bit of the field of each k in
supp m (the guard keeps the next field out), and g | m holds it exactly when
g_k = m_k: top & ~g is the facet Phi_g below, with k relabelled as that bit,
in order, so every facet, face order and boundary sign is kept.  The lattice
is grown by join closure, r joins per element for r generators: each m keeps
the number of generator subsets with lcm m (the cells of the m-strand of the
Taylor complex tensored with the field, whose homology at position i is
beta_{i,m}), their signed count, the sum of (-1)^|cell| over them, and their
union, which is D(m), the generators dividing m.  Each strand is settled from
the facets Phi_g = {k : g_k < m_k}, g in D(m), of the upper Koszul complex
K^m = {F subset of supp m : x^(m - F) in I}; beta_{i,m} = dim reduced
H_{i-2}(K^m) (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34):

* a strand of one cell, D(m) itself, has no boundary and gives beta = 1 at
  its size;
* a strand on at most three variables is settled from its signed count
  alone.  (a) The m-strand of the Taylor complex computes beta_{i,m}, so its
  signed count is sum (-1)^i beta_{i,m}.  (b) K^m lives on the vertices supp
  m; on at most three, reduced H_1 is nonzero only when K^m holds all three
  edges and not the triangle, and then K^m is connected, so at most one
  reduced homology group is nonzero: H_{-1}, exactly when K^m is the empty
  face alone, that is when every g in D(m) is m, giving beta_{1,m} =
  -signed; else H_0, beta_{2,m} = signed, when positive; else H_1,
  beta_{3,m} = -signed.  (c) Four variables are too many: for (x2 x3, x1 x3,
  x0 x3, x0 x1 x2) K^m at m = x0 x1 x2 x3 is a hollow triangle beside a
  point, with beta_{2,m} = beta_{3,m} = 1 and signed count 0;
* a strand is skipped when some Phi_g is all of supp m: K^m is then the full
  simplex on supp m and has no reduced homology;
* K^m is used when a bound on its faces, the smaller of 2^|supp m| and the
  sum of 2^|Phi_g|, is below the strand's cell count;
* otherwise the Taylor strand itself: the subsets of D(m) that meet, for each
  k in supp m, the generators g with g_k = m_k.  A generator that is alone
  there for some k is in every cell, and only the others are enumerated.

Both complexes have bitmask cells and share one homology routine; its ranks
come from fraction-free integer elimination.  Characteristic zero throughout.
The unit ideal, generated by 0, gives S/S = 0 and the empty diagram.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, islice
from typing import Iterable, Iterator, Sequence, Tuple

from .diagram import BettiDiagram, load_json
from .errors import FormatError, TooManyGeneratorsError

MAX_GENERATORS = 20


def _check_generator_count(count: int, lower_bound: bool = False) -> None:
    """Refuse more than MAX_GENERATORS generators; a lower bound is not printed."""
    if count > MAX_GENERATORS:
        shown = f"more than {MAX_GENERATORS}" if lower_bound else count
        raise TooManyGeneratorsError(f"{shown} generators exceeds the guard of {MAX_GENERATORS}")


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generating set of a monomial ideal, as exponent vectors."""

    nvars: int
    generators: Tuple[Tuple[int, ...], ...]

    def to_json(self) -> str:
        return json.dumps({"nvars": self.nvars, "generators": [list(g) for g in self.generators]})

    @classmethod
    def from_json(cls, text: str) -> "MonomialIdeal":
        payload = load_json(text)
        if not isinstance(payload, dict) or not {"nvars", "generators"} <= set(payload):
            raise FormatError('ideal JSON must be an object with "nvars" and "generators"')
        nvars = payload["nvars"]
        if type(nvars) is not int or nvars < 1:  # bool is an int subclass
            raise FormatError(f"nvars must be a positive integer, got {nvars!r}")
        gens = payload["generators"]
        if not isinstance(gens, list) or not gens:
            raise FormatError("generators must be a nonempty list")
        # stop at the first minimal generator beyond the guard
        minimal = tuple(islice(_minimal_generators(nvars, gens), MAX_GENERATORS + 1))
        _check_generator_count(len(minimal), lower_bound=True)
        return cls(nvars, minimal)


def _divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimalize(nvars: int, generators: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Drop generators divisible by another; order the rest graded-lex.

    Each generator is a list or tuple of nvars entries of type int, each >= 0.
    """
    return MonomialIdeal(nvars, tuple(_minimal_generators(nvars, generators)))


def _minimal_generators(nvars: int, generators: Iterable[Sequence[int]]) -> Iterator[tuple]:
    """Check every generator, then yield the minimal ones in graded-lex order."""
    vectors = set()
    for g in generators:
        shaped = isinstance(g, (list, tuple)) and len(g) == nvars
        if not shaped or any(type(x) is not int or x < 0 for x in g):  # bool is an int subclass
            raise FormatError(f"generator must be a length-{nvars} list of ints >= 0: {g!r}")
        vectors.add(tuple(g))
    if not vectors:
        raise FormatError("need at least one generator")
    # a strict divisor has a smaller degree, so it comes first in graded-lex
    # order, and only the minimal generators of smaller degree need to be
    # tried: two distinct vectors of one degree never divide each other
    lower, same, degree = [], [], None
    for d, g in sorted((sum(g), g) for g in vectors):
        if d != degree:
            lower += same
            same, degree = [], d
        if not any(_divides(m, g) for m in lower):
            same.append(g)
            yield g


def _rational_rank(rows) -> int:
    """Rank over Q of a matrix given as a list of integer row lists.

    Fraction-free elimination: the last row is the pivot, and every other row
    r with entry f in the pivot's column c becomes p*r - f*pivot, p = pivot[c],
    divided by the gcd of its entries.  Zero rows are dropped.
    """
    rows = [row for row in rows if any(row)]
    rank = 0
    while rows:
        pivot = rows.pop()
        rank += 1
        col = next(c for c, x in enumerate(pivot) if x)
        p = pivot[col]
        cleared = []
        for row in rows:
            f = row[col]
            if f:
                row = [p * a - f * b for a, b in zip(row, pivot)]
                g = math.gcd(*row)
                if not g:
                    continue
                row = [a // g for a in row]
            cleared.append(row)
        rows = cleared
    return rank


def _homology(cells) -> dict[int, int]:
    """Nonzero homology dimensions {level: dim} of a chain complex on bitmask cells.

    A cell's level is its popcount.  Its boundary drops one set bit at a time,
    lowest first, with alternating sign, and keeps the result only if it is a
    cell; each boundary map's rank comes from `_rational_rank`.
    """
    levels: dict[int, list[int]] = {}
    for cell in sorted(cells):
        levels.setdefault(cell.bit_count(), []).append(cell)
    ranks: dict[int, int] = {}
    for level, masks in levels.items():
        below = {mask: pos for pos, mask in enumerate(levels.get(level - 1, ()))}
        if not below:
            continue
        rows = []
        for mask in masks:
            row = [0] * len(below)
            sign, rest = 1, mask
            while rest:
                low = rest & -rest
                rest ^= low
                pos = below.get(mask ^ low)
                if pos is not None:
                    row[pos] = sign
                sign = -sign
            rows.append(row)
        # rank of the transpose equals the rank of the map
        ranks[level] = _rational_rank(rows)
    return {
        level: dim
        for level, masks in levels.items()
        if (dim := len(masks) - ranks.get(level, 0) - ranks.get(level + 1, 0))
    }


def _upper_koszul_faces(facets) -> set[int]:
    """Faces of K^m generated by the given facet bitmasks: every submask of each."""
    faces = set()
    for facet in facets:
        face = facet
        while True:  # every submask of the facet, the empty face last
            faces.add(face)
            if not face:
                break
            face = (face - 1) & facet
    return faces


def _settle(m, count, union, signed, codes) -> dict[int, int]:
    """{i: beta_{i,m}} for each nonzero Betti number of the quotient at the lcm m.

    `m` is the code of the lcm.  The m-strand's cells are the `count` subsets
    of the generators with lcm m, `signed` is the sum of (-1)^|cell| over
    them, and `union`, the bitmask of their union, is D(m): bit j is set when
    `codes[j]` divides m.  An acyclic strand gives {}.  The rules are the
    module docstring's, tried in its order, and homology of K^m is returned
    at its Betti level.
    """
    if count == 1:
        return {union.bit_count(): 1}  # a lone cell, D(m) itself, has no boundary
    top = m & ~(m >> 1)
    facets = [top & ~g for bit, g in enumerate(codes) if union >> bit & 1]
    if top.bit_count() <= 3:
        if not any(facets):
            return {1: -signed}  # K^m = {empty face}
        if not signed:
            return {}
        return {2: signed} if signed > 0 else {3: -signed}
    if top in facets:
        return {}  # a strict divisor: K^m is the full simplex on supp m
    faces = min(1 << top.bit_count(), sum(1 << facet.bit_count() for facet in facets))
    if faces < count:
        # beta_{i,m} = dim reduced H_{i-2}(K^m): a face of size k sits at i = k + 1
        return {level + 1: dim for level, dim in _homology(_upper_koszul_faces(facets)).items()}
    return _homology(_taylor_cells(top, facets))


def _taylor_cells(support, facets) -> list[int]:
    """The cells of the Taylor strand at m: the subsets of D(m) with lcm m.

    Bit j of a cell is the j-th generator of D(m), whose facet is facets[j].
    A subset has lcm m when the sets E_g = supp m - Phi_g = {k : g_k = m_k} of
    its members cover supp m.  A generator whose E_g holds some k that no other
    E_g holds is in every cell, so only the others are enumerated.
    """
    reached = [support & ~facet for facet in facets]
    once = twice = 0
    for e in reached:
        twice |= once & e
        once |= e
    alone = once & ~twice
    cells = [(0, 0)]  # (cell, the union of its E_g)
    for position, e in enumerate(reached):
        grown = [(cell | 1 << position, cover | e) for cell, cover in cells]
        cells = grown if e & alone else cells + grown
    return [cell for cell, cover in cells if cover == support]


def _linear_quotients(codes) -> list[tuple[int, int]] | None:
    """(u, set(u)) for each code u in a linear-quotient order, or None on a miss.

    The next code is the first one left of the lowest popcount left whose
    colon (u_1, ..., u_{j-1}) : u_j, generated by the w_i = u_i & ~u_j, is
    generated by bits: every w_i shares a bit with some w_k of one bit, the
    bitmask set(u_j).  A code an earlier one divides or repeats has w_i = 0.
    """
    pending = sorted((u.bit_count(), u) for u in codes)
    placed, quotients = [], []
    while pending:
        for pos, (size, u) in enumerate(pending):
            if size > pending[0][0]:
                return None
            variables, others = 0, []
            for v in placed:
                w = v & ~u
                if w and not w & (w - 1):
                    variables |= w
                else:
                    others.append(w)
            if all(w & variables for w in others):
                break
        else:
            return None
        del pending[pos]
        placed.append(u)
        quotients.append((u, variables))
    return quotients


def _polarization(gens):
    """(codes, weights): the compressed polarization of one component's generators.

    The j-th bit of a field weighs w, the field's j-th smallest exponent less
    its (j-1)-th; `weights` pairs each w with the mask of the bits of weight w.
    """
    codes = [0] * len(gens)
    weights = {}  # step -> the bits that weigh it
    offset = 0
    for column in zip(*gens):
        values = sorted(set(column) - {0})
        runs = {e: ((1 << j) - 1) << offset for j, e in enumerate(values, 1)}
        runs[0] = 0
        for n, e in enumerate(column):
            codes[n] |= runs[e]
        for j, (low, e) in enumerate(zip([0, *values], values)):
            weights[e - low] = weights.get(e - low, 0) | 1 << offset + j
        offset += len(values) + 1
    return codes, list(weights.items())


def _degree(m, weights) -> int:
    """Degree of the monomial whose code is m: the sum of the weights of its bits."""
    return sum(w * (m & mask).bit_count() for w, mask in weights)


def _times(p, q) -> dict[tuple[int, int], int]:
    """Product of two Betti polynomials {(i, j): beta_{i,j}}, the sums of beta_{i,j} s^i t^j."""
    product: dict[tuple[int, int], int] = {}
    for (i, j), a in p.items():
        for (k, d), b in q.items():
            product[i + k, j + d] = product.get((i + k, j + d), 0) + a * b
    return product


def _component_betti(gens) -> dict[tuple[int, int], int]:
    """{(level, degree): count} of the quotient by the generators of one component.

    The closed form when the codes have linear quotients; otherwise each m of
    the LCM lattice, grown by join closure on the codes, keeps the number and
    union of the generator subsets with lcm m and the sum of (-1)^|subset|
    over them, and `_settle` gives its Betti numbers.  Both as in the module
    docstring.
    """
    codes, weights = _polarization(gens)
    if (quotients := _linear_quotients(codes)) is not None:
        betti = {(0, 0): 1}
        for u, variables in quotients:
            terms = {(1, _degree(u, weights)): 1}  # u * x_F at level |F| + 1
            for w, mask in weights:  # times (1 + s t^w)^n
                if n := (variables & mask).bit_count():
                    terms = _times(terms, {(k, k * w): math.comb(n, k) for k in range(n + 1)})
            for key, c in terms.items():
                betti[key] = betti.get(key, 0) + c
        return betti
    lattice = {0: (1, 0, 1)}  # m: (cells, D(m), sum of (-1)^|cell|); the empty set at 0
    for bit, g in enumerate(codes):
        for m, (count, union, signed) in list(lattice.items()):
            join = m | g
            old_count, old_union, old_signed = lattice.get(join, (0, 0, 0))
            lattice[join] = (old_count + count, old_union | union | 1 << bit, old_signed - signed)
    betti: dict[tuple[int, int], int] = {}
    for m, (count, union, signed) in lattice.items():
        for level, dim in _settle(m, count, union, signed, codes).items():
            key = (level, _degree(m, weights))
            betti[key] = betti.get(key, 0) + dim
    return betti


def taylor_betti(ideal: MonomialIdeal) -> BettiDiagram:
    """Betti diagram of the quotient by a monomial ideal (characteristic zero).

    Each variable-disjoint component is coded as a compressed polarization,
    an LCM-lattice isomorphism, so its code ideal has the same multigraded
    Betti numbers (Gasharov-Peeva-Welker 1999).  With linear quotients of the
    codes in popcount order it is settled in closed form (Herzog-Takayama
    2002), u * x_F in degree deg u plus the weight of each bit of F;
    otherwise by the walk over its LCM lattice.  The components' Betti
    polynomials multiply.  At most MAX_GENERATORS generators either way.
    """
    _check_generator_count(len(ideal.generators))
    if not all(any(g) for g in ideal.generators):
        return BettiDiagram()  # the unit ideal: S/S = 0
    # generators that share a variable fall in one component; a variable that
    # no generator uses is in none
    components: list[tuple[int, list]] = []  # (variables bitmask, generators)
    for g in ideal.generators:
        variables, members = sum(1 << k for k, e in enumerate(g) if e), [g]
        for component in [c for c in components if c[0] & variables]:
            components.remove(component)
            variables |= component[0]
            members += component[1]
        components.append((variables, members))
    # the resolution of S/(J + K), J and K in disjoint variables, is the tensor
    # product of theirs: the Betti polynomials sum beta_{i,j} u^i t^j multiply
    betti = {(0, 0): 1}
    for variables, members in components:
        used = [k for k in range(variables.bit_length()) if variables >> k & 1]
        betti = _times(betti, _component_betti([tuple(g[k] for k in used) for g in members]))
    return BettiDiagram(betti)


# -- named parametric families ---------------------------------------------------

_FAMILY_RE = re.compile(r"\s*([a-z-]+)\s*\(([^)]*)\)\s*\Z")
_MONOMIAL_TERM_RE = re.compile(r"x(\d+)(?:\^(\d+))?\Z")


def _parse_monomial(text: str, nvars: int) -> dict[int, int]:
    """Parse "x0^2*x1" into {variable index: exponent}, sparse so that nvars may be vast."""
    exponents: dict[int, int] = {}
    for factor in text.split("*"):
        match = _MONOMIAL_TERM_RE.fullmatch(factor.strip())
        if not match:
            raise FormatError(f"cannot parse monomial factor {factor!r}")
        try:
            index, exponent = int(match.group(1)), int(match.group(2) or 1)
        except ValueError:  # the interpreter's limit on integer string conversion
            raise FormatError(
                f"monomial factor has a number of more than {sys.get_int_max_str_digits()} digits"
            ) from None
        if index >= nvars:
            raise FormatError(f"variable x{index} outside x0..x{nvars - 1}")
        exponents[index] = exponents.get(index, 0) + exponent
    return exponents


def _degree_monomials(nvars: int, degree: int) -> list:
    """All exponent vectors of the given total degree."""
    if nvars == 1:  # the only one, whose degree may be too large to spell out
        return [(degree,)]
    combos = combinations_with_replacement(range(nvars), degree)
    return [tuple(combo.count(v) for v in range(nvars)) for combo in combos]


def corpus(name: str) -> MonomialIdeal:
    """Named parametric families of monomial ideals.

    * power-of-maximal(n, d): all degree-d monomials in n variables.
    * vplusm(n, d, m1, m2, ...): the listed degree-d monomials together with
      every monomial of degree d + 1, minimalized.
    * square-free-example(k): all products of two distinct variables among k.

    A family given more arguments than it takes is refused.  More than
    MAX_GENERATORS minimal generators are refused before they are built, first
    by a lower bound, so the count is taken on bounded arguments.
    """
    match = _FAMILY_RE.fullmatch(name)
    if not match:
        raise FormatError(f"cannot parse family {name!r}")
    family, arg_text = match.group(1), match.group(2)
    args = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []

    def int_arg(position, minimum):
        try:
            value = int(args[position])
        except (IndexError, ValueError):
            raise FormatError(f"{family} needs an integer argument {position}") from None
        if value < minimum:
            raise FormatError(f"{family} argument {position} must be >= {minimum}")
        return value

    def at_most(count):
        if len(args) > count:
            raise FormatError(f"{family} has {len(args)} arguments; it takes {count}")

    if family == "power-of-maximal":
        at_most(2)
        n, d = int_arg(0, 1), int_arg(1, 1)
        if n > 1:  # C(n+d-1, d) generators, at least max(n, d + 1)
            _check_generator_count(max(n, d + 1), lower_bound=True)
            _check_generator_count(math.comb(n + d - 1, d))
        return minimalize(n, _degree_monomials(n, d))
    if family == "vplusm":
        n, d = int_arg(0, 1), int_arg(1, 1)
        if len(args) < 3:
            raise FormatError("vplusm needs at least one monomial argument")
        parsed = [_parse_monomial(text, n) for text in args[2:]]
        for text, exponents in zip(args[2:], parsed):
            if sum(exponents.values()) != d:
                # quotes the argument: the exponents may be too long to print
                raise FormatError(f"vplusm monomial {text!r} is not of degree {d}")
        # Generators: the L listed monomials, and the degree-(d+1) monomials that are
        # no listed m times x_i.  For each i, x_i^d or x_i^(d+1) is one; a listed m
        # divides at most two x0^a*x1^(d+1-a).  So n > 1 gives at least n and (d+2)/2.
        if n > 1:
            _check_generator_count(max(n, (d + 3) // 2), lower_bound=True)
        span = {tuple(m.get(v, 0) for v in range(n)) for m in parsed}
        covered = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in span for i in range(n)}
        _check_generator_count(len(span) + math.comb(n + d, d + 1) - len(covered))
        return minimalize(n, list(span) + _degree_monomials(n, d + 1))
    if family == "square-free-example":
        at_most(1)
        k = int_arg(0, 2)
        _check_generator_count(k - 1, lower_bound=True)
        _check_generator_count(math.comb(k, 2))
        pairs = combinations(range(k), 2)
        return minimalize(k, [tuple(int(v in pair) for v in range(k)) for pair in pairs])
    raise FormatError(f"unknown family {family!r}")
