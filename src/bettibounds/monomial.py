"""Exact Betti diagrams of monomial quotients, one multidegree strand at a time.

The lcm of every subset of the minimal generators is enumerated, and the
subsets are grouped by it: the subsets with lcm m index the m-strand of the
Taylor complex tensored with the field, whose homology at position i is the
Betti number beta_{i,m}.  Only such m (the LCM lattice) carry Betti numbers.
Each strand is settled from the facets Phi_g = {k : g_k < m_k} of the upper
Koszul complex K^m = {F subset of supp m : x^(m - F) in I}, one for each
generator g dividing m; beta_{i,m} = dim reduced H_{i-2}(K^m)
(Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34):

* a strand of one cell has no boundary and gives beta = 1 at its size;
* a strand is skipped when some Phi_g is all of supp m: K^m is then the full
  simplex on supp m and has no reduced homology.  At m = 0 this holds only
  for the unit ideal, generated by 0, whose Taylor strand {0, {g}} is acyclic;
* K^m is used when a bound on its faces, the smaller of 2^|supp m| and the
  sum of 2^|Phi_g|, is below the strand's cell count;
* otherwise the Taylor strand itself, which the generator guard bounds.

Both complexes have bitmask cells and share one homology routine; its ranks
come from fraction-free integer elimination.  Characteristic zero throughout.
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
    # order, and only the minimal generators yielded so far need to be tried
    minimal = []
    for g in sorted(vectors, key=lambda g: (sum(g), g)):
        if not any(_divides(m, g) for m in minimal):
            minimal.append(g)
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
    """Homology dimensions {level: dim} of a chain complex on bitmask cells.

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
        level: len(masks) - ranks.get(level, 0) - ranks.get(level + 1, 0)
        for level, masks in levels.items()
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


def _settle(multidegree, masks, gens):
    """(homology {level: count}, shift) of the m-strand on `masks`, or None if it is acyclic."""
    if len(masks) == 1:
        return {masks[0].bit_count(): 1}, 0  # a lone cell has no boundary
    support = sum(1 << k for k, b in enumerate(multidegree) if b)
    # the masks are increasing, so the last is the union of the strand: every
    # generator g dividing m, each with its facet Phi_g = {k : g_k < m_k} of K^m
    facets = []
    for bit, g in enumerate(gens):
        if masks[-1] >> bit & 1:
            facet = sum(1 << k for k, (a, b) in enumerate(zip(g, multidegree)) if a < b)
            if facet == support:
                return None  # a strict divisor: K^m is the full simplex on supp m
            facets.append(facet)
    faces = min(1 << support.bit_count(), sum(1 << facet.bit_count() for facet in facets))
    if faces < len(masks):
        # beta_{i,m} = dim reduced H_{i-2}(K^m): a face of size k sits at i = k + 1
        return _homology(_upper_koszul_faces(facets)), 1
    return _homology(masks), 0


def taylor_betti(ideal: MonomialIdeal) -> BettiDiagram:
    """Betti diagram of the quotient by a monomial ideal (characteristic zero)."""
    _check_generator_count(len(ideal.generators))
    # a variable that no generator uses is 0 in every lcm and changes no strand
    used = [k for k in range(ideal.nvars) if any(g[k] for g in ideal.generators)]
    gens = [tuple(g[k] for k in used) for g in ideal.generators]
    lcm_of = [(0,) * len(used)]  # the lcm of the subset with bitmask i at index i
    for g in gens:
        lcm_of += [tuple(map(max, m, g)) for m in lcm_of]
    strands: dict[tuple, list[int]] = {}
    for mask, multidegree in enumerate(lcm_of):
        strands.setdefault(multidegree, []).append(mask)

    betti: dict[tuple[int, int], int] = {}
    for multidegree, masks in strands.items():
        if (settled := _settle(multidegree, masks, gens)) is None:
            continue
        homology, shift = settled
        degree = sum(multidegree)
        for level, count in homology.items():
            if count:
                key = (level + shift, degree)
                betti[key] = betti.get(key, 0) + count
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
