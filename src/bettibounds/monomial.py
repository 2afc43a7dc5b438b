"""Exact Betti diagrams of monomial quotients, one multidegree strand at a time.

The lcm of every subset of the minimal generators is enumerated, and the
subsets are grouped by it: the subsets with lcm m index the m-strand of the
Taylor complex tensored with the field, whose homology at position i is the
Betti number beta_{i,m}.  Only such m (the LCM lattice) carry Betti numbers.
Each strand is taken on the smaller of two exact complexes:

* a strand of one cell has no boundary and gives beta = 1 at its size;
* when m != 0 and 2^|supp m| is below the strand's cell count, the upper
  Koszul complex K^m = {F subset of supp m : x^(m - F) in I} is used instead,
  with beta_{i,m} = dim reduced H_{i-2}(K^m) (Miller-Sturmfels, Combinatorial
  Commutative Algebra, Thm 1.34);
* otherwise the Taylor strand itself.

Both complexes have bitmask cells and share one homology routine with exact
rational elimination.  Characteristic zero throughout.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Sequence, Tuple

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

    def to_json_dict(self) -> dict:
        return {"nvars": self.nvars, "generators": [list(g) for g in self.generators]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

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
        return minimalize(nvars, gens)


def _divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimalize(nvars: int, generators: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Drop generators divisible by another; order the rest graded-lex.

    Each generator is a list or tuple of nvars entries of type int, each >= 0.
    """
    vectors = set()
    for g in generators:
        shaped = isinstance(g, (list, tuple)) and len(g) == nvars
        if not shaped or any(type(x) is not int or x < 0 for x in g):  # bool is an int subclass
            raise FormatError(f"generator must be a length-{nvars} list of ints >= 0: {g!r}")
        vectors.add(tuple(g))
    if not vectors:
        raise FormatError("need at least one generator")
    minimal = [
        g
        for g in vectors
        if not any(other != g and _divides(other, g) for other in vectors)
    ]
    return MonomialIdeal(nvars, tuple(sorted(minimal, key=lambda g: (sum(g), g))))


def _rational_rank(rows) -> int:
    """Rank of a matrix given as a list of row lists, by exact elimination."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(matrix[0]) if matrix else 0
    col = 0
    while rank < len(matrix) and col < ncols:
        pivot_row = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot_row is None:
            col += 1
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col] / pivot
            if factor:
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
        col += 1
    return rank


def _homology(cells) -> dict[int, int]:
    """Homology dimensions {level: dim} of a chain complex on bitmask cells.

    A cell's level is its popcount.  Its boundary drops one set bit at a time,
    lowest first, with alternating sign, and keeps the result only if it is a
    cell; each boundary map's rank comes from `_rational_rank`.
    """
    levels: dict[int, list[int]] = {}
    for cell in sorted(cells):
        levels.setdefault(bin(cell).count("1"), []).append(cell)
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


def _upper_koszul_faces(multidegree: Sequence[int], dividing) -> set[int]:
    """Faces of K^m = {F subset of supp m : x^(m - F) in I}, as variable bitmasks.

    x^(m - F) is divisible by a generator g exactly when g divides m and
    g_k < m_k for every k in F, so the facets are those coordinate sets.
    """
    faces = set()
    for g in dividing:
        facet = sum(1 << k for k, (a, b) in enumerate(zip(g, multidegree)) if a < b)
        face = facet
        while True:  # every submask of the facet, the empty face last
            faces.add(face)
            if not face:
                break
            face = (face - 1) & facet
    return faces


def taylor_betti(ideal: MonomialIdeal) -> BettiDiagram:
    """Betti diagram of the quotient by a monomial ideal (characteristic zero)."""
    gens = ideal.generators
    r = len(gens)
    _check_generator_count(r)
    lcm_of = [(0,) * ideal.nvars]
    strands: dict[tuple, list[int]] = {lcm_of[0]: [0]}
    for mask in range(1, 1 << r):
        low = mask & -mask
        multidegree = tuple(map(max, lcm_of[mask ^ low], gens[low.bit_length() - 1]))
        lcm_of.append(multidegree)
        strands.setdefault(multidegree, []).append(mask)

    betti: dict[tuple[int, int], int] = {}
    for multidegree, masks in strands.items():
        degree = sum(multidegree)
        support = sum(1 for x in multidegree if x)
        if len(masks) == 1:
            # a lone cell has no boundary
            homology, shift = {bin(masks[0]).count("1"): 1}, 0
        elif support and 1 << support < len(masks):
            # at m = 0, two cells mean the unit ideal, whose Taylor strand is acyclic
            # beta_{i,m} = dim reduced H_{i-2}(K^m): a face of size k sits at i = k + 1;
            # the masks are increasing, so the last is the union of the strand
            top = masks[-1]
            dividing = [g for b, g in enumerate(gens) if top >> b & 1]
            homology, shift = _homology(_upper_koszul_faces(multidegree, dividing)), 1
        else:
            homology, shift = _homology(masks), 0
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

    More than MAX_GENERATORS minimal generators are refused before they are
    built, first by a lower bound, so the count is taken on bounded arguments.
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

    if family == "power-of-maximal":
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
        k = int_arg(0, 2)
        _check_generator_count(k - 1, lower_bound=True)
        _check_generator_count(math.comb(k, 2))
        pairs = combinations(range(k), 2)
        return minimalize(k, [tuple(int(v in pair) for v in range(k)) for pair in pairs])
    raise FormatError(f"unknown family {family!r}")
