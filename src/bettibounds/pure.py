"""Normalized pure diagrams and the rational functions behind their column totals.

A pure diagram has exactly one nonzero entry per column, at degrees given by a
strictly increasing sequence (d_0, ..., d_s); normalizing the top entry to 1
forces every other entry through the Herzog-Kuhl product

    total_j = prod over i not in {0, j} of (d_i - d_0) / |d_i - d_j|.

One integer kernel, `hk_pair`, evaluates this product as an unreduced pair
of integers, for pure diagrams and for column totals in gap coordinates
e_i = d_i - d_{i-1} - 1: a rational gap vector is first cleared to integer
positions, which leaves the totals unchanged.  It is also the definition
`beh.scan` is held to: the scan builds a prefix d_1 < ... < d_{s-1}'s products
once and each last degree's pairs from them in O(s), and a test asserts those
pairs equal this kernel's, as unreduced integers.  A second integer kernel
gives the logarithmic gradient at the same positions.  In gap coordinates the
column total is a rational function of e with no poles on the closed
nonnegative orthant, which makes sign questions about its partial
derivatives exact finite computations.  The verify_* functions sample seeded
rational points and check those signs, plus the binomial floor
total_j >= C(s, j) on the region where the first gap dominates the rest;
the two gradient lemmas share their points and one log gradient per column.
Every sampled denominator divides 64, except that of the floor's boundary
point e = (x, 0, ..., 0, x*c/64), which divides 64^2.  So each point is
cleared to integer positions and every sign is decided on integers: the log
gradient as integer numerators over one positive common denominator, the
floor and its closed forms by cross-multiplying integer pairs.  Fractions are
built only for the rows a sweep reports.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .diagram import BettiDiagram, check_degree_sequence, format_rational
from .errors import DomainError

_SAMPLE_DENOMINATORS = (1, 2, 4, 8, 16, 32, 64)
_SAMPLE_SCALE = 64  # every sampled denominator divides it
# the cost of one sample grows steeply with s: all three sweeps over 10^4
# samples took 7.1 s at s_max 32 and 0.83 s at s_max 8 (Python 3.11, 2 vCPU)
MAX_SWEEP_S = 32


def hk_pair(p: Sequence[int], j: int) -> Tuple[int, int]:
    """Herzog-Kuhl column-j total at integer positions p_0 < ... < p_s.

    Returned as the unreduced integer pair (num, den); both are positive
    when the positions increase.  Differences are oriented (p_j - p_i below
    j, p_i - p_j above j), never absolute, so off the orthant every factor
    keeps its sign; a vanishing factor, possible only there, raises DomainError.
    """
    p0, pj = p[0], p[j]
    num = den = 1
    for pi in p[1:j]:
        num *= pi - p0
        den *= pj - pi
    for pi in p[j + 1 :]:
        num *= pi - p0
        den *= pi - pj
    if not num or not den:
        raise DomainError("a linear form vanishes at this point")
    return num, den


def herzog_kuhl(degrees: Sequence[int]) -> BettiDiagram:
    """Normalized pure diagram of a degree sequence via the Herzog-Kuhl product."""
    degrees = check_degree_sequence(degrees)
    return BettiDiagram(((j, d), Fraction(*hk_pair(degrees, j))) for j, d in enumerate(degrees))


def _shape_holds(top: int, reg: int, first: int) -> bool:
    """The shape condition on (top generator degree, regularity, minimal first-syzygy degree)."""
    return top <= 0 and reg <= 2 * first - 2


def pure_shape_check(degrees: Sequence[int]) -> bool:
    """True when d_0 <= 0 and d_s - s <= 2*d_1 - 2.

    Length-one sequences have no syzygy degree to constrain, so only d_0 <= 0
    is required of them.
    """
    degrees = check_degree_sequence(degrees)
    s = len(degrees) - 1
    if s == 0:
        return degrees[0] <= 0
    return _shape_holds(degrees[0], degrees[s] - s, degrees[1])


# -- gap coordinates -------------------------------------------------------------
#
# A gap vector e stands for the degrees d = (0, 1 + e_1, 2 + e_1 + e_2, ...).
# Scaling every degree by one factor leaves the column totals unchanged, so a
# rational e is cleared to the integer positions P = D*d, with D the lcm of the
# denominators of e, and evaluated by the same kernel as degree sequences.


def _as_gap_vector(e: Sequence) -> Tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in e)


def _gap_positions(scaled: Sequence[int], scale: int) -> List[int]:
    """Positions P_0 = 0, P_i = P_{i-1} + scale + x_i of the gap vector x/scale."""
    p = [0]
    for x in scaled:
        p.append(p[-1] + scale + x)
    return p


def _positions(e: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer positions of the gap vector e, and the scale D."""
    scale = math.lcm(*(x.denominator for x in e))
    return _gap_positions([x.numerator * (scale // x.denominator) for x in e], scale), scale


def _check_column(j: int, s: int):
    if not 1 <= j <= s:
        raise IndexError(f"column {j} outside 1..{s}")


def pure_total(j: int, e: Sequence) -> Fraction:
    """Column-j total of the normalized pure diagram with gap vector e >= 0."""
    e = _as_gap_vector(e)
    _check_column(j, len(e))
    if any(x < 0 for x in e):
        raise DomainError(f"gap vector must be nonnegative, got {e}")
    return Fraction(*hk_pair(_positions(e)[0], j))


def _log_gradient(p: Sequence[int], j: int) -> Tuple[List[int], int]:
    """Logarithmic gradient of the column-j total at integer positions p.

    A factor P_b - P_a of the kernel product equals D*(b - a + e_{a+1} + ... + e_b),
    so the k-th partial of log(total) is D times the sum of 1/(P_b - P_a) over
    the factors with a < k <= b, counted + in the numerator and - in the
    denominator.  Returned as integer numerators (G_1, ..., G_s) over one
    positive common denominator L, the lcm of those factors:
    d log(total)/de_k = D*G_k/L, so G_k carries the sign of the partial.
    No factor vanishes: they are those of `hk_pair`, at positions it accepts.
    """
    s = len(p) - 1
    p0, pj = p[0], p[j]
    below, above = p[1:j], p[j + 1 :]
    common = math.lcm(
        *(pi - p0 for pi in below),
        *(pi - p0 for pi in above),
        *(pj - pi for pi in below),
        *(pi - pj for pi in above),
    )
    grad = [0] * s
    # numerator factors containing e_k: P_i - P_0 with k <= i, i != j
    acc = 0
    for i in range(s, 0, -1):
        if i != j:
            acc += common // (p[i] - p0)
        grad[i - 1] = acc
    # denominator factors containing e_k: P_j - P_m with m < k <= j ...
    acc = 0
    for m in range(1, j):
        acc += common // (pj - p[m])
        grad[m] -= acc
    # ... and P_i - P_j with j < k <= i
    acc = 0
    for i in range(s, j, -1):
        acc += common // (p[i] - pj)
        grad[i - 1] -= acc
    return grad, common


def pure_total_partial(j: int, k: int, e: Sequence) -> Fraction:
    """Exact partial derivative of the column-j total with respect to e_k."""
    e = _as_gap_vector(e)
    _check_column(j, len(e))
    _check_column(k, len(e))
    p, scale = _positions(e)
    num, den = hk_pair(p, j)
    grad, common = _log_gradient(p, j)
    return Fraction(num * scale * grad[k - 1], den * common)


# -- seeded verification sweeps ---------------------------------------------------


@dataclass(frozen=True)
class Violation:
    e: Tuple[Fraction, ...]
    j: int
    k: Optional[int]
    value: Fraction

    def to_json_dict(self) -> dict:
        return {
            "e": [format_rational(x) for x in self.e],
            "j": self.j,
            "k": self.k,
            "value": format_rational(self.value),
        }


@dataclass(frozen=True)
class VerifyReport:
    name: str
    samples: int
    seed: int
    s_max: int
    violations: Tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.name,
            "samples": self.samples,
            "seed": self.seed,
            "violations": [v.to_json_dict() for v in self.violations],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return f"{self.name}: {self.samples} samples, seed {self.seed}, s <= {self.s_max}: {status}"


def _sample_coordinate(rng: random.Random, max_value: int = 10) -> int:
    """One gap coordinate with a denominator dividing 64, returned times 64."""
    # zero with probability 1/8 so boundary points of the orthant get exercised
    if rng.random() < 0.125:
        return 0
    den = rng.choice(_SAMPLE_DENOMINATORS)
    return rng.randint(0, max_value * den) * (_SAMPLE_SCALE // den)


def _sample_gap_vector(rng: random.Random, s: int, max_value: int = 10) -> List[int]:
    return [_sample_coordinate(rng, max_value) for _ in range(s)]


def _gap_vector(scaled: Sequence[int], scale: int = _SAMPLE_SCALE) -> Tuple[Fraction, ...]:
    return tuple(Fraction(x, scale) for x in scaled)


def _gradient_violation(
    scaled: Sequence[int], p: Sequence[int], j: int, k: int, g: int, common: int
) -> Violation:
    """Row at the gap vector scaled/64, at positions p, valued total_j * 64*g/common.

    That is d(total_j)/de_k for g = G_k, and (d/de_lead - d/de_k) total_j for g = G_lead - G_k."""
    num, den = hk_pair(p, j)
    return Violation(_gap_vector(scaled), j, k, Fraction(num * _SAMPLE_SCALE * g, den * common))


def _check_sweep(s_max: int, samples: int):
    if s_max < 1:
        raise DomainError(f"s_max must be >= 1, got {s_max}")
    if s_max > MAX_SWEEP_S:
        raise DomainError(f"s_max must be at most {MAX_SWEEP_S}, got {s_max}")
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")


@functools.lru_cache(maxsize=1, typed=True)  # verify-lemmas asks it twice with one key
def _gradient_sweep(s_max: int, samples: int, seed: int) -> Tuple[Tuple[Violation, ...], ...]:
    """Rows of both gradient lemmas, from one log-gradient per sampled column."""
    rng = random.Random(seed)
    first_gap, inward = [], []
    for _ in range(samples):
        s = rng.randint(1, s_max)
        x = _sample_gap_vector(rng, s)
        p = _gap_positions(x, _SAMPLE_SCALE)
        for j in range(1, s + 1):
            grad, common = _log_gradient(p, j)
            if grad[0] < 0:
                first_gap.append(_gradient_violation(x, p, j, 1, grad[0], common))
            for k in range(1, j):
                if (g := grad[j - 1] - grad[k - 1]) > 0:
                    inward.append(_gradient_violation(x, p, j, k, g, common))
            for k in range(j + 2, s + 1):
                if (g := grad[j] - grad[k - 1]) > 0:
                    inward.append(_gradient_violation(x, p, j, k, g, common))
    return tuple(first_gap), tuple(inward)


def verify_first_gap_monotone(s_max: int, samples: int, seed: int) -> VerifyReport:
    """Check d(total_j)/de_1 >= 0 at seeded rational points of the orthant."""
    _check_sweep(s_max, samples)
    violations = _gradient_sweep(s_max, samples, seed)[0]
    return VerifyReport("first-gap-monotonicity", samples, seed, s_max, violations)


def verify_inward_shift_monotone(s_max: int, samples: int, seed: int) -> VerifyReport:
    """Check that shifting gap mass toward columns j, j+1 never raises total_j.

    Two sign conditions per column: (d/de_j - d/de_k) total_j <= 0 for k < j,
    and (d/de_{j+1} - d/de_k) total_j <= 0 for k > j + 1.
    """
    _check_sweep(s_max, samples)
    violations = _gradient_sweep(s_max, samples, seed)[1]
    return VerifyReport("inward-shift-monotonicity", samples, seed, s_max, violations)


def verify_binomial_floor(s_max: int, samples: int, seed: int) -> VerifyReport:
    """Check total_j >= C(s, j) when the first gap dominates the others.

    Sampled points satisfy e_1 >= e_2 + ... + e_s.  The boundary columns also
    get their closed forms asserted: for e = (x, 0, ..., 0),

        total_1 = (2+x)(3+x)...(s+x) / (s-1)!

    and for e = (x, 0, ..., 0, y),

        total_s = prod_{i<s} (i+x) / prod_{i<s} (i+y),

    which is at least 1 whenever y <= x.
    """
    _check_sweep(s_max, samples)
    rng = random.Random(seed)
    violations = []
    for _ in range(samples):
        s = rng.randint(1, s_max)
        tail = _sample_gap_vector(rng, s - 1, 5)
        x = sum(tail) + _sample_coordinate(rng, 10)  # 64 * e_1
        scaled = [x] + tail
        p = _gap_positions(scaled, _SAMPLE_SCALE)
        for j in range(1, s + 1):
            num, den = hk_pair(p, j)
            if num < math.comb(s, j) * den:
                violations.append(Violation(_gap_vector(scaled), j, None, Fraction(num, den)))

        # closed-form checks at the reduced points, cross-multiplied
        reduced = [x] + [0] * (s - 1)
        num, den = hk_pair(_gap_positions(reduced, _SAMPLE_SCALE), 1)
        expected_num, expected_den = 1, _SAMPLE_SCALE ** (s - 1) * math.factorial(s - 1)
        for i in range(2, s + 1):
            expected_num *= _SAMPLE_SCALE * i + x
        if num * expected_den != expected_num * den or num < s * den:
            violations.append(Violation(_gap_vector(reduced), 1, None, Fraction(num, den)))
        if s >= 2:
            # y = e_1 * c/64 = x*c / 64^2, so this point is cleared at scale 64^2
            c = rng.randint(0, 64)
            scale = _SAMPLE_SCALE * _SAMPLE_SCALE
            boundary = [_SAMPLE_SCALE * x] + [0] * (s - 2) + [x * c]
            num, den = hk_pair(_gap_positions(boundary, scale), s)
            expected_num = expected_den = 1
            for i in range(1, s):
                expected_num *= scale * i + _SAMPLE_SCALE * x
                expected_den *= scale * i + x * c
            if num * expected_den != expected_num * den or num < den:
                last = Fraction(num, den)
                violations.append(Violation(_gap_vector(boundary, scale), s, None, last))
    return VerifyReport("binomial-floor", samples, seed, s_max, tuple(violations))
