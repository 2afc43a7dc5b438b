import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from bettibounds import (
    DomainError,
    FormatError,
    check_degree_sequence,
    herzog_kuhl,
    pure_shape_check,
    pure_total,
    pure_total_partial,
    verify_binomial_floor,
    verify_first_gap_monotone,
    verify_inward_shift_monotone,
)
from bettibounds.errors import InvalidSequenceError
from bettibounds import pure
from bettibounds.cli import _verify_json
from bettibounds.pure import _log_gradient, _sample_gap_vector, hk_pair

from helpers import (
    NOT_EXACT_IDS,
    NOT_EXACT_VALUES,
    column_total_partial,
    hk_equation_solve,
    koszul,
    pure_total_split,
)


def all_sequences(s_values, d_max, d0=0):
    for s in s_values:
        for upper in combinations(range(d0 + 1, d_max + 1), s):
            yield (d0,) + upper


# -- Herzog-Kuhl construction -----------------------------------------------------


def test_consecutive_degrees_give_binomials():
    for c in range(0, 7):
        assert herzog_kuhl(tuple(range(c + 1))) == koszul(c)


def test_rejects_non_increasing():
    with pytest.raises(InvalidSequenceError, match="^degree sequence must be nonempty$"):
        herzog_kuhl(())
    with pytest.raises(InvalidSequenceError):
        herzog_kuhl((0, 2, 2))
    with pytest.raises(InvalidSequenceError):
        herzog_kuhl((False, True))  # bool is an int subclass, not a degree
    with pytest.raises(InvalidSequenceError):
        check_degree_sequence((0, 0, 1))


def test_rejects_a_fraction_degree_even_when_integral():
    with pytest.raises(InvalidSequenceError):
        herzog_kuhl((Fraction(0), 2, 3))


def test_totals_match_equation_solver():
    # independent oracle: solve the defining alternating power sums directly
    for degrees in all_sequences(range(1, 5), 8):
        assert herzog_kuhl(degrees).totals() == hk_equation_solve(degrees)
    for degrees in [(-3, 0, 2), (-1, 4, 6, 9)]:
        assert herzog_kuhl(degrees).totals() == hk_equation_solve(degrees)


def test_herzog_kuhl_equations_hold():
    for degrees in all_sequences(range(1, 6), 10):
        totals = herzog_kuhl(degrees).totals()
        s = len(degrees) - 1
        for t in range(s):
            alternating = sum(
                ((-1) ** i * Fraction(degrees[i]) ** t * totals[i] for i in range(s + 1)),
                Fraction(0),
            )
            assert alternating == 0


def test_codimension_of_pure_diagram_is_length():
    for degrees in all_sequences(range(1, 6), 10):
        assert herzog_kuhl(degrees).codimension() == len(degrees) - 1


def test_translation_leaves_totals_and_shifts_entries():
    rng = random.Random(5)
    for _ in range(20):
        s = rng.randint(1, 5)
        degrees = next(all_sequences([s], 9 + s))
        degrees = tuple(sorted(rng.sample(range(0, 12), s + 1)))
        shift = rng.randint(-4, 4)
        shifted = tuple(d + shift for d in degrees)
        assert herzog_kuhl(shifted).totals() == herzog_kuhl(degrees).totals()
        entries = {(i, j + shift): v for (i, j), v in herzog_kuhl(degrees).items()}
        assert dict(herzog_kuhl(shifted).items()) == entries


# -- the column-total function -------------------------------------------------------


def test_pure_total_at_zero_is_binomial():
    for s in range(1, 9):
        zero = (0,) * s
        for j in range(1, s + 1):
            assert pure_total(j, zero) == math.comb(s, j)


def test_pure_total_examples():
    assert pure_total(1, (1, 0, 0)) == 6  # column 1 of the pure diagram of (0,2,3,4)
    assert herzog_kuhl((0, 2, 3, 4)).totals()[1] == 6
    assert pure_total(3, (1, 0, 1)) == 1  # column 3 of the pure diagram of (0,2,3,5)
    assert herzog_kuhl((0, 2, 3, 5)).totals()[3] == 1


def test_pure_total_matches_herzog_kuhl_on_integer_grid():
    # the equation solver shares no code with the kernel; the rational points
    # with mixed denominators exercise the clearing to integer positions
    rational_points = [
        (Fraction(1, 3), Fraction(5, 64), 2),
        (Fraction(7, 2), Fraction(2, 3), Fraction(1, 5), 0),
        (0, Fraction(9, 8), Fraction(5, 6)),
    ]
    for e in [*(e for s in range(1, 4) for e in product(range(0, 5), repeat=s)), *rational_points]:
        degrees = [Fraction(0)]
        for x in e:
            degrees.append(degrees[-1] + 1 + x)
        totals = hk_equation_solve(degrees)
        for j in range(1, len(e) + 1):
            assert pure_total(j, e) == totals[j]


def test_pure_total_rejects_negative_coordinates():
    with pytest.raises(DomainError):
        pure_total(1, (-1, 0))
    with pytest.raises(IndexError):
        pure_total(3, (0, 0))


@pytest.mark.parametrize("value", NOT_EXACT_VALUES, ids=NOT_EXACT_IDS)
def test_gap_coordinates_other_than_int_and_fraction_are_refused(value):
    message = f"gap coordinate must be an int or a Fraction, got {type(value).__name__}"
    for evaluate in (lambda e: pure_total(2, e), lambda e: pure_total_partial(2, 1, e)):
        with pytest.raises(FormatError) as excinfo:
            evaluate((1, value))
        assert str(excinfo.value) == message


def test_pure_total_accepts_rational_points():
    value = pure_total(1, (Fraction(1, 2), Fraction(3, 4)))
    # direct product: T_2 / V_{2,1} = (2 + 5/4) / (1 + 3/4)
    assert value == Fraction(13, 4) / Fraction(7, 4)


# -- exact partial derivatives --------------------------------------------------------


def test_partial_hand_computed():
    assert pure_total_partial(1, 1, (0, 0)) == 1
    assert pure_total_partial(2, 2, (0, 0)) == -1
    combined = pure_total_partial(2, 2, (0, 0)) - pure_total_partial(2, 1, (0, 0))
    assert combined == -2


def test_partial_pole_off_orthant():
    # T_2 = 2 + e_1 + e_2 vanishes at (-2, 0); impossible for e >= 0
    with pytest.raises(DomainError):
        pure_total_partial(1, 1, (-2, 0))
    assert pure_total_partial(1, 1, (-1, 0)) != 0  # no vanishing form, still exact


def test_partial_matches_central_differences():
    rng = random.Random(7)
    for _ in range(12):
        s = rng.randint(2, 6)
        e = tuple(Fraction(rng.randint(1, 24), 8) for _ in range(s))
        j = rng.randint(1, s)
        k = rng.randint(1, s)
        exact = pure_total_partial(j, k, e)
        errors = []
        for h in (Fraction(1, 64), Fraction(1, 128)):
            bumped = tuple(x + h if idx == k - 1 else x for idx, x in enumerate(e))
            dipped = tuple(x - h if idx == k - 1 else x for idx, x in enumerate(e))
            approx = (pure_total(j, bumped) - pure_total(j, dipped)) / (2 * h)
            errors.append(abs(approx - exact))
        if errors[1] == 0:
            assert errors[0] == 0
        else:
            ratio = errors[0] / errors[1]
            assert Fraction(7, 2) <= ratio <= Fraction(9, 2)


def _sign(x):
    return (x > 0) - (x < 0)


def _grid_point(rng, s, max_value):
    """A gap vector on the samplers' grid, as integers over 64, zero coordinates included."""
    return [0 if rng.random() < 0.125 else rng.randint(0, max_value * 64) for _ in range(s)]


def _positions_over_64(scaled):
    p = [0]
    for x in scaled:
        p.append(p[-1] + 64 + x)
    return p


def test_integer_signs_match_the_product_rule_oracle():
    # every sign the three samplers decide on integers, against an exact
    # derivative (or, for the floor, an exact total) computed without the kernel
    rng = random.Random(2024)
    for _ in range(120):
        s = rng.randint(1, 8)
        scaled = _grid_point(rng, s, 10)
        p = _positions_over_64(scaled)
        e = tuple(Fraction(x, 64) for x in scaled)
        q, common = _log_gradient(p)
        assert common > 0
        for j in range(1, s + 1):
            partials = [column_total_partial(j, k, e) for k in range(1, s + 1)]
            assert _sign(sum(q[0]) - q[0][j]) == _sign(partials[0])
            for k in range(1, j):
                g = -sum(q[0][i] + q[i][j] for i in range(k, j))
                assert _sign(g) == _sign(partials[j - 1] - partials[k - 1])
            for k in range(j + 2, s + 1):
                g = sum(q[0][i] - q[j][i] for i in range(j + 1, k))
                assert _sign(g) == _sign(partials[j] - partials[k - 1])

        tail = _grid_point(rng, s - 1, 5)
        scaled = [sum(tail) + _grid_point(rng, 1, 10)[0]] + tail
        p = _positions_over_64(scaled)
        totals = hk_equation_solve(p)
        for j in range(1, s + 1):
            num, den = hk_pair(p, j)
            floor = math.comb(s, j)
            assert _sign(num - floor * den) == _sign(totals[j] - floor)


def test_every_column_gradient_is_the_exact_partial_on_grid_points():
    rng = random.Random(34)
    for _ in range(60):
        s = rng.randint(1, 8)
        e = tuple(Fraction(x, 64) for x in _grid_point(rng, s, 10))
        for j, k in product(range(1, s + 1), repeat=2):
            assert pure_total_partial(j, k, e) == column_total_partial(j, k, e)


def test_a_vanishing_difference_stays_out_of_the_other_columns_gradients():
    # e = (1/2, 2, 1, -3) at scale 2: P = (0, 3, 9, 13, 9), so P_4 - P_2 vanishes
    # and P_4 - P_3 is negative; columns 2 and 4 use that pair, columns 1 and 3 do not
    e = (Fraction(1, 2), 2, 1, -3)
    p = [0, 3, 9, 13, 9]
    assert pure._positions(e) == (p, 2)
    for j in (2, 4):
        with pytest.raises(DomainError):
            hk_pair(p, j)
        with pytest.raises(DomainError):
            pure_total_partial(j, 1, e)
    for j, k in product((1, 3), range(1, 5)):
        assert pure_total_partial(j, k, e) == column_total_partial(j, k, e)


def test_reported_gradient_value_is_the_exact_combination_of_partials(monkeypatch, fresh_sweep):
    scaled = [40, 0, 3 * 64, 5, 64 * 7 + 32]  # e = (5/8, 0, 3, 5/64, 15/2)
    e = tuple(Fraction(x, 64) for x in scaled)
    # seed 5 draws s = 5 for its first sample, which is then this point
    monkeypatch.setattr(pure, "_sample_gap_vector", lambda rng, s: scaled[:s])
    # the flip negates every partial, pure_total_partial's too, so the sweep
    # reports each partial of the lemma's own sign, with its value negated
    _flip_log_gradient(monkeypatch)
    first_gap_report = verify_first_gap_monotone(5, 1, 5)
    first_gap = {v.j: v for v in first_gap_report.violations}
    inward = {(v.j, v.k): v for v in verify_inward_shift_monotone(5, 1, 5).violations}
    first = first_gap[2]
    assert (first.e, first.j, first.k) == (e, 2, 1)
    assert first.value == pure_total_partial(2, 1, e) == -column_total_partial(2, 1, e)
    for j, k, lead in [(3, 1, 3), (3, 2, 3), (2, 4, 3), (1, 5, 2)]:
        row = inward[j, k]
        assert (row.e, row.j, row.k) == (e, j, k)
        assert row.value == pure_total_partial(j, lead, e) - pure_total_partial(j, k, e)
        assert row.value == column_total_partial(j, k, e) - column_total_partial(j, lead, e)
        assert row.value > 0  # the true combination is negative
    for row in first_gap.values():
        assert row.value == -column_total_partial(row.j, 1, e)
    for (j, k), row in inward.items():
        lead = j if k < j else j + 1
        assert row.value == column_total_partial(j, k, e) - column_total_partial(j, lead, e)
    written = {row["j"]: row for row in _verify_json(first_gap_report)["violations"]}
    assert written[2]["e"] == ["5/8", "0", "3", "5/64", "15/2"]


# -- the constrained split form --------------------------------------------------------


def test_split_form_examples():
    assert pure_total_split(2, 4, 1, 1) == 15
    assert pure_total(2, (1, 1, 0, 0)) == 15
    for s in range(3, 7):
        for j in range(2, s):
            for t in (0, Fraction(1, 3), Fraction(1, 2), 1):
                assert pure_total_split(j, s, t, 0) == math.comb(s, j)


def test_split_form_matches_substituted_point():
    grid_t = (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
    grid_e1 = (0, Fraction(1, 2), 1, 2, Fraction(7, 2), 10)
    for s in range(3, 7):
        for j in range(2, s):
            for t, e1 in product(grid_t, grid_e1):
                e = [Fraction(0)] * s
                e[0] = e1
                e[j - 1] += t * e1
                e[j] += (1 - t) * e1
                assert pure_total_split(j, s, t, e1) == pure_total(j, tuple(e))
                assert pure_total_split(j, s, t, e1) >= math.comb(s, j)


# -- secant restatements of the derivative signs ------------------------------------------


def test_first_gap_secants_nondecreasing():
    rng = random.Random(13)
    for _ in range(40):
        s = rng.randint(1, 6)
        e = tuple(Fraction(rng.randint(0, 40), 8) for _ in range(s))
        for delta in (Fraction(1, 2), 1, 2):
            bumped = (e[0] + delta,) + e[1:]
            for j in range(1, s + 1):
                assert pure_total(j, bumped) >= pure_total(j, e)


def test_inward_shift_secants_nonincreasing():
    rng = random.Random(17)
    for _ in range(40):
        s = rng.randint(2, 6)
        e = list(Fraction(rng.randint(0, 40), 8) for _ in range(s))
        for j in range(1, s + 1):
            base = pure_total(j, tuple(e))
            for k in range(1, j):
                delta = min(Fraction(1), e[k - 1])
                shifted = list(e)
                shifted[j - 1] += delta
                shifted[k - 1] -= delta
                assert pure_total(j, tuple(shifted)) <= base
            for k in range(j + 2, s + 1):
                delta = min(Fraction(1), e[k - 1])
                shifted = list(e)
                shifted[j] += delta
                shifted[k - 1] -= delta
                assert pure_total(j, tuple(shifted)) <= base


# -- seeded verification sweeps --------------------------------------------------------


@pytest.fixture
def fresh_sweep():
    """No test reads gradient rows that another run left in the sweep's cache."""
    pure._gradient_sweep.cache_clear()
    yield
    pure._gradient_sweep.cache_clear()


def test_verify_is_deterministic(fresh_sweep):
    for verify in (verify_first_gap_monotone, verify_inward_shift_monotone, verify_binomial_floor):
        first = verify(s_max=5, samples=100, seed=42)
        pure._gradient_sweep.cache_clear()
        second = verify(s_max=5, samples=100, seed=42)
        assert first == second


def _flip_log_gradient(monkeypatch):
    original = pure._log_gradient

    def flipped(p):
        q, common = original(p)
        return [[-v for v in row] for row in q], common

    monkeypatch.setattr(pure, "_log_gradient", flipped)


def _separate_gradient_rows(s_max, samples, seed):
    """(e, j, k, value) rows of each gradient lemma under a negated reciprocal table.

    One loop per lemma over the samplers' points, signs and values from the
    product-rule oracle.  The flip negates every partial, so a row is reported
    exactly where the true sign is strictly the lemma's own, with its value negated.
    """

    def points():
        rng = random.Random(seed)
        for _ in range(samples):
            s = rng.randint(1, s_max)
            yield s, tuple(Fraction(x, 64) for x in _sample_gap_vector(rng, s))

    first_gap = []
    for s, e in points():
        for j in range(1, s + 1):
            value = column_total_partial(j, 1, e)
            if value > 0:
                first_gap.append((e, j, 1, -value))
    inward = []
    for s, e in points():
        for j in range(1, s + 1):
            partial = [column_total_partial(j, k, e) for k in range(1, s + 1)]
            for k in range(1, j):
                if partial[j - 1] < partial[k - 1]:
                    inward.append((e, j, k, partial[k - 1] - partial[j - 1]))
            for k in range(j + 2, s + 1):
                if partial[j] < partial[k - 1]:
                    inward.append((e, j, k, partial[k - 1] - partial[j]))
    return first_gap, inward


def _rows(report):
    return [(v.e, v.j, v.k, v.value) for v in report.violations]


def test_gradient_sweeps_report_the_rows_of_separate_loops(monkeypatch, fresh_sweep):
    _flip_log_gradient(monkeypatch)
    # each key differs from the first in one argument only, and the first comes
    # back last, so a stale or wrongly keyed sweep reports another key's rows
    keys = [(4, 30, 3), (5, 30, 3), (4, 31, 3), (4, 30, 4), (4, 30, 3)]
    seen = []
    for index, key in enumerate(keys):
        lemmas = [verify_first_gap_monotone, verify_inward_shift_monotone]
        if index % 2:
            lemmas.reverse()
        reports = {verify: verify(*key) for verify in lemmas}
        rows = (_rows(reports[verify_first_gap_monotone]), _rows(reports[verify_inward_shift_monotone]))
        assert rows == _separate_gradient_rows(*key)
        assert rows[0] and rows[1]
        seen.append(rows)
    assert len({repr(rows) for rows in seen}) == len(keys) - 1


def _seed_9_draws():
    """The (s, 64 * e) draws of the gradient sweeps at s_max 6 and seed 9, replayed."""
    rng = random.Random(9)
    draws = []
    for _ in range(50):
        s = rng.randint(1, 6)
        draws.append((s, _sample_gap_vector(rng, s)))
    return draws


def _assert_one_log_gradient_per_sampled_point(monkeypatch, passed):
    calls = []
    original = pure._log_gradient

    def counted(p):
        calls.append(tuple(p))
        return original(p)

    monkeypatch.setattr(pure, "_log_gradient", counted)
    assert verify_first_gap_monotone(6, 50, 9).passed is passed
    assert verify_inward_shift_monotone(6, 50, 9).passed is passed
    assert calls == [tuple(_positions_over_64(x)) for _, x in _seed_9_draws()]


def test_both_gradient_lemmas_take_one_log_gradient_per_sampled_point(monkeypatch, fresh_sweep):
    # the first points, literally: a change to the draw order or to the
    # sampler's rejection rule moves them, even where the replay follows it
    assert _seed_9_draws()[:4] == [
        (4, [128, 6, 616, 0]),
        (5, [40, 448, 160, 64, 604]),
        (1, [104]),
        (3, [416, 273, 280]),
    ]
    _assert_one_log_gradient_per_sampled_point(monkeypatch, passed=True)


def test_reported_rows_take_no_log_gradient_beyond_their_point(monkeypatch, fresh_sweep):
    # under the flip both lemmas report rows, and a row's value must come from
    # the reciprocal table its point already took
    _flip_log_gradient(monkeypatch)
    _assert_one_log_gradient_per_sampled_point(monkeypatch, passed=False)


def test_derivatives_at_origin_all_columns():
    for s in range(1, 9):
        zero = (0,) * s
        for j in range(1, s + 1):
            assert pure_total_partial(j, 1, zero) >= 0
            for k in range(1, j):
                assert pure_total_partial(j, j, zero) - pure_total_partial(j, k, zero) <= 0
            for k in range(j + 2, s + 1):
                assert pure_total_partial(j, j + 1, zero) - pure_total_partial(j, k, zero) <= 0


# -- the binomial floor for shape-satisfying sequences --------------------------------------


def test_shape_check_examples():
    assert pure_shape_check((0, 1, 2, 3))
    assert pure_shape_check((0, 2, 3, 4))
    assert not pure_shape_check((0, 1, 2, 4))
    assert not pure_shape_check((1, 2, 3))
    assert pure_shape_check((0,))
    assert pure_shape_check((-2, 1, 2))
    assert not pure_shape_check((-2, 1, 3))


def test_binomial_floor_on_shape_sequences_small():
    for degrees in all_sequences(range(1, 5), 8):
        if not pure_shape_check(degrees):
            continue
        totals = herzog_kuhl(degrees).totals()
        s = len(degrees) - 1
        for j in range(s + 1):
            assert totals[j] >= math.comb(s, j)


def test_binomial_floor_reports_a_row_from_each_of_its_three_checks(monkeypatch):
    """Under a kernel that shrinks every total, each kernel call of the floor sweep is a row.

    Per sample of size s the sweep takes the kernel s times at the sampled
    point, one column each; once for column 1 at the reduced point
    (e_1, 0, ..., 0); and, when s >= 2, once for column s at the boundary point
    (e_1, 0, ..., 0, y) with y <= e_1, cleared at scale 64^2.  Each row carries
    that point, its column, no k, and the shrunk total num/den.
    """
    shrink = 2**20  # above every total at s <= 3, so every check fails
    real = pure.hk_pair
    calls = []

    def shrunk(p, j):
        num, den = real(p, j)
        calls.append((tuple(p), j, Fraction(num, den * shrink)))
        return num, den * shrink

    monkeypatch.setattr(pure, "hk_pair", shrunk)
    rows = [(v.e, v.j, v.k, v.value) for v in verify_binomial_floor(3, 40, 11).violations]
    expected = []
    while len(expected) < len(calls):
        s = len(calls[len(expected)][0]) - 1
        scales = [64] * (s + 1) + [64 * 64] * (s >= 2)
        columns = list(range(1, s + 1)) + [1] + [s] * (s >= 2)
        points = []
        for (p, j, value), scale, column in zip(calls[len(expected) :], scales, columns):
            assert j == column
            points.append(tuple(Fraction(b - a, scale) - 1 for a, b in zip(p, p[1:])))
            expected.append((points[-1], j, None, value))
        e1 = points[0][0]
        assert points[s] == (e1,) + (0,) * (s - 1)
        if s >= 2:
            assert points[s + 1][:-1] == (e1,) + (0,) * (s - 2) and 0 <= points[s + 1][-1] <= e1
    assert len(expected) == len(calls)
    assert rows == expected
    assert {len(e) for e, *_ in rows} == {1, 2, 3}
