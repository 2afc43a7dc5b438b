import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from bettibounds import (
    DomainError,
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
from bettibounds.pure import _log_gradient, _sample_gap_vector, hk_pair

from helpers import column_total_partial, from_gaps, hk_equation_solve, koszul, pure_total_split


def all_sequences(s_values, d_max, d0=0):
    for s in s_values:
        for upper in combinations(range(d0 + 1, d_max + 1), s):
            yield (d0,) + upper


# -- Herzog-Kuhl construction -----------------------------------------------------


def test_pure_diagram_reference_values():
    assert dict(herzog_kuhl((0, 1, 2, 4)).items()) == {
        (0, 0): 1,
        (1, 1): Fraction(8, 3),
        (2, 2): 2,
        (3, 4): Fraction(1, 3),
    }
    assert herzog_kuhl((0, 1, 2, 3, 5, 6)).totals() == (
        1,
        Fraction(9, 2),
        Fraction(15, 2),
        5,
        Fraction(3, 2),
        Fraction(1, 2),
    )


def test_consecutive_degrees_give_binomials():
    for c in range(0, 7):
        assert herzog_kuhl(tuple(range(c + 1))) == koszul(c)


def test_rejects_non_increasing():
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


def test_normalization_and_positivity():
    for degrees in all_sequences(range(1, 5), 8):
        totals = herzog_kuhl(degrees).totals()
        assert totals[0] == 1
        assert all(value > 0 for value in totals)


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


def test_narrow_denominator_variant_fails_the_identity():
    # dropping the i = j factor from the first denominator product breaks the
    # match with the diagram construction at e = (1, 0, 1), j = 3
    def narrow_variant(j, e):
        d = from_gaps(e, 0)
        s = len(e)
        value = Fraction(1)
        for i in range(1, s + 1):
            if i != j:
                value *= d[i] - d[0]
        for i in range(2, j):  # stops short of i = j
            value /= d[j] - d[i - 1]
        for i in range(j + 1, s + 1):
            value /= d[i] - d[j]
        return value

    e = (1, 0, 1)
    assert narrow_variant(3, e) == 2
    assert pure_total(3, e) == 1
    assert herzog_kuhl(from_gaps(e, 0)).totals()[3] == 1


def test_pure_total_rejects_negative_coordinates():
    with pytest.raises(DomainError):
        pure_total(1, (-1, 0))
    with pytest.raises(IndexError):
        pure_total(3, (0, 0))


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
        for j in range(1, s + 1):
            grad, common = _log_gradient(p, j)
            assert common > 0
            partials = [column_total_partial(j, k, e) for k in range(1, s + 1)]
            assert _sign(grad[0]) == _sign(partials[0])
            for k in range(1, j):
                assert _sign(grad[j - 1] - grad[k - 1]) == _sign(partials[j - 1] - partials[k - 1])
            for k in range(j + 2, s + 1):
                assert _sign(grad[j] - grad[k - 1]) == _sign(partials[j] - partials[k - 1])

        tail = _grid_point(rng, s - 1, 5)
        scaled = [sum(tail) + _grid_point(rng, 1, 10)[0]] + tail
        p = _positions_over_64(scaled)
        totals = hk_equation_solve(p)
        for j in range(1, s + 1):
            num, den = hk_pair(p, j)
            floor = math.comb(s, j)
            assert _sign(num - floor * den) == _sign(totals[j] - floor)


def test_reported_gradient_value_is_the_exact_combination_of_partials(monkeypatch, fresh_sweep):
    scaled = [40, 0, 3 * 64, 5, 64 * 7 + 32]  # e = (5/8, 0, 3, 5/64, 15/2)
    e = tuple(Fraction(x, 64) for x in scaled)
    # seed 5 draws s = 5 for its first sample, which is then this point
    monkeypatch.setattr(pure, "_sample_gap_vector", lambda rng, s: scaled[:s])
    # the flip negates every partial, pure_total_partial's too, so the sweep
    # reports each partial of the lemma's own sign, with its value negated
    _flip_log_gradient(monkeypatch)
    first_gap = {v.j: v for v in verify_first_gap_monotone(5, 1, 5).violations}
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
    assert first.to_json_dict()["e"] == ["5/8", "0", "3", "5/64", "15/2"]


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


def test_verify_reports_pass_smoke():
    for verify in (verify_first_gap_monotone, verify_inward_shift_monotone, verify_binomial_floor):
        report = verify(s_max=6, samples=200, seed=1)
        assert report.passed, report.violations[:3]
        assert report.samples == 200
        payload = report.to_json_dict()
        assert set(payload) == {"lemma", "samples", "seed", "violations"}
        assert payload["violations"] == []


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

    def flipped(p, j):
        grad, common = original(p, j)
        return [-g for g in grad], common

    monkeypatch.setattr(pure, "_log_gradient", flipped)


def _separate_gradient_rows(s_max, samples, seed):
    """(e, j, k, value) rows of each gradient lemma under a sign-flipped log-gradient.

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


def _assert_one_log_gradient_per_sampled_column(monkeypatch, passed):
    calls = []
    original = pure._log_gradient

    def counted(p, j):
        calls.append((tuple(p), j))
        return original(p, j)

    monkeypatch.setattr(pure, "_log_gradient", counted)
    assert verify_first_gap_monotone(6, 50, 9).passed is passed
    assert verify_inward_shift_monotone(6, 50, 9).passed is passed
    rng = random.Random(9)
    columns = []
    for _ in range(50):
        s = rng.randint(1, 6)
        p = tuple(_positions_over_64(_sample_gap_vector(rng, s)))
        columns += [(p, j) for j in range(1, s + 1)]
    assert calls == columns


def test_both_gradient_lemmas_take_one_log_gradient_per_sampled_column(monkeypatch, fresh_sweep):
    _assert_one_log_gradient_per_sampled_column(monkeypatch, passed=True)


def test_reported_rows_take_no_log_gradient_beyond_their_column(monkeypatch, fresh_sweep):
    # under the flip both lemmas report rows, and a row's value must come from
    # the log-gradient its column already took
    _flip_log_gradient(monkeypatch)
    _assert_one_log_gradient_per_sampled_column(monkeypatch, passed=False)


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
