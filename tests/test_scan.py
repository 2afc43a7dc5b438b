"""What `scan` visits and what it reports, against oracles of its own.

The shape set is rebuilt by filtering every sequence, the sequences the
violation modes skip by their last column's reduced denominator, and the rows
by a brute force over `helpers.hk_equation_solve`; none of them calls library
code.  The pairs of the walk `scan` runs on are held to `pure.hk_pair`, the
one definition of the Herzog-Kuhl product.
"""

import functools
import math
from itertools import combinations

import pytest

from bettibounds import beh, scan
from bettibounds.beh import SCAN_MODES, _walk
from bettibounds.pure import hk_pair

from helpers import hk_equation_solve


def _domain(s, d_max):
    return [(0,) + upper for upper in combinations(range(1, d_max + 1), s)]


def _walked(s, d_max, mode):
    return [(0, *prefix, x) for prefix, x, _ in _walk(s, d_max, mode)]


@functools.lru_cache(maxsize=None)
def _solved(degrees):
    return hk_equation_solve(degrees)


def test_shape_sequences_are_exactly_the_shape_set():
    sizes = {}
    for d_max in range(1, 21):
        for s in range(1, 9):
            expected = [d for d in _domain(s, d_max) if d[s] - s <= 2 * d[1] - 2]
            assert _walked(s, d_max, "shape-verify") == expected, (s, d_max)
            sizes[s, d_max] = len(expected)
    # the shape set is 5% of the guard rail, and not empty at any s
    assert sum(sizes[s, 20] for s in range(1, 9)) == 13221
    assert sum(math.comb(20, s) for s in range(1, 9)) == 263949
    assert all(sizes[s, 20] for s in range(1, 9))
    # at s = 1 the condition d_1 >= 1 always holds
    assert all(sizes[1, d] == d for d in range(1, 21))


def _record_walk(monkeypatch):
    """Patch `beh._walk` to append each sequence it yields to the list returned."""
    examined = []
    walk = beh._walk

    def recording(s, d_max, mode):
        for prefix, x, pairs in walk(s, d_max, mode):
            examined.append((0, *prefix, x))
            yield prefix, x, pairs

    monkeypatch.setattr(beh, "_walk", recording)
    return examined


def test_shape_verify_examines_exactly_the_shape_set(monkeypatch):
    examined = _record_walk(monkeypatch)
    for d_max in (5, 12, 20):
        examined.clear()
        report = scan(1, 8, d_max, "shape-verify")
        assert examined == [
            d for s in range(1, 9) for d in _domain(s, d_max) if d[s] - s <= 2 * d[1] - 2
        ]
        assert report.sequences_checked == sum(math.comb(d_max, s) for s in range(1, 9))
        assert report.findings == 0
    assert len(examined) == 13221
    assert report.sequences_checked == 263949


def _skipped(mode, degrees, d_max):
    """Whether the reduced denominator den_s of the last column rules the sequence out.

    den_s divides the smallest integral multiple M, and M * total_s >= 1 =
    C(s, s), so at s = 1 nothing can report.  integral-violations needs
    M <= 2; otherwise the bound is the least integer B with
    B * total_j >= C(s, j) for each j < s at the last degree d_max, where
    total_j is smallest.
    """
    s = len(degrees) - 1
    if s == 1:
        return True
    den = _solved(degrees)[s].denominator
    if mode == "integral-violations":
        return den >= 3
    lowest = _solved(degrees[:-1] + (d_max,))
    return den >= max(-(-math.comb(s, j) // lowest[j]) for j in range(1, s))


def _walk_oracle(mode, s, d_max):
    if mode == "shape-verify":
        return [d for d in _domain(s, d_max) if d[s] - s <= 2 * d[1] - 2]
    return [d for d in _domain(s, d_max) if not _skipped(mode, d, d_max)]


@pytest.mark.parametrize("mode", SCAN_MODES)
def test_walk_pairs_are_the_kernel_pairs(mode):
    for d_max in range(1, 13):
        for s in range(1, 7):
            walked = list(_walk(s, d_max, mode))
            assert [(0, *prefix, x) for prefix, x, _ in walked] == _walk_oracle(mode, s, d_max)
            for prefix, x, pairs in walked:
                degrees = (0, *prefix, x)
                # unreduced: the same integers, not just the same fractions
                assert pairs == [hk_pair(degrees, j) for j in range(1, s + 1)], degrees


def _first_below(values, s):
    return next((j for j in range(s + 1) if values[j] < math.comb(s, j)), None)


def _brute_rows(mode, s, d_max):
    """(degrees, shape, first_violating_j, totals) of each finding."""
    rows = []
    for degrees in _domain(s, d_max):
        totals = _solved(degrees)
        shape = degrees[s] - s <= 2 * degrees[1] - 2
        raw = _first_below(totals, s)
        if mode == "shape-verify":
            if shape and raw is not None:
                rows.append((degrees, True, raw, totals))
            continue
        multiple = math.lcm(*(t.denominator for t in totals))
        scaled = _first_below([multiple * t for t in totals], s)
        if scaled is None or (mode == "integral-violations" and multiple > 2):
            continue
        # the CSV's beh_pass column is false by construction: a finding fails raw too
        assert raw is not None, degrees
        rows.append((degrees, shape, scaled, totals))
    return rows


def _rows(report):
    return [(r.degrees, r.shape, r.first_violating_j, r.betti_totals) for r in report.rows]


def _check_against_brute_force(mode, s_values, d_max):
    widest = {s: _brute_rows(mode, s, d_max) for s in s_values}
    for s in s_values:
        for d in range(1, d_max + 1):
            report = scan(s, s, d, mode)
            assert report.sequences_checked == len(_domain(s, d))
            assert _rows(report) == [r for r in widest[s] if r[0][-1] <= d], (s, d)
    report = scan(s_values[0], s_values[-1], d_max, mode)
    assert report.sequences_checked == sum(math.comb(d_max, s) for s in s_values)
    assert _rows(report) == [r for s in s_values for r in widest[s]]
    return report


@pytest.mark.parametrize("mode", ["find-violations", "integral-violations"])
def test_every_row_is_on_a_walked_sequence(mode):
    # the skip is exact: no sequence it drops has a brute-force row
    rows = {s: [r[0] for r in _brute_rows(mode, s, 12)] for s in range(1, 9)}
    for d_max in range(1, 13):
        for s in range(1, 9):
            walked = set(_walked(s, d_max, mode))
            assert {d for d in rows[s] if d[-1] <= d_max} <= walked, (s, d_max)
    # and it does skip: here at s = 8, d_max = 12
    assert len(walked) < math.comb(12, 8)


def test_violation_modes_fully_check_only_the_walked_sequences(monkeypatch):
    examined = _record_walk(monkeypatch)
    # 9% and 6% of the guard rail's 263,949 sequences reach the lcm
    pins = [("find-violations", 23823, 307), ("integral-violations", 15712, 127)]
    for mode, walked, findings in pins:
        examined.clear()
        report = scan(1, 8, 20, mode)
        assert (len(examined), report.findings) == (walked, findings)
        assert report.sequences_checked == 263949
        assert {row.degrees for row in report.rows} <= set(examined)


@pytest.mark.parametrize("mode", SCAN_MODES)
def test_scan_rows_and_count_match_brute_force(mode):
    report = _check_against_brute_force(mode, range(1, 6), 10)
    if mode != "shape-verify":
        assert report.rows


@pytest.mark.parametrize("mode", SCAN_MODES)
def test_scan_rows_on_long_prefixes_match_brute_force(mode):
    # s = 6..8 exercises the walk's prefixes of five to seven degrees
    report = _check_against_brute_force(mode, range(6, 9), 11)
    if mode != "shape-verify":
        assert report.rows
