"""What `scan` visits and what it reports, against oracles of its own.

The shape set is rebuilt by filtering every sequence, and the rows by a brute
force over `helpers.hk_equation_solve`; neither calls library code.
"""

import math
from itertools import combinations

import pytest

from bettibounds import beh, scan
from bettibounds.beh import SCAN_MODES, shape_sequences

from helpers import hk_equation_solve


def _domain(s, d_max):
    return [(0,) + upper for upper in combinations(range(1, d_max + 1), s)]


def test_shape_sequences_are_exactly_the_shape_set():
    sizes = {}
    for d_max in range(1, 21):
        for s in range(1, 9):
            expected = [d for d in _domain(s, d_max) if d[s] - s <= 2 * d[1] - 2]
            assert list(shape_sequences(s, d_max)) == expected, (s, d_max)
            sizes[s, d_max] = len(expected)
    # the shape set is 5% of the guard rail, and not empty at any s
    assert sum(sizes[s, 20] for s in range(1, 9)) == 13221
    assert all(sizes[s, 20] for s in range(1, 9))
    # at s = 1 the condition d_1 >= 1 always holds
    assert all(sizes[1, d] == d for d in range(1, 21))


def test_shape_verify_examines_exactly_the_shape_set(monkeypatch):
    examined = []
    kernel = beh.hk_pair

    def recording(degrees, j):
        if not examined or examined[-1] != degrees:
            examined.append(degrees)
        return kernel(degrees, j)

    monkeypatch.setattr(beh, "hk_pair", recording)
    for d_max in (5, 12, 20):
        examined.clear()
        report = scan(1, 8, d_max, "shape-verify")
        assert examined == [
            d for s in range(1, 9) for d in _domain(s, d_max) if d[s] - s <= 2 * d[1] - 2
        ]
        assert report.sequences_checked == sum(math.comb(d_max, s) for s in range(1, 9))
        assert report.findings == 0


def _first_below(values, s):
    return next((j for j in range(s + 1) if values[j] < math.comb(s, j)), None)


def _brute_rows(mode, s, d_max):
    """(degrees, s, shape, beh_pass, first_violating_j, totals) of each finding."""
    rows = []
    for degrees in _domain(s, d_max):
        totals = hk_equation_solve(degrees)
        shape = degrees[s] - s <= 2 * degrees[1] - 2
        raw = _first_below(totals, s)
        if mode == "shape-verify":
            if shape and raw is not None:
                rows.append((degrees, s, True, False, raw, totals))
            continue
        multiple = math.lcm(*(t.denominator for t in totals))
        scaled = _first_below([multiple * t for t in totals], s)
        if scaled is None or (mode == "integral-violations" and multiple > 2):
            continue
        rows.append((degrees, s, shape, raw is None, scaled, totals))
    return rows


def _rows(report):
    return [
        (r.degrees, r.s, r.shape, r.beh_pass, r.first_violating_j, r.betti_totals)
        for r in report.rows
    ]


@pytest.mark.parametrize("mode", SCAN_MODES)
def test_scan_rows_and_count_match_brute_force(mode):
    widest = {s: _brute_rows(mode, s, 10) for s in range(1, 6)}
    for s in range(1, 6):
        for d_max in range(1, 11):
            report = scan(s, s, d_max, mode)
            assert report.sequences_checked == len(_domain(s, d_max))
            assert _rows(report) == [r for r in widest[s] if r[0][-1] <= d_max], (s, d_max)
    report = scan(1, 5, 10, mode)
    assert report.sequences_checked == sum(math.comb(10, s) for s in range(1, 6))
    assert _rows(report) == [r for s in range(1, 6) for r in widest[s]]
    if mode != "shape-verify":
        assert report.rows
