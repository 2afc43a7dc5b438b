"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact; the stated runtime budgets are asserted.
"""

import contextlib
import functools
import io
import math
import os
import random
import tempfile
import time
from fractions import Fraction
from itertools import product

from bettibounds import (
    BettiDiagram,
    beh_check,
    decompose,
    herzog_kuhl,
    power_bounds,
    pure_shape_check,
    pure_total,
    recompose,
    taylor_betti,
    validate_bounds,
    MonomialIdeal,
)
from bettibounds.cli import main

from helpers import (
    corpus_diagrams,
    from_gaps,
    koszul,
    monomial_corpus,
    random_pure_combination,
    subset_numerator,
)


def criterion(number, name, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"criterion {number} ({name}): FAIL", flush=True)
                raise
            elapsed = time.monotonic() - start
            within = elapsed <= budget_seconds
            verdict = "PASS" if within else "FAIL (over budget)"
            print(f"criterion {number} ({name}): {verdict} [{elapsed:.2f}s]", flush=True)
            assert within, f"runtime {elapsed:.2f}s exceeds budget {budget_seconds}s"
        return wrapper
    return decorate


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@criterion(1, "pure-diagram reproduction", 1.0)
def test_criterion_1():
    code, out, _ = run_cli("pure", "--degrees", "0,1,2,4", "--format", "json")
    assert code == 0
    assert BettiDiagram.from_json(out) == BettiDiagram(
        {(0, 0): 1, (1, 1): Fraction(8, 3), (2, 2): 2, (3, 4): Fraction(1, 3)}
    )
    code, out, _ = run_cli("pure", "--degrees", "0,1,2,3,5,6", "--format", "json")
    assert code == 0
    totals = BettiDiagram.from_json(out).totals()
    assert totals == (1, Fraction(9, 2), Fraction(15, 2), 5, Fraction(3, 2), Fraction(1, 2))


@criterion(2, "known counterexamples reported", 1.0)
def test_criterion_2():
    code, out, _ = run_cli("check-pure", "--degrees", "0,1,2,3,5,6")
    assert code == 1
    assert "j=1: 9/2 < 5" in out

    generic = BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1})
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        handle.write(generic.to_json())
        path = handle.name
    try:
        code, out, _ = run_cli("check-beh", path, "--codim", "2")
    finally:
        os.unlink(path)
    assert code == 1
    assert "j=1: 3 < 4" in out
    report = beh_check(generic, codim=2)
    failure = next(c for c in report.per_j if not c.passed)
    assert (failure.j, failure.actual, failure.required) == (1, 3, 4)


@criterion(3, "exhaustive shape-verify scan", 300.0)
def test_criterion_3():
    code, out, err = run_cli(
        "scan", "--s-min", "1", "--s-max", "6", "--d-max", "12", "--mode", "shape-verify"
    )
    assert code == 0
    assert out.strip().splitlines() == ["degrees;s;shape;beh_pass;first_violating_j;betti_totals"]
    assert "2509 sequences, 0 findings" in err


@criterion(4, "derivative and floor sweeps, 10^4 samples", 120.0)
def test_criterion_4():
    code, out, _ = run_cli(
        "verify-lemmas", "--samples", "10000", "--seed", "1", "--s-max", "8"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.endswith("PASS") for line in lines)


@criterion(5, "gap-formula identity on the integer grid", 60.0)
def test_criterion_5():
    for s in range(1, 6):
        for e in product(range(5), repeat=s):
            totals = herzog_kuhl(from_gaps(e, 0)).totals()
            for j in range(1, s + 1):
                assert pure_total(j, e) == totals[j]
    # the same product with the first denominator stopped at i = j - 1 breaks
    # the identity: documented mismatch 2 != 1 at e = (1, 0, 1), j = 3
    e = (1, 0, 1)
    t1, t2 = (1 + e[0]), (2 + e[0] + e[1])
    narrow = Fraction(t1 * t2, (3 - 2 + 1) + e[1] + e[2])  # only the i = 2 factor
    assert narrow == 2
    assert pure_total(3, e) == 1


@criterion(6, "decomposition round trips", 60.0)
def test_criterion_6():
    targets = [koszul(n) for n in range(1, 7)]
    targets.append(BettiDiagram({(0, 0): 1, (1, 2): 2, (2, 3): 1}))
    targets.append(BettiDiagram({(0, 0): 2, (1, 1): 3, (2, 3): 1}))
    targets.extend(taylor_betti(ideal) for _, ideal in monomial_corpus())
    rng = random.Random(1729)
    targets.extend(random_pure_combination(rng) for _ in range(200))
    for diagram in targets:
        decomposition = decompose(diagram)
        assert recompose(decomposition) == diagram
        assert all(coefficient > 0 for coefficient, _ in decomposition)
        assert validate_bounds(decomposition, diagram).passed


@criterion(7, "shape condition implies the bound, end to end", 60.0)
def test_criterion_7():
    exercised = 0
    for name, diagram in corpus_diagrams().items():
        report = beh_check(diagram)
        if not report.hypothesis_met:
            continue
        exercised += 1
        assert report.overall, name
        for _, degrees in decompose(diagram):
            translated = tuple(d - degrees[0] for d in degrees)
            assert pure_shape_check(translated), (name, degrees)
            assert pure_shape_check(degrees), (name, degrees)
    assert exercised >= 8


@criterion(8, "power bounds: leading terms and constrained gap vectors", 60.0)
def test_criterion_8():
    for codim in range(1, 7):
        for defect in range(0, 5):
            for delta in range(1, 5):
                for j in range(1, codim + 1):
                    # the bound is a product of codim - 1 factors linear in t: its
                    # (codim-1)-th differences are (codim-1)! * lead and the next is 0
                    rows = list(power_bounds(codim, delta, defect, j, codim + 1))
                    diffs = [row.exact for row in rows]
                    for _ in range(codim - 1):
                        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
                    lead = rows[0].leading  # t^(c-1) = 1 at t = 1
                    assert lead > 0
                    assert diffs == [math.factorial(codim - 1) * lead] * 2
    for codim in range(1, 5):
        for delta in (1, 2):
            for defect in (0, 1, 2):
                for j in range(1, codim + 1):
                    for s in (codim, codim + 2):
                        for at_j in range(defect + 1):
                            tail = [0] * (s - 1)
                            if s >= 2:
                                tail[min(j, s - 1) - 1] += at_j
                                tail[min(j + 1, s - 1) - 1] += defect - at_j
                            if sum(tail) > defect:
                                continue
                            for row in power_bounds(codim, delta, defect, j, 20, tail):
                                assert row.pure >= row.exact >= row.leading


@criterion(9, "monomial Betti engine", 60.0)
def test_criterion_9():
    assert taylor_betti(MonomialIdeal(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == koszul(3)
    assert taylor_betti(MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))) == BettiDiagram(
        {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    )
    assert taylor_betti(MonomialIdeal(2, ((2, 0), (1, 1)))) == BettiDiagram(
        {(0, 0): 1, (1, 2): 2, (2, 3): 1}
    )
    corpus_ideals = monomial_corpus()
    for name, ideal in corpus_ideals:
        numerator = taylor_betti(ideal).hilbert_numerator()
        assert dict(numerator.items()) == subset_numerator(ideal), name
    rng = random.Random(50)
    shuffles = 0
    while shuffles < 50:
        for name, ideal in corpus_ideals:
            gens = list(ideal.generators)
            rng.shuffle(gens)
            shuffled = MonomialIdeal(ideal.nvars, tuple(gens))
            assert taylor_betti(shuffled) == taylor_betti(ideal), name
            shuffles += 1
            if shuffles >= 50:
                break
