"""Apply each listed mutant to a copy of the library and require its named tests to fail.

    python3 tools/mutants.py

Run from anywhere; paths are taken from this file's checkout.  A mutant is
(file under src/bettibounds, old snippet, new snippet, test node ids).  Every
old snippet must occur exactly once in its file, or nothing runs and the exit
code is 2.  Before any mutant, every named test runs once on an unmutated copy
of src/; if one of them fails or does not run there, a kill would not show
that the mutant broke it, so nothing more runs and the exit code is 2.  For
each mutant, src/ is copied to a temporary directory, the one replacement is
made there, and pytest runs the named tests against the copy.  The mutant is
killed when every named test fails.  The exit code is 1 if any mutant
survives, else 0.  Standard library only, besides pytest itself.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MONOMIAL_TESTS = "tests/test_monomial.py::"
PURE_TESTS = "tests/test_pure.py::"
WALK_TESTS = [
    MONOMIAL_TESTS + "test_the_walk_matches_both_oracles[upper-koszul]",
    MONOMIAL_TESTS + "test_the_walk_matches_both_oracles[taylor]",
]
SWEEP_TESTS = [PURE_TESTS + "test_gradient_sweeps_report_the_rows_of_separate_loops"]

MUTANTS = [
    # every bit of set(u) taken as weight 1, right only where exponents have no gaps
    (
        "monomial.py",
        "{(k, k * w): math.comb(n, k)",
        "{(k, k): math.comb(n, k)",
        [MONOMIAL_TESTS + "test_the_closed_form_matches_both_oracles_on_seeded_ideals"],
    ),
    # u * x_F at level |F| instead of |F| + 1
    (
        "monomial.py",
        "terms = {(1, _degree(u, weights)): 1}",
        "terms = {(0, _degree(u, weights)): 1}",
        [
            MONOMIAL_TESTS + "test_the_closed_form_matches_both_oracles_on_seeded_ideals",
            MONOMIAL_TESTS + "test_wide_lattice_ideal_takes_the_closed_form",
        ],
    ),
    # a degree read as the plain popcount of its code
    (
        "monomial.py",
        "w * (m & mask).bit_count()",
        "(m & mask).bit_count()",
        [
            MONOMIAL_TESTS + "test_the_closed_form_matches_both_oracles_on_seeded_ideals",
            MONOMIAL_TESTS + "test_compressed_polarization_turns_lcm_into_or_and_keeps_support_and_degree",
        ],
    ),
    # a bit weighted by its exponent, not by its step from the one below
    (
        "monomial.py",
        "weights[e - low]",
        "weights[e]",
        [
            MONOMIAL_TESTS + "test_the_closed_form_matches_both_oracles_on_seeded_ideals",
            MONOMIAL_TESTS + "test_compressed_polarization_turns_lcm_into_or_and_keeps_support_and_degree",
        ],
    ),
    # a colon generator of two bits taken for a variable
    (
        "monomial.py",
        "if w and not w & (w - 1):",
        "if w:",
        [
            MONOMIAL_TESTS + "test_the_closed_form_matches_both_oracles_on_seeded_ideals",
            MONOMIAL_TESTS + "test_linear_quotient_search[gapped-miss]",
        ],
    ),
    # w = 0, from a code an earlier one divides or repeats, no longer refused
    (
        "monomial.py",
        "if w and not w & (w - 1):",
        "if not w & (w - 1):",
        [
            MONOMIAL_TESTS + "test_linear_quotient_search[redundant]",
            MONOMIAL_TESTS + "test_linear_quotient_search[repeated]",
            MONOMIAL_TESTS + "test_a_directly_built_ideal_with_a_redundant_or_repeated_generator[both]",
        ],
    ),
    # the K^m shift 1 -> 0
    (
        "monomial.py",
        "return _homology(_upper_koszul_faces(facets)), 1",
        "return _homology(_upper_koszul_faces(facets)), 0",
        [*WALK_TESTS, MONOMIAL_TESTS + "test_wide_strand_with_small_facets_is_taken_on_its_koszul_complex"],
    ),
    # K^m never taken: the Taylor strand of 2^20 - 21 cells runs out of time
    (
        "monomial.py",
        "if faces < count:",
        "if faces < 0:",
        [MONOMIAL_TESTS + "test_complete_intersection_of_twenty_disjoint_supports_finishes[facets]"],
    ),
    # the new generator's bit left out of the union D(m)
    (
        "monomial.py",
        "lattice[join] = (old_count + count, old_union | union | 1 << bit, old_signed - signed)",
        "lattice[join] = (old_count + count, old_union | union, old_signed - signed)",
        WALK_TESTS,
    ),
    # a join's cells counted with the sign of the subsets they grow from
    (
        "monomial.py",
        "old_signed - signed)",
        "old_signed + signed)",
        WALK_TESTS,
    ),
    # the signed count taken on four variables, where K^m can have two
    # nonzero homology groups whose dimensions cancel
    (
        "monomial.py",
        "if top.bit_count() <= 3:",
        "if top.bit_count() <= 4:",
        [MONOMIAL_TESTS + "test_a_four_variable_strand_can_have_two_homology_groups"],
    ),
    # a positive signed count read at level 3 and a negative one at level 2
    (
        "monomial.py",
        "({2: signed} if signed > 0 else {3: -signed})",
        "({3: signed} if signed > 0 else {2: -signed})",
        WALK_TESTS,
    ),
    # K^m = {empty face} not told apart: a strand of repeated generators read
    # at level 3
    (
        "monomial.py",
        "if not any(facets):",
        "if False:",
        [
            MONOMIAL_TESTS + "test_a_directly_built_ideal_with_a_redundant_or_repeated_generator[repeated]",
            MONOMIAL_TESTS + "test_a_directly_built_ideal_with_a_redundant_or_repeated_generator[both]",
            MONOMIAL_TESTS + "test_a_directly_built_ideal_with_a_redundant_or_repeated_generator[mixed-degree]",
        ],
    ),
    # the components' Betti polynomials summed, not multiplied
    (
        "monomial.py",
        "product.get((i + k, j + d), 0) + a * b",
        "product.get((i + k, j + d), 0) + a + b",
        [
            MONOMIAL_TESTS + "test_ideals_of_several_components_match_the_taylor_oracle",
            MONOMIAL_TESTS + "test_complete_intersection_of_twenty_disjoint_supports_finishes[unused]",
        ],
    ),
    # the polarization's guard bit dropped: a full field runs into the next one
    (
        "monomial.py",
        "offset += len(values) + 1",
        "offset += len(values)",
        [MONOMIAL_TESTS + "test_compressed_polarization_turns_lcm_into_or_and_keeps_support_and_degree", *WALK_TESTS],
    ),
    # top taken as the code of m itself: that settles m in the polarized ideal,
    # whose diagram is the same, but no strict divisor is ever found and the
    # face bound 2^|top| grows: more rank calls, and (2,19) takes minutes
    (
        "monomial.py",
        "_settle(m & ~(m >> 1), count, union, signed, codes)",
        "_settle(m, count, union, signed, codes)",
        [
            MONOMIAL_TESTS + "test_rank_calls_on_the_corpus_families",
            MONOMIAL_TESTS + "test_koszul_cube_below_the_facet_sum_still_picks_k_m",
            MONOMIAL_TESTS + "test_powers_of_the_maximal_ideal_match_eagon_northcott[2-19-walk]",
        ],
    ),
    # a one-hot code for the j-th exponent, so that | is no longer max
    (
        "monomial.py",
        "runs = {e: ((1 << j) - 1) << offset",
        "runs = {e: (1 << (j - 1)) << offset",
        [MONOMIAL_TESTS + "test_compressed_polarization_turns_lcm_into_or_and_keeps_support_and_degree", *WALK_TESTS],
    ),
    # the k < j gradient sum starting at i = k + 1: the row read before term k is added
    (
        "pure.py",
        """                g -= lead[k] + q[k][j]
                if g > 0:
                    inward.append(_gradient_violation(x, p, j, k, g, common))
""",
        """                if g > 0:
                    inward.append(_gradient_violation(x, p, j, k, g, common))
                g -= lead[k] + q[k][j]
""",
        SWEEP_TESTS,
    ),
    # q[0][i] + q[j][i] in the k > j + 1 sum
    (
        "pure.py",
        "g += lead[k - 1] - row[k - 1]",
        "g += lead[k - 1] + row[k - 1]",
        SWEEP_TESTS,
    ),
    # the first gap read as sum q[0] - q[0][1] in every column
    (
        "pure.py",
        "if (g := lead_sum - lead[j]) < 0:",
        "if (g := lead_sum - lead[1]) < 0:",
        SWEEP_TESTS,
    ),
    # one random bit too many in the sampler, which moves every seeded point
    (
        "pure.py",
        "k = n.bit_length()\n",
        "k = n.bit_length() + 1\n",
        [PURE_TESTS + "test_both_gradient_lemmas_take_one_log_gradient_per_sampled_point"],
    ),
]


def check_snippets() -> list[str]:
    """One message per mutant whose old snippet does not occur exactly once."""
    problems = []
    for name, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "bettibounds" / name).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: {old!r} occurs {count} times, not once")
    return problems


def failing(tests: list[str], edit: tuple[str, str, str] | None = None) -> set[str] | None:
    """The named tests that fail on a copy of src/, with the (file, old, new) edit made.

    None when not every named test ran.
    """
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src)
        if edit is not None:
            name, old, new = edit
            path = src / "bettibounds" / name
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        report = Path(scratch) / "report.xml"
        command = [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", f"--junitxml={report}", *tests,
        ]
        subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        failed = set()
        ran = 0
        if report.is_file():
            for case in ElementTree.parse(report).iter("testcase"):
                ran += 1
                if case.find("failure") is not None or case.find("error") is not None:
                    failed.add(case.get("name"))
    if ran != len(tests):
        return None
    return {test for test in tests if test.split("::")[-1] in failed}


def main() -> int:
    problems = check_snippets()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    # a test that fails with no mutant would count as a kill
    named = list(dict.fromkeys(test for *_, tests in MUTANTS for test in tests))
    baseline = failing(named)
    if baseline is None:
        print(f"unmutated copy: {len(named)} tests named, not all ran", file=sys.stderr)
        return 2
    if baseline:
        print("failing on the unmutated copy:", *sorted(baseline), sep="\n    ", file=sys.stderr)
        return 2
    survived = 0
    for name, old, new, tests in MUTANTS:
        failed = failing(tests, (name, old, new))
        if failed is None:
            alive = [f"{len(tests)} tests named, not all ran"]
        else:
            alive = [test for test in tests if test not in failed]
        survived += bool(alive)
        print(f"{'SURVIVED' if alive else 'killed'}: {name}: {old!r} -> {new!r}")
        for test in alive:
            print(f"    not failing: {test}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
