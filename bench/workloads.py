"""Seeded workloads: the ops each one runs and the check of each op's output.

A workload turns a seed into one *pass*: a fixed list of ops whose size mix
does not depend on the seed (each op is drawn from its own stratum), so runs
with different seeds do comparable work.  An op is one user command, or one
input taken through its command chain; each command is an argv for
`bettibounds.cli.main`.  Inputs that live in files are written to the work
directory during set-up.

`check` compares what the commands printed with results from `oracle`, which
does not use the library.  It returns None when the op is correct, otherwise
(kind, detail) with kind "refused" (the CLI exited 2) or "wrong" (an answer
that differs from the expected one).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import oracle


@dataclass
class Op:
    argvs: list
    items: int
    spec: dict = field(default_factory=dict)


def _refusal(runs):
    for code, _, err in runs:
        if code == 2:
            match = re.search(r"^error: ([a-z-]+)", err, re.M)
            return ("refused", match.group(1) if match else "usage")
    return None


def _expect(condition, detail):
    return None if condition else ("wrong", detail)


# -- scan --------------------------------------------------------------------------

SCAN_MODES = ("shape-verify", "find-violations", "integral-violations")
# cost of an op in microseconds at nominal speed, fitted at the parent commit:
# a fixed part plus a cost per sequence by mode and s.  Only used to give
# every seed the same spread of op sizes, never to check anything.
_SCAN_OP_US = 2600
_SCAN_SEQUENCE_US = {
    "shape-verify": (0, 43, 39, 57, 84, 107, 161, 225, 268),
    "find-violations": (0, 42, 28, 72, 99, 129, 166, 256, 297),
    "integral-violations": (0, 73, 50, 72, 92, 127, 181, 221, 287),
}
_SUMMARY_RE = re.compile(r"scan mode=(\S+) s=(\d+)\.\.(\d+) d_max=(\d+): (\d+) sequences, (\d+) findings")


class Scan:
    """Slices of the scan guard rail (s 1..8, d_max <= 20), all three modes.

    Op k has a target cost on a geometric grid from min_us to max_us, a mode
    (k mod 3) and a top length s_max (3..8, cycling); the seed picks a slice
    (s_min, d_max) whose modelled cost is within 7% of the target.  Every
    seed thus gets the same spread of op sizes and sequence lengths.
    """

    ops_per_pass = 72
    min_us, max_us = 12_000, 160_000

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        ops = []
        for k in range(self.ops_per_pass):
            target = self.min_us * (self.max_us / self.min_us) ** ((k + 0.5) / self.ops_per_pass)
            mode, b = SCAN_MODES[k % 3], 3 + k // 3 % 6
            slices = [
                (abs(self.cost(mode, a, b, d) / target - 1), a, d)
                for a in range(1, b + 1)
                for d in range(b, 21)
            ]
            close = [x for x in slices if x[0] <= 0.07] or [min(slices)]
            _, a, d = rng.choice(close)
            argv = ["scan", "--s-min", str(a), "--s-max", str(b), "--d-max", str(d), "--mode", mode]
            sequences = sum(math.comb(d, s) for s in range(a, b + 1))
            ops.append(Op([argv], sequences, {"mode": mode, "s": (a, b), "d_max": d}))
        rng.shuffle(ops)
        self.ops = ops
        self._rows = {}

    @staticmethod
    def cost(mode, a, b, d):
        return _SCAN_OP_US + sum(math.comb(d, s) * _SCAN_SEQUENCE_US[mode][s] for s in range(a, b + 1))

    def _expected_rows(self, mode, s, d_max):
        widest = max(op.spec["d_max"] for op in self.ops
                     if op.spec["mode"] == mode and op.spec["s"][0] <= s <= op.spec["s"][1])
        key = (mode, s)
        if key not in self._rows:
            self._rows[key] = oracle.scan_rows(mode, s, widest)
        return [text for last, text in self._rows[key] if last <= d_max]

    def check(self, op, runs):
        refused = _refusal(runs)
        if refused:
            return refused
        (code, out, err), = runs
        mode, (a, b), d = op.spec["mode"], op.spec["s"], op.spec["d_max"]
        rows = [row for s in range(a, b + 1) for row in self._expected_rows(mode, s, d)]
        summary = _SUMMARY_RE.search(err)
        return (
            _expect(summary is not None, "no scan summary on stderr")
            or _expect(int(summary.group(5)) == op.items, f"sequence count {summary.group(5)} != {op.items}")
            or _expect(int(summary.group(6)) == len(rows), f"finding count {summary.group(6)} != {len(rows)}")
            or _expect(code == (1 if rows else 0), f"exit {code}")
            or _expect(out == "\n".join([oracle.SCAN_HEADER] + rows) + "\n", "finding rows differ")
        )


# -- lemmas ----------------------------------------------------------------------------

LEMMAS = ("first-gap-monotonicity", "inward-shift-monotonicity", "binomial-floor")


class Lemmas:
    """`verify-lemmas` calls, each with its own seed derived from the workload seed."""

    ops_per_pass = 48
    samples = 40
    s_max = 8

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.ops = [
            Op(
                [["verify-lemmas", "--samples", str(self.samples), "--seed", str(lemma_seed),
                  "--s-max", str(self.s_max)]],
                self.samples,
                {"seed": lemma_seed},
            )
            for lemma_seed in (rng.randrange(2**31) for _ in range(self.ops_per_pass))
        ]

    def check(self, op, runs):
        refused = _refusal(runs)
        if refused:
            return refused
        (code, out, _), = runs
        lines = [
            f"{name}: {self.samples} samples, seed {op.spec['seed']}, s <= {self.s_max}: PASS"
            for name in LEMMAS
        ]
        return _expect(code == 0, f"exit {code}") or _expect(out == "\n".join(lines) + "\n", "report differs")


# -- betti ------------------------------------------------------------------------------


def _monomials(nvars, degree):
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        vector = [0] * nvars
        for v in combo:
            vector[v] += 1
        out.append(tuple(vector))
    return out


def _monomial_text(vector):
    return "*".join(f"x{v}^{e}" for v, e in enumerate(vector) if e)


def parse_table(text):
    """{(i, j): Fraction} from the table rendering of a Betti diagram."""
    lines = text.strip("\n").split("\n")
    table = {}
    for line in lines[2:]:
        label, *cells = line.split()
        row = int(label.rstrip(":"))
        for i, cell in enumerate(cells):
            if cell != ".":
                table[i, row + i] = Fraction(cell)
    return table


class Betti:
    """`monomial-betti` on equigenerated ideals in 2-3 variables with r <= 11.

    Taylor work grows as 2^r, so the pass is built from cost classes of fixed
    size: 28 seeded ideals with r <= 6, 17 with r = 8, and in two variables 20
    with r = 7, 16 with r = 9 and one with r = 11, next to 16 corpus ideals
    (power-of-maximal(2, 2..9) and (3, 2..3), square-free-example(3..4) and
    four seeded vplusm).  Sorted by cost, the 50th latency percentile falls
    inside the r = 7 class and the 90th inside the r = 9 class for every seed.
    """

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.ops = []
        for d in (2, 3, 4, 5, 6, 7, 8, 9):
            self._family(f"power-of-maximal(2,{d})", _monomials(2, d), oracle.eagon_northcott(2, d))
        for d in (2, 3):
            self._family(f"power-of-maximal(3,{d})", _monomials(3, d), oracle.eagon_northcott(3, d))
        for k in (3, 4):
            pairs = [tuple(int(v in (a, b)) for v in range(k)) for a in range(k) for b in range(a + 1, k)]
            self._family(f"square-free-example({k})", pairs, oracle.square_free_pairs(k))
        for target in (4, 6, 8, 8):
            while True:
                d = rng.randint(3, 9)
                listed = rng.sample(_monomials(2, d), rng.randint(1, d + 1))
                gens = oracle.minimal_generators(listed + _monomials(2, d + 1))
                if len(gens) == target:
                    break
            self._family(f"vplusm(2,{d},{','.join(_monomial_text(m) for m in listed)})", gens, None)
        classes = [(2 + k % 2, 3 + k // 2 % 4) for k in range(28)]  # r <= 6
        classes += [(2, 7)] * 20
        classes += [(2, 8)] * 8 + [(3, 8)] * 9
        classes += [(2, 9)] * 16 + [(2, 11)]
        for nvars, r in classes:
            low = r - 1 if nvars == 2 else 2
            degree = rng.randint(low, low + 3)
            while len(_monomials(nvars, degree)) < r:
                degree += 1
            gens = sorted(rng.sample(_monomials(nvars, degree), r))
            path = Path(workdir) / f"ideal-{len(self.ops)}.json"
            path.write_text(json.dumps({"nvars": nvars, "generators": [list(g) for g in gens]}))
            self._add([str(path)], gens, None)
        rng.shuffle(self.ops)
        self._expected = {}

    def _family(self, name, gens, closed_form):
        self._add(["--family", name], gens, closed_form)

    def _add(self, tail, gens, closed_form):
        spec = {"generators": gens, "closed_form": closed_form}
        self.ops.append(Op([["monomial-betti", *tail]], 1, spec))

    def expected(self, op):
        gens = tuple(map(tuple, op.spec["generators"]))
        if gens not in self._expected:
            self._expected[gens] = (oracle.betti_table(gens), oracle.subset_numerator(oracle.minimal_generators(gens)))
        return self._expected[gens]

    def lcm_collapse_share(self):
        """Sum of distinct subset lcms over sum of 2^r, across the pass."""
        distinct = total = 0
        for op in self.ops:
            gens = oracle.minimal_generators(op.spec["generators"])
            distinct += len(set(oracle.subset_lcms(gens)))
            total += 1 << len(gens)
        return distinct / total

    def check(self, op, runs):
        refused = _refusal(runs)
        if refused:
            return refused
        (code, out, _), = runs
        table, numerator = self.expected(op)
        got = parse_table(out)
        closed = op.spec["closed_form"]
        return (
            _expect(code == 0, f"exit {code}")
            or _expect(closed is None or closed == table, "closed form and oracle disagree")
            or _expect(got == table, "Betti table differs")
            or _expect(oracle.hilbert_numerator(got) == numerator, "Hilbert numerator differs")
        )


# -- modules ----------------------------------------------------------------------------


def _diagram_json(table):
    entries = [{"i": i, "j": j, "value": str(v)} for (i, j), v in sorted(table.items())]
    return json.dumps({"entries": entries})


class Modules:
    """`decompose FILE --validate` then `check-beh FILE` on pure-chain
    combinations and on Betti diagrams of generic monomial ideals.

    16 inputs are ideal diagrams (about 5-12 ms per op) and 20 are chains of
    chain_terms pure diagrams with s = 3..8 (about 12-35 ms, rising with s).
    Sorted by cost, the 50th latency percentile falls on the s = 3 chains and
    the 90th on the s = 7 chains for every seed.
    """

    chain_lengths = (3,) * 4 + (4,) * 3 + (5,) * 3 + (6,) * 3 + (7,) * 5 + (8,) * 2
    chain_terms = 30
    ideal_vars, ideal_generators, ideal_max_exponent = 6, 8, 3
    # genuine diagrams whose max-degree sequence is strictly / only weakly
    # increasing; `validate_bounds` mishandles the second kind, which is
    # about 13% of such ideals
    strict_ideals, weak_ideals = 14, 2

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        inputs = []
        for s in self.chain_lengths:
            degrees = [0]
            for _ in range(s):
                degrees.append(degrees[-1] + 1 + rng.randint(0, 2))
            terms = []
            for _ in range(self.chain_terms):
                coefficient = Fraction(rng.randrange(1, 1 << 24), rng.randrange(1, 1 << 12))
                terms.append((coefficient, tuple(degrees)))
                movable = [i for i in range(1, s + 1) if i == s or degrees[i] + 1 < degrees[i + 1]]
                degrees[rng.choice(movable)] += 1
            inputs.append(("chain", oracle.combine_pure(terms), terms))
        wanted = {True: self.strict_ideals, False: self.weak_ideals}
        while any(wanted.values()):
            gens = [
                tuple(rng.randint(0, self.ideal_max_exponent) for _ in range(self.ideal_vars))
                for _ in range(self.ideal_generators)
            ]
            if any(not any(g) for g in gens):
                continue
            table = {k: Fraction(v) for k, v in oracle.betti_table(gens).items()}
            top = oracle.column_extremes(table, max)
            strict = all(a < b for a, b in zip(top, top[1:]))
            if wanted[strict]:
                wanted[strict] -= 1
                inputs.append(("ideal", table, None))
        self.ops = []
        for n, (kind, table, terms) in enumerate(inputs):
            path = Path(workdir) / f"diagram-{n}.json"
            path.write_text(_diagram_json(table))
            argvs = [["decompose", str(path), "--validate"], ["check-beh", str(path)]]
            self.ops.append(Op(argvs, 1, {"kind": kind, "table": table, "terms": terms}))
        rng.shuffle(self.ops)

    @staticmethod
    def check(op, runs):
        refused = _refusal(runs)
        if refused:
            return refused
        (dcode, dout, derr), (bcode, bout, _) = runs
        table = op.spec["table"]
        terms = []
        for line in dout.strip("\n").split("\n")[1:]:
            coefficient, degrees = line.split()
            terms.append((Fraction(coefficient), tuple(int(d) for d in degrees.split(","))))
        # each term's sequence is at most the next one termwise, and no shorter
        chain = all(
            len(a) >= len(b) and a != b and all(x <= y for x, y in zip(a, b))
            for (_, a), (_, b) in zip(terms, terms[1:])
        )
        codim = oracle.vanishing_order_at_one(oracle.hilbert_numerator(table))
        lines, beh_code = oracle.beh_report_lines(table, codim)
        return (
            _expect(dcode == 0, f"decompose exit {dcode}")
            or _expect(derr == "bounds: PASS\n", f"decompose stderr {derr!r}")
            or _expect(all(c > 0 for c, _ in terms) and chain, "decomposition is not a positive chain")
            or _expect(oracle.combine_pure(terms) == table, "recomposition differs from the input")
            or _expect(op.spec["terms"] in (None, terms), "chain terms not recovered")
            or _expect(bcode == beh_code, f"check-beh exit {bcode}")
            or _expect(bout == "\n".join(lines) + "\n", "check-beh report differs")
        )


WORKLOADS = {"scan": Scan, "lemmas": Lemmas, "betti": Betti, "modules": Modules}
