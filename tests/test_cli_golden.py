"""Golden CLI transcript: fixed commands, byte-identical stdout, stderr and exit codes.

Every command runs in-process through `cli.main`.  Input files are written to
a temporary directory and named by placeholders such as {quotient}, so the
transcript never contains a path.  `cli_golden.txt` holds the expected
transcript; a change to any CLI output shows up here as a diff.  Every call
shares one parser, so the transcript is also replayed in other orders: a
call that left state in the parser would change a later block.

The transcript ends with the heavier pinned runs in `PINNED`: the Betti
tables of six families, the three scans over the whole guard rail, the lemmas
at 10^4 samples, long pure chains through `decompose --validate`, and the
refusals of inputs whose work would be vast.  They are replayed once, in order.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bettibounds import BettiDiagram, herzog_kuhl
from bettibounds.cli import build_parser, main

GOLDEN = Path(__file__).with_name("cli_golden.txt")


def pure_chain(degrees, terms, weight, bump) -> str:
    """JSON of the sum over k < terms of weight(k) * pi(degrees_k), where
    degrees_0 = degrees and degrees_{k+1} raises entry bump(k) of degrees_k by 1."""
    degrees = list(degrees)
    table = {}
    for k in range(terms):
        for key, value in herzog_kuhl(degrees).items():
            table[key] = table.get(key, 0) + weight(k) * value
        degrees[bump(k)] += 1
    return BettiDiagram(table).to_json()


FILES = {
    "generic": '{"entries": [{"i":0,"j":0,"value":"2"},{"i":1,"j":1,"value":"3"},'
    '{"i":2,"j":3,"value":"1"}]}',
    "quotient": '{"entries": [{"i":0,"j":0,"value":"1"},{"i":1,"j":2,"value":"2"},'
    '{"i":2,"j":3,"value":"1"}]}',
    # the quotient shifted up by two degrees, so check-beh translates it back
    "shifted": '{"entries": [{"i":0,"j":2,"value":"1"},{"i":1,"j":4,"value":"2"},'
    '{"i":2,"j":5,"value":"1"}]}',
    # 6 * (3 pi(0,2,3,5) + 2 pi(0,2,4,5) + pi(0,3,4,6) + pi(0,3,5))
    "chain": '{"entries": [{"i":0,"j":0,"value":"42"},{"i":1,"j":2,"value":"130"},'
    '{"i":1,"j":3,"value":"63"},{"i":2,"j":3,"value":"90"},{"i":2,"j":4,"value":"114"},'
    '{"i":2,"j":5,"value":"9"},{"i":3,"j":5,"value":"50"},{"i":3,"j":6,"value":"12"}]}',
    "ideal": '{"nvars": 3, "generators": [[2,0,0],[1,1,0],[0,1,1],[0,0,3]]}',
    # column 1 is empty below the projective dimension 2
    # a free module: column 1 is empty, so check-beh notes the shape hypothesis vacuous
    "free": '{"entries": [{"i":0,"j":0,"value":"2"}]}',
    "gap": '{"entries": [{"i":0,"j":0,"value":"1"},{"i":2,"j":3,"value":"1"}]}',
    "negative": '{"entries": [{"i":0,"j":0,"value":"1"},{"i":1,"j":2,"value":"-1"}]}',
    # 30 terms with s = 8, each sequence one degree above the last
    "chain30": pure_chain(range(0, 17, 2), 30, lambda k: Fraction(k + 1, 7), lambda k: 1 + k % 8),
    # 200 terms with s = 3, all sharing (0, 0); bumping the highest degree first
    # keeps each sequence strictly increasing, and each entry (i, d_i) is shared
    # until d_i is bumped again
    "chain200": pure_chain(
        (0, 2, 4, 6), 200, lambda k: Fraction(k + 1, 7 + k % 5), lambda k: 3 - k % 3
    ),
    # projective dimension 10^6 with columns 1..10^6-1 empty
    "wide_gap": '{"entries":[{"i":0,"j":0,"value":"1"},{"i":1000000,"j":1000005,"value":"1"}]}',
}

COMMANDS = [
    "pure --degrees 0,1,2,4",
    "pure --degrees 0,1,2,4 --format json",
    "pure --degrees=-1,2,3,7,9",
    "check-pure --degrees 0,1,2,3",
    "check-pure --degrees 0,1,2,3,5,6",
    "check-pure --degrees 0,1,2,3,5,6 --format json",
    "decompose {quotient}",
    "decompose {quotient} --format json",
    "decompose {chain}",
    "decompose {chain} --format json --validate",
    "decompose {generic} --validate",
    "check-beh {generic} --codim 2",
    "check-beh {quotient}",
    "check-beh {chain} --format json",
    "check-beh {shifted}",
    "check-beh {free}",
    "check-beh {free} --format json",
    "scan --s-max 4 --d-max 9 --mode shape-verify",
    "scan --s-max 4 --d-max 9 --mode find-violations",
    "scan --s-max 4 --d-max 9 --mode integral-violations",
    "asymptotic --codim 3 --delta 2 --defect 1 --j 2 --t-max 4",
    "asymptotic --codim 3 --delta 2 --defect 1 --j 2 --t-max 4 --format json",
    "asymptotic --codim 3 --delta 1 --defect 1 --j 2 --t-max 3 --e-tail 1,0",
    "asymptotic --codim 3 --delta 1 --defect 1 --j 2 --t-max 3 --e-tail 1,0 --format json",
    "verify-lemmas --samples 50 --seed 7",
    "verify-lemmas --samples 50 --seed 7 --s-max 5 --format json",
    "monomial-betti --family power-of-maximal(3,2)",
    "monomial-betti --family vplusm(3,2,x0^2,x0*x1)",
    "monomial-betti --family square-free-example(4) --format json",
    "monomial-betti {ideal}",
    # one failing command per error kind the CLI can reach
    "scan --s-max x --d-max 3 --mode shape-verify",
    "verify-lemmas --samples 10",
    "monomial-betti",
    "pure --degrees 0,,2",
    "monomial-betti --family nosuch(3)",
    "check-pure --degrees 0,1,1",
    "scan --s-max 9 --d-max 8 --mode find-violations",
    "verify-lemmas --samples 1 --seed 1 --s-max 1000000",
    "asymptotic --codim 2 --delta 1 --defect 0 --j 1 --t-max 0",
    "check-beh {gap}",
    "decompose {negative}",
    "monomial-betti --family power-of-maximal(3,5)",
    "monomial-betti --family power-of-maximal(2000,1)",
]

PINNED = [
    # power-of-maximal(5,2) has the table of square-free-example(6)
    "monomial-betti --family power-of-maximal(4,3)",
    "monomial-betti --family power-of-maximal(3,4)",
    "monomial-betti --family square-free-example(6)",
    "monomial-betti --family power-of-maximal(12,1)",
    "monomial-betti --family power-of-maximal(4,2)",
    "monomial-betti --family power-of-maximal(5,2)",
    # shape-verify finds nothing and exits 0; a violation mode exits 1 on its findings
    "scan --s-min 1 --s-max 8 --d-max 20 --mode shape-verify",
    "scan --s-min 1 --s-max 8 --d-max 20 --mode find-violations",
    "scan --s-min 1 --s-max 8 --d-max 20 --mode integral-violations",
    # beta_1 of S/m and S/m^2 in 3 variables: 3 and 6
    "asymptotic --codim 3 --delta 1 --defect 0 --j 1 --t-max 2 --format json",
    "verify-lemmas --samples 10000 --seed 1 --s-max 8 --format json",
    "decompose {chain30} --validate --format json",
    "decompose {chain200} --validate --format json",
    # refused before any column check or any sequence is built
    "check-beh {wide_gap} --codim 1000000",
    "scan --s-max 30000000 --d-max 5 --mode find-violations",
]


def transcript(tmp_path: Path, commands=COMMANDS) -> list:
    """One block per command: the command line, its stdout, stderr and exit code."""
    paths = {}
    for name, text in FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    blocks = []
    for command in commands:
        argv = [arg.format(**paths) for arg in shlex.split(command)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        block = f"$ betti {command}\n{out.getvalue()}"
        if err.getvalue():
            block += f"[stderr]\n{err.getvalue()}"
        blocks.append(block + f"[exit {code}]\n")
    return blocks


def split_blocks(text: str) -> list:
    blocks = []
    for line in text.splitlines(keepends=True):
        if line.startswith("$ betti "):
            blocks.append("")
        blocks[-1] += line
    return blocks


def test_cli_transcript_is_unchanged(tmp_path):
    blocks = transcript(tmp_path, COMMANDS + PINNED)
    expected = split_blocks(GOLDEN.read_text(encoding="utf-8"))
    assert [b.splitlines()[0] for b in blocks] == [b.splitlines()[0] for b in expected]
    for got, want in zip(blocks, expected):
        assert got == want


def test_every_main_call_shares_one_parser():
    assert build_parser() is build_parser()


USAGE_ERROR = "scan --s-max x --d-max 3 --mode shape-verify"


@pytest.mark.parametrize(
    "commands",
    [COMMANDS[::-1], [c for command in COMMANDS for c in (USAGE_ERROR, command)]],
    ids=["reversed", "each-after-a-usage-error"],
)
def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, commands):
    expected = {b.splitlines()[0]: b for b in split_blocks(GOLDEN.read_text(encoding="utf-8"))}
    for got in transcript(tmp_path, commands):
        assert got == expected[got.splitlines()[0]]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_the_transcript_does_not_depend_on_the_hash_seed(tmp_path, seed):
    # str hashes, and with them the iteration order of sets of strings, change
    # with PYTHONHASHSEED; no output may follow them
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONHASHSEED": seed}
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    script = (
        "import sys; from pathlib import Path; from test_cli_golden import transcript; "
        "sys.stdout.write(''.join(transcript(Path(sys.argv[1]))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, env=env, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    expected = split_blocks(GOLDEN.read_text(encoding="utf-8"))[: len(COMMANDS)]
    assert result.stdout == "".join(expected)
