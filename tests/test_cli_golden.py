"""Golden CLI transcript: fixed commands, byte-identical stdout, stderr and exit codes.

Every command runs in-process through `cli.main`.  Input files are written to
a temporary directory and named by placeholders such as {quotient}, so the
transcript never contains a path.  `cli_golden.txt` holds the expected
transcript; a change to any CLI output shows up here as a diff.  Every call
shares one parser, so the transcript is also replayed in other orders: a
call that left state in the parser would change a later block.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from bettibounds.cli import build_parser, main

GOLDEN = Path(__file__).with_name("cli_golden.txt")

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
    "gap": '{"entries": [{"i":0,"j":0,"value":"1"},{"i":2,"j":3,"value":"1"}]}',
    "negative": '{"entries": [{"i":0,"j":0,"value":"1"},{"i":1,"j":2,"value":"-1"}]}',
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


def transcript(tmp_path: Path, capsys, commands=COMMANDS) -> list:
    """One block per command: the command line, its stdout, stderr and exit code."""
    paths = {}
    for name, text in FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    blocks = []
    for command in commands:
        argv = [arg.format(**paths) for arg in shlex.split(command)]
        code = main(argv)
        captured = capsys.readouterr()
        block = f"$ betti {command}\n{captured.out}"
        if captured.err:
            block += f"[stderr]\n{captured.err}"
        blocks.append(block + f"[exit {code}]\n")
    return blocks


def split_blocks(text: str) -> list:
    blocks = []
    for line in text.splitlines(keepends=True):
        if line.startswith("$ betti "):
            blocks.append("")
        blocks[-1] += line
    return blocks


def test_cli_transcript_is_unchanged(tmp_path, capsys):
    blocks = transcript(tmp_path, capsys)
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
def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, commands):
    expected = {b.splitlines()[0]: b for b in split_blocks(GOLDEN.read_text(encoding="utf-8"))}
    for got in transcript(tmp_path, capsys, commands):
        assert got == expected[got.splitlines()[0]]
