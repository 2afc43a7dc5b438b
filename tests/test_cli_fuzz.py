"""The CLI contract under random input: exit 0, 1 or 2, and never an exception.

hypothesis builds argv from the eight subcommands, their own option names,
one unknown option and small values, and writes diagram and ideal JSON files
for the commands that read one, some well-formed and some made of arbitrary
JSON values.  Numbers are kept small only so that the runs stay short.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bettibounds.cli import main

from helpers import pure_sum

# the seven kinds the README lists for the `error: <kind>: <detail>` line, one per
# `BettiError` subclass; not `output`: these runs print to memory, which cannot
# fail as a closed pipe or a full device can
KINDS = {
    "format",
    "domain",
    "gap-column",
    "invalid-sequence",
    "not-in-cone",
    "too-many-generators",
    "usage",
}

# subcommand -> (options it requires, options it also takes); FILE marks the
# positional, SOURCE exactly one of FILE and --family
COMMANDS = {
    "pure": (["--degrees"], ["--format"]),
    "decompose": (["FILE"], ["--validate", "--format"]),
    "check-beh": (["FILE"], ["--codim", "--format"]),
    "check-pure": (["--degrees"], ["--format"]),
    "scan": (["--s-max", "--d-max", "--mode"], ["--s-min"]),
    "asymptotic": (["--codim", "--delta", "--defect", "--j", "--t-max"], ["--e-tail", "--format"]),
    "verify-lemmas": (["--samples", "--seed"], ["--s-max", "--format"]),
    "monomial-betti": (["SOURCE"], ["--format"]),
}
FLAGS = {"--validate"}
INT_OPTIONS = {
    "--codim", "--delta", "--defect", "--j", "--t-max",
    "--s-min", "--s-max", "--d-max", "--samples", "--seed",
}
UNKNOWN_OPTION = "--no-such-option"


@st.composite
def mostly(draw, good, bad):
    """A draw from `good` 19 times in 20, from `bad` otherwise."""
    return draw(good if draw(st.integers(0, 19)) else bad)


usually = mostly(st.just(True), st.just(False))


small_ints = st.integers(-3, 12)
# a shell passes any text but NUL, and lone surrogates only from undecodable bytes;
# half the characters come from a few that matter to the parsers, line breaks included
texts = st.text(
    st.sampled_from(",-=.0123456789x \t\r\n")
    | st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    max_size=6,
)


def commas(numbers):
    return ",".join(map(str, numbers))


comma_lists = st.lists(small_ints, max_size=6).map(commas)
increasing = st.sets(small_ints, min_size=1, max_size=6).map(sorted).map(commas)
values = st.one_of(small_ints.map(str), comma_lists, texts)
families = st.one_of(
    st.builds("power-of-maximal({},{})".format, st.integers(0, 3), st.integers(0, 3)),
    st.builds("square-free-example({})".format, st.integers(0, 5)),
    st.builds(
        lambda n, d, monomials: f"vplusm({n},{d},{','.join(monomials)})",
        st.integers(0, 3),
        st.integers(0, 2),
        st.lists(
            st.builds("x{}^{}".format, st.integers(0, 3), st.integers(0, 3)), max_size=3
        ),
    ),
    st.just("nosuch(3)"),
)
OPTION_VALUES = {
    "--mode": st.sampled_from(["shape-verify", "find-violations", "integral-violations"]),
    "--format": st.sampled_from(["table", "json"]),
    "--family": families,
    "--degrees": mostly(increasing, comma_lists),
    "--e-tail": comma_lists,
    **{option: mostly(st.integers(0, 8), small_ints).map(str) for option in INT_OPTIONS},
}

json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | small_ints | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
rationals = st.fractions(0, 12, max_denominator=6).map(str)
other_values = st.builds("{}/{}".format, small_ints, small_ints) | json_values
entries = st.fixed_dictionaries(
    {
        "i": mostly(st.integers(0, 4), json_values),
        "j": mostly(small_ints, json_values),
        "value": mostly(rationals, other_values),
    }
)
random_diagrams = st.fixed_dictionaries(
    {"entries": st.lists(mostly(entries, json_values), min_size=1, max_size=6)}
)
# positive combinations of pure diagrams, which reach the end of every command
pure_sums = st.lists(
    st.tuples(st.integers(1, 6), st.sets(small_ints, min_size=1, max_size=5).map(sorted)),
    min_size=1,
    max_size=3,
).map(lambda terms: json.loads(pure_sum(terms).to_json()))
diagrams = random_diagrams | pure_sums


@st.composite
def ideals(draw):
    nvars = draw(mostly(st.integers(1, 4), json_values))
    width = nvars if type(nvars) is int else 2
    exponents = st.lists(mostly(st.integers(0, 4), json_values), min_size=width, max_size=width)
    generators = st.lists(mostly(exponents, json_values), min_size=1, max_size=8)
    return {"nvars": nvars, "generators": draw(mostly(generators, json_values))}


@st.composite
def file_texts(draw, command):
    """Text of the input file: mostly the JSON the command reads, else anything."""
    good = ideals() if command == "monomial-betti" else diagrams
    bad = st.one_of(diagrams, ideals(), json_values).map(json.dumps) | st.text(max_size=12)
    return draw(mostly(good.map(json.dumps), bad))


@st.composite
def invocations(draw):
    """(argv, text of the file that FILE names, or None for a missing file)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    options = [o for o in required if draw(usually)]
    options += draw(
        st.lists(mostly(st.sampled_from(optional), st.just(UNKNOWN_OPTION)), max_size=2)
    )
    if "SOURCE" in options:
        options.remove("SOURCE")
        sources = mostly(st.sampled_from([["FILE"], ["--family"]]), st.just(["FILE", "--family"]))
        options += draw(sources)
    argv = [command]
    for option in draw(st.permutations(options)):
        if option == "FILE":
            argv.append("{file}")
        elif option in FLAGS:
            argv.append(option)
        elif draw(usually):  # else the value is missing
            value = draw(mostly(OPTION_VALUES.get(option, values), values))
            # "--opt=value" also passes values that look like options, such as -1,2
            argv += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
        else:
            argv.append(option)
    argv += draw(mostly(st.just([]), st.lists(texts, min_size=1, max_size=1)))  # a stray token
    file_text = draw(mostly(file_texts(command), st.none()))
    return argv, file_text


@settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_every_argv_keeps_the_exit_contract(invocation):
    argv, file_text = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        if file_text is not None:
            path.write_text(file_text, encoding="utf-8")
        argv = [str(path) if arg == "{file}" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except BaseException as exc:  # SystemExit included
            raise AssertionError(f"{type(exc).__name__} escaped main: {exc!r}") from exc
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        match = re.fullmatch(r"error: ([a-z-]+): .*", lines[0])
        assert match and match.group(1) in KINDS, lines[0]
