import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bettibounds
from bettibounds import BettiDiagram
from bettibounds.cli import main

from helpers import _TimeLimitExpired, time_limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


QUOTIENT_X2_XY = '{"entries": [{"i":0,"j":0,"value":"1"},{"i":1,"j":2,"value":"2"},{"i":2,"j":3,"value":"1"}]}'


def test_pure_bad_degrees(capsys):
    # the second would also be a table too large: the sequence is refused first
    for degrees in ("0,0,1", "0,99999999999999999999,5"):
        code, _, err = run(capsys, "pure", "--degrees", degrees)
        assert code == 2
        assert err.startswith("error: invalid-sequence:")


@pytest.mark.parametrize("command, degrees", [("pure", "-1,0,2"), ("check-pure", "-3,-2,8")])
def test_a_negative_leading_degree_is_a_value_not_an_option(capsys, command, degrees):
    spaced = run(capsys, command, "--degrees", degrees)
    joined = run(capsys, command, f"--degrees={degrees}")
    assert spaced == joined
    assert spaced[0] in (0, 1) and spaced[1] and spaced[2] == ""


def test_a_negative_gap_tail_reaches_the_gap_check(capsys):
    code, out, err = run(
        capsys, "asymptotic", "--codim", "3", "--delta", "1", "--defect", "0", "--j", "1",
        "--t-max", "2", "--e-tail", "-1,0",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(("error: domain: ", "error: format: "))


def test_an_option_where_a_value_belongs_is_still_a_usage_error(capsys):
    code, out, err = run(capsys, "pure", "--degrees", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "error: usage: argument --degrees: expected one argument\n"


def test_check_beh_negative_codim_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "quotient.json"
    path.write_text(QUOTIENT_X2_XY, encoding="utf-8")
    code, out, err = run(capsys, "check-beh", str(path), "--codim", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: domain: codimension must be >= 0, got -1\n"


def test_check_beh_with_a_vast_degree_spread_reports(tmp_path, capsys):
    # the codimension comes from the Hilbert numerator 1 - t^(10^11), never expanded densely
    path = tmp_path / "spread.json"
    path.write_text(
        '{"entries":[{"i":0,"j":0,"value":"1"},{"i":1,"j":100000000000,"value":"1"}]}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check-beh", str(path))
    assert code in (0, 1)
    assert "codim: 1" in out and "overall:" in out
    assert "Traceback" not in out + err


def test_decompose_missing_file(capsys):
    code, _, err = run(capsys, "decompose", "/nonexistent/diagram.json")
    assert code == 2
    assert err.startswith("error: format:")


@pytest.mark.parametrize("command", ["decompose", "check-beh", "monomial-betti"])
def test_a_file_that_is_not_utf8_is_a_format_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"entries":[]}')
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: format: cannot read {path}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_an_empty_gap_tail_is_the_empty_tail(capsys):
    argv = ["asymptotic", "--codim", "1", "--delta", "1", "--defect", "0", "--j", "1", "--t-max", "1"]
    code, out, err = run(capsys, *argv, "--e-tail", "", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"rows": [{"t": 1, "leading": "1", "exact": "1", "pure": "1"}]}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-lemmas", "--samples", "10", "--seed", "1", "--s-max", "0"],
        ["verify-lemmas", "--samples", "-5", "--seed", "1"],
    ],
    ids=["s-max-0", "negative-samples"],
)
def test_out_of_range_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: domain: ")


@pytest.mark.parametrize(
    "family",
    [
        "power-of-maximal(2000,1)",
        "vplusm(1500,1,x0)",
        "power-of-maximal(3,400)",
        "square-free-example(3000)",
        pytest.param("power-of-maximal({n},{n})".format(n="9" * 4000), id="power-of-maximal(N,N)"),
    ],
)
def test_oversized_family_is_refused_before_it_is_built(capsys, family):
    code, out, err = run(capsys, "monomial-betti", "--family", family)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: too-many-generators: ")


@pytest.mark.parametrize(
    "family, detail",
    [
        ("power-of-maximal(2,2,7)", "power-of-maximal has 3 arguments; it takes 2"),
        ("square-free-example(4,9)", "square-free-example has 2 arguments; it takes 1"),
        ("square-free-example(4,)", "square-free-example has 2 arguments; it takes 1"),
    ],
)
def test_family_with_extra_arguments_is_a_format_error(capsys, family, detail):
    code, out, err = run(capsys, "monomial-betti", "--family", family)
    assert (code, out, err) == (2, "", f"error: format: {detail}\n")


@pytest.mark.parametrize(
    "argv, diagram, error",
    [
        (["check-beh", "FILE"], '{"entries": []}', "domain: empty diagram"),
        (["check-beh", "FILE"], '{"entries": {}}', 'format: "entries" must be a list'),
        (
            ["check-beh", "FILE"],
            '{"entries": [{"i": 0, "j": 0, "value": 3}]}',
            "format: rational literal must be a string, got int",
        ),
        (
            ["asymptotic", "--codim", "2", "--delta", "1", "--defect", "0", "--j", "1",
             "--t-max", "1", "--e-tail", "x"],
            None,
            "format: cannot parse gap tail 'x'",
        ),
        (["monomial-betti", "--family", "vplusm(2,1,y0)"], None, "format: cannot parse monomial factor 'y0'"),
        (["monomial-betti", "--family", "vplusm(2,1,x5)"], None, "format: variable x5 outside x0..x1"),
        (
            ["monomial-betti", "--family", "power-of-maximal(0,1)"],
            None,
            "format: power-of-maximal argument 0 must be >= 1",
        ),
    ],
    ids=[
        "empty-entries",
        "entries-not-a-list",
        "numeric-value",
        "gap-tail",
        "monomial-factor",
        "variable-out-of-range",
        "power-of-maximal-0",
    ],
)
def test_malformed_input_is_refused_on_one_line(tmp_path, capsys, argv, diagram, error):
    if diagram is not None:
        path = tmp_path / "diagram.json"
        path.write_text(diagram, encoding="utf-8")
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_help_and_version_still_exit_0_on_stdout(capsys):
    for argv in (["--version"], ["scan", "--help"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""


def test_error_detail_with_a_line_break_stays_on_one_line(capsys):
    code, _, err = run(capsys, "decompose", "no\nsuch.json")
    assert code == 2
    assert err.startswith("error: format: cannot read no such.json: ")
    assert len(err.splitlines()) == 1
    code, _, err = run(capsys, "pure", "--degrees", "0,1", "stray\rargument")
    assert err == "error: usage: unrecognized arguments: stray argument\n"


def test_json_nested_beyond_the_recursion_limit_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: format: invalid JSON: maximum recursion depth exceeded")


def test_pure_table_at_the_row_limit_prints(capsys):
    code, out, err = run(capsys, "pure", "--degrees", "0,10000")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2 + 10000
    assert lines[2].split() == ["0:", "1", "."]
    assert lines[-1].split() == ["9999:", ".", "1"]


@pytest.mark.parametrize("degrees", ["0,10001", "0,99999999999999999999"])
def test_pure_table_beyond_the_row_limit_is_a_domain_error(capsys, degrees):
    code, out, err = run(capsys, "pure", "--degrees", degrees)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: domain: the table would have ")


def test_pure_table_beyond_the_column_limit_is_refused_before_the_diagram_is_built(capsys):
    # herzog_kuhl on these 10,002 degrees takes minutes; the refusal needs none of it
    with time_limit(5):
        code, out, err = run(capsys, "pure", "--degrees", ",".join(map(str, range(10002))))
    assert (code, out) == (2, "")
    assert err == (
        "error: domain: the table would have 10002 columns, more than 10000; "
        "the json format has no such limit\n"
    )


def test_a_time_limit_expiring_inside_main_is_not_a_failed_write():
    # verify-lemmas at 10^5 samples takes seconds; main must let the alarm
    # through, not report it as `error: output:` with exit 2
    with pytest.raises(_TimeLimitExpired, match="still running after 0.2 s"):
        with time_limit(0.2):
            main(["verify-lemmas", "--samples", "100000", "--seed", "1", "--s-max", "8"])


def test_pure_json_has_no_row_limit(capsys):
    code, out, err = run(capsys, "pure", "--degrees", "0,99999999999999999999", "--format", "json")
    assert code == 0 and err == ""
    diagram = BettiDiagram.from_json(out)
    assert diagram == BettiDiagram({(0, 0): 1, (1, 99999999999999999999): 1})


# CPython refuses to convert an integer of more than sys.get_int_max_str_digits()
# digits to or from a decimal string; the CLI reports that as one error line
BEYOND_THE_DIGIT_LIMIT = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "entry, detail",
    [
        ('{"i":1,"j":%s,"value":"1"}' % BEYOND_THE_DIGIT_LIMIT, "format: invalid JSON: "),
        ('{"i":1,"j":2,"value":"%s"}' % BEYOND_THE_DIGIT_LIMIT, "format: rational literal has "),
    ],
    ids=["json-integer", "value-string"],
)
def test_diagram_file_beyond_the_digit_limit_is_a_format_error(tmp_path, capsys, entry, detail):
    path = tmp_path / "long.json"
    path.write_text('{"entries": [{"i":0,"j":0,"value":"1"},%s]}' % entry, encoding="utf-8")
    code, out, err = run(capsys, "check-beh", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {detail}")


def test_family_exponent_beyond_the_digit_limit_is_a_format_error(capsys):
    code, out, err = run(capsys, "monomial-betti", "--family", f"vplusm(2,2,x0^{BEYOND_THE_DIGIT_LIMIT})")
    assert code == 2
    assert out == ""
    assert err == (
        "error: format: monomial factor has a number of more than "
        f"{sys.get_int_max_str_digits()} digits\n"
    )


def test_output_beyond_the_digit_limit_is_a_domain_error(capsys):
    argv = ["asymptotic", "--codim", "2000", "--delta", "1", "--defect", "0", "--j", "1", "--t-max", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: domain: a value has more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's limit for printing an integer\n"
    )


@pytest.mark.parametrize(
    "tail, detail",
    [("0", "need s >= codim, got s=2 < 2000"), ("-1", "gap tail must be nonnegative integers, got (-1,)")],
)
def test_a_bad_gap_tail_is_refused_before_any_row_is_printed(capsys, tail, detail):
    # the first row's leading term has more digits than the interpreter prints
    argv = ["asymptotic", "--codim", "2000", "--delta", "1", "--defect", "0", "--j", "1", "--t-max", "1"]
    code, out, err = run(capsys, *argv, "--e-tail", tail)
    assert code == 2
    assert out == ""
    assert err == f"error: domain: {detail}\n"


def test_the_digit_limit_refusal_comes_at_the_first_row(capsys):
    # rows are computed as they are printed, so 3000 rows of 2000-factor
    # products are never built before the first row's refusal
    argv = ["asymptotic", "--codim", "2000", "--delta", "1", "--defect", "0", "--j", "1000", "--t-max", "3000"]
    with time_limit(2):
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: domain: a value has more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's limit for printing an integer\n"
    )


@pytest.mark.parametrize(
    "codim, delta",
    [("1000000", "1"), ("2000", "1" + "0" * 3999)],
    ids=["denominator", "numerator"],
)
def test_a_vast_leading_value_is_refused_by_a_bound_before_any_product(capsys, codim, delta):
    # leading at t = 1 is 1/(10^6 - 1)!, of about 5.5 million digits, or
    # 10^(3999 * 1999)/1999!; a bound on the bit lengths refuses either unbuilt
    argv = ["asymptotic", "--codim", codim, "--delta", delta, "--defect", "0", "--j", "1", "--t-max", "1"]
    with time_limit(2):
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: domain: a value has more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's limit for printing an integer\n"
    )


def test_without_a_digit_limit_a_large_codimension_prints_its_rows(capsys):
    # a limit of 0 is no limit, so the bound refuses nothing: 1/1999! is printed
    argv = ["asymptotic", "--codim", "2000", "--delta", "1", "--defect", "0", "--j", "1", "--t-max", "1"]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = run(capsys, *argv)
        expected = f"1/{math.factorial(1999)}"
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 0 and err == ""
    header, row = out.splitlines()
    assert header.split() == ["t", "leading", "exact"]
    assert row.split() == ["1", expected, "2000"]


def test_a_numerator_that_cancels_the_denominator_is_not_refused(capsys):
    # delta = 1 + b = 10^2200: the denominator (1 + b)^2 has 4,401 digits, but
    # delta^2 cancels it and leading is 1, so the bound counts delta's bits
    delta = 10**2200
    argv = ["asymptotic", "--codim", "3", "--delta", str(delta), "--defect", str(delta - 1)]
    code, out, err = run(capsys, *argv, "--j", "2", "--t-max", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[1].split() == ["1", "1", f"{2 * delta + 1}/{delta}"]


def test_vplusm_monomial_of_the_wrong_degree_is_quoted_not_computed(capsys):
    # the summed exponent has more digits than the interpreter will print
    nines = "9" * sys.get_int_max_str_digits()
    code, out, err = run(capsys, "monomial-betti", "--family", f"vplusm(2,2,x0^{nines}*x0^{nines})")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: format: vplusm monomial 'x0^999")
    assert err.endswith("' is not of degree 2\n")


def test_check_beh_codim_above_the_projective_dimension_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "quotient.json"
    path.write_text(QUOTIENT_X2_XY, encoding="utf-8")
    code, out, err = run(capsys, "check-beh", str(path), "--codim", "100000000")
    assert code == 2
    assert out == ""
    assert err == "error: domain: codimension 100000000 exceeds the projective dimension 2\n"


def test_check_beh_refuses_an_interior_zero_column_before_the_column_checks(tmp_path, capsys):
    # projective dimension 10^6 with columns 1..10^6-1 empty; the refusal must not
    # first build 10^6 + 1 column checks with million-digit binomials
    path = tmp_path / "gap.json"
    path.write_text(
        '{"entries":[{"i":0,"j":0,"value":"1"},{"i":1000000,"j":1000005,"value":"1"}]}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check-beh", str(path), "--codim", "1000000")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: gap-column: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--s-max", "30000000", "--d-max", "5", "--mode", "find-violations"],
        ["verify-lemmas", "--samples", "1", "--seed", "1", "--s-max", "1000000"],
    ],
    ids=["scan-s-range", "verify-lemmas-s-max"],
)
def test_a_vast_s_max_is_refused_before_any_work(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: domain: ")
    assert len(err) <= 200


def _run_into(stdout, *argv):
    """Run `python -m bettibounds` in a new process with the given stdout.

    Its stdout is block-buffered, as a pipe or a file is by default, so a
    failed write can surface as late as the interpreter's flush at exit.
    """
    # the new process imports the same copy of the library as this one
    env = {**os.environ, "PYTHONPATH": str(Path(bettibounds.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "bettibounds", *argv]
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60)


def _assert_one_output_error(result):
    lines = result.stderr.splitlines()
    assert result.returncode == 2
    assert len(lines) == 1 and lines[0].startswith("error: output: "), result.stderr


def _run_into_closed_pipe(*argv):
    read, write = os.pipe()
    os.close(read)
    try:
        return _run_into(write, *argv)
    finally:
        os.close(write)


def test_a_closed_stdout_pipe_is_one_output_error_line():
    # the guard-rail scan outgrows the pipe's buffer and fails at a write; the
    # small scan fails at a flush, which must come before the stderr summary
    for s_min, s_max, d_max in (("1", "8", "20"), ("5", "5", "8")):
        argv = ["scan", "--s-min", s_min, "--s-max", s_max, "--d-max", d_max]
        _assert_one_output_error(_run_into_closed_pipe(*argv, "--mode", "find-violations"))


def test_a_closed_stdout_pipe_under_decompose_validate_is_one_output_error_line(tmp_path):
    # the bounds line on stderr must not come before the failed write
    diagram = tmp_path / "d.json"
    diagram.write_text(BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2}).to_json())
    _assert_one_output_error(_run_into_closed_pipe("decompose", str(diagram), "--validate"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_full_stdout_device_is_one_output_error_line():
    with open("/dev/full", "w") as full:
        result = _run_into(full, "pure", "--degrees", "0,1,2,4")
    _assert_one_output_error(result)


@pytest.mark.parametrize("name", ["beh", "pure", "decompose"])
def test_the_library_returns_reports_and_cli_writes_them(name):
    # the package exports a function named decompose, so the module is looked up by name
    module = importlib.import_module(f"bettibounds.{name}")
    tree = ast.parse(inspect.getsource(module))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"json", "format_rational"}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"to_json", "to_csv", "summary"}
    assert not hasattr(module, "CSV_HEADER")
