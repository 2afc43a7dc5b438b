"""Command-line interface.

Exit codes: 0 = success or all checks passed; 1 = a mathematical finding
(a violated bound, a diagram outside the decomposable cone); 2 = usage or
input error.  Every failure, argparse's included, prints one `error: <kind>:
<detail>` line on stderr; only --help and --version exit through SystemExit.

The library returns report data, and every report a command prints is written
here; `BettiDiagram` and `MonomialIdeal` keep their own file formats.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

from . import __version__
from .asymptotic import PowerBoundParams, bound_vs_pure, exact_lower_bound, leading_bound
from .beh import SCAN_MODES, beh_check, pure_beh_check, scan
from .decompose import decompose, validate_bounds
from .diagram import (
    BettiDiagram,
    check_degree_sequence,
    check_table_size,
    format_grid,
    format_rational,
)
from .errors import BettiError, FormatError, NotInConeError, UsageError
from .monomial import MonomialIdeal, corpus, taylor_betti
from .pure import (
    herzog_kuhl,
    verify_binomial_floor,
    verify_first_gap_monotone,
    verify_inward_shift_monotone,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


def _error_slug(exc: BettiError) -> str:
    """NotInConeError -> "not-in-cone"."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__.removesuffix("Error")).lower()


def _parse_ints(text: str, noun: str) -> tuple:
    """A comma list of integers; a FormatError quoting the text as a `noun` if not."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise FormatError(f"cannot parse {noun} {text!r}") from None


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _read_diagram(path: str) -> BettiDiagram:
    return BettiDiagram.from_json(_read_file(path))


def _print_diagram(diagram: BettiDiagram, fmt: str):
    if fmt == "json":
        print(diagram.to_json())
    else:
        print(diagram.table())


# -- report writers ------------------------------------------------------------

CSV_HEADER = "degrees;s;shape;beh_pass;first_violating_j;betti_totals"


def _commas(values) -> str:
    return ",".join(map(str, values))


def _truth(flag: bool) -> str:
    return "true" if flag else "false"


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _beh_json(report) -> dict:
    return {
        "codim": report.codim,
        "beta0": format_rational(report.beta0),
        "per_j": [
            {"j": c.j, "actual": format_rational(c.actual),
             "required": format_rational(c.required), "pass": c.passed}
            for c in report.per_j
        ],
        "hypothesis_met": report.hypothesis_met,
        "overall": report.overall,
        "notes": list(report.notes),
    }


def _print_beh_report(report, fmt: str, heading=None):
    if fmt == "json":
        print(json.dumps(_beh_json(report)))
        return
    if heading:
        print(heading)
    print(f"codim: {report.codim}")
    print(f"beta0: {format_rational(report.beta0)}")
    print(f"hypothesis met: {_truth(report.hypothesis_met)}")
    for note in report.notes:
        print(f"note: {note}")
    for check in report.per_j:
        relation = ">=" if check.passed else "<"
        print(f"j={check.j}: {format_rational(check.actual)} {relation} {format_rational(check.required)}")
    print(f"overall: {_verdict(report.overall)}")


def _scan_csv(report) -> str:
    """The header, then one `;`-separated line per reported row."""
    lines = [CSV_HEADER]
    for row in report.rows:
        totals = _commas(map(format_rational, row.betti_totals))
        flags = f"{_truth(row.shape)};{_truth(row.beh_pass)}"
        lines.append(f"{_commas(row.degrees)};{row.s};{flags};{row.first_violating_j};{totals}")
    return "\n".join(lines)


def _verify_json(report) -> dict:
    violations = [
        {"e": [format_rational(x) for x in v.e], "j": v.j, "k": v.k,
         "value": format_rational(v.value)}
        for v in report.violations
    ]
    return {"lemma": report.name, "samples": report.samples, "seed": report.seed,
            "violations": violations}


def _cmd_pure(args) -> int:
    degrees = check_degree_sequence(_parse_ints(args.degrees, "degree sequence"))
    if args.format == "table":
        # refused before the diagram is built: rows by offset d_i - i, columns 0..s
        s = len(degrees) - 1
        check_table_size(degrees[s] - s - degrees[0] + 1, s + 1)
    _print_diagram(herzog_kuhl(degrees), args.format)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    diagram = _read_diagram(args.file)
    decomposition = decompose(diagram)
    if args.format == "json":
        terms = [{"coefficient": format_rational(c), "degrees": list(d)} for c, d in decomposition]
        print(json.dumps({"terms": terms}))
    else:
        print("coefficient  degrees")
        for coefficient, degrees in decomposition:
            print(f"{format_rational(coefficient)}  {_commas(degrees)}")
    if args.validate:
        report = validate_bounds(decomposition, diagram)
        sys.stdout.flush()  # a failed write must fail before stderr reports the bounds
        print(f"bounds: {_verdict(report.passed)}", file=sys.stderr)
        if not report.passed:
            return EXIT_FINDING
    return EXIT_OK


def _cmd_check_beh(args) -> int:
    diagram = _read_diagram(args.file)
    report = beh_check(diagram, codim=args.codim)
    _print_beh_report(report, args.format)
    return EXIT_OK if report.overall else EXIT_FINDING


def _cmd_check_pure(args) -> int:
    degrees = _parse_ints(args.degrees, "degree sequence")
    report = pure_beh_check(degrees)
    _print_beh_report(report, args.format, heading=f"degrees: {_commas(degrees)}")
    return EXIT_OK if report.overall else EXIT_FINDING


def _cmd_scan(args) -> int:
    report = scan(args.s_min, args.s_max, args.d_max, args.mode)
    print(_scan_csv(report))
    sys.stdout.flush()  # a failed write must fail before stderr reports the summary
    print(
        f"scan mode={report.mode} s={min(report.s_values)}..{max(report.s_values)} "
        f"d_max={report.d_max}: {report.sequences_checked} sequences, {report.findings} findings",
        file=sys.stderr,
    )
    return EXIT_FINDING if report.findings else EXIT_OK


def _cmd_asymptotic(args) -> int:
    tail = None
    if args.e_tail is not None:
        tail = _parse_ints(args.e_tail, "gap tail") if args.e_tail else ()
    # checks every parameter, t_max >= 1 included, before tabulating
    PowerBoundParams(args.codim, args.delta, args.defect, args.j, args.t_max)
    rows = []
    for t in range(1, args.t_max + 1):
        params = PowerBoundParams(args.codim, args.delta, args.defect, args.j, t)
        row = {
            "t": t,
            "leading": format_rational(leading_bound(params)),
            "exact": format_rational(exact_lower_bound(params)),
        }
        if tail is not None:
            row["pure"] = format_rational(bound_vs_pure(params, tail).pure_value)
        rows.append(row)
    if args.format == "json":
        print(json.dumps({"rows": rows}))
    else:
        print(format_grid([list(rows[0])] + [[str(v) for v in row.values()] for row in rows]))
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    reports = [
        verify_first_gap_monotone(args.s_max, args.samples, args.seed),
        verify_inward_shift_monotone(args.s_max, args.samples, args.seed),
        verify_binomial_floor(args.s_max, args.samples, args.seed),
    ]
    if args.format == "json":
        print(json.dumps({"reports": [_verify_json(r) for r in reports]}))
    else:
        for r in reports:
            status = _verdict(r.passed) + (f" ({len(r.violations)} violations)" if r.violations else "")
            print(f"{r.name}: {r.samples} samples, seed {r.seed}, s <= {r.s_max}: {status}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FINDING


def _cmd_monomial_betti(args) -> int:
    if bool(args.file) == bool(args.family):
        raise UsageError("provide exactly one of FILE or --family")
    if args.family:
        ideal = corpus(args.family)
    else:
        ideal = MonomialIdeal.from_json(_read_file(args.file))
    _print_diagram(taylor_betti(ideal), args.format)
    return EXIT_OK


def _add_format(parser):
    parser.add_argument("--format", choices=("table", "json"), default="table")


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse prints usage and exits; subparsers inherit it.

    A comma list of integers led by a negative one, such as `-1,0,2`, is read
    as a value like `-1` is, not as an unknown option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `betti` parser, built on first use and then shared by every `main` call.

    Sharing is safe because parsing leaves the parser unchanged: each
    `parse_args` fills a fresh namespace, and every default is immutable.
    """
    parser = _Parser(
        prog="betti",
        description="Exact Betti-diagram toolkit: pure diagrams, cone decomposition, "
        "binomial rank bounds, and monomial-ideal resolutions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pure", help="normalized pure diagram of a degree sequence")
    p.add_argument("--degrees", required=True, help="comma-separated, e.g. 0,1,2,4")
    _add_format(p)
    p.set_defaults(func=_cmd_pure)

    p = sub.add_parser("decompose", help="greedy decomposition of a diagram file")
    p.add_argument("file", help="diagram JSON file")
    p.add_argument("--validate", action="store_true", help="also check support bounds")
    _add_format(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("check-beh", help="binomial rank bound on a diagram file")
    p.add_argument("file", help="diagram JSON file")
    p.add_argument(
        "--codim",
        type=int,
        default=None,
        help="override the computed codimension, at most the projective dimension",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_check_beh)

    p = sub.add_parser("check-pure", help="binomial rank bound on a pure diagram")
    p.add_argument("--degrees", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_check_pure)

    p = sub.add_parser("scan", help="enumerate degree sequences and check bounds")
    p.add_argument("--s-min", type=int, default=1)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--mode", choices=SCAN_MODES, required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("asymptotic", help="lower bounds for powers of an ideal")
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--delta", type=int, required=True, help="generation degree")
    p.add_argument("--defect", type=int, required=True, help="asymptotic regularity defect")
    p.add_argument("--j", type=int, required=True, help="column index")
    p.add_argument("--t-max", type=int, required=True, help="tabulate powers 1..t_max")
    p.add_argument(
        "--e-tail",
        default=None,
        help="comma-separated integer gap tail; adds the pure-diagram column",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("verify-lemmas", help="seeded sign checks on column-total derivatives")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--s-max", type=int, default=8)
    _add_format(p)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("monomial-betti", help="Betti diagram of a monomial quotient")
    p.add_argument("file", nargs="?", help="ideal JSON file")
    p.add_argument("--family", default=None, help='e.g. "power-of-maximal(2,2)"')
    _add_format(p)
    p.set_defaults(func=_cmd_monomial_betti)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a full device fails here, not after main has returned
        return code
    except BettiError as exc:
        # a detail may quote an argument or a path that holds a line break
        detail = " ".join(str(exc).splitlines())
        print(f"error: {_error_slug(exc)}: {detail}", file=sys.stderr)
        return EXIT_FINDING if isinstance(exc, NotInConeError) else EXIT_USAGE
    except OSError as exc:  # input errors are FormatErrors, so this is a failed write
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass  # an in-memory stdout has no descriptor and no exit flush
        else:
            # what stays buffered would fail again when the interpreter flushes at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"error: output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
