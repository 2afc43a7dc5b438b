"""Tests of the benchmark itself.  Run with `python3 -m pytest bench/tests -q`."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from speed import SpeedLog  # noqa: E402
from tracer import TARGETS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Modules, Op, _diagram_json  # noqa: E402

import bettibounds  # noqa: E402


def _snapshot(workload, workdir):
    """Argvs with the work directory factored out, plus every input file's bytes."""
    argvs = json.dumps([op.argvs for op in workload.ops]).replace(str(workdir), "<dir>")
    files = {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}
    return argvs, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _snapshot(WORKLOADS[name](7, dirs[0]), dirs[0])
    again = _snapshot(WORKLOADS[name](7, dirs[1]), dirs[1])
    other = _snapshot(WORKLOADS[name](8, dirs[2]), dirs[2])
    assert first == again
    assert first != other


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap; a has a
    # child c [2, 3]; d [9, 12] runs past the end of root and is clipped
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0, 3.0]


def _bindings():
    """Every (owner, name) -> object across the package modules and classes."""
    owners = [m for n, m in sys.modules.items() if n == "bettibounds" or n.startswith("bettibounds.")]
    owners += [bettibounds.BettiDiagram, bettibounds.diagram.Poly]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_run_patches_every_binding_and_restores_it(tmp_path):
    diagram = tmp_path / "d.json"
    diagram.write_text(_diagram_json(oracle.combine_pure([(1, (0, 2, 3)), (2, (0, 2, 4))])))
    ops = [
        Op([["scan", "--s-max", "3", "--d-max", "6", "--mode", "shape-verify"]], 0),
        Op([["verify-lemmas", "--samples", "2", "--seed", "1", "--s-max", "3"]], 0),
        Op([["decompose", str(diagram), "--validate"], ["check-beh", str(diagram)]], 0),
        Op([["monomial-betti", "--family", "power-of-maximal(2,3)"]], 0),
    ]
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {key: value for key, value in _bindings().items() if value is not before[key]}
        results = worker.run_pass(ops, SpeedLog(), tracer)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    # imported names (e.g. beh.herzog_kuhl) and aliases (__rmul__) are patched too
    assert len(patched) > len(TARGETS)
    for key, wrapper in patched.items():
        inner = wrapper.__func__ if isinstance(wrapper, classmethod) else wrapper
        original = before[key]
        original = original.__func__ if isinstance(original, classmethod) else original
        assert inner.__wrapped__ is original
    assert all(r[-1] is None and all(code in (0, 1) for code, _, _ in r[-2]) for r in results)
    calls = {name: count for name, (count, _) in tracer.summary().items()}
    assert all(calls[name] > 0 for name, _, _ in TARGETS), calls
    assert not tracer.absent


def test_absent_target_is_reported_not_zero(monkeypatch):
    monkeypatch.delattr(bettibounds.monomial, "_rational_rank")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"monomial.rank"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_the_library_on_small_ops(name, tmp_path):
    workload = WORKLOADS[name](3, tmp_path)
    small = sorted(workload.ops, key=lambda op: (op.items, json.dumps(op.argvs)))
    if name == "betti":
        small = [op for op in workload.ops if len(op.spec["generators"]) <= 6]
    for op in small[:4]:
        runs = [worker.run_command(argv) for argv in op.argvs]
        assert workload.check(op, runs) is None, op.argvs


# nvars 8, five generators: a genuine Betti diagram whose max-degree
# sequence (0, 9, 10, 10) is only weakly increasing
PINNED = [
    (0, 0, 2, 1, 0, 0, 0, 0),
    (1, 2, 1, 0, 1, 0, 0, 0),
    (0, 0, 2, 0, 1, 2, 0, 1),
    (2, 1, 1, 2, 0, 1, 0, 0),
    (1, 2, 0, 2, 1, 2, 0, 1),
]


def _pinned_op(tmp_path):
    table = {k: Fraction(v) for k, v in oracle.betti_table(PINNED).items()}
    assert oracle.column_extremes(table, max) == (0, 9, 10, 10)
    path = tmp_path / "pinned.json"
    path.write_text(_diagram_json(table))
    op = Op([["decompose", str(path), "--validate"], ["check-beh", str(path)]], 1,
            {"kind": "ideal", "table": table, "terms": None})
    return op, [worker.run_command(argv) for argv in op.argvs]


def test_pinned_weak_max_degrees_is_correct_or_the_known_refusal(tmp_path):
    op, runs = _pinned_op(tmp_path)
    verdict = Modules.check(op, runs)
    # the only acceptable outcomes: correct, or the known refusal
    assert verdict in (None, ("refused", "invalid-sequence"))


@pytest.mark.xfail(strict=True, reason="validate_bounds truncates a weakly increasing max-degree sequence")
def test_pinned_weak_max_degrees_decomposes_with_bounds_pass(tmp_path):
    _, runs = _pinned_op(tmp_path)
    assert runs[0][0] == 0 and runs[0][2] == "bounds: PASS\n"


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
