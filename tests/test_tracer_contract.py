"""The names and return shapes that the benchmark's tracer binds.

`bench/tracer.py` wraps library functions by name and feeds counters from
their arguments and results.  A renamed target or a changed return shape
does not fail the library's own tests; it shows only as a traced benchmark
run with absent metrics.  These tests read the tracer's source, without
importing it as a module or writing anything next to it, and check both.
"""

import importlib
import types
from pathlib import Path

import pytest

from bettibounds import (
    BettiDiagram,
    corpus,
    decompose,
    herzog_kuhl,
    pure_shape_check,
    scan,
    taylor_betti,
    verify_binomial_floor,
    verify_first_gap_monotone,
    verify_inward_shift_monotone,
)
from bettibounds.monomial import _rational_rank

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER_PATH)
    source = TRACER_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves(tracer_module):
    for span, module_name, attribute in tracer_module.TARGETS:
        owner = importlib.import_module(f"{tracer_module.PACKAGE}.{module_name}")
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        assert vars(owner).get(name) is not None, (span, module_name, attribute)


def _hook_calls():
    """(args, result) of one real call per hooked span name."""
    diagram = BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2})
    ideal = corpus("power-of-maximal(2,2)")
    degrees = (0, 1, 3)
    return {
        "beh.scan": [((1, 2, 6, "find-violations"), scan(1, 2, 6, "find-violations"))],
        "beh.pure_shape_check": [((degrees,), pure_shape_check(degrees))],
        "pure.herzog_kuhl": [((degrees,), herzog_kuhl(degrees))],
        "pure.verify": [
            ((3, 5, 1), verify(3, 5, 1))
            for verify in (
                verify_first_gap_monotone,
                verify_inward_shift_monotone,
                verify_binomial_floor,
            )
        ],
        "decompose.decompose": [((diagram,), decompose(diagram))],
        "monomial.rank": [(([[1]],), _rational_rank([[1]]))],
        "monomial.taylor_betti": [((ideal,), taylor_betti(ideal))],
    }


def test_every_hook_reads_the_shape_it_expects(tracer_module):
    calls = _hook_calls()
    assert set(tracer_module.HOOKS) == set(calls)
    tracer = tracer_module.Tracer()
    for span, (hook, counters) in tracer_module.HOOKS.items():
        for args, result in calls[span]:
            hook(tracer, args, result)
        assert set(counters) <= set(tracer.counters), span
    assert tracer.counters["beh.scan.sequences"] == 6 + 15
    assert tracer.counters["pure.verify.samples"] == 3 * 5
    assert tracer.counters["decompose.greedy_steps"] == 1
    assert tracer.counters["monomial.rank.rows"] == 1
    assert tracer.counters["monomial.rank.entries"] == 1
    assert tracer.counters["monomial.betti_sum"] == 1 + 3 + 2


def test_the_modules_commands_reach_the_kernels_the_tracer_binds(tracer_module, tmp_path, capsys):
    # decompose --validate and check-beh are the benchmark's modules ops; a
    # speedup that routes them around a traced name leaves its layer at 0
    path = tmp_path / "diagram.json"
    path.write_text(BettiDiagram({(0, 0): 2, (1, 2): 5, (2, 3): 2, (2, 4): 1}).to_json(), encoding="utf-8")
    cli = importlib.import_module("bettibounds.cli")
    expected = {
        "decompose": {"decompose.recompose", "diagram.codimension", "poly.vanishing_order"},
        "check-beh": {"diagram.codimension", "poly.vanishing_order"},
    }
    for argv in (["decompose", str(path), "--validate"], ["check-beh", str(path)]):
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            code = cli.main(argv)
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert code == 0, argv
        assert not tracer.absent
        called = {name for name, (calls, _) in tracer.summary().items() if calls}
        assert expected[argv[0]] <= called, argv
