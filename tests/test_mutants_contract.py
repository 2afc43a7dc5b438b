"""The snippets and tests that `tools/mutants.py` names still exist.

The mutant runner refuses to start, with exit code 2, when an old snippet
does not occur exactly once in its file, or when a named test does not run.
A refactor that rewrites a line a mutant names, or a rename of a test a
mutant names, would otherwise show only when the runner is next invoked.
These tests read the runner's source, without importing it as a module or
writing anything next to it.
"""

import ast
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS_PATH = ROOT / "tools" / "mutants.py"


def _runner():
    module = types.ModuleType("tools_mutants")
    module.__file__ = str(MUTANTS_PATH)
    source = MUTANTS_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(MUTANTS_PATH), "exec"), module.__dict__)
    return module


def test_every_mutant_snippet_occurs_exactly_once():
    assert _runner().check_snippets() == []


def test_every_named_test_is_a_function_of_its_file():
    # a node id is path::name, or path::name[parametrize id]
    defined = {}
    for *_, tests in _runner().MUTANTS:
        for node_id in tests:
            path, name = node_id.split("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name.split("[")[0] in defined[path], node_id
