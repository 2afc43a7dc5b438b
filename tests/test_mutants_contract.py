"""The snippets that `tools/mutants.py` replaces still occur in the library.

The mutant runner refuses to start, with exit code 2, when an old snippet
does not occur exactly once in its file.  A refactor that rewrites a line
a mutant names would otherwise show only when the runner is next invoked.
This test reads the runner's source, without importing it as a module or
writing anything next to it, and runs its snippet check.
"""

import types
from pathlib import Path

MUTANTS_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_every_mutant_snippet_occurs_exactly_once():
    module = types.ModuleType("tools_mutants")
    module.__file__ = str(MUTANTS_PATH)
    source = MUTANTS_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(MUTANTS_PATH), "exec"), module.__dict__)
    assert module.check_snippets() == []
