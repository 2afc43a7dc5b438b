"""The README's Library example runs, and every value its comments state holds."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# each expression line of the example -> (its value, the text its comment states)
STATED = {
    "D == BettiDiagram({(0, 0): 1, (1, 2): 3, (2, 3): 2})": (True, ""),
    "herzog_kuhl((0, 1, 2, 4)).totals()": ((1, Fraction(8, 3), 2, Fraction(1, 3)), "1, 8/3, 2, 1/3"),
    "recompose(dec) == D": (True, "round trip"),
    "validate_bounds(dec, D).passed": (True, "support bounds"),
    "beh_check(D).hypothesis_met": (True, "reg <= 2*(least first-syzygy degree) - 2"),
    "beh_check(D).overall": (True, "C(codim, j)"),
    "pure_total(2, (1, 0, 1))": (Fraction(5), "Fraction(5)"),
    "pure_total_partial(2, 1, (0, 0))": (Fraction(1), "Fraction(1)"),
    "next(power_bounds(2, 2, 0, 1, 3))": ((1, 2, 3, None), "1, 2, 3, None"),
}


def test_the_library_example_states_its_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = block.splitlines()
    namespace = {}
    seen = {}
    tree = ast.parse(block)
    # the example imports only the names it uses
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    assert imported <= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Expr):
            # an import of a name the package no longer has fails in the exec branch
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2]
            seen[ast.get_source_segment(block, node)] = (value, comment)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert seen.keys() == STATED.keys()
    for source, (value, comment) in seen.items():
        expected, stated = STATED[source]
        assert value == expected, source
        assert stated in comment, source
