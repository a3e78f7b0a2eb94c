"""README's "Library sketch" runs as printed, and gives the results its
comments state."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs_and_matches_its_comments():
    text = README.read_text()
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    ns = {}
    results = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
            # the comment states the result, optionally followed by "= ..."
            comment = lines[stmt.lineno - 1].partition("#")[2].partition(" = ")[0]
            assert got == eval(comment, {"Fraction": Fraction}), lines[stmt.lineno - 1]
            results.append(got)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert results == [Fraction(5, 3), True]
