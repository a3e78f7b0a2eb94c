"""List the statements of src/gpnorm that a pytest run never executes.

Usage, from the root of a checkout:

    python scripts/untested_lines.py [pytest args]

It runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, recording line events only in frames whose code lives
in ``src/gpnorm``, and then prints ``module.py:line: statement`` for each
statement that never ran, in file and line order.  Definitions, classes,
imports, docstrings and ``global`` / ``nonlocal`` declarations are not
counted.  A compound statement counts as run when a line of its header runs.
It exits 0 whatever pytest reports.  It needs only the standard library and
pytest; CLI calls in a subprocess are not traced.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gpnorm"
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
        ast.Global, ast.Nonlocal)


def statements(path: Path) -> list[tuple[int, int, str]]:
    """(first line, last header line, first line's text) of each counted
    statement of the module at path."""
    lines = path.read_text().splitlines()
    out = []
    for node in ast.walk(ast.parse("\n".join(lines))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out.append((node.lineno, last, lines[node.lineno - 1].strip()))
    return sorted(out)


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # lines run, by code file name; None for a file outside src/gpnorm
    ran: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            ran[name] = set() if Path(os.path.realpath(name)).parent == SRC else None
        return local if ran[name] is not None else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    hit: dict[Path, set[int]] = {}
    for name, lines in ran.items():
        if lines is not None:
            hit.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    for path in sorted(SRC.glob("*.py")):
        done = hit.get(path, set())
        for first, last, text in statements(path):
            if done.isdisjoint(range(first, last + 1)):
                print(f"{path.name}:{first}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
