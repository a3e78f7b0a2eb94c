"""Import hygiene without a lint tool: no module imports a name it never
uses, and every public name resolves."""

import ast
from pathlib import Path

import gpnorm

SRC = Path(gpnorm.__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    """'file:line name' for each name that an import binds in the module at
    path and that no expression of the module reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths
    assert [entry for p in paths for entry in unused_imports(p)] == []


def test_public_names_resolve():
    missing = [name for name in gpnorm.__all__ if not hasattr(gpnorm, name)]
    assert missing == []
    assert len(set(gpnorm.__all__)) == len(gpnorm.__all__)
