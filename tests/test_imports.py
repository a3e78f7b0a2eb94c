"""Import hygiene without a lint tool: no module imports a name it never
uses, every public name resolves, and so does every function that the
benchmark's tracer wraps; every module-level function and non-dunder
method of gpnorm is named somewhere besides its definition."""

import ast
import importlib
import re
from pathlib import Path

import gpnorm

SRC = Path(gpnorm.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


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
    # perfbench/ stays out: its worker imports gpnorm.cli for the import cost
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    paths += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    assert paths
    assert [entry for p in paths for entry in unused_imports(p)] == []


def test_no_orphan_functions():
    """A module-level def, or a non-dunder method of a class, in src/gpnorm
    that nothing in src/, tests/, scripts/ or perfbench/ names besides its
    own definition is an orphan: a consolidation left it behind."""
    texts = [path.read_text() for folder in ("src", "tests", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    orphans = []
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text()).body
        methods = [node for cls in body if isinstance(cls, ast.ClassDef) for node in cls.body
                   if isinstance(node, ast.FunctionDef)
                   and not (node.name.startswith("__") and node.name.endswith("__"))]
        for node in body + methods:
            if isinstance(node, ast.FunctionDef):
                name = re.compile(rf"\b{node.name}\b")
                if sum(len(name.findall(text)) for text in texts) < 2:
                    orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert orphans == []


def test_public_names_resolve():
    missing = [name for name in gpnorm.__all__ if not hasattr(gpnorm, name)]
    assert missing == []
    assert len(set(gpnorm.__all__)) == len(gpnorm.__all__)


def test_benchmark_targets_resolve():
    """Every (module, qualname) in TARGETS of perfbench/tracer.py names a
    gpnorm function; TARGETS is read with ast, without importing perfbench."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets
    missing = []
    for module, qualname in targets:
        obj = importlib.import_module(f"gpnorm.{module}")
        for name in qualname.split("."):
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
    assert missing == []
