"""README's "Library sketch" and "CLI" blocks run as printed, and give the
results their comments state."""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

from gpnorm.cli import main

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


def test_cli_block_runs_and_nf_prints_its_comment(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "gpnorm", line
        capsys.readouterr()
        assert main(argv[1:]) == 0, line
        if argv[1] == "nf":  # "canonical normal form: b"
            assert capsys.readouterr().out == line.rpartition(": ")[2] + "\n"
        commands.append(argv[1])
    assert commands == ["gen-corpus", "classify", "nf", "classes", "orbit", "norm",
                        "distortion", "verify"]
