"""Golden digests of the CLI's output.

``tests/golden.json`` maps each command line below to the SHA-256 of its
stdout, its exit code and the number of lines it wrote to stderr.  The
inputs are the named corpus plus ``gen-corpus --random 20 --seed 5``; each
file is run through nf, classify, classes (JSON and DOT), orbit, norm at
radius 2 and 4, distortion (no SVG) and verify, and verify also reads a
tampered verdict whose first chain step is not a lower cone, which pins the
``chain-lower-cone`` failure detail.

Regenerate the file only with ``python scripts/update_pins.py``, which also
rewrites ``tests/answers.json``, and list each changed digest with its
cause in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from gpnorm import expand_to_primary, parse_presentation
from gpnorm.classes import lower_cone_violation
from gpnorm.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
ORBIT = ["--orbit-depth", "2", "--len-cap", "6"]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "exit": code,
        "stderr_lines": err.getvalue().count("\n"),
    }


def _word(ids: tuple[str, ...]) -> str:
    """A short word over the first declared vertices of a file."""
    if len(ids) == 1:
        return f"{ids[0]}^3"
    return f"{ids[0]} {ids[1]}^-2 {ids[-1]} {ids[0]}"


def _tampered(path: Path, verdict: dict) -> dict | None:
    """The verdict with a chain that starts at a step X that is not a lower
    cone: the least such X, by size and then by vertex order.  X replaces
    the chain, except for SPLIT_QM, whose payload is read in the last step:
    there X must contain the first step and goes in front of it.  None if
    no X fits."""
    p = expand_to_primary(parse_presentation(path.read_text()))
    cert = verdict["certificate"]
    chain = cert["chain"] if cert["kind"] == "SPLIT_QM" else []
    first = set(chain[0]) if chain else set()
    ids = p.vertex_ids
    for size in range(len(first), len(ids)):
        for X in itertools.combinations(ids, size):
            if first <= set(X) and lower_cone_violation(p, X) is not None:
                return {**verdict, "certificate": {**cert, "chain": [list(X), *chain]}}
    return None


def digests(directory: Path) -> dict[str, dict]:
    """Run every golden command inside directory; keys are the command
    lines with paths relative to it."""
    directory.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        main(["gen-corpus", "--out", str(directory), "--random", "20", "--seed", "5"])
    out: dict[str, dict] = {}

    def run(*argv: str) -> None:
        # an argument "@name" is the file name inside directory
        paths = [str(directory / a[1:]) if a.startswith("@") else a for a in argv]
        out[" ".join(a.lstrip("@") for a in argv)] = _run(paths)

    for path in sorted(directory.glob("*.json")):
        f = "@" + path.name
        verdict = f"@{path.stem}.verdict"
        ids = tuple(v["id"] for v in json.loads(path.read_text())["vertices"])
        w = _word(ids)
        run("nf", f, w)
        run("classify", f, "--out", verdict)
        run("classes", f)
        run("classes", f, "--format", "dot")
        run("orbit", f, "--orbit-depth", "3", "--len-cap", "8")
        run("norm", f, w, "--radius", "2", *ORBIT, "--cert", verdict)
        run("norm", f, w, "--radius", "4", *ORBIT)
        run("distortion", f, w, "--nmax", "4", "--radius", "2", *ORBIT, "--cert", verdict)
        run("verify", f, verdict)
        bad = _tampered(path, json.loads((directory / verdict[1:]).read_text()))
        if bad is not None:
            (directory / f"{path.stem}.tampered").write_text(json.dumps(bad))
            run("verify", f, f"@{path.stem}.tampered")
    return out


def test_cli_output_matches_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    changed = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    assert not changed, f"{len(changed)} command(s) differ from golden.json: {changed[:10]}"
