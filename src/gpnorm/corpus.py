"""Named example presentations and random generators for experiments.

``NAMED`` maps corpus file stems to presentation JSON objects; ``gen_corpus``
writes them to a directory.  ``random_presentation`` draws a graph product
with seeded, reproducible structure for fuzz-style tests.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .presentation import Presentation, parse_presentation
from .words import NormalWord, normal_form


def _pres(vertices, edges) -> dict:
    return {
        "vertices": [
            {"id": v, "order": o} if not isinstance(o, list) else {"id": v, "factors": o}
            for v, o in vertices
        ],
        "edges": [list(e) for e in edges],
    }


NAMED: dict[str, dict] = {
    "z": _pres([("a", "inf")], []),
    "z2": _pres([("a", "inf"), ("b", "inf")], [("a", "b")]),
    "f2": _pres([("a", "inf"), ("b", "inf")], []),
    "dinf": _pres([("a", 2), ("b", 2)], []),
    # PSL(2, Z) = C_2 * C_3
    "psl": _pres([("a", 2), ("b", 3)], []),
    "c2c2c2": _pres([("a", 2), ("b", 2), ("c", 2)], []),
    # right-angled Artin group on the path a - b - c
    "path_raag": _pres(
        [("a", "inf"), ("b", "inf"), ("c", "inf")], [("a", "b"), ("b", "c")]
    ),
    "dinf_x_c2": _pres(
        [("a", 2), ("b", 2), ("c", 2)], [("a", "c"), ("b", "c")]
    ),
    # bounded mixed example: Z^2 x Dinf
    "z2_x_dinf": _pres(
        [("a", "inf"), ("b", "inf"), ("c", 2), ("d", 2)],
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    ),
    # non-primary composite order, exercises expand_to_primary
    "c6_star_z": _pres([("a", 6), ("b", "inf")], []),
}


def named_presentation(name: str) -> Presentation:
    if name not in NAMED:
        raise KeyError(f"unknown corpus name {name!r}; have {sorted(NAMED)}")
    return parse_presentation(NAMED[name])


def gen_corpus(directory: str | Path) -> list[Path]:
    """Write every named presentation as <name>.json; returns the paths."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in sorted(NAMED):
        path = out / f"{name}.json"
        path.write_text(json.dumps(NAMED[name], indent=2) + "\n")
        paths.append(path)
    return paths


ORDER_POOL = (2, 2, 3, 4, None, None)


def random_presentation(rng: random.Random, max_vertices: int = 8) -> Presentation:
    """A random primary presentation with 1..max_vertices vertices, orders
    drawn from ORDER_POOL."""
    n = rng.randint(1, max_vertices)
    ids = [f"v{i}" for i in range(n)]
    vertices = [{"id": v, "order": rng.choice(ORDER_POOL) or "inf"} for v in ids]
    edges = [
        [ids[i], ids[j]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return parse_presentation({"vertices": vertices, "edges": edges})


def random_word(
    p: Presentation, rng: random.Random, max_sylls: int = 8
) -> NormalWord:
    sylls = []
    for _ in range(rng.randint(0, max_sylls)):
        v = rng.choice(p.vertex_ids)
        e = rng.choice((-3, -2, -1, 1, 2, 3))
        sylls.append((v, e))
    return normal_form(p, sylls)
