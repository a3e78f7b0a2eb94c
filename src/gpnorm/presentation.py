"""Graph presentations of graph products of cyclic groups.

A presentation is a finite simplicial graph with a cyclic group attached to
each vertex: an edge means the two vertex groups commute.  Vertex orders are
positive integers >= 2, or ``None`` for the infinite cyclic group.  The
declaration order of the vertices is part of the presentation identity; every
canonical form downstream (normal forms, orbit hashing, tie-breaks) is seeded
by it.

Input vertices may instead carry a list of invariant factors describing an
arbitrary finitely generated abelian vertex group; ``expand_to_primary``
rewrites such a presentation into the normal shape where every vertex group
is primary (prime-power order) or infinite cyclic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence


class PresentationError(ValueError):
    """Raised for malformed or inconsistent presentation input."""


@dataclass(frozen=True)
class VertexSpec:
    """A vertex: symbolic id plus its cyclic group order (None = infinite).

    ``factors`` holds pre-expansion invariant factors and is mutually
    exclusive with ``order``; after ``expand_to_primary`` it is always None.
    """

    id: str
    order: int | None = None
    factors: tuple[int | None, ...] | None = None

    def __post_init__(self):
        if self.order is not None and self.factors is not None:
            raise PresentationError(
                f"vertex {self.id!r}: order and factors are mutually exclusive"
            )
        if self.order is not None and self.order < 2:
            raise PresentationError(f"vertex {self.id!r}: order must be >= 2 or inf")
        if self.factors is not None:
            if not self.factors:
                raise PresentationError(f"vertex {self.id!r}: empty factor list")
            for f in self.factors:
                if f is not None and f < 2:
                    raise PresentationError(
                        f"vertex {self.id!r}: factor must be >= 2 or inf"
                    )


class Presentation:
    """Immutable validated graph presentation.

    Not a dataclass because adjacency sets and bitmasks are precomputed
    once; treat instances as values.
    """

    def __init__(self, vertices: Sequence[VertexSpec], edges: Iterable[tuple[str, str]]):
        self.vertices: tuple[VertexSpec, ...] = tuple(vertices)
        self._index = {v.id: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            seen: set[str] = set()
            for v in self.vertices:
                if v.id in seen:
                    raise PresentationError(f"duplicate vertex id {v.id!r}")
                seen.add(v.id)
        edge_set: set[tuple[str, str]] = set()
        adj: dict[str, set[str]] = {v.id: set() for v in self.vertices}
        # one adjacency bitmask per vertex: bit j of masks[i] is set iff
        # vertices i and j commute
        masks = [0] * len(self.vertices)
        index = self._index
        for a, b in edges:
            if a not in index:
                raise PresentationError(f"edge endpoint {a!r} is not a vertex")
            if b not in index:
                raise PresentationError(f"edge endpoint {b!r} is not a vertex")
            if a == b:
                raise PresentationError(f"loop edge at {a!r}")
            i, j = index[a], index[b]
            if i > j:
                a, b = b, a
            edge_set.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.edges: frozenset[tuple[str, str]] = frozenset(edge_set)
        self._adj = {k: frozenset(s) for k, s in adj.items()}
        # orders and bitmasks by vertex index, read by words.normal_form
        self._orders = tuple([v.order for v in self.vertices])
        self._adj_mask = tuple(masks)

    # -- basic queries ----------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise PresentationError(f"unknown vertex {v!r}") from None

    def spec(self, v: str) -> VertexSpec:
        return self.vertices[self.index(v)]

    def order(self, v: str) -> int | None:
        return self.spec(v).order

    def adjacent(self, v: str) -> frozenset[str]:
        self.index(v)
        return self._adj[v]

    def star(self, v: str) -> frozenset[str]:
        return self.adjacent(v) | {v}

    def link(self, v: str) -> frozenset[str]:
        return self.adjacent(v)

    def has_edge(self, a: str, b: str) -> bool:
        return b in self.adjacent(a)

    def is_primary(self) -> bool:
        """True when every vertex is prime-power or infinite (no factors)."""
        for v in self.vertices:
            if v.factors is not None:
                return False
            if v.order is not None and len(_prime_power_parts(v.order)) != 1:
                return False
        return True

    # -- derived graphs ---------------------------------------------------

    def sub(self, X: Iterable[str]) -> "Presentation":
        """Full subgraph presentation spanned by X, in declaration order."""
        keep = dict.fromkeys(X)  # ordered: an unknown vertex is named in input order
        for x in keep:
            self.index(x)
        verts = [v for v in self.vertices if v.id in keep]
        edges = [(a, b) for a, b in self.edges if a in keep and b in keep]
        return Presentation(verts, edges)

    def complement_components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the complement graph, each sorted by
        declaration index; components ordered by least member."""
        ids = self.vertex_ids
        comp_adj = {
            v: [w for w in ids if w != v and not self.has_edge(v, w)] for v in ids
        }
        return _components(ids, comp_adj)

    def components_minus_star(self, v: str) -> tuple[tuple[str, ...], ...]:
        """Connected components of the graph with St(v) removed."""
        star = self.star(v)
        ids = [w for w in self.vertex_ids if w not in star]
        adj = {w: [u for u in self.adjacent(w) if u in ids] for w in ids}
        return _components(tuple(ids), adj)

    # -- value semantics --------------------------------------------------

    def _key(self):
        return (self.vertices, self.edges)

    def __eq__(self, other):
        return isinstance(other, Presentation) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        vs = ",".join(
            f"{v.id}:{'inf' if v.order is None else v.order}" for v in self.vertices
        )
        es = ",".join(f"{a}-{b}" for a, b in sorted(self.edges))
        return f"Presentation({vs}; {es})"

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        verts = []
        for v in self.vertices:
            if v.factors is not None:
                verts.append(
                    {"id": v.id, "factors": ["inf" if f is None else f for f in v.factors]}
                )
            else:
                verts.append({"id": v.id, "order": "inf" if v.order is None else v.order})
        edges = sorted(self.edges, key=lambda e: (self.index(e[0]), self.index(e[1])))
        return {"vertices": verts, "edges": [list(e) for e in edges]}

    def to_dot(self, complement: bool = False) -> str:
        name = "complement" if complement else "gamma"
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            label = f"{v.id}:{'inf' if v.order is None else v.order}"
            lines.append(f'  "{v.id}" [label="{label}"];')
        if complement:
            ids = self.vertex_ids
            for i, a in enumerate(ids):
                for b in ids[i + 1 :]:
                    if not self.has_edge(a, b):
                        lines.append(f'  "{a}" -- "{b}";')
        else:
            for a, b in sorted(self.edges, key=lambda e: (self.index(e[0]), self.index(e[1]))):
                lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _components(ids: tuple[str, ...], adj: dict) -> tuple[tuple[str, ...], ...]:
    pos = {v: i for i, v in enumerate(ids)}
    seen: set[str] = set()
    comps = []
    for v in ids:
        if v in seen:
            continue
        stack, comp = [v], []
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp, key=pos.__getitem__)))
    return tuple(comps)


def _order_from_json(value) -> int | None:
    if value == "inf":
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise PresentationError(f"bad order value {value!r}")
    return value


def parse_presentation(source: str | dict) -> Presentation:
    """Parse the JSON presentation format (text or already-decoded object)
    into a validated Presentation.

    Format: {"vertices": [{"id": "a", "order": 2}, {"id": "c", "factors":
    [6, "inf"]}], "edges": [["a", "c"]]}.  ``order`` and ``factors`` are
    mutually exclusive per vertex.
    """
    if isinstance(source, dict):
        obj = source
    else:
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise PresentationError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise PresentationError("presentation JSON must contain 'vertices'")
    if not isinstance(obj["vertices"], (list, tuple)):
        raise PresentationError("'vertices' must be a list of vertex objects")
    verts = []
    for item in obj["vertices"]:
        if not isinstance(item, dict):
            raise PresentationError(f"vertex {item!r} is not an object")
        if "id" not in item:
            raise PresentationError("vertex without id")
        vid = str(item["id"])
        if "order" in item and "factors" in item:
            raise PresentationError(f"vertex {vid!r}: order and factors are exclusive")
        if "order" in item:
            verts.append(VertexSpec(vid, order=_order_from_json(item["order"])))
        elif "factors" in item:
            if not isinstance(item["factors"], (list, tuple)):
                raise PresentationError(f"vertex {vid!r}: 'factors' must be a list")
            fs = tuple(_order_from_json(f) for f in item["factors"])
            verts.append(VertexSpec(vid, factors=fs))
        else:
            raise PresentationError(f"vertex {vid!r}: order or factors required")
    edges = obj.get("edges", [])
    if not isinstance(edges, (list, tuple)) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 for e in edges
    ):
        raise PresentationError("'edges' must be a list of 2-element lists")
    return Presentation(verts, [(str(a), str(b)) for a, b in edges])


# Trial division takes up to sqrt(n) steps: 2^20 at the ceiling, 2^30 at 2^61.
MAX_ORDER = 2**40


def _factorization(n: int) -> list[tuple[int, int]]:
    """(prime, prime-power part) pairs of n by trial division, sorted by
    prime.  Orders above ``MAX_ORDER`` are refused."""
    if n > MAX_ORDER:
        raise PresentationError(f"order {n} is above the supported ceiling 2^40")
    parts = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                q *= p
                m //= p
            parts.append((p, q))
        p += 1
    if m > 1:
        parts.append((m, m))
    return parts


def _prime_power_parts(n: int) -> list[int]:
    """Prime-power factorization, sorted by prime."""
    return [q for _, q in _factorization(n)]


def expand_to_primary(p: Presentation) -> Presentation:
    """Replace every vertex group by a clique of primary / infinite cyclic
    vertices generating an isomorphic group.

    Each finite invariant factor splits into its prime-power parts; each
    infinite factor contributes one infinite vertex.  Replacement vertices
    inherit every adjacency of the original and form a clique among
    themselves.  Idempotent on already-primary presentations.
    """
    new_vertices: list[VertexSpec] = []
    groups: dict[str, list[str]] = {}
    for v in p.vertices:
        if v.factors is not None:
            raw: list[int | None] = list(v.factors)
        else:
            raw = [v.order]
        parts: list[int | None] = []
        for f in raw:
            if f is None:
                parts.append(None)
            else:
                parts.extend(_prime_power_parts(f))
        if len(parts) == 1:
            ids = [v.id]
        else:
            ids = [f"{v.id}.{i}" for i in range(len(parts))]
        groups[v.id] = ids
        for vid, order in zip(ids, parts):
            new_vertices.append(VertexSpec(vid, order=order))
    edges: list[tuple[str, str]] = []
    for v in p.vertices:
        ids = groups[v.id]
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                edges.append((a, b))
    for a, b in p.edges:
        for x in groups[a]:
            for y in groups[b]:
                edges.append((x, y))
    return Presentation(new_vertices, edges)
