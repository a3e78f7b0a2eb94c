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

import functools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class PresentationError(ValueError):
    """Raised for malformed or inconsistent presentation input."""


_VERTEX_ID = re.compile(r'[^\s^,():"\\]+').fullmatch


@dataclass(frozen=True)
class VertexSpec:
    """A vertex: symbolic id plus its cyclic group order (None = infinite).

    An id is nonempty, without whitespace, backslash or any of ``^ , ( ) : "``,
    the word, generator and DOT separators, so each grammar names every id.
    ``factors`` holds pre-expansion invariant factors and is mutually
    exclusive with ``order``; after ``expand_to_primary`` it is always None.
    """

    id: str
    order: int | None = None
    factors: tuple[int | None, ...] | None = None

    def __post_init__(self):
        if not _VERTEX_ID(self.id):
            raise PresentationError(f"vertex id {self.id!r}: must be nonempty, without "
                                    "whitespace, backslash or any of ^ , ( ) : \"")
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

    The graph is held once, as one adjacency bitmask per vertex index: bit j
    of ``_adj_mask[i]`` is set iff vertices i and j commute, and ``_stars[i]``
    adds bit i.  Edges, links, stars, cliques and components are all read
    off the masks, and ``_ids`` lists a mask's vertices.  Not a dataclass
    because the masks are precomputed once; treat instances as values.
    """

    def __init__(self, vertices: Sequence[VertexSpec], edges: Iterable[tuple[str, str]]):
        self.vertices: tuple[VertexSpec, ...] = tuple(vertices)
        self.vertex_ids: tuple[str, ...] = tuple(v.id for v in self.vertices)
        self._index = {v: i for i, v in enumerate(self.vertex_ids)}
        if len(self._index) != len(self.vertices):
            seen: set[str] = set()
            for v in self.vertex_ids:
                if v in seen:
                    raise PresentationError(f"duplicate vertex id {v!r}")
                seen.add(v)
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
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        # orders and bitmasks by vertex index, read by words.normal_form
        self._orders = tuple([v.order for v in self.vertices])
        self._adj_mask = tuple(masks)
        self._stars = tuple(mask | 1 << i for i, mask in enumerate(masks))
        # each edge once, as (earlier, later) in declaration order
        self.edges: tuple[tuple[str, str], ...] = self._pairs(complement=False)

    # -- basic queries ----------------------------------------------------

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise PresentationError(f"unknown vertex {v!r}") from None

    def order(self, v: str) -> int | None:
        return self._orders[self.index(v)]

    def _mask(self, X: Iterable[str]) -> int:
        """Bitmask of X; the first vertex of X outside p, in input order, raises."""
        mask = 0
        for v in X:
            mask |= 1 << self.index(v)
        return mask

    def _ids(self, mask: int) -> tuple[str, ...]:
        """A mask's vertices in declaration order; ~mask lists the others."""
        return tuple(v for i, v in enumerate(self.vertex_ids) if mask >> i & 1)

    def link(self, v: str) -> frozenset[str]:
        return frozenset(self._ids(self._adj_mask[self.index(v)]))

    def star(self, v: str) -> frozenset[str]:
        return frozenset(self._ids(self._stars[self.index(v)]))

    def has_edge(self, a: str, b: str) -> bool:
        return self._adj_mask[self.index(a)] >> self.index(b) & 1 == 1

    def is_clique(self, X: Iterable[str]) -> bool:
        """True iff every two distinct vertices of X commute."""
        mask = self._mask(X)
        return all(not mask & ~self._stars[i] for i in range(len(self.vertices)) if mask >> i & 1)

    def is_primary(self) -> bool:
        """True when every vertex is prime-power or infinite (no factors)."""
        for v in self.vertices:
            if v.factors is not None:
                return False
            if v.order is not None and len(_factorization(v.order)) != 1:
                return False
        return True

    # -- derived graphs ---------------------------------------------------

    def sub(self, X: Iterable[str]) -> "Presentation":
        """Full subgraph presentation spanned by X, in declaration order:
        the presentation itself when X holds every vertex."""
        keep, index = self._mask(X), self._index
        if keep + 1 == 1 << len(self.vertices):
            return self
        verts = [v for i, v in enumerate(self.vertices) if keep >> i & 1]
        edges = [(a, b) for a, b in self.edges if keep >> index[a] & keep >> index[b] & 1]
        return Presentation(verts, edges)

    def components(
        self, X: Iterable[str] | None = None, complement: bool = False
    ) -> tuple[tuple[str, ...], ...]:
        """Connected components of the subgraph of Gamma (or of its
        complement) induced on X, all vertices by default.  Each component
        is sorted by declaration index; components are ordered by least
        member."""
        ids, adj = self.vertex_ids, self._adj_mask
        left = (1 << len(ids)) - 1 if X is None else self._mask(X)
        comps = []
        while left:
            comp = grow = left & -left  # the least vertex left
            while grow:
                i = grow.bit_length() - 1
                grow ^= 1 << i
                new = (~adj[i] if complement else adj[i]) & left & ~comp
                comp |= new
                grow |= new
            left &= ~comp
            comps.append(self._ids(comp))
        return tuple(comps)

    def components_minus_star(self, v: str) -> tuple[tuple[str, ...], ...]:
        """Connected components of the graph with St(v) removed."""
        return self.components(self._ids(~self._stars[self.index(v)]))

    def _pairs(self, complement: bool) -> tuple[tuple[str, str], ...]:
        """The edges of Gamma (or of its complement) as (earlier, later)
        vertex pairs, in declaration order."""
        ids, adj = self.vertex_ids, self._adj_mask
        return tuple((a, ids[j]) for i, a in enumerate(ids)
                     for j in range(i + 1, len(ids)) if (adj[i] >> j & 1) != complement)

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
        es = ",".join(f"{a}-{b}" for a, b in self.edges)
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
        return {"vertices": verts, "edges": [list(e) for e in self.edges]}

    def to_dot(self, complement: bool = False) -> str:
        name = "complement" if complement else "gamma"
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            label = f"{v.id}:{'inf' if v.order is None else v.order}"
            lines.append(f'  "{v.id}" [label="{label}"];')
        for a, b in self._pairs(complement):
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _order_from_json(value) -> int | None:
    if value == "inf":
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise PresentationError(f"bad order value {value!r}")
    return value


def _ids_from_json(value) -> tuple[str, ...]:
    """A JSON list of strings, such as vertex ids, as a tuple.  Anything
    else raises TypeError, so a string is not read as its characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected a list of strings, got {value!r}")
    return tuple(value)


def _json_value(value, kind: type):
    """A JSON value of kind str, bool or int, as it stands.  Anything else
    raises TypeError: a number is not read as a rational, a list as a
    vertex name, nor true as the integer 1."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def _rational_from_json(value) -> Fraction:
    """A rational as str(Fraction) writes it: n or n/d in ASCII digits,
    d >= 1.  Anything else, or a part of more digits than int() converts,
    raises TypeError, so 1/0 does not divide by zero and 1e999999999 does
    not build a billion-digit number."""
    if not re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", _json_value(value, str)):
        raise TypeError(f"expected a rational n or n/d, got {value!r}")
    try:
        return Fraction(value)
    except ValueError as exc:  # more digits than int() converts
        raise TypeError(f"rational of {len(value)} characters: {exc}") from None


def parse_presentation(source: str | dict) -> Presentation:
    """Parse the JSON presentation format (text or already-decoded object)
    into a validated Presentation.

    Format: {"vertices": [{"id": "a", "order": 2}, {"id": "c", "factors":
    [6, "inf"]}], "edges": [["a", "c"]]}.  ``order`` and ``factors`` are
    mutually exclusive per vertex; ids follow ``VertexSpec``'s rule.
    """
    if isinstance(source, dict):
        obj = source
    else:
        try:
            obj = json.loads(source)
        except (json.JSONDecodeError, RecursionError) as exc:  # not JSON, or nested too deeply
            raise PresentationError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise PresentationError("presentation JSON must contain 'vertices'")
    if not isinstance(obj["vertices"], (list, tuple)):
        raise PresentationError("'vertices' must be a list of vertex objects")
    verts = []
    for item in obj["vertices"]:
        if not isinstance(item, dict):
            raise PresentationError(f"vertex {item!r} is not an object")
        vid = item.get("id")
        if type(vid) is not str:  # not str(): null is not the vertex 'None'
            raise PresentationError(f"vertex {item!r}: the id must be a string")
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
        isinstance(e, (list, tuple)) and len(e) == 2 and all(type(v) is str for v in e)
        for e in edges
    ):
        raise PresentationError("'edges' must be a list of pairs of vertex ids")
    return Presentation(verts, edges)


# Trial division takes up to sqrt(n) steps: 2^20 at the ceiling, 2^30 at 2^61.
MAX_ORDER = 2**40


@functools.cache
def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, prime-power part) pairs of n by trial division, sorted by
    prime.  Orders above ``MAX_ORDER`` are refused.  Cached, so the result
    is a tuple."""
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
    return tuple(parts)


def _primary_vertices(v: VertexSpec) -> list[VertexSpec]:
    """The primary / infinite cyclic vertices that replace v: each finite
    invariant factor splits into its prime-power parts, and each infinite
    factor gives one infinite vertex.  A vertex with one part keeps its id;
    otherwise the parts are v.0, v.1, ..."""
    parts: list[int | None] = []
    for f in (v.order,) if v.factors is None else v.factors:
        parts.extend([None] if f is None else [q for _, q in _factorization(f)])
    if len(parts) == 1:
        return [VertexSpec(v.id, order=parts[0])]
    return [VertexSpec(f"{v.id}.{i}", order=q) for i, q in enumerate(parts)]


def expand_to_primary(p: Presentation) -> Presentation:
    """Replace every vertex group by a clique of primary / infinite cyclic
    vertices generating an isomorphic group.

    Replacement vertices inherit every adjacency of the original and form a
    clique among themselves.  A primary p is returned as it is.  A declared
    id that is also a part id v.i is refused: words would mix them.
    """
    if p.is_primary():
        return p
    groups = {v.id: _primary_vertices(v) for v in p.vertices}
    for vid, ws in groups.items():
        for i, w in enumerate(ws):
            if w.id != vid and w.id in groups:
                raise PresentationError(f"vertex id {w.id!r} clashes with part {i} of {vid!r}")
    edges: list[tuple[str, str]] = []
    for ws in groups.values():
        for i, a in enumerate(ws):
            for b in ws[i + 1 :]:
                edges.append((a.id, b.id))
    for a, b in p.edges:
        for x in groups[a]:
            for y in groups[b]:
                edges.append((x.id, y.id))
    return Presentation([w for ws in groups.values() for w in ws], edges)
