"""Domination preorders, transvection classes, and the join decomposition.

Three relations on the vertex set:

  v <= w      iff  Lk(v) subset of St(w)
  v <=_s w    iff  St(v) subset of St(w)
  v <=_tau w  iff  the transvection v -> v w^q is a valid automorphism:
                   either #G_v infinite and v <= w, or both orders are powers
                   of the same prime and v <=_s w.

Every reader of <=_tau reads its pairs from ``transvections``, the one place
it is decided.  Mutual <=_tau partitions the vertices into classes of three
kinds: free abelian (infinite orders, pairwise commuting), free (infinite
orders, pairwise non-commuting), or finite primary (orders all powers of one
prime; such a class always spans a clique).  No other kind occurs: a finite
v <=_tau w only when w is finite with v's prime, so no class mixes infinite
and finite orders or two primes.  An infinite class with an edge u - v is
a clique (Corredor-Gutierrez 2012): for w not adjacent to u, v in Lk(u)
subset St(w), so w in Lk(v) subset St(u), a contradiction.  The induced
partial order on classes drives the boundedness classifier; its lower cones
are exactly the vertex sets whose retraction kernels are invariant under the
pure automorphism group.

The join decomposition reads a direct-product factorization off the
connected components of the complement graph: an isolated infinite vertex is
a Z factor, an isolated finite vertex a finite factor, a single complement
edge between two order-2 vertices an infinite dihedral factor, and anything
else is flagged OTHER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .presentation import Presentation, PresentationError, _factorization

LEQ = "LEQ"
LEQ_S = "LEQ_S"
LEQ_TAU = "LEQ_TAU"

FREE_ABELIAN = "FREE_ABELIAN"
FREE = "FREE"
FINITE_PRIMARY = "FINITE_PRIMARY"

Z_FACTOR = "Z_FACTOR"
DINF_FACTOR = "DINF_FACTOR"
FINITE_FACTOR = "FINITE_FACTOR"
OTHER = "OTHER"


def _prime_of(p: Presentation, v: str) -> int:
    n = p.order(v)
    parts = _factorization(n)
    if len(parts) != 1:
        raise PresentationError(f"vertex {v!r} has non-primary order {n}")
    return parts[0][0]


def preorder(p: Presentation, kind: str, v: str, w: str) -> bool:
    """Truth value of v <= w / v <=_s w / v <=_tau w, read off the
    adjacency bitmasks.  LEQ_TAU reads transvections, so it expects a
    primary presentation."""
    i, j = p.index(v), p.index(w)
    adj = p._adj_mask
    star_w = adj[j] | 1 << j
    if kind == LEQ:
        return not adj[i] & ~star_w
    if kind == LEQ_S:
        return not (adj[i] | 1 << i) & ~star_w
    if kind == LEQ_TAU:
        return v == w or (v, w) in transvections(p)
    raise ValueError(f"unknown preorder kind {kind!r}")


def transvections(p: Presentation) -> list[tuple[str, str]]:
    """Every pair (v, w) with v != w and v <=_tau w, ordered by the
    declaration index of v, then of w: the one computation of <=_tau.

    For an infinite v the test is Lk(v) subset of St(w); for a finite v it
    is St(v) subset of St(w) with w finite of the same prime.  Links and
    stars are the presentation's adjacency bitmasks.  A prime is computed
    only after the star test passes, so a non-primary order raises
    PresentationError only when it takes part in such a pair.
    """
    ids, orders = p.vertex_ids, p._orders
    stars = [mask | 1 << i for i, mask in enumerate(p._adj_mask)]
    out = []
    for i, v in enumerate(ids):
        infinite = orders[i] is None
        dominated = p._adj_mask[i] if infinite else stars[i]
        for j, w in enumerate(ids):
            if i == j or dominated & ~stars[j]:
                continue
            if infinite or (orders[j] is not None and _prime_of(p, v) == _prime_of(p, w)):
                out.append((v, w))
    return out


@dataclass(frozen=True)
class ClassType:
    kind: str  # FREE_ABELIAN | FREE | FINITE_PRIMARY
    rank: int = 0        # for the two infinite kinds
    order: int = 0       # group order, finite kind only


@dataclass(frozen=True)
class TauStructure:
    classes: tuple[tuple[str, ...], ...]
    class_types: tuple[ClassType, ...]
    class_order: frozenset[tuple[int, int]]  # (i, j) means classes[i] <= classes[j]

    def maximal_classes(self) -> tuple[int, ...]:
        out = []
        for i in range(len(self.classes)):
            if not any(
                (i, j) in self.class_order and i != j for j in range(len(self.classes))
            ):
                out.append(i)
        return tuple(out)

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction of the strict class order."""
        strict = {(i, j) for i, j in self.class_order if i != j}
        edges = []
        for i, j in sorted(strict):
            if not any((i, k) in strict and (k, j) in strict for k in range(len(self.classes))):
                edges.append((i, j))
        return tuple(edges)


def tau_structure(p: Presentation) -> TauStructure:
    """The <=_tau preorder, its classes and their order, for a primary
    presentation."""
    if not p.is_primary():
        raise PresentationError("tau structure requires a primary presentation")
    ids = p.vertex_ids
    tau = {(v, v) for v in ids}.union(transvections(p))
    # classes: mutual <=_tau, ordered by least declaration index
    assigned: dict[str, int] = {}
    classes: list[tuple[str, ...]] = []
    for v in ids:
        if v in assigned:
            continue
        cls = tuple(
            w for w in ids if (v, w) in tau and (w, v) in tau
        )
        idx = len(classes)
        classes.append(cls)
        for w in cls:
            assigned[w] = idx
    types = []
    for cls in classes:
        orders = [p.order(v) for v in cls]
        if orders[0] is not None:
            types.append(ClassType(FINITE_PRIMARY, order=math.prod(orders)))
        elif p.is_clique(cls):
            types.append(ClassType(FREE_ABELIAN, rank=len(cls)))
        else:
            types.append(ClassType(FREE, rank=len(cls)))
    order = set()
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            if (ci[0], cj[0]) in tau:
                order.add((i, j))
    return TauStructure(tuple(classes), tuple(types), frozenset(order))


def lower_cone_violation(p: Presentation, X: Iterable[str]) -> tuple[str, str] | None:
    """A pair (s, t) with s <=_tau t, t in X, s outside X, or None.

    None exactly when the retraction kernel K_X (the normal closure of the
    vertices outside X) is invariant under the generators that
    aut0_generators returns, which generate the pure automorphism group
    (Laurence 1995; Corredor-Gutierrez 2012 for graph products of abelian
    groups).  K_X is invariant iff each generator and its inverse map every
    killed vertex v into K_X, and the retraction r onto W_X detects K_X:

    - a factor automorphism maps v to a power v^m, and r(v^m) = 1;
    - a partial conjugation maps v to v or to u v u^-1, and r(u v u^-1) =
      r(u) r(u)^-1 = 1;
    - a transvection tv(s, t) fixes v unless s = v, and tv(v, t) or its
      inverse maps v to v t^(+-q), with r(v t^(+-q)) = r(t)^(+-q).  Here
      q < |t| (transvection_exponent), so t^q != 1, and r(t) = t for t in X,
      1 otherwise.

    So K_X is moved exactly by tv(s, t) with s outside X and t in X, which
    exists exactly when s <=_tau t: X is a lower cone.  The labelled graph
    automorphisms are not pure and are not in the generating set.

    The pair returned is the first of transvections with s outside X and t
    in X: the least s, then the least t, in declaration order.  It names
    the generator tv(s, t) that moves s out of K_X.
    """
    xs = dict.fromkeys(X)  # ordered: an unknown vertex is named in input order
    for x in xs:
        p.index(x)
    return next(((s, t) for s, t in transvections(p) if s not in xs and t in xs), None)


@dataclass(frozen=True)
class JoinDecomposition:
    components: tuple[tuple[tuple[str, ...], str], ...]  # (vertices, shape)
    n: int                  # number of Z factors
    m: int                  # number of D_inf factors
    finite_part: tuple[str, ...]

    @property
    def has_other(self) -> bool:
        return any(shape == OTHER for _, shape in self.components)

    @property
    def bounded_form(self) -> bool:
        """W = Z^n x Dinf^m x F with n != 1 and F finite."""
        return not self.has_other and self.n != 1


def join_decomposition(p: Presentation) -> JoinDecomposition:
    """Classify the complement-graph components of a primary presentation."""
    if not p.is_primary():
        raise PresentationError("join decomposition requires a primary presentation")
    comps = p.components(complement=True)
    out = []
    n = m = 0
    finite: list[str] = []
    for comp in comps:
        if len(comp) == 1:
            v = comp[0]
            if p.order(v) is None:
                out.append((comp, Z_FACTOR))
                n += 1
            else:
                out.append((comp, FINITE_FACTOR))
                finite.append(v)
        elif len(comp) == 2 and all(p.order(v) == 2 for v in comp):
            out.append((comp, DINF_FACTOR))
            m += 1
        else:
            out.append((comp, OTHER))
    return JoinDecomposition(tuple(out), n, m, tuple(finite))


def classes_json_obj(p: Presentation) -> dict:
    """JSON-friendly dump of the tau structure for the `classes` CLI, with
    its Hasse diagram and the complement graph as DOT strings."""
    ts = tau_structure(p)
    ids = p.vertex_ids
    def mat(kind):
        return {v: [w for w in ids if preorder(p, kind, v, w)] for v in ids}
    tau = set(transvections(p))
    jd = join_decomposition(p)
    return {
        "vertices": list(ids),
        "leq": mat(LEQ),
        "leq_s": mat(LEQ_S),
        "leq_tau": {v: [w for w in ids if v == w or (v, w) in tau] for v in ids},
        "classes": [
            {
                "vertices": list(cls),
                "type": t.kind,
                "rank": t.rank,
                "order": t.order,
            }
            for cls, t in zip(ts.classes, ts.class_types)
        ],
        "class_order": sorted([i, j] for i, j in ts.class_order),
        "hasse": [list(e) for e in ts.hasse_edges()],
        "join_decomposition": {
            "components": [
                {"vertices": list(vs), "shape": shape} for vs, shape in jd.components
            ],
            "n": jd.n,
            "m": jd.m,
            "finite_part": list(jd.finite_part),
        },
        "bounded_form": jd.bounded_form,
        "hasse_dot": hasse_dot(ts),
        "complement_dot": p.to_dot(complement=True),
    }


def hasse_dot(ts: TauStructure) -> str:
    lines = ["digraph classes {"]
    for i, (cls, t) in enumerate(zip(ts.classes, ts.class_types)):
        label = "{" + ",".join(cls) + "} " + t.kind
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in ts.hasse_edges():
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
