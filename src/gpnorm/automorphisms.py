"""Generators of the automorphism group and truncated orbit enumeration.

Four generator families act on a graph product: labelled graph automorphisms
(order-preserving graph symmetries), factor automorphisms v -> v^m with m a
unit mod the vertex order, dominated transvections v -> v w^q available when
v <=_tau w, and partial conjugations conjugating one component of
Gamma - St(v) by v.  The pure automorphism group is generated by the last
three families; it has finite index in the full automorphism group, so norms
computed against it are bi-Lipschitz the Aut-invariant ones.

Orbits are enumerated breadth-first by ``words._bfs``, truncated by depth and
by a cap on the exponent weight of images, as a tuple in discovery order,
independent of the hash seed.  Truncation only shrinks the orbit, so norms
computed from a truncated orbit are upper bounds.  A generator fixes, in both
directions, every word that avoids the vertices it moves: v for a factor
automorphism or transvection of v, K for a partial conjugation of K, and (as
``orbit`` counts it) every vertex for a graph symmetry; ``orbit`` skips those
pairs.

``orbit`` prepares each generator once per call (its moved mask, and the
maps that build its raw images) and makes all the images of one frontier
word canonical in one ``words._products`` pass, not one ``normal_form``
call per image.  A generator that is its own inverse gives one image, since
both directions agree: a factor automorphism with m^2 = 1 mod n (m = -1 on
an infinite vertex), a transvection with w^(2q) = 1, and a partial
conjugation by a vertex of order 2.  Neither rule changes the orbit or its
order: a skipped image equals one already made.
``apply_gen`` gives the same image: ``normal_form`` of the same raw word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import classes as cl
from .presentation import Presentation, PresentationError, _factorization
from .words import NormalWord, Syllable, _bfs, _products, exponent_weight, normal_form

LABELLED_GRAPH = "LABELLED_GRAPH"
FACTOR = "FACTOR"
TRANSVECTION = "TRANSVECTION"
PARTIAL_CONJ = "PARTIAL_CONJ"


@dataclass(frozen=True)
class AutGen:
    kind: str
    vertex: str = ""                                 # FACTOR / TRANSVECTION / PARTIAL_CONJ
    unit: int = 0                                    # FACTOR exponent m
    target: str = ""                                 # TRANSVECTION w
    component: tuple[str, ...] = ()                  # PARTIAL_CONJ K
    permutation: tuple[tuple[str, str], ...] = ()    # LABELLED_GRAPH v -> gamma(v)

    def literal(self) -> str:
        if self.kind == FACTOR:
            return f"factor({self.vertex},{self.unit})"
        if self.kind == TRANSVECTION:
            return f"tv({self.vertex},{self.target})"
        if self.kind == PARTIAL_CONJ:
            return f"pc({self.vertex},{self.component[0]})"
        return "graph(" + ",".join(f"{a}:{b}" for a, b in self.permutation) + ")"


def transvection_exponent(p: Presentation, v: str, w: str) -> int:
    """q = max(1, p^(l-k)) for finite orders p^k, p^l; 1 in the infinite case."""
    nv, nw = p.order(v), p.order(w)
    if nv is None:
        return 1
    if nw is None:
        raise PresentationError(f"transvection {v}->{w}: finite source, infinite target")
    if cl._prime_of(p, v) != cl._prime_of(p, w):
        raise PresentationError(f"transvection {v}->{w}: different primes")
    # q = max(1, p^(l-k)) = max(1, nw // nv) since nv = p^k, nw = p^l
    return max(1, nw // nv)


def parse_generator(p: Presentation, text: str) -> AutGen:
    """Parse and validate a generator literal.

    - ``factor(v,m)``: m is +-1 when v has infinite order, else a unit mod
      the order of v (stored reduced mod the order);
    - ``tv(v,w)``: v != w and v <=_tau w;
    - ``pc(v,k)``: k lies in a component K of Gamma - St(v), and the
      generator conjugates all of K by v;
    - ``graph(a:b,b:a,...)``: a permutation of the vertices that preserves
      orders and edges.

    Raises ValueError naming the failed condition, PresentationError for an
    unknown vertex.
    """
    text = text.strip()
    if not (text.endswith(")") and "(" in text):
        raise ValueError(f"bad generator literal {text!r}")
    head, _, body = text[:-1].partition("(")
    args = [a.strip() for a in body.split(",")] if body.strip() else []
    if head in ("factor", "tv", "pc") and len(args) != 2:
        raise ValueError(f"{head} needs 2 arguments: {text!r}")
    if head == "factor":
        v, m = args[0], int(args[1])
        n = p.order(v)
        if n is None:
            if m not in (1, -1):
                raise ValueError(f"factor({v},{m}): infinite order needs m = +-1")
            return AutGen(FACTOR, vertex=v, unit=m)
        if math.gcd(m, n) != 1:
            raise ValueError(f"factor({v},{m}): gcd(m, {n}) != 1")
        return AutGen(FACTOR, vertex=v, unit=m % n)
    if head == "tv":
        v, w = args
        if v == w:
            raise ValueError("transvection needs v != w")
        if not cl.preorder(p, cl.LEQ_TAU, v, w):
            raise ValueError(f"tv({v},{w}): not v <=_tau w")
        return AutGen(TRANSVECTION, vertex=v, target=w)
    if head == "pc":
        v, k = args
        for K in p.components_minus_star(v):
            if k in K:
                return AutGen(PARTIAL_CONJ, vertex=v, component=K)
        raise ValueError(f"pc({v},{k}): {k} not in any component of Gamma - St({v})")
    if head == "graph":
        perm = {}
        for a in args:
            x, sep, y = a.partition(":")
            if not sep:
                raise ValueError(f"graph entries must be v:w pairs: {text!r}")
            perm[x.strip()] = y.strip()
        ids = p.vertex_ids
        if sorted(perm) != sorted(ids) or sorted(perm.values()) != sorted(ids):
            raise ValueError("graph map is not a permutation of the vertices")
        for v in ids:
            if p.order(v) != p.order(perm[v]):
                raise ValueError(f"graph map changes order at {v}")
        for a, b in p.edges:
            if not p.has_edge(perm[a], perm[b]):
                raise ValueError(f"graph map does not preserve edge {a}-{b}")
        return AutGen(LABELLED_GRAPH, permutation=tuple((v, perm[v]) for v in ids))
    raise ValueError(f"unknown generator family {head!r}")


def _unit_group_generators(n: int) -> list[int]:
    """Generators of (Z/n)^* for a prime power n: the least primitive root
    for odd primes, {-1, 5} for 2^k with k >= 3, {-1} for 4, nothing for 2.

    A unit g is a primitive root iff g^(phi/q) != 1 for every prime q
    dividing phi = phi(n), since its order divides phi."""
    prime = _factorization(n)[0][0]
    if prime == 2:
        if n == 2:
            return []
        if n == 4:
            return [3]
        return [n - 1, 5]
    phi = n - n // prime
    qs = [q for q, _ in _factorization(phi)]
    for g in range(2, n):
        if g % prime and all(pow(g, phi // q, n) != 1 for q in qs):
            return [g]
    raise AssertionError(f"no primitive root mod {n}")


def aut0_generators(p: Presentation) -> list[AutGen]:
    """The finite generating set of the pure automorphism group: all factor
    automorphisms (over a generating set of each unit group), all valid
    dominated transvections, and all partial conjugations."""
    if not p.is_primary():
        raise PresentationError("aut0 generators require a primary presentation")
    gens: list[AutGen] = []
    for v in p.vertex_ids:
        n = p.order(v)
        if n is None:
            gens.append(AutGen(FACTOR, vertex=v, unit=-1))
        else:
            for m in _unit_group_generators(n):
                gens.append(AutGen(FACTOR, vertex=v, unit=m % n))
    for v, w in cl.transvections(p):
        gens.append(AutGen(TRANSVECTION, vertex=v, target=w))
    for v in p.vertex_ids:
        for K in p.components_minus_star(v):
            gens.append(AutGen(PARTIAL_CONJ, vertex=v, component=K))
    return gens


def _prepared(p: Presentation, g: AutGen) -> tuple[int, list]:
    """g made ready to apply to many words: (moved, maps).  ``moved`` is the
    mask of the vertices g moves; ``maps`` holds the image map of g and then
    that of g^-1, or only the first when g is its own inverse.  A map takes a
    canonical x to a raw word that ``words._products`` makes canonical."""
    if g.kind == FACTOR:
        v, n, m = g.vertex, p.order(g.vertex), g.unit
        inverse = m if n is None else pow(m, -1, n)  # m = +-1 on an infinite vertex

        def image(u):  # the exponent is reduced mod n when made canonical
            return lambda x: [(v, s.exponent * u) if s.vertex == v else s for s in x]
        return p._mask((v,)), [image(u) for u in dict.fromkeys((m, inverse))]
    if g.kind == TRANSVECTION:
        v, w = g.vertex, g.target
        q, nw, commute = transvection_exponent(p, v, w), p.order(w), p.has_edge(v, w)
        involution = nw is not None and 2 * q % nw == 0  # w^(2q) = 1

        def image(q):
            def transvect(x):
                out: list[Syllable] = []
                for s in x:
                    e = s.exponent
                    if s.vertex != v:
                        out.append(s)
                    elif commute:  # (v w^q)^e = v^e w^(qe)
                        out += (Syllable(v, e), Syllable(w, q * e))
                    else:  # (v w^q)^e, written (w^-q v^-1)^|e| when e < 0
                        out += ((Syllable(v, 1), Syllable(w, q)) if e > 0
                                else (Syllable(w, -q), Syllable(v, -1))) * abs(e)
                return out
            return transvect
        return p._mask((v,)), [image(q) for q in ((q,) if involution else (q, -q))]
    if g.kind == PARTIAL_CONJ:
        v, K = g.vertex, set(g.component)

        def image(c):
            a, b = Syllable(v, c), Syllable(v, -c)
            return lambda x: [t for s in x for t in ((a, s, b) if s.vertex in K else (s,))]
        return p._mask(K), [image(c) for c in ((1,) if p.order(v) == 2 else (1, -1))]
    if g.kind == LABELLED_GRAPH:
        perm = dict(g.permutation)

        def image(perm):
            return lambda x: [Syllable(perm[v], e) for v, e in x]
        # counted as moving every vertex
        return p._mask(p.vertex_ids), [image(perm), image({b: a for a, b in perm.items()})]
    raise ValueError(f"unknown generator kind {g.kind!r}")


def apply_gen(p: Presentation, g: AutGen, x: NormalWord, inverse: bool = False) -> NormalWord:
    """Image of the canonical x under one generator (or its inverse)."""
    _, maps = _prepared(p, g)
    return normal_form(p, maps[-1 if inverse else 0](x))


@dataclass(frozen=True)
class OrbitSet:
    """Truncated closure of seeds under generators and inverses, in discovery order."""

    elements: tuple[NormalWord, ...]
    frontier_exhausted: bool
    depth_used: int
    length_cap: int

    def sorted_elements(self) -> list[NormalWord]:
        return sorted(self.elements, key=lambda w: (exponent_weight(w), w))


def orbit(
    p: Presentation,
    seeds: Iterable[NormalWord],
    gens: Sequence[AutGen],
    depth: int,
    length_cap: int,
) -> OrbitSet:
    """BFS closure of the seeds under gens and their inverses.

    Images whose exponent weight exceeds length_cap are discarded (truncation
    is recorded, not an error).  frontier_exhausted is True iff a round added
    no new elements before the depth budget ran out, i.e. the returned set is
    closed under the generators within the cap.  The elements come in the
    discovery order of ``words._bfs``, which does not depend on the hash seed.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    prepared = [_prepared(p, g) for g in gens]

    def within_cap(y: NormalWord) -> bool:
        return exponent_weight(y) <= length_cap

    def images(x: NormalWord):
        support = p._mask(v for v, _ in x)
        # a generator that moves no vertex of x fixes it in both directions
        raw = [f(x) for moved, maps in prepared if moved & support for f in maps]
        return filter(within_cap, _products(p, (), raw))

    dist, exhausted, depth_used = _bfs(
        dict.fromkeys(filter(within_cap, (normal_form(p, s) for s in seeds)), 0),
        images, depth)
    return OrbitSet(tuple(dist), exhausted, depth_used, length_cap)
