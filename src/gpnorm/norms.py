"""Certified intervals for invariant word norms.

Upper bounds count factorizations into elements of a truncated orbit set
and their inverses: the orbit is a subset of the true invariant generating
set, so any factorization found is a genuine upper bound, and failure within
the radius is reported as UNKNOWN (None), never converted into a claim.

One rule answers every radius r.  ``norm_ball`` builds the ball B_h of
radius h = ceil(r/2) by the orbit's breadth-first search, ``words._bfs``, one
frontier word times every generator per step, in that search's discovery
order.  ``norm_upper`` reads x from it, or else scans w in it for the least
d(w) + d(x^-1 w) with x^-1 w in it.  This is exact: a
factorization of length n <= r <= 2h splits as w * (x^-1 w)^-1 with both
parts of length at most h.  The scan stops as soon as the total reaches
m + 1, where m is the largest distance in the ball, because an x outside
B_m has norm at least m + 1.  So a query costs one B_h build plus at most
one scan of it, and a ball reused across many queries costs one scan per
query outside it.

The ball inverts all the generators in one ``words._products`` pass, and two
rules drop products from the search without changing its result: the keys,
distances and order are those of one product per (frontier word, generator)
pair.

* Concatenation: ``words._canonical_products`` makes x s the concatenation
  x + s when no first syllable of s (one that commutes with every syllable
  before it) has the vertex of x's final syllable in its star (its link
  plus itself); its docstring has the proof.  The stars of each
  generator's first syllables are one bitmask, made once per ball.
* Skip: in the first round, where x is a generator t, the product t t^-1 is
  the identity, and an s listed before t whose vertices all lie in the star
  of every vertex of t commutes with t.  Then t s = s t, which the search
  entered when it expanded s: s precedes t in the first layer's discovery
  order.

Lower bounds come only from exact certificates.  For a product of n orbit
elements, |qbar(x)| <= n * B + (n-1) * D <= n (B + D) where B bounds |qbar|
on the orbit and D is the homogenized defect, so |qbar(x)| / (B + D) bounds
the norm from below.  A homomorphism onto Z gives B = 1, D = 0 (exponent
sums of orbit elements are +-1); a split quasimorphism gives B = 0 (its
homogenization vanishes on conjugates of factor elements) and D twice the
analytic defect.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import and_

from .classifier import BOUNDED_DECOMPOSITION, CITATION, HOMOMORPHISM, SPLIT_QM
from .presentation import Presentation
from .quasimorphisms import homogenize
from .words import (IDENTITY, NormalWord, _bfs, _canonical_products, _first_stars, _products,
                    invert, multiply, retract)


def norm_ball(p: Presentation, gens, radius: int) -> dict[NormalWord, int]:
    """The (gens + inverses)-ball B_h, h = ceil(radius/2), that ``norm_upper``
    reads at this radius, as distances from the identity, built by the two
    rules of the module docstring; reusable across queries."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    elements = getattr(gens, "elements", gens)  # an OrbitSet or a word list
    gens = [g for g in elements if g]
    invs = list(_products(p, (), [[(v, -e) for v, e in reversed(g)] for g in gens]))
    sym = list(dict.fromkeys(gens + invs))
    ball = {IDENTITY: 0, **dict.fromkeys(sym, 1)}
    if radius < 3 or not sym:  # h < 2, or no generator: nothing to expand
        return ball
    index, adj = p._index, p._adj_mask
    inverse = {**dict(zip(invs, gens)), **dict(zip(gens, invs))}
    position = {t: k for k, t in enumerate(sym)}
    rights = [(s, _first_stars(p, s)) for s in sym]
    supports = [p._mask(v for v, _ in s) for s in sym]

    def expand(x: NormalWord):
        k = position.get(x)  # x is a generator only in the first round
        if k is None:
            tried = rights
        else:  # skip x^-1 and every earlier s inside the stars of x's vertices
            centre = reduce(and_, (adj[i] | 1 << i for i in {index[v] for v, _ in x}))
            inv = position[inverse[x]]
            tried = [r for j, r in enumerate(rights)
                     if j != inv and (j >= k or supports[j] & ~centre)]
        return _canonical_products(p, x, tried)

    return _bfs(ball, expand, (radius - 1) // 2)[0]  # the h - 1 layers after B_1


def norm_upper(
    p: Presentation, x: NormalWord, gens, radius: int,
    ball: dict[NormalWord, int] | None = None,
) -> int | None:
    """Least n <= radius with x a product of n orbit elements or inverses;
    None if no factorization exists within the radius.

    With h = ceil(radius/2), x is read from the ball B_h if it lies there.
    Otherwise let m be the largest distance in the ball: x is outside B_m,
    so its norm is at least m + 1.  The answer is the least d(w) + d(u) <=
    radius over w in B_h with u = x^-1 w in B_h; the scan stops at the first
    total equal to m + 1.  A floor above the radius needs no check of its
    own: for radius >= 2 there is none, as m <= h < radius, and at radius 1
    a total <= 1 needs w = 1 or u = 1, which puts x in the ball.
    The ball is symmetric, so u^-1 lies in it at the distance of u, and
    x = w u^-1 is a factorization of that length.  It is exact because any
    x = g_1 ... g_n with h < n <= 2h has w = g_1 ... g_{n-h} and
    u^-1 = g_{n-h+1} ... g_n in B_h.  The products x^-1 w share one
    canonical x^-1 and are made lazily, one per ball element scanned.

    A precomputed ``ball`` from ``norm_ball`` at the same radius may be
    passed to amortize the BFS over many queries; it must be symmetric, as
    ``norm_ball``'s is.  Reuse trades one BFS per query for one scan per
    query outside the ball; at radius 2 the exit comes at the first hit,
    but an x of norm above 2 still scans the whole ball.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not x:
        return 0
    if ball is None:
        ball = norm_ball(p, gens, radius)
    if x in ball:
        return ball[x]
    floor = max(ball.values()) + 1
    best: int | None = None
    for dw, u in zip(ball.values(), _products(p, invert(p, x), ball)):
        du = ball.get(u)
        if du is None:
            continue
        total = dw + du
        if total <= radius and (best is None or total < best):
            best = total
            if best == floor:
                break
    return best


def norm_lower(p: Presentation, x: NormalWord, cert) -> Fraction:
    """Certified lower bound for the pure-automorphism-invariant norm with
    seed set V.  Accepts HOMOMORPHISM and SPLIT_QM certificates; bounded
    verdicts and citation-level certificates carry no numeric bound."""
    kind = cert.kind
    if kind == BOUNDED_DECOMPOSITION:
        raise ValueError("bounded verdict: no lower-bound certificate exists")
    if kind == CITATION:
        raise ValueError("citation-level certificate: no numeric bound available")
    cur = p
    for X in cert.chain:  # a step outside the one before it raises
        cur = cur.sub(X)
    # the steps nest, so the retractions along the chain compose into one
    y = retract(p, cur.vertex_ids, x)
    if kind == HOMOMORPHISM:
        if len(cur.vertices) != 1 or cur.vertices[0].order is not None:
            raise ValueError("homomorphism certificate must end at a single Z vertex")
        k = y[0].exponent if y else 0
        return Fraction(abs(k))  # |qbar| / (B + D) with B = 1, D = 0
    if kind == SPLIT_QM:
        qm = cert.split_qm
        if qm is None:
            raise ValueError("split certificate without quasimorphism payload")
        value, _ = homogenize(cur, qm, y, "exact")
        return abs(value) / qm.homogenized_defect  # B = 0, D = homogenized defect
    raise ValueError(f"unknown certificate kind {kind!r}")


def distortion_table(
    p: Presentation,
    x: NormalWord,
    cert,
    n_max: int,
    gens,
    radius: int,
) -> list[tuple[int, Fraction, int | None]]:
    """Rows (n, lower, upper) for x^n; lower is 0 without a usable
    certificate, upper may be UNKNOWN (None).

    ``norm_lower`` runs once: both bounds are homogeneous.  The chain's
    retraction r is a homomorphism, so r(x^n) = r(x)^n, and both a
    homomorphism onto Z and a homogenized quasimorphism take n times their
    value at r(x) there.  Whether a certificate is usable does not depend
    on the word."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lower = Fraction(0)
    if cert is not None:
        try:
            lower = norm_lower(p, x, cert)
        except ValueError:
            pass
    rows = []
    xn = IDENTITY
    ball = norm_ball(p, gens, radius)
    for n in range(1, n_max + 1):
        xn = multiply(p, xn, x)
        rows.append((n, n * lower, norm_upper(p, xn, gens, radius, ball=ball)))
    return rows
