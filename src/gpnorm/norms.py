"""Certified intervals for invariant word norms.

Upper bounds count factorizations into elements of a truncated orbit set
and their inverses: the orbit is a subset of the true invariant generating
set, so any factorization found is a genuine upper bound, and failure within
the radius is reported as UNKNOWN (None), never converted into a claim.

One rule answers every radius r.  ``norm_ball`` builds the ball B_h of
radius h = ceil(r/2) by the orbit's breadth-first search, ``words._bfs``, one
frontier word times every generator per step, in that search's discovery
order, so distances never decrease along it.  ``norm_upper`` scans w in that
order and answers d(w) + d(x^-1 w) at the first w with x^-1 w in the ball.
This is exact: a factorization of length n <= r <= 2h splits as
w * (x^-1 w)^-1 with both parts of length at most h, and the first hit has
the least d(w), which fixes its total at n (the proof is in ``norm_upper``),
the stopping rule of Pohl's bidirectional search (Machine Intelligence 6,
1971).  So a query costs one B_h build plus one scan up to its first hit,
and a ball reused across many queries costs that scan alone.

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
    if radius < 3:  # h < 2: nothing to expand
        return ball
    index, stars = p._index, p._stars
    inverse = {**dict(zip(invs, gens)), **dict(zip(gens, invs))}
    position = {t: k for k, t in enumerate(sym)}
    rights = [(s, _first_stars(p, s)) for s in sym]
    supports = [p._mask(v for v, _ in s) for s in sym]

    def expand(x: NormalWord):
        k = position.get(x)  # x is a generator only in the first round
        if k is None:
            tried = rights
        else:  # skip x^-1 and every earlier s inside the stars of x's vertices
            centre = reduce(and_, (stars[i] for i in {index[v] for v, _ in x}))
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

    The answer is d(w) + d(u) at the first w of the ball B_h, in its
    breadth-first order, with u = x^-1 w in B_h; None if that total exceeds
    the radius, or if no w hits.  Here h = ceil(radius/2), or more for a
    ball of a larger radius.  The ball is symmetric, so u^-1 lies in it at
    the distance of u, and x = w u^-1 is a factorization of that length.
    It is the norm n of x whenever n <= 2h.  The ball starts at the
    identity, so if x lies in it (x = 1 included) the first w = 1 hits at
    d(x^-1) = n.  Otherwise n > h, and every hit has d(u) <= h and
    d(w) + d(u) >= n, so d(w) >= n - h.  A least factorization
    x = g_1 ... g_n splits into w = g_1 ... g_{n-h} and
    u^-1 = g_{n-h+1} ... g_n, a hit with d(w) <= n - h, so the least d(w)
    of a hit is n - h.  Distances never decrease along the ball, so the
    first hit has it; then d(u) >= h, so d(u) = h and the total is n.  Any
    hit at all means n <= 2h, so a scan without one rules out every radius
    <= 2h.  The products x^-1 w share one canonical x^-1 and are made
    lazily, one per ball element scanned.

    A precomputed ``ball`` may be passed to amortize the BFS over many
    queries.  It must come from ``norm_ball`` at this radius or a larger
    one: the proof reads its breadth-first order and its symmetry.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if ball is None:
        ball = norm_ball(p, gens, radius)
    for dw, u in zip(ball.values(), _products(p, invert(p, x), ball)):
        du = ball.get(u)
        if du is not None:
            return dw + du if dw + du <= radius else None
    return None


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
        # verify's homomorphism-endpoint facts: one vertex, the target, of infinite order
        if cur.vertex_ids != (cert.target_vertex,) or cur.vertices[0].order is not None:
            raise ValueError("homomorphism certificate must end at the target, a single Z vertex")
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
