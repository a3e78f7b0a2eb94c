"""Certified intervals for invariant word norms.

Upper bounds come from breadth-first search over products of elements of a
truncated orbit set: the orbit is a subset of the true invariant generating
set, so any factorization found is a genuine upper bound, and failure within
the radius is reported as UNKNOWN (None), never converted into a claim.

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

from .classifier import BOUNDED_DECOMPOSITION, CITATION, HOMOMORPHISM, SPLIT_QM
from .presentation import Presentation
from .quasimorphisms import homogenize
from .words import IDENTITY, NormalWord, invert, multiply, retract


def _gen_list(gens) -> list[NormalWord]:
    elements = getattr(gens, "elements", gens)
    return [g for g in elements if g]


def _ball(p: Presentation, gens: list[NormalWord], radius: int) -> dict[NormalWord, int]:
    """Distances from the identity in the (gens + inverses)-ball."""
    sym = dict.fromkeys(gens)
    for g in gens:
        sym.setdefault(invert(p, g))
    dist = {IDENTITY: 0}
    frontier = [IDENTITY]
    for d in range(1, radius + 1):
        new = []
        for x in frontier:
            for g in sym:
                y = multiply(p, x, g)
                if y not in dist:
                    dist[y] = d
                    new.append(y)
        if not new:
            break
        frontier = new
    return dist


def norm_ball(p: Presentation, gens, radius: int) -> dict[NormalWord, int]:
    """The half-radius ball used by ``norm_upper`` at this radius; reusable
    across queries."""
    half = (radius + 1) // 2 if radius >= 4 else radius
    return _ball(p, _gen_list(gens), half)


def norm_upper(
    p: Presentation, x: NormalWord, gens, radius: int,
    ball: dict[NormalWord, int] | None = None,
) -> int | None:
    """Least n <= radius with x a product of n orbit elements or inverses,
    found by meet-in-the-middle over a half-radius ball; None if no
    factorization exists within the radius.

    A precomputed ``ball`` (from ``norm_ball``) may be passed to amortize the
    BFS over many queries at the same radius.  It must be symmetric, as
    ``norm_ball``'s is: u^-1 lies in it at the distance of u, so x = u^-1 *
    (u x) is found by scanning u rather than u^-1.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not x:
        return 0
    glist = _gen_list(gens)
    if not glist:
        return None
    if ball is None:
        ball = norm_ball(p, glist, radius)
    if x in ball and ball[x] <= radius:
        return ball[x]
    if radius < 4:
        return None
    best: int | None = None
    for u, du in ball.items():
        if du == 0:
            continue
        rest = multiply(p, u, x)
        dv = ball.get(rest)
        if dv is None:
            continue
        total = du + dv
        if total <= radius and (best is None or total < best):
            best = total
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
    last = p.vertex_ids
    for X in cert.chain:
        missing = [v for v in X if v not in last]
        if missing:
            raise ValueError(f"certificate chain mentions unknown vertices {missing}")
        last = X
    # the steps nest, so the retractions along the chain compose into one
    y = retract(p, last, x)
    cur = p.sub(last)
    if kind == HOMOMORPHISM:
        if len(cur.vertices) != 1 or cur.vertices[0].order is not None:
            raise ValueError("homomorphism certificate must end at a single Z vertex")
        k = y.syllables[0].exponent if y else 0
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
    certificate, upper may be UNKNOWN (None)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    xn = IDENTITY
    ball = norm_ball(p, gens, radius)
    for n in range(1, n_max + 1):
        xn = multiply(p, xn, x)
        if cert is not None:
            try:
                lower = norm_lower(p, xn, cert)
            except ValueError:
                lower = Fraction(0)
        else:
            lower = Fraction(0)
        rows.append((n, lower, norm_upper(p, xn, gens, radius, ball=ball)))
    return rows
