"""Acceptance criteria.

Eight oracle- and property-based gates; each test prints one PASS line with
its measured runtime.  Tolerances are exact (rational arithmetic) unless a
sampling budget is stated inline.
"""

import itertools
import random
import time
from fractions import Fraction

from gpnorm import (
    IDENTITY,
    Presentation,
    Verdict,
    VertexSpec,
    apply_gen,
    aut0_generators,
    classify,
    generator,
    invert,
    join_decomposition,
    lower_cone_violation,
    make_split_qm,
    multiply,
    norm_ball,
    norm_lower,
    norm_upper,
    normal_form,
    orbit,
    parse_word,
    power,
    random_presentation,
    random_word,
    retract,
    split_qm_eval,
    tau_structure,
    verify_certificate,
    word_literal,
)
from gpnorm.classifier import certificate_from_obj, certificate_to_obj
from gpnorm.quasimorphisms import homogenize
from conftest import pres
from test_classifier import kx_answer, kx_invariance_referee


def report(name, start, detail=""):
    dt = time.monotonic() - start
    print(f"PASS {name} ({dt:.2f}s) {detail}")


# -- criterion 1: D_inf boundedness ---------------------------------------


def test_criterion_1_dinf_norm_at_most_2():
    """Every D_inf element of syllable length <= 12 has norm <= 2.
    Exact (tolerance 0); runtime < 10 s."""
    start = time.monotonic()
    p = pres({"a": 2, "b": 2})
    orb = orbit(p, [generator(p, "a"), generator(p, "b")], aut0_generators(p), 6, 13)
    ball = norm_ball(p, orb, 2)
    count = 0
    for length in range(1, 13):
        for first in ("a", "b"):
            sylls = [((first if i % 2 == 0 else ("b" if first == "a" else "a")), 1)
                     for i in range(length)]
            x = normal_form(p, sylls)
            got = norm_upper(p, x, orb, 2, ball=ball)
            assert got is not None and got <= 2, word_literal(x)
            count += 1
    assert norm_upper(p, IDENTITY, orb, 2, ball=ball) == 0
    assert time.monotonic() - start < 10
    report("criterion-1 D_inf |w| <= 2", start, f"{count} elements")


# -- criterion 2: Z^2 boundedness -----------------------------------------


def test_criterion_2_z2_norm_at_most_2():
    """Every a^m b^n with |m|,|n| <= 50 has norm <= 2 against an orbit of
    (1, n-1)-type elements.  Exact; runtime < 30 s."""
    start = time.monotonic()
    p = pres({"a": None, "b": None}, [("a", "b")])
    tv_ab = [g for g in aut0_generators(p) if g.literal() == "tv(a,b)"]
    tv_ba = [g for g in aut0_generators(p) if g.literal() == "tv(b,a)"]
    o1 = orbit(p, [generator(p, "a")], tv_ab, 51, 52)
    o2 = orbit(p, [generator(p, "b")], tv_ba, 51, 52)
    gens = list(dict.fromkeys(o1.elements + o2.elements))
    ball = norm_ball(p, gens, 2)
    for m in range(-50, 51):
        for n in range(-50, 51):
            x = normal_form(p, [("a", m), ("b", n)])
            got = norm_upper(p, x, gens, 2, ball=ball)
            assert got is not None and got <= 2, (m, n)
    assert time.monotonic() - start < 30
    report("criterion-2 Z^2 |a^m b^n| <= 2", start, "101 x 101 elements")


# -- criterion 3: classifier / oracle agreement ---------------------------


ORDERS3 = (2, 3, 4, None)


def _graphs_up_to_iso(n):
    """Edge sets on n labelled vertices up to permutation, with the
    automorphism group of each canonical representative."""
    verts = list(range(n))
    pairs = list(itertools.combinations(verts, 2))
    perms = list(itertools.permutations(verts))
    seen = set()
    out = []
    def relabel(edges, perm):
        return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))

    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        canon = min(relabel(edges, perm) for perm in perms)
        if canon in seen:
            continue
        seen.add(canon)
        autos = [perm for perm in perms if relabel(canon, perm) == canon]
        out.append((canon, autos))
    return out


def _presentations_up_to_relabeling(n):
    names = [f"v{i}" for i in range(n)]
    for edges, autos in _graphs_up_to_iso(n):
        seen = set()
        for orders in itertools.product(ORDERS3, repeat=n):
            canon = min(
                (tuple(orders[perm[i]] for i in range(n)) for perm in autos),
                key=lambda t: tuple(5 if o is None else o for o in t),
            )
            if canon in seen:
                continue
            seen.add(canon)
            yield Presentation(
                [VertexSpec(names[i], order=canon[i]) for i in range(n)],
                [(names[a], names[b]) for a, b in edges],
            )


def _exhaustive_corpus():
    for n in range(1, 6):
        yield from _presentations_up_to_relabeling(n)


def test_criterion_3_classifier_oracle_agreement():
    """classify(p).bounded == join_decomposition(p).bounded_form: exhaustive
    <= 5 vertices over orders {2,3,4,inf} up to relabeling, plus 10^3 seeded
    random presentations with <= 8 vertices.  Zero disagreements; runtime < 5 min."""
    start = time.monotonic()
    count = 0
    for p in _exhaustive_corpus():
        assert classify(p).bounded == join_decomposition(p).bounded_form, repr(p)
        count += 1
    rng = random.Random(2024)
    for _ in range(1000):
        p = random_presentation(rng, max_vertices=8)
        assert classify(p).bounded == join_decomposition(p).bounded_form, repr(p)
    assert time.monotonic() - start < 300
    report("criterion-3 classifier/oracle agreement", start,
           f"{count} exhaustive + 1000 random presentations")


# -- criterion 4: C_2 * C_3 undistortion ----------------------------------


def test_criterion_4_psl_lower_bound():
    """SPLIT_QM certificate gives norm_lower((ab)^n) = n/6 for n <= 20 and
    lower <= upper wherever the upper bound is known at radius <= 6.
    Runtime < 1 min."""
    start = time.monotonic()
    p = pres({"a": 2, "b": 3})
    cert = classify(p).certificate
    assert cert.kind == "SPLIT_QM"
    ab = parse_word(p, "a b")
    orb = orbit(p, [generator(p, v) for v in p.vertex_ids], aut0_generators(p), 4, 8)
    ball = norm_ball(p, orb, 6)
    for n in range(1, 21):
        x = power(p, ab, n)
        lower = norm_lower(p, x, cert)
        assert lower == Fraction(n, 6), n
        upper = norm_upper(p, x, orb, 6, ball=ball)
        if upper is not None:
            assert lower <= upper, (n, lower, upper)
    assert time.monotonic() - start < 60
    report("criterion-4 C_2*C_3 lower bound n/6", start)


# -- criterion 5: K_X invariance ------------------------------------------


def _random_lower_cone(p, rng):
    ts = tau_structure(p)
    k = len(ts.classes)
    down = set()
    for i in rng.sample(range(k), rng.randint(0, k)):
        down.add(i)
        down |= {j for j in range(k) if (j, i) in ts.class_order}
    return tuple(v for i in down for v in ts.classes[i])


def test_criterion_5_kernel_invariance():
    """10^3 seeded trials: for lower cones X the kernel K_X is invariant
    under every sampled Aut0 generator; and the path-RAAG non-lower-cone
    X = {b} yields the violating transvection automatically."""
    start = time.monotonic()
    rng = random.Random(55)
    trials = 0
    while trials < 1000:
        p = random_presentation(rng, max_vertices=6)
        X = _random_lower_cone(p, rng)
        assert lower_cone_violation(p, X) is None
        gens = aut0_generators(p)
        if not gens:
            continue
        w = random_word(p, rng)
        w = multiply(p, w, invert(p, retract(p, X, w)))  # now in K_X
        assert not retract(p, X, w)
        psi = rng.choice(gens)
        assert not retract(p, X, apply_gen(p, psi, w)), (repr(p), X, psi.literal())
        trials += 1
    raag = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    found = lower_cone_violation(raag, ("b",))
    assert found == kx_answer(raag, kx_invariance_referee(raag, ("b",)))
    s, t = found
    assert t == "b"
    report("criterion-5 K_X invariance", start,
           f"1000 trials; violation tv({s},{t}) found for X={{b}}")


# -- criterion 6: split quasimorphism properties --------------------------


QM_CASES = [
    (pres({"a": 2, "b": 3}), ["a"]),                       # C_2 * C_3
    (pres({"a": None, "b": None}), ["a"]),                 # F_2
    (pres({"a": 2, "b": 2, "c": 3}, [("a", "b")]), ["a", "b"]),  # (C_2 x C_2) * C_3
]


def test_criterion_6_split_qm_properties():
    """Empirical defect over 10^4 seeded pairs <= analytic bound; homogenized
    values vanish on 10^3 sampled factor conjugates; exact and estimate
    homogenization agree within the homogenized defect / s for s <= 64."""
    start = time.monotonic()
    for p, M in QM_CASES:
        q = make_split_qm(p, M)
        rng = random.Random(6)
        for _ in range(10_000):
            a, b = random_word(p, rng), random_word(p, rng)
            d = (split_qm_eval(p, q, multiply(p, a, b))
                 - split_qm_eval(p, q, a) - split_qm_eval(p, q, b))
            assert abs(d) <= q.defect, (repr(p), word_literal(a), word_literal(b))
        rng = random.Random(66)
        sides = (tuple(M), tuple(v for v in p.vertex_ids if v not in set(M)))
        for _ in range(1000):
            g = random_word(p, rng)
            side = rng.choice(sides)
            a = random_word(p.sub(side), rng, max_sylls=3)
            if not a:
                continue
            conj = multiply(p, multiply(p, g, a), invert(p, g))
            val, _ = homogenize(p, q, conj, "exact")
            assert val == 0, (repr(p), word_literal(conj))
        for _ in range(30):
            x = random_word(p, rng)
            exact, _ = homogenize(p, q, x, "exact")
            for s in (2, 8, 64):
                est, _ = homogenize(p, q, x, "estimate", s)
                assert abs(exact - est) <= Fraction(q.homogenized_defect, s)
    report("criterion-6 split-qm properties", start, f"{len(QM_CASES)} groups")


# -- criterion 7: complete-graph arithmetic oracle ------------------------


def _primary_multisets(limit):
    """Nondecreasing tuples of prime powers with product <= limit."""

    def is_prime_power(q):
        for d in range(2, q + 1):
            if q % d == 0:
                while q % d == 0:
                    q //= d
                return q == 1
        return False

    prime_powers = [q for q in range(2, limit + 1) if is_prime_power(q)]
    out = []

    def rec(prefix, prod, start):
        out.append(tuple(prefix))
        for i in range(start, len(prime_powers)):
            q = prime_powers[i]
            if prod * q > limit:
                break  # prime_powers is ascending
            prefix.append(q)
            rec(prefix, prod * q, i)
            prefix.pop()

    rec([], 1, 0)
    return [t for t in out if t]


def test_criterion_7_complete_graph_oracle():
    """On every complete-graph presentation with |W| <= 10^4, canonical-form
    arithmetic agrees with direct-product modular arithmetic: exhaustively
    for |W| <= 64, and via generator-exhaustive Cayley steps plus 60 sampled
    pairs for larger groups."""
    start = time.monotonic()
    checked = exhaustive = 0
    for orders in _primary_multisets(10_000):
        n = len(orders)
        ids = [f"v{i}" for i in range(n)]
        p = Presentation(
            [VertexSpec(ids[i], order=orders[i]) for i in range(n)],
            [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)],
        )
        size = 1
        for o in orders:
            size *= o

        def word_of(t):
            return normal_form(p, [(ids[i], t[i]) for i in range(n)])

        def add(s, t):
            return tuple((s[i] + t[i]) % orders[i] for i in range(n))

        if size <= 64:
            # exhaustive pair table
            elements = list(itertools.product(*[range(o) for o in orders]))
            words = {t: word_of(t) for t in elements}
            assert len(set(words.values())) == size  # canonical forms distinct
            for s in elements:
                for t in elements:
                    assert multiply(p, words[s], words[t]) == words[add(s, t)]
            exhaustive += 1
        else:
            rng = random.Random(str(orders))
            sample = [tuple(rng.randrange(o) for o in orders) for _ in range(60)]
            units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            for s in sample:
                ws = word_of(s)
                for u in units:  # generator-exhaustive Cayley steps
                    assert multiply(p, ws, word_of(u)) == word_of(add(s, u))
                t = rng.choice(sample)
                assert multiply(p, ws, word_of(t)) == word_of(add(s, t))
                assert invert(p, ws) == word_of(tuple((-x) % o for x, o in zip(s, orders)))
        checked += 1
    report("criterion-7 complete-graph oracle", start,
           f"{checked} presentations ({exhaustive} exhaustive)")


# -- criterion 8: certificate verification --------------------------------


def test_criterion_8_certificate_verification():
    """verify_certificate passes on every classify output from criterion 3's
    corpus, and on every distinct chain step of the exhaustive part the
    closed-form kernel check agrees with the referee that applies every Aut0
    generator; a corrupted chain fails with an exhibited violating
    generator."""
    start = time.monotonic()
    count = 0
    steps = set()
    for p in _exhaustive_corpus():
        v = classify(p)
        rep = verify_certificate(p, v)
        assert rep.passed, (repr(p), rep.to_obj())
        count += 1
        cur = p
        for step in v.certificate.chain:
            steps.add((cur, step))
            cur = cur.sub(step)
    # the closed-form kernel check agrees with applying every generator
    for cur, step in steps:
        want = kx_answer(cur, kx_invariance_referee(cur, step))
        assert lower_cone_violation(cur, step) == want, (repr(cur), step)
    rng = random.Random(88)
    for _ in range(200):
        p = random_presentation(rng, max_vertices=6)
        v = classify(p)
        rep = verify_certificate(p, v)
        assert rep.passed, (repr(p), rep.to_obj())
        count += 1
    # corrupted certificate: non-lower-cone chain step
    raag = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    v = classify(raag)
    obj = certificate_to_obj(v.certificate)
    obj["chain"] = [["b"]]
    bad = certificate_from_obj(raag, obj)
    rep = verify_certificate(raag, Verdict(False, bad))
    assert not rep.passed
    fail = next(c for c in rep.checks if c.status == "FAIL")
    assert "tv(" in fail.detail
    report("criterion-8 certificate verification", start,
           f"{count} certificates verified, {len(steps)} chain steps refereed; "
           f"tampered cert FAILs with {fail.detail!r}")
