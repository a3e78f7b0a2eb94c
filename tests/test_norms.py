import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from gpnorm import (
    IDENTITY,
    Verdict,
    aut0_generators,
    classify,
    distortion_table,
    expand_to_primary,
    generator,
    invert,
    multiply,
    named_presentation,
    norm_ball,
    norm_lower,
    norm_upper,
    orbit,
    parse_word,
    power,
    random_presentation,
    verify_certificate,
)
from gpnorm import automorphisms, norms, words
from gpnorm.corpus import random_word
from conftest import pres


def std_orbit(p, depth=4, cap=10):
    return orbit(
        p, [generator(p, v) for v in p.vertex_ids], aut0_generators(p), depth, cap
    )


def test_norm_upper_identity_and_generator(dinf):
    orb = std_orbit(dinf, 6, 13)
    assert norm_upper(dinf, IDENTITY, orb, 2) == 0
    assert norm_upper(dinf, generator(dinf, "a"), orb, 2) == 1


def test_norm_upper_unknown_is_none():
    p = pres({"a": None})
    orb = std_orbit(p, 2, 3)
    # a^100 needs many generators; radius 3 cannot reach it
    assert norm_upper(p, generator(p, "a", 100), orb, 3) is None


# the seven norm_interval shapes, with small orbits: (depth, len_cap, R)
REFEREE_SHAPES = {
    "psl": (1, 3, 5),
    "dinf": (2, 6, 5),
    "f2": (1, 1, 4),
    "path_raag": (1, 1, 4),
    "c2c2c2": (0, 1, 5),
    "c6_star_z": (1, 1, 4),
    "z2_x_dinf": (0, 1, 5),
}


def test_norm_upper_mitm_matches_direct():
    """norm_upper at every radius r <= R equals the distance in one full
    breadth-first ball of radius R + 1, or None beyond r: for every element
    of B_R and a few of the sphere R + 1, with a fresh ball, a reused one,
    and a reused one of the larger radius r + 2, where the first hit can
    lie beyond the radius."""
    for name, (depth, cap, R) in REFEREE_SHAPES.items():
        p = expand_to_primary(named_presentation(name))
        orb = std_orbit(p, depth, cap)
        dist = norm_ball(p, list(orb.elements), 2 * (R + 1))
        outside = [x for x, d in dist.items() if d == R + 1][:20]
        assert outside, name
        words = [(x, d) for x, d in dist.items() if d <= R] + [(x, R + 1) for x in outside]
        for r in range(1, R + 1):
            ball = norm_ball(p, orb, r)
            assert ball == norm_ball(p, list(orb.elements), r)
            balls = (None, ball, norm_ball(p, orb, r + 2))
            for x, d in words:
                want = d if d <= r else None
                for reused in balls:
                    assert norm_upper(p, x, orb, r, ball=reused) == want, (name, x, d, r)


# the seven shapes of the norm benchmark, each with its (orbit depth, length
# cap, radius) settings
BENCH_SHAPES = {
    "psl": [(2, 6, 3), (3, 8, 4), (2, 6, 4)],
    "dinf": [(2, 6, 2), (3, 8, 4), (3, 10, 5)],
    "f2": [(1, 4, 2), (2, 6, 2), (1, 4, 4)],
    "path_raag": [(1, 4, 2), (1, 4, 4), (2, 6, 2)],
    "c2c2c2": [(2, 6, 2), (2, 6, 4), (2, 6, 3)],
    "c6_star_z": [(1, 4, 2), (1, 4, 4), (2, 6, 2)],
    "z2_x_dinf": [(2, 6, 3), (3, 8, 4), (2, 6, 4)],
}


def multiply_ball(p, gens, radius):
    """Breadth-first ball with one ``multiply`` per (word, generator)."""
    sym = list(dict.fromkeys(gens + [invert(p, g) for g in gens]))
    dist, frontier = {IDENTITY: 0}, [IDENTITY]
    for d in range(1, radius + 1):
        new = []
        for x in frontier:
            for g in sym:
                y = multiply(p, x, g)
                if y not in dist:
                    dist[y] = d
                    new.append(y)
        frontier = new
    return dist


def test_norm_ball_matches_multiply_bfs():
    for name, settings in BENCH_SHAPES.items():
        p = expand_to_primary(named_presentation(name))
        for depth, cap, radius in settings:
            orb = std_orbit(p, depth, cap)
            want = multiply_ball(p, [g for g in orb.elements if g], (radius + 1) // 2)
            assert list(norm_ball(p, orb, radius).items()) == list(want.items()), name


def random_graph_product(rng):
    """2-6 vertices of orders 2, 3, 4 or infinity, with an edge density drawn
    from [0, 1]."""
    n, density = rng.randint(2, 6), rng.random()
    edges = [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return pres({f"v{i}": rng.choice((2, 3, 4, None)) for i in range(n)}, edges)


def test_norm_ball_matches_multiply_bfs_on_random_presentations():
    """Random presentations with edges and finite orders, at radius 1-6:
    from the second round on, frontier words meet every generator, and some
    generators have commuting supports, so both ball rules are at work."""
    rng = random.Random(19)
    commuting = 0
    for k in range(30):
        p = random_graph_product(rng)
        while not p.edges or all(p.order(v) is None for v in p.vertex_ids):
            p = random_graph_product(rng)
        gens = [g for g in dict.fromkeys([generator(p, v) for v in p.vertex_ids[:4]]
                                         + [random_word(p, rng, 3) for _ in range(2)]) if g]
        commuting += sum(g != h and all({v for v, _ in g} <= p.star(u) for u, _ in h)
                         for g in gens for h in gens)
        want = list(multiply_ball(p, gens, 3).items())
        for radius in range(1, 7):
            h = (radius + 1) // 2
            got = list(norm_ball(p, gens, radius).items())
            assert got == [(w, d) for w, d in want if d <= h], (k, repr(p), radius)
    assert commuting > 0


def test_norm_upper_mitm_equals_bfs_distance(psl):
    # the meet-in-the-middle scan reads u = x^-1 w at the distance of u^-1,
    # which relies on the half-radius ball being symmetric
    orb = std_orbit(psl, 2, 4)
    dist = norm_ball(psl, list(orb.elements), 8)
    assert max(dist.values()) == 4
    for x, d in dist.items():
        assert norm_upper(psl, x, orb, 4) == d


def test_norm_upper_ball_reuse():
    p = pres({"a": None, "b": None}, [("a", "b")])
    orb = std_orbit(p, 3, 6)
    ball = norm_ball(p, orb, 2)
    for lit in ["a b", "a^2", "a^-1 b"]:
        x = parse_word(p, lit)
        assert norm_upper(p, x, orb, 2, ball=ball) == norm_upper(p, x, orb, 2)
    with pytest.raises(ValueError):
        norm_upper(p, IDENTITY, orb, 0)
    for radius in (0, -1):  # a ball that no norm_upper call would accept
        with pytest.raises(ValueError, match="radius must be >= 1"):
            norm_ball(p, orb, radius)


def test_norm_ball_without_generators():
    # an empty orbit (a length cap of 0, or identity seeds) has the identity
    # alone as its ball at every radius, and factors nothing else
    p = pres({"a": None, "b": 2}, [("a", "b")])
    x = parse_word(p, "a b")
    for radius in range(1, 6):
        assert norm_ball(p, [], radius) == {IDENTITY: 0}
        assert norm_upper(p, x, [], radius) is None
        assert norm_upper(p, IDENTITY, [], radius) == 0


def test_norm_lower_homomorphism():
    p = pres({"a": None})
    cert = classify(p).certificate
    assert cert.kind == "HOMOMORPHISM"
    assert norm_lower(p, generator(p, "a", 7), cert) == 7
    assert norm_lower(p, IDENTITY, cert) == 0


def test_norm_lower_homomorphism_through_chain():
    # C_6 * Z expands to (C_2 x C_3) * Z; the certificate chain retracts
    # down to the Z vertex before reading off the exponent sum
    from gpnorm import expand_to_primary

    p = expand_to_primary(pres({"a": 6, "b": None}))
    verdict = classify(p)
    cert = verdict.certificate
    assert not verdict.bounded and cert.kind == "HOMOMORPHISM"
    assert len(cert.chain) >= 1
    x = parse_word(p, "a.0 b^2 a.1 b^3")
    assert norm_lower(p, x, cert) == 5


def test_norm_lower_split_qm(psl):
    cert = classify(psl).certificate
    assert cert.kind == "SPLIT_QM"
    ab = parse_word(psl, "a b")
    for n in range(1, 8):
        assert norm_lower(psl, power(psl, ab, n), cert) == Fraction(n, 6)


def test_norm_lower_is_homogeneous():
    """norm_lower(x^n) = n * norm_lower(x), which distortion_table relies on:
    seeded words under the HOMOMORPHISM and SPLIT_QM certificates of seeded
    random presentations."""
    rng = random.Random("homogeneous-lower")
    found = {"HOMOMORPHISM": 0, "SPLIT_QM": 0}
    nonzero = 0
    while min(found.values()) < 8:
        p = random_presentation(rng, 6)
        cert = classify(p).certificate
        if cert.kind not in found:
            continue
        found[cert.kind] += 1
        for _ in range(4):
            x = random_word(p, rng, 8)
            lower = norm_lower(p, x, cert)
            nonzero += lower != 0
            for n in (2, 3, 7):
                assert norm_lower(p, power(p, x, n), cert) == n * lower, (repr(p), x, n)
    assert nonzero >= 16


def test_norm_lower_rejects_other_kinds(z2, f2):
    bounded_cert = classify(z2).certificate
    with pytest.raises(ValueError):
        norm_lower(z2, generator(z2, "a"), bounded_cert)
    citation_cert = classify(f2).certificate
    with pytest.raises(ValueError):
        norm_lower(f2, generator(f2, "a"), citation_cert)


def test_norm_lower_rejects_malformed_certificates(psl):
    # norm_lower reads a certificate as it stands; each guard names its fault
    cert = classify(psl).certificate
    cases = {
        "unknown vertex 'b'": replace(cert, chain=(("a",), ("b",))),
        "single Z vertex": replace(cert, kind="HOMOMORPHISM", chain=(("a",),)),
        "without quasimorphism payload": replace(cert, split_qm=None),
        "unknown certificate kind 'NOPE'": replace(cert, kind="NOPE"),
    }
    for message, bad in cases.items():
        with pytest.raises(ValueError, match=message):
            norm_lower(psl, parse_word(psl, "a b"), bad)
    # a chain ending at b, so verify's homomorphism-endpoint refuses target a.0
    p = expand_to_primary(named_presentation("c6_star_z"))
    wrong_target = replace(classify(p).certificate, target_vertex="a.0")
    assert not verify_certificate(p, Verdict(False, wrong_target)).passed
    with pytest.raises(ValueError, match="the target, a single Z vertex"):
        norm_lower(p, parse_word(p, "b^5"), wrong_target)


def test_distortion_table_psl(psl):
    cert = classify(psl).certificate
    orb = std_orbit(psl, 4, 8)
    rows = distortion_table(psl, parse_word(psl, "a b"), cert, 6, orb, 6)
    assert [n for n, _, _ in rows] == list(range(1, 7))
    for n, lo, up in rows:
        assert lo == Fraction(n, 6)
        if up is not None:
            assert lo <= up
    with pytest.raises(ValueError):
        distortion_table(psl, IDENTITY, cert, 0, orb, 2)


def test_distortion_table_without_cert(z2):
    orb = std_orbit(z2, 2, 6)
    rows = distortion_table(z2, generator(z2, "a"), None, 3, orb, 2)
    assert all(lo == 0 for _, lo, _ in rows)


def test_norm_lower_positive_zero_or_refused(psl, z2):
    psl_cert = classify(psl).certificate
    assert norm_lower(psl, parse_word(psl, "a b"), psl_cert) > 0
    assert norm_lower(psl, generator(psl, "a"), psl_cert) == 0
    with pytest.raises(ValueError):
        norm_lower(z2, generator(z2, "a"), classify(z2).certificate)


def test_norm_work_counts(monkeypatch):
    """The work behind a norm request, counted at ``words._products``: the
    orbit starts one pass per word it expands, not one per image, and the two
    ball rules keep the z2_x_dinf and c2c2c2 balls of radius 4 to about a
    half and a third of the products of one pass per (word, generator) pair
    (1,636 and 462 of them).  A query that reuses the ball reads its scan
    up to the first hit and no further: the whole ball when nothing hits."""
    count = {"passes": 0, "products": 0}
    products = words._products

    def read(ys):
        for y in ys:
            count["products"] += 1
            yield y

    def counted(*args):
        count["passes"] += 1  # on the call: a pass may yield nothing that is read
        return read(products(*args))

    for module in (words, norms, automorphisms):
        monkeypatch.setattr(module, "_products", counted, raising=False)
    for name, depth, cap, bound in (("z2_x_dinf", 3, 8, 830), ("c2c2c2", 2, 6, 150)):
        p = expand_to_primary(named_presentation(name))
        seeds, gens = [generator(p, v) for v in p.vertex_ids], aut0_generators(p)
        count.update(passes=0, products=0)
        orb = orbit(p, seeds, gens, depth, cap)
        assert not orb.frontier_exhausted
        expanded = len(orbit(p, seeds, gens, depth - 1, cap).elements)
        count.update(passes=0, products=0)
        orbit(p, seeds, gens, depth, cap)
        assert count["passes"] == len(seeds) + expanded, name  # normal_form of each seed
        count.update(passes=0, products=0)
        ball = norm_ball(p, orb, 4)
        assert count["products"] <= bound, name
        monkeypatch.setattr(words, "_products", products)  # count the scan alone
        rng, firsts = random.Random(name), []
        for _ in range(30):
            x = random_word(p, rng, 12)
            x_inv = invert(p, x)
            first = next((k for k, w in enumerate(ball) if multiply(p, x_inv, w) in ball), None)
            firsts.append(first)
            count.update(products=0)
            norm_upper(p, x, orb, 4, ball=ball)
            assert count["products"] == (len(ball) if first is None else first + 1), (name, x)
        monkeypatch.setattr(words, "_products", counted)
        assert any(firsts), name  # a first hit past the identity w = 1


# counts every product ``words._products`` yields (also through ``automorphisms``
# and ``norms``) per shape: the orbit, one radius-4 ball, and 30 seeded queries
# that reuse it
COUNT_PRODUCTS = """
import random, sys
from gpnorm import (aut0_generators, automorphisms, expand_to_primary, generator,
                    named_presentation, norm_ball, norm_upper, norms, orbit, words)
from gpnorm.corpus import random_word

products, count = words._products, 0
def counted(*args):
    global count
    for y in products(*args):
        count += 1
        yield y
words._products = automorphisms._products = norms._products = counted
for name in sys.argv[1:]:
    count, rng = 0, random.Random(16)
    p = expand_to_primary(named_presentation(name))
    orb = orbit(p, [generator(p, v) for v in p.vertex_ids], aut0_generators(p), 2, 8)
    ball = norm_ball(p, orb, 4)
    answers = [norm_upper(p, random_word(p, rng, 6), orb, 4, ball=ball) for _ in range(30)]
    print(name, count, answers)
"""


def test_norm_work_independent_of_hash_seed():
    """The orbit, and with it the ball, come in discovery order, so the work
    behind each answer repeats under every hash seed, not only the answers."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [
        subprocess.run(
            [sys.executable, "-c", COUNT_PRODUCTS, "c2c2c2", "path_raag", "f2", "c6_star_z"],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        for seed in ("0", "1", "2")
    ]
    assert len(runs[0].splitlines()) == 4
    assert runs[0] == runs[1] == runs[2]
