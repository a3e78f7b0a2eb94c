import itertools
import random
import time

import pytest

from gpnorm import (
    IDENTITY,
    Syllable,
    apply_gen,
    aut0_generators,
    classify,
    expand_to_primary,
    exponent_weight,
    generator,
    multiply,
    named_presentation,
    normal_form,
    orbit,
    parse_generator,
    parse_word,
    power,
    random_presentation,
    random_word,
    word_literal,
)
from gpnorm.automorphisms import (
    FACTOR,
    LABELLED_GRAPH,
    TRANSVECTION,
    _prepared,
    _unit_group_generators,
    transvection_exponent,
)
from gpnorm.corpus import NAMED
from gpnorm.presentation import PresentationError
from conftest import pres


def _is_prime_power(n):
    q = next(d for d in range(2, n + 1) if n % d == 0)  # the least prime factor
    while n % q == 0:
        n //= q
    return n == 1


def test_unit_group_generators():
    assert _unit_group_generators(2) == []
    assert _unit_group_generators(4) == [3]
    assert _unit_group_generators(8) == [7, 5]
    assert _unit_group_generators(3) == [2]
    # 3 is a primitive root mod 7 and mod 49
    assert _unit_group_generators(7) == [3]
    assert _unit_group_generators(49) == [3]
    # generated subgroup really is the whole unit group, for every odd prime
    # power below 2,000 (each has a primitive root: Gauss)
    odd_prime_powers = [n for n in range(3, 2000, 2) if _is_prime_power(n)]
    assert odd_prime_powers[:8] == [3, 5, 7, 9, 11, 13, 17, 19] and 3**6 in odd_prime_powers
    for n in (4, 8, 16, *odd_prime_powers):
        gens = _unit_group_generators(n)
        group = {1}
        frontier = [1]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % n
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        from math import gcd
        assert group == {k for k in range(1, n) if gcd(k, n) == 1}


def test_large_prime_order_is_fast():
    # C_p * Z with the Mersenne prime p = 2^31 - 1, whose least primitive
    # root is 7: factoring p and phi(p) replaces loops up to the order
    p = pres({"a": 2**31 - 1, "b": None})
    start = time.perf_counter()
    assert classify(p).certificate.kind == "HOMOMORPHISM"
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    gens = aut0_generators(p)
    assert time.perf_counter() - start < 1
    assert [g.literal() for g in gens if g.kind == FACTOR] == ["factor(a,7)", "factor(b,-1)"]


def test_transvection_exponent():
    p = pres({"a": 2, "b": 8}, [("a", "b")])
    assert transvection_exponent(p, "a", "b") == 4
    assert transvection_exponent(p, "b", "a") == 1
    q = pres({"a": None, "b": None}, [("a", "b")])
    assert transvection_exponent(q, "a", "b") == 1
    finite_to_infinite = pres({"a": 2, "b": None}, [("a", "b")])
    different_primes = pres({"a": 2, "b": 3}, [("a", "b")])
    order_6 = pres({"a": 6, "b": 2}, [("a", "b")])
    for r in (finite_to_infinite, different_primes, order_6):
        with pytest.raises(PresentationError):
            transvection_exponent(r, "a", "b")


def test_parse_generator_validation():
    p = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError):
        parse_generator(p, "tv(b,a)")  # b not <=_tau a
    g = parse_generator(p, "tv(a,b)")
    assert g.literal() == "tv(a,b)"
    with pytest.raises(ValueError):
        parse_generator(p, "factor(a,2)")  # infinite order needs +-1
    p4 = pres({"a": 4})
    with pytest.raises(ValueError):
        parse_generator(p4, "factor(a,2)")  # not a unit
    assert parse_generator(p4, "factor(a,-1)").unit == 3  # reduced mod the order
    with pytest.raises(ValueError):
        parse_generator(p, "pc(b,a)")  # St(b) = all
    g = parse_generator(p, "pc(a,c)")
    assert g.literal() == "pc(a,c)"
    with pytest.raises(ValueError):
        parse_generator(p, "graph(a:b,b:a,c:c)")
    g = parse_generator(p, "graph(a:c,b:b,c:a)")
    assert apply_gen(p, g, parse_word(p, "a c")) == parse_word(p, "c a")


def test_apply_factor():
    p = pres({"a": 5})
    g = parse_generator(p, "factor(a,2)")
    assert apply_gen(p, g, generator(p, "a")) == generator(p, "a", 2)
    # inverse undoes it: 2 * 3 = 6 = 1 mod 5
    assert apply_gen(p, g, generator(p, "a"), inverse=True) == generator(p, "a", 3)
    q = pres({"a": None})
    inv = parse_generator(q, "factor(a,-1)")
    assert apply_gen(q, inv, generator(q, "a", 3)) == generator(q, "a", -3)


TRANSVECTION_CASES = [
    # (orders, edges, [(x, inverse, image of x under tv(a,b) written out)])
    # Z^2: the copies of a b commute and merge
    ({"a": None, "b": None}, [("a", "b")], [
        ("a", False, "a b"), ("a^3", False, "a b a b a b"),
        ("a^-2", False, "b^-1 a^-1 b^-1 a^-1"), ("a^3", True, "a b^-1 a b^-1 a b^-1"),
        ("a^-1 b", True, "b a^-1 b")]),
    # F_2: the copies stay apart
    ({"a": None, "b": None}, [], [
        ("a", False, "a b"), ("a^2", False, "a b a b"),
        ("a^-2", False, "b^-1 a^-1 b^-1 a^-1"), ("b a^-1 b", False, "b b^-1 a^-1 b"),
        ("a^2", True, "a b^-1 a b^-1")]),
    # C_2 - C_4 commuting: q = 2, and b^(2q) = 1 makes it its own inverse
    ({"a": 2, "b": 4}, [("a", "b")], [
        ("a", False, "a b^2"), ("b a", False, "b a b^2"), ("b a", True, "b a b^2")]),
]


def test_apply_transvection():
    for orders, edges, cases in TRANSVECTION_CASES:
        p = pres(orders, edges)
        g = parse_generator(p, "tv(a,b)")
        for x, inverse, image in cases:
            y = apply_gen(p, g, parse_word(p, x), inverse)
            assert y == parse_word(p, image), (orders, edges, x, inverse)
            assert apply_gen(p, g, y, not inverse) == parse_word(p, x)


def test_apply_partial_conjugation():
    p = pres({"a": 2, "b": 2})
    g = parse_generator(p, "pc(a,b)")
    assert apply_gen(p, g, generator(p, "b")) == parse_word(p, "a b a")
    assert apply_gen(p, g, generator(p, "a")) == generator(p, "a")


def test_automorphism_property_random():
    # every generator acts as a homomorphism: phi(xy) = phi(x)phi(y)
    rng = random.Random(3)
    p = pres({"a": 2, "b": 3, "c": None, "d": None}, [("c", "d"), ("b", "c")])
    gens = aut0_generators(p)
    for _ in range(200):
        g = rng.choice(gens)
        xs = [
            parse_word(p, " ".join(
                f"{rng.choice(p.vertex_ids)}^{rng.choice([-2, -1, 1, 2])}"
                for _ in range(rng.randint(0, 5))
            ))
            for _ in range(2)
        ]
        x, y = xs
        lhs = apply_gen(p, g, multiply(p, x, y))
        rhs = multiply(p, apply_gen(p, g, x), apply_gen(p, g, y))
        assert lhs == rhs, g.literal()
        # inverse really inverts
        assert apply_gen(p, g, apply_gen(p, g, x, inverse=True)) == x


def test_apply_sequence():
    p = pres({"a": None, "b": None}, [("a", "b")])
    t = parse_generator(p, "tv(a,b)")
    x = generator(p, "a")
    assert apply_gen(p, t, apply_gen(p, t, x)) == parse_word(p, "a b^2")
    assert apply_gen(p, t, apply_gen(p, t, x), inverse=True) == x


def test_aut0_generator_families():
    p = pres({"a": 2, "b": 2})  # D_inf
    lits = {g.literal() for g in aut0_generators(p)}
    assert lits == {"pc(a,b)", "pc(b,a)"}  # no units mod 2, no transvections
    q = pres({"a": None, "b": None}, [("a", "b")])  # Z^2
    lits = {g.literal() for g in aut0_generators(q)}
    assert lits == {"factor(a,-1)", "factor(b,-1)", "tv(a,b)", "tv(b,a)"}


def test_parse_generator_roundtrip():
    p = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    for lit in ["factor(a,-1)", "tv(a,b)", "pc(a,c)"]:
        assert parse_generator(p, lit).literal() == lit
    g = parse_generator(p, "graph(a:c,b:b,c:a)")
    assert g.kind == LABELLED_GRAPH
    with pytest.raises(ValueError):
        parse_generator(p, "tv(a)")
    with pytest.raises(ValueError):
        parse_generator(p, "warp(a,b)")
    with pytest.raises(ValueError):
        parse_generator(p, "pc(b,a)")


def test_orbit_dinf_palindromes():
    p = pres({"a": 2, "b": 2})
    orb = orbit(p, [generator(p, "a"), generator(p, "b")], aut0_generators(p), 6, 13)
    # orbit of the generators under partial conjugations: odd-length
    # alternating palindromes
    for w in orb.elements:
        s = [v for v, _ in w.syllables]
        assert len(s) % 2 == 1 and s == s[::-1]
    assert len(orb.elements) == 14  # 2 per odd length 1, 3, ..., 13
    assert not orb.frontier_exhausted  # cap truncates an infinite orbit


def test_orbit_exhaustion_and_caps():
    p = pres({"a": 5})
    orb = orbit(p, [generator(p, "a")], aut0_generators(p), 10, 10)
    assert orb.frontier_exhausted
    assert set(orb.elements) == {generator(p, "a", k) for k in (1, 2, 3, 4)}
    empty = orbit(p, [], aut0_generators(p), 3, 5)
    assert empty.frontier_exhausted and not empty.elements
    with pytest.raises(ValueError):
        orbit(p, [], [], -1, 5)


def test_orbit_deterministic_order():
    p = pres({"a": 2, "b": 2})
    o1 = orbit(p, [generator(p, "a")], aut0_generators(p), 4, 9)
    o2 = orbit(p, [generator(p, "a")], aut0_generators(p), 4, 9)
    assert o1.sorted_elements() == o2.sorted_elements()
    assert IDENTITY not in o1.elements


def test_orbit_independent_of_generator_order():
    for name in sorted(NAMED):
        p = expand_to_primary(named_presentation(name))
        seeds = [generator(p, v) for v in p.vertex_ids]
        gens = aut0_generators(p)
        want = orbit(p, seeds, gens, 3, 8)
        got = orbit(p, seeds[::-1], gens[::-1], 3, 8)
        assert set(got.elements) == set(want.elements), name
        assert (got.frontier_exhausted, got.depth_used) == (
            want.frontier_exhausted, want.depth_used), name


def test_transvection_on_long_power(path_raag):
    # a -> a c applied to a^3000 is (a c)^3000: 6,000 alternating syllables
    g = parse_generator(path_raag, "tv(a,c)")
    got = apply_gen(path_raag, g, generator(path_raag, "a", 3000))
    assert word_literal(got) == " ".join(["a c"] * 3000)


# -- referee: the orbit BFS that applies every generator to every word ------


def referee_orbit(p, seeds, gens, depth, cap):
    """BFS closure that calls apply_gen on every frontier word, generator and
    direction, skipping none; its elements, in insertion order, are the
    discovery order ``orbit`` must give."""
    start = dict.fromkeys(normal_form(p, s) for s in seeds)
    frontier = [s for s in start if exponent_weight(s) <= cap]
    elements = dict.fromkeys(frontier)
    exhausted, depth_used = not frontier, 0
    for _ in range(depth):
        new = []
        for x in frontier:
            for g in gens:
                for inv in (False, True):
                    y = apply_gen(p, g, x, inverse=inv)
                    if y not in elements and exponent_weight(y) <= cap:
                        elements[y] = None
                        new.append(y)
        if not new:
            exhausted = True
            break
        depth_used += 1
        frontier = new
    return tuple(elements), exhausted, depth_used


def referee_cases():
    for name in sorted(NAMED):
        p = expand_to_primary(named_presentation(name))
        yield name, p, [generator(p, v) for v in p.vertex_ids]
    rng = random.Random(15)
    for k in range(100):
        p = random_presentation(rng, 5)
        seeds = [generator(p, v) for v in p.vertex_ids]
        yield f"random-{k}", p, seeds + [random_word(p, rng, 4), IDENTITY]


def graph_symmetries(p):
    """The identity and every transposition of two vertices that is a
    labelled graph automorphism."""
    ids = p.vertex_ids
    out = []
    for a, b in [(ids[0], ids[0])] + list(itertools.combinations(ids, 2)):
        swap = {a: b, b: a}
        try:
            out.append(parse_generator(
                p, "graph(" + ",".join(f"{v}:{swap.get(v, v)}" for v in ids) + ")"))
        except ValueError:
            pass
    return out


def test_orbit_matches_referee_bfs():
    swaps = 0
    for name, p, seeds in referee_cases():
        gens = aut0_generators(p) + graph_symmetries(p)
        swaps += sum(g.kind == LABELLED_GRAPH for g in gens) - 1
        for depth in (0, 1, 2):
            got = orbit(p, seeds, gens, depth, 8)
            want, exhausted, depth_used = referee_orbit(p, seeds, gens, depth, 8)
            assert list(got.elements) == list(want), (name, depth)
            assert (got.frontier_exhausted, got.depth_used) == (
                exhausted, depth_used), (name, depth)
    assert swaps > 20


def test_factor_and_transvection_images_match_referee():
    # FACTOR: normal_form of the exponent-mapped raw word; TRANSVECTION: the
    # substitution v -> power(v w^q, e), both directions
    rng = random.Random(16)
    for name, p, _ in referee_cases():
        words = [random_word(p, rng, 6) for _ in range(5)]
        for g in aut0_generators(p):
            for inv in (False, True):
                for x in words:
                    got = apply_gen(p, g, x, inverse=inv)
                    if g.kind == FACTOR:
                        n = p.order(g.vertex)
                        m = pow(g.unit, -1, n) if inv and n else g.unit
                        want = normal_form(p, [(v, e * m if v == g.vertex else e)
                                               for v, e in x])
                    elif g.kind == TRANSVECTION:
                        q = transvection_exponent(p, g.vertex, g.target)
                        img = normal_form(p, [(g.vertex, 1), (g.target, -q if inv else q)])
                        want = normal_form(p, [s for v, e in x for s in (
                            power(p, img, e) if v == g.vertex else [(v, e)])])
                    else:
                        continue
                    assert got == want, (name, g.literal(), inv, word_literal(x))
                    assert all(type(s) is Syllable for s in got)


def test_orbit_applies_an_involution_once():
    # a factor automorphism with m^2 = 1, a transvection with w^(2q) = 1 and
    # a partial conjugation by an order-2 vertex are their own inverses:
    # orbit applies each in one direction; every other generator moves some
    # vertex generator off itself when applied twice
    rng = random.Random(18)
    involutions = 0
    for name, p, _ in referee_cases():
        vertices = [generator(p, v) for v in p.vertex_ids]
        words = vertices + [random_word(p, rng, 5) for _ in range(3)]
        for g in aut0_generators(p):
            twice = [apply_gen(p, g, apply_gen(p, g, x)) for x in words]
            if len(_prepared(p, g)[1]) == 1:
                involutions += 1
                assert twice == words, (name, g.literal())
            else:
                assert twice[:len(vertices)] != vertices, (name, g.literal())
    assert involutions > 100
