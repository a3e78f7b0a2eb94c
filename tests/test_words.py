"""Normal-form tests, including a brute-force shuffle-class oracle."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpnorm import (
    IDENTITY,
    NormalWord,
    Syllable,
    commutator,
    expand_to_primary,
    exponent_weight,
    generator,
    invert,
    multiply,
    named_presentation,
    normal_form,
    parse_presentation,
    parse_word,
    power,
    retract,
    word_literal,
)
from gpnorm import words
from gpnorm.corpus import NAMED
from gpnorm.presentation import PresentationError
from gpnorm.words import _products

PATH = parse_presentation(
    {
        "vertices": [{"id": v, "order": "inf"} for v in "abc"],
        "edges": [["a", "b"], ["b", "c"]],
    }
)
PSL = parse_presentation(
    {"vertices": [{"id": "a", "order": 2}, {"id": "b", "order": 3}], "edges": []}
)


# -- oracle: the canonical form is the lex-least member of the shuffle class


def shuffle_class(p, sylls):
    """All linearizations reachable by swapping adjacent commuting syllables
    of distinct vertices."""
    seen = {tuple(sylls)}
    frontier = [tuple(sylls)]
    while frontier:
        new = []
        for word in frontier:
            for i in range(len(word) - 1):
                u, v = word[i], word[i + 1]
                if u.vertex != v.vertex and p.has_edge(u.vertex, v.vertex):
                    cand = word[:i] + (v, u) + word[i + 2 :]
                    if cand not in seen:
                        seen.add(cand)
                        new.append(cand)
        frontier = new
    return seen


def is_reduced(p, sylls):
    for i, s in enumerate(sylls):
        for j in range(i + 1, len(sylls)):
            if sylls[j].vertex == s.vertex:
                if all(p.has_edge(sylls[k].vertex, s.vertex) for k in range(i + 1, j)):
                    return False
                break
            if not p.has_edge(sylls[j].vertex, s.vertex):
                break
    return True


def lex_key(p, word):
    return [(p.index(s.vertex), s.exponent) for s in word]


def brute_canonical(p, sylls):
    cls = shuffle_class(p, sylls)
    return min(cls, key=lambda w: lex_key(p, w))


def stored_exponent(p, v, e):
    n = p.order(v)
    return e if n is None else e % n


def brute_reduce(p, sylls):
    """Reduce by search, independently of normal_form: drop trivial
    syllables, then while some member of the shuffle class has two adjacent
    same-vertex syllables, merge them."""
    word = tuple(Syllable(v, stored_exponent(p, v, e)) for v, e in sylls
                 if stored_exponent(p, v, e))
    while True:
        for member in sorted(shuffle_class(p, word)):
            i = next((i for i in range(len(member) - 1)
                      if member[i].vertex == member[i + 1].vertex), None)
            if i is not None:
                v = member[i].vertex
                e = stored_exponent(p, v, member[i].exponent + member[i + 1].exponent)
                word = member[:i] + ((Syllable(v, e),) if e else ()) + member[i + 2 :]
                break
        else:
            return word


def stack_normal_form(p, sylls):
    """Referee for normal_form and multiply, by a second algorithm: reduce in
    one pass over a stack, then emit the lex-least linear extension of the
    dependency order greedily.

    Reduction: a new syllable scans back over the stack entries whose vertex
    commutes with it and merges with the first same-vertex entry it meets,
    dropping that entry if the exponents cancel; otherwise it is pushed.
    Ordering: the predecessors of an entry are the last earlier entries of
    each vertex it does not commute with (its own included); the entries
    whose predecessors are all emitted hold at most one entry per vertex, so
    the least vertex index among them picks the next one."""
    vs, ss = [], []
    for v, e in sylls:
        i, e = p.index(v), stored_exponent(p, v, e)
        if not e:
            continue
        j = len(vs) - 1
        while j >= 0 and vs[j] != i and p.has_edge(v, ss[j].vertex):
            j -= 1
        if j >= 0 and vs[j] == i:
            e = stored_exponent(p, v, e + ss[j].exponent)
            if e:
                ss[j] = Syllable(v, e)
            else:
                del vs[j], ss[j]
        else:
            vs.append(i)
            ss.append(Syllable(v, e))
    indeg = [0] * len(vs)
    succ = [[] for _ in vs]
    last = {}  # latest entry of each vertex seen so far
    for k, (v, _) in enumerate(ss):
        for u, j in last.items():
            if u == v or not p.has_edge(u, v):
                succ[j].append(k)
                indeg[k] += 1
        last[v] = k
    ready = {vs[k]: k for k in range(len(vs)) if not indeg[k]}
    out = []
    while ready:
        k = ready.pop(min(ready))
        out.append(ss[k])
        for s in succ[k]:
            indeg[s] -= 1
            if not indeg[s]:
                ready[vs[s]] = s
    return tuple(out)


def check_against_oracle(p, sylls):
    want = brute_canonical(p, brute_reduce(p, sylls))
    assert stack_normal_form(p, sylls) == want
    got = normal_form(p, sylls).syllables
    assert got == want
    assert is_reduced(p, got)
    # multiply gives the same word at every split of the input
    for k in range(len(sylls) + 1):
        left, right = normal_form(p, sylls[:k]), normal_form(p, sylls[k:])
        assert multiply(p, left, right).syllables == want
    # every member of the shuffle class normalizes identically
    for member in shuffle_class(p, tuple(sylls)):
        assert normal_form(p, list(member)).syllables == got
    return got


@pytest.mark.parametrize("seed", range(40))
def test_canonical_form_matches_shuffle_oracle(seed):
    rng = random.Random(seed)
    ids = PATH.vertex_ids
    sylls = []
    for _ in range(rng.randint(1, 7)):
        v = rng.choice(ids)
        if sylls and sylls[-1].vertex == v:
            continue
        sylls.append(Syllable(v, rng.choice([-2, -1, 1, 2])))
    check_against_oracle(PATH, sylls)


def random_presentation(rng, n_vertices, density, orders=(2, 3, 4, "inf")):
    ids = [f"v{i}" for i in range(n_vertices)]
    return parse_presentation({
        "vertices": [{"id": v, "order": rng.choice(orders)} for v in ids],
        "edges": [[a, b] for i, a in enumerate(ids) for b in ids[i + 1 :]
                  if rng.random() < density],
    })


@pytest.mark.parametrize("seed", range(40))
def test_canonical_form_matches_oracle_random_graphs(seed):
    rng = random.Random(1000 + seed)
    p = random_presentation(rng, rng.choice([4, 5]), rng.random())
    ids = p.vertex_ids
    sylls = [Syllable(rng.choice(ids), rng.choice([-3, -2, -1, 1, 2, 3]))
             for _ in range(rng.randint(1, 7))]
    check_against_oracle(p, sylls)


@pytest.mark.parametrize("p, text, want", [
    # c cancels in the middle of the stack [a, c, b]: b sits above c
    (PATH, "a c b c^-1", "a b"),
    (PATH, "a c b c^-1 a^-1", "b"),
    (PATH, "b a c b^-1", "a c"),
    # finite-order wrap: b^2 b = b^3 = 1 in C3
    (PSL, "b^2 b", ""),
    (PSL, "a b^2 b a", ""),
    # only the bottom pair commutes: the stack is not a chain
    (PATH, "b a c a", "a b c a"),
    # a chain whose vertices are not in index order is emitted as it stands
    (PSL, "b a b^2 a", "b a b^2 a"),
])
def test_named_reduction_cases(p, text, want):
    sylls = [Syllable(v, int(e or 1)) for v, _, e in (t.partition("^") for t in text.split())]
    got = check_against_oracle(p, sylls)
    assert word_literal(NormalWord(got)) == want


@pytest.mark.parametrize("density", [0, 0.5, 1])
def test_long_word_canonicity(density):
    rng = random.Random(f"long-{density}")
    p = random_presentation(rng, 16, density, orders=(2, 3, 4, 5, "inf", "inf"))
    ids = p.vertex_ids
    for _ in range(3):
        raw = [(rng.choice(ids), rng.choice([-2, -1, 1, 2])) for _ in range(1024)]
        x = normal_form(p, raw)
        assert x.syllables == stack_normal_form(p, raw)
        assert normal_form(p, x) == x
        assert multiply(p, x, invert(p, x)) == IDENTITY
        shuffled = list(x.syllables)
        for _ in range(4 * len(shuffled)):
            i = rng.randrange(len(shuffled) - 1)
            u, v = shuffled[i].vertex, shuffled[i + 1].vertex
            if u != v and p.has_edge(u, v):
                shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
        assert normal_form(p, shuffled) == x


def test_known_local_minimum_case():
    # c b a with edges a-b, b-c: naive bubble sort can get stuck at b c a /
    # c a b; the true lex-least linearization is found greedily
    sylls = [Syllable("c", 1), Syllable("b", 1), Syllable("a", 1)]
    got = normal_form(PATH, sylls)
    assert got.syllables == brute_canonical(PATH, sylls)


# -- algebra


def test_identity_and_generators():
    assert not IDENTITY
    assert len(IDENTITY) == 0
    g = generator(PSL, "a")
    assert g.syllables == (Syllable("a", 1),)
    assert word_literal(g) == "a"


def test_finite_order_exponent_range():
    assert normal_form(PSL, [("a", 2)]) == IDENTITY
    assert normal_form(PSL, [("b", 4)]) == generator(PSL, "b")
    assert normal_form(PSL, [("b", -1)]) == generator(PSL, "b", 2)


def test_merge_across_commuting():
    # a c a^-1 in the path RAAG: a and c don't commute, no merge
    w = normal_form(PATH, [("a", 1), ("c", 1), ("a", -1)])
    assert len(w) == 3
    # a b a^-1 with a-b edge: merges to b
    w = normal_form(PATH, [("a", 1), ("b", 1), ("a", -1)])
    assert w == generator(PATH, "b")


def test_multiply_invert_power():
    x = parse_word(PSL, "a b")
    assert multiply(PSL, x, invert(PSL, x)) == IDENTITY
    assert power(PSL, x, 3) == parse_word(PSL, "a b a b a b")
    assert power(PSL, x, -2) == invert(PSL, power(PSL, x, 2))
    assert power(PSL, x, 0) == IDENTITY


@pytest.mark.parametrize("seed", range(20))
def test_multiply_matches_normal_form(seed):
    # differential against the stack referee; half of the right factors are
    # near-inverses of the left, so cancellation runs deep
    rng = random.Random(f"multiply-{seed}")
    for _ in range(30):
        p = random_presentation(rng, rng.randint(1, 16), rng.random(),
                                orders=(2, 3, 4, 5, 8, 9, "inf"))
        ids = p.vertex_ids

        def raw(n):
            return [(rng.choice(ids), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(n)]

        xr = raw(rng.randint(0, 400))
        if rng.random() < 0.5:
            yr = raw(rng.randint(0, 400))
        else:
            yr = list(invert(p, normal_form(p, xr)).syllables)
            for _ in range(rng.randint(0, 3)):
                yr.insert(rng.randint(0, len(yr)), raw(1)[0])
        x, y = normal_form(p, xr), normal_form(p, yr)
        assert x.syllables == stack_normal_form(p, xr)
        assert y.syllables == stack_normal_form(p, yr)
        assert multiply(p, x, y).syllables == stack_normal_form(p, xr + yr)


@pytest.mark.parametrize("p, x, y, want", [
    # a meets a across the commuting b: merge in place
    (PATH, "a b", "a", "a^2 b"),
    # b cancels in the middle; the entries around it stay in order
    (PATH, "a b c", "b^-1", "a c"),
    # b commutes with everything in c a, so it goes before c, the first
    # larger index after the scan's stop
    (PATH, "c a", "b", "b c a"),
    # free product: every syllable stops at the last entry
    (PSL, "a b", "a b^2", "a b a b^2"),
])
def test_multiply_named_cases(p, x, y, want):
    x, y = parse_word(p, x), parse_word(p, y)
    got = multiply(p, x, y)
    assert got.syllables == stack_normal_form(p, x.syllables + y.syllables)
    assert word_literal(got) == want


LONG_SCAN = parse_presentation({
    # c and d come before p and q and commute with them; z comes before x
    # and y and commutes with them
    "vertices": [{"id": v, "order": "inf"} for v in "cdpqzxy"],
    "edges": [["c", "p"], ["c", "q"], ["d", "p"], ["d", "q"],
              ["z", "x"], ["z", "y"]],
})


def test_long_back_scans():
    # 4,096 syllables each; every syllable of (c d)^n and of (z z^-1)^k scans
    # back over the whole of (p q)^n or (x y)^k
    p, n = LONG_SCAN, 1024
    want = parse_word(p, "c d " * n + "p q " * n)
    assert multiply(p, parse_word(p, "p q " * n), parse_word(p, "c d " * n)) == want
    assert normal_form(p, [("p", 1), ("q", 1)] * n + [("c", 1), ("d", 1)] * n) == want
    k = 1024
    assert normal_form(p, [("x", 1), ("y", 1)] * k + [("z", 1), ("z", -1)] * k) == (
        parse_word(p, "x y " * k))


def test_multiply_rejects_unknown_vertex():
    x = NormalWord((Syllable("a", 1), Syllable("zzz", 1)))
    b = generator(PSL, "b")
    for left, right in [(x, b), (b, x), (IDENTITY, x), (x, IDENTITY)]:
        with pytest.raises(PresentationError):
            multiply(PSL, left, right)


def test_multiply_by_identity_canonicalises_a_raw_factor():
    p = parse_presentation({"vertices": [{"id": "v0", "order": 5}], "edges": []})
    raw = [("v0", -7), ("v0", -9)]
    want = normal_form(p, raw)
    assert want.syllables == (Syllable("v0", 4),)
    for got in (multiply(p, IDENTITY, raw), multiply(p, raw, IDENTITY)):
        assert got == want and type(got) is NormalWord
    assert multiply(p, IDENTITY, [("v0", 5)]) == IDENTITY


def power_referee_cases():
    """(presentation, word) pairs: three random words on each named shape
    and on seeded random graph products, orders in {2, 3, 4, inf}, densities
    from 0 to 1."""
    rng = random.Random("power-referee")
    shapes = [expand_to_primary(named_presentation(name)) for name in sorted(NAMED)]
    shapes += [random_presentation(rng, rng.randint(1, 6), density)
               for density in (0, 0.25, 0.5, 0.75, 1) for _ in range(3)]
    for p in shapes:
        ids = p.vertex_ids
        for _ in range(3):
            raw = [(rng.choice(ids), rng.choice([-3, -2, -1, 1, 2, 3]))
                   for _ in range(rng.randint(1, 5))]
            yield p, normal_form(p, raw)


def test_power_matches_repeated_multiply():
    for p, x in power_referee_cases():
        for step, ns in ((x, range(41)), (invert(p, x), range(0, -13, -1))):
            acc = IDENTITY
            for n in ns:
                assert power(p, x, n) == acc, (p.vertex_ids, x, n)
                acc = multiply(p, acc, step)


def test_power_huge_exponents():
    c5 = parse_presentation({"vertices": [{"id": "a", "order": 5}], "edges": []})
    z = parse_presentation({"vertices": [{"id": "a", "order": "inf"}], "edges": []})
    for p, n, want in [(c5, 2**61 + 3, IDENTITY), (z, 10**18, (("a", 10**18),))]:
        t0 = time.perf_counter()
        got = power(p, generator(p, "a"), n)
        assert time.perf_counter() - t0 < 0.1
        assert got == want


@pytest.mark.parametrize("n", [240, 1000, 1023, 1024])
def test_power_feeds_about_one_copy_of_the_result(monkeypatch, n):
    # left to right, the squarings feed x^(n//2), x^(n//4), ... and the
    # multiplications by x feed popcount(n) copies of x: at most
    # |x| (n + bit_length(n)) syllables in all
    fed = []

    def counting(p, xs, ws):
        ws = list(ws)
        fed.extend(len(w) for w in ws)
        return _products(p, xs, ws)

    monkeypatch.setattr(words, "_products", counting)
    x = parse_word(PSL, "a b")
    got = power(PSL, x, n)
    assert got == x * n
    assert sum(fed) <= len(x) * (n + n.bit_length())


@pytest.mark.parametrize("seed", range(10))
def test_products_match_multiply(seed):
    # one left factor, many raw right factors: exponents outside their
    # range, zero exponents, the empty word, x and x^-1 themselves
    rng = random.Random(f"products-{seed}")
    for _ in range(10):
        p = random_presentation(rng, rng.randint(1, 8), rng.random())
        ids = p.vertex_ids

        def raw(n):
            return [(rng.choice(ids), rng.randint(-9, 9)) for _ in range(n)]

        x = normal_form(p, raw(rng.randint(1, 30))) or generator(p, ids[0])
        ws = [raw(rng.randint(0, 12)) for _ in range(20)]
        ws += [[], list(x), list(invert(p, x))]
        got = list(_products(p, x, ws))
        assert got == [multiply(p, x, w) for w in ws]
        assert [g.syllables for g in got] == [stack_normal_form(p, list(x) + w) for w in ws]
        assert all(type(g) is NormalWord for g in got)
        assert list(_products(p, IDENTITY, ws)) == [normal_form(p, w) for w in ws]


def test_products_reject_unknown_vertex():
    # in the left factor, in a later right factor, and with a zero exponent
    x = NormalWord((Syllable("a", 1), Syllable("zzz", 1)))
    b = generator(PSL, "b")
    for left, ws, name in [(x, [b], "zzz"), (b, [b, [("a", 1), ("qqq", 2)]], "qqq"),
                           (IDENTITY, [[("qqq", 0)]], "qqq")]:
        with pytest.raises(PresentationError, match=f"unknown vertex '{name}'"):
            list(_products(PSL, left, ws))


def test_syllable_objects_shared_per_value():
    # a call makes at most one Syllable object per (vertex, exponent) value
    rng = random.Random(11)
    p = random_presentation(rng, 8, 0.3)
    ids = p.vertex_ids
    x = normal_form(p, [(rng.choice(ids), rng.choice([-3, -2, -1, 1, 2, 3]))
                        for _ in range(1024)])
    for w in (x, invert(p, x)):
        assert len(w) > 300
        assert len({id(s) for s in w.syllables}) == len(set(w.syllables))


def test_commutator_trivial_when_commuting(z2):
    a, b = generator(z2, "a"), generator(z2, "b")
    assert commutator(z2, a, b) == IDENTITY


def test_retract():
    w = parse_word(PATH, "a b c b a")
    assert retract(PATH, ["a"], w) == generator(PATH, "a", 2)
    assert retract(PATH, ["a", "b"], w) == parse_word(PATH, "a b^2 a")
    assert retract(PATH, PATH.vertex_ids, w) == w
    with pytest.raises(PresentationError):
        retract(PATH, ["zzz"], w)


def test_lengths():
    w = parse_word(PATH, "a^3 c^-2")
    assert len(w) == 2
    assert exponent_weight(w) == 5


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word(PSL, "a^x")
    with pytest.raises(ValueError):
        parse_word(PSL, "a^0")
    with pytest.raises(PresentationError):
        parse_word(PSL, "zzz")
    assert parse_word(PSL, "") == IDENTITY


def test_word_literal_roundtrip():
    w = parse_word(PATH, "c^-2 a b^3")
    assert parse_word(PATH, word_literal(w)) == w


# -- hypothesis properties

syllable_st = st.tuples(st.sampled_from("abc"), st.integers(-3, 3).filter(bool))
word_st = st.lists(syllable_st, max_size=8).map(lambda s: normal_form(PATH, s))


@settings(max_examples=60, deadline=None)
@given(word_st, word_st, word_st)
def test_associativity(x, y, z):
    assert multiply(PATH, multiply(PATH, x, y), z) == multiply(PATH, x, multiply(PATH, y, z))


@settings(max_examples=60, deadline=None)
@given(word_st)
def test_inverse_and_idempotence(x):
    assert multiply(PATH, x, invert(PATH, x)) == IDENTITY
    assert normal_form(PATH, x) == x  # canonical forms are fixed points


@settings(max_examples=40, deadline=None)
@given(word_st, st.integers(-5, 5))
def test_power_agrees_with_iteration(x, n):
    acc = IDENTITY
    step = x if n >= 0 else invert(PATH, x)
    for _ in range(abs(n)):
        acc = multiply(PATH, acc, step)
    assert power(PATH, x, n) == acc


@settings(max_examples=60, deadline=None)
@given(word_st, word_st)
def test_retract_is_homomorphism(x, y):
    X = ["a", "b"]
    assert retract(PATH, X, multiply(PATH, x, y)) == multiply(
        PATH, retract(PATH, X, x), retract(PATH, X, y)
    )


@settings(max_examples=60, deadline=None)
@given(word_st)
def test_hashable_equality(x):
    assert {x: 1}[normal_form(PATH, list(x.syllables))] == 1
    assert isinstance(x, NormalWord)
    # a NormalWord is the tuple of its syllables
    assert x.syllables is x and x == tuple(x) and {tuple(x): 1}[x] == 1
