import itertools
import random

import pytest

from gpnorm import (
    aut0_generators,
    join_decomposition,
    lower_cone_violation,
    preorder,
    tau_structure,
)
from gpnorm.classes import (
    DINF_FACTOR,
    FINITE_FACTOR,
    FINITE_PRIMARY,
    FREE,
    FREE_ABELIAN,
    LEQ,
    LEQ_S,
    LEQ_TAU,
    OTHER,
    Z_FACTOR,
    classes_json_obj,
    hasse_dot,
    transvections,
)
from gpnorm.automorphisms import TRANSVECTION
from gpnorm.presentation import PresentationError, _factorization
from conftest import pres


def test_preorders_path_raag():
    p = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    # Lk(a) = {b} <= St(b) = {a,b,c}: a <= b
    assert preorder(p, LEQ, "a", "b")
    assert not preorder(p, LEQ, "b", "a")  # Lk(b) = {a,c} not in St(a)
    assert preorder(p, LEQ, "a", "c")  # Lk(a) = {b} <= St(c) = {b,c}
    assert preorder(p, LEQ_S, "a", "b")  # St(a) = {a,b} <= St(b)
    assert not preorder(p, LEQ_S, "b", "a")  # c in St(b), not in St(a)
    assert not preorder(p, LEQ_S, "a", "c")  # a not in St(c)
    assert preorder(p, LEQ_TAU, "a", "b")  # infinite order: tau follows <=
    assert preorder(p, LEQ_TAU, "a", "a")


def test_tau_finite_uses_star():
    # two order-2 vertices, no edge: St(a) = {a} not <= St(b) => no transvection
    p = pres({"a": 2, "b": 2}, [])
    assert not preorder(p, LEQ_TAU, "a", "b")
    assert preorder(p, LEQ, "a", "b")  # Lk(a) empty
    # different primes never compare
    q = pres({"a": 2, "b": 3}, [("a", "b")])
    assert not preorder(q, LEQ_TAU, "a", "b")


def test_classes_dinf():
    p = pres({"a": 2, "b": 2}, [])
    ts = tau_structure(p)
    assert ts.classes == (("a",), ("b",))
    assert all(t.kind == FINITE_PRIMARY for t in ts.class_types)


def test_classes_z2_f2():
    z2 = pres({"a": None, "b": None}, [("a", "b")])
    ts = tau_structure(z2)
    assert ts.classes == (("a", "b"),)
    assert ts.class_types[0].kind == FREE_ABELIAN and ts.class_types[0].rank == 2
    f2 = pres({"a": None, "b": None}, [])
    t = tau_structure(f2).class_types[0]
    assert t.kind == FREE and t.rank == 2


def test_class_order_and_extrema():
    p = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    ts = tau_structure(p)
    # classes: the ends {a, c} are mutually dominating; b dominates both
    assert set(map(frozenset, ts.classes)) == {frozenset("ac"), frozenset("b")}
    i_ac, i_b = (next(i for i, cls in enumerate(ts.classes) if v in cls) for v in "ab")
    assert (i_ac, i_b) in ts.class_order  # a <= b: Lk(a) = {b} in St(b)
    assert (i_b, i_ac) not in ts.class_order  # c in Lk(b) but not in St(a)
    assert ts.maximal_classes() == (i_b,)
    assert ts.hasse_edges() == ((i_ac, i_b),)


def test_hasse_and_json():
    p = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    obj = classes_json_obj(p)
    assert set(obj) >= {"vertices", "leq", "leq_tau", "classes", "join_decomposition"}
    assert obj["bounded_form"] is False
    assert obj["hasse_dot"] == hasse_dot(tau_structure(p))
    dot = obj["hasse_dot"]
    assert dot.startswith("digraph") and "FREE_ABELIAN" in dot


def test_lower_cones():
    p = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    assert lower_cone_violation(p, ["a", "b", "c"]) is None
    assert lower_cone_violation(p, ["a", "c"]) is None  # the minimal class
    s, t = lower_cone_violation(p, ["b"])  # a <=_tau b with a outside
    assert t == "b" and s in {"a", "c"}
    s, t = lower_cone_violation(p, ["a"])  # c ~tau a with c outside
    assert t == "a" and s == "c"
    assert lower_cone_violation(p, []) is None


def test_join_decomposition_shapes():
    p = pres(
        {"a": None, "b": None, "c": 2, "d": 2, "e": 3},
        [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"),
         ("b", "c"), ("b", "d"), ("b", "e"), ("c", "e"), ("d", "e")],
    )
    jd = join_decomposition(p)
    shapes = {tuple(vs): shape for vs, shape in jd.components}
    assert shapes[("a",)] == Z_FACTOR
    assert shapes[("b",)] == Z_FACTOR
    assert shapes[("c", "d")] == DINF_FACTOR
    assert shapes[("e",)] == FINITE_FACTOR
    assert (jd.n, jd.m, jd.finite_part) == (2, 1, ("e",))
    assert not jd.has_other
    assert jd.bounded_form


def test_bounded_form_rejects_single_z():
    assert not join_decomposition(pres({"a": None}, [])).bounded_form
    assert join_decomposition(pres({"a": 2}, [])).bounded_form
    assert join_decomposition(pres({}, [])).bounded_form


def test_other_component():
    f2 = pres({"a": None, "b": None}, [])
    jd = join_decomposition(f2)
    assert jd.components[0][1] == OTHER and jd.has_other
    assert not jd.bounded_form
    # order-3 pair is OTHER, not DINF
    p33 = pres({"a": 3, "b": 3}, [])
    assert join_decomposition(p33).components[0][1] == OTHER


def test_requires_primary():
    p = pres({"a": 6}, [])
    with pytest.raises(PresentationError):
        tau_structure(p)
    with pytest.raises(PresentationError):
        join_decomposition(p)


def leq_tau_referee(p, v, w):
    """v <=_tau w read off the definition with link and star sets."""
    if v == w:
        return True
    if p.order(v) is None:
        return p.link(v) <= p.star(w)
    if p.order(w) is None:
        return False
    prime = {u: _factorization(p.order(u))[0][0] for u in (v, w)}
    return prime[v] == prime[w] and p.star(v) <= p.star(w)


def test_transvections_match_referee():
    rng = random.Random(1995)
    for k in range(300):
        n = rng.randint(1, 8)
        density = k % 5 / 4 if k % 2 else rng.random()
        ids = [f"v{i}" for i in range(n)]
        p = pres(
            {v: rng.choice((2, 3, 4, 8, 9, None)) for v in ids},
            [e for e in itertools.combinations(ids, 2) if rng.random() < density],
        )
        want = [(v, w) for v in ids for w in ids if v != w and leq_tau_referee(p, v, w)]
        assert transvections(p) == want, repr(p)
        for v in ids:
            for w in ids:
                assert preorder(p, LEQ_TAU, v, w) == leq_tau_referee(p, v, w), (repr(p), v, w)
        tvs = [g.literal() for g in aut0_generators(p) if g.kind == TRANSVECTION]
        assert tvs == [f"tv({v},{w})" for v, w in want], repr(p)
        if n > 6:
            continue
        for size in range(n + 1):
            for X in itertools.combinations(ids, size):
                brute = next(
                    ((s, t) for s in ids if s not in X for t in X
                     if leq_tau_referee(p, s, t)),
                    None,
                )
                assert lower_cone_violation(p, X) == brute, (repr(p), X)
