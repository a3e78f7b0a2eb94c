import random
from fractions import Fraction

import pytest

from gpnorm import (
    IDENTITY,
    default_odd_function,
    defect_bound,
    generator,
    invert,
    make_split_qm,
    multiply,
    parse_presentation,
    parse_word,
    power,
    random_word,
    split_qm_eval,
)
from gpnorm.presentation import PresentationError
from gpnorm.quasimorphisms import (
    homogenize,
    odd_function_from_obj,
    odd_function_to_obj,
    split_qm_from_obj,
    split_qm_to_obj,
)


def pres(orders, edges=()):
    return parse_presentation(
        {
            "vertices": [{"id": v, "order": o or "inf"} for v, o in orders.items()],
            "edges": [list(e) for e in edges],
        }
    )


PSL = pres({"a": 2, "b": 3})


def test_default_odd_function_c3():
    f = default_odd_function(PSL, ["b"])
    assert f.evaluate(PSL, generator(PSL, "b")) == 1
    assert f.evaluate(PSL, generator(PSL, "b", 2)) == -1
    assert f.evaluate(PSL, IDENTITY) == 0
    assert f.sup_norm == 1


def test_default_odd_function_is_odd():
    # oddness f(x^-1) = -f(x) on every supported element, incl. even orders
    for n in (3, 4, 5, 8, 9):
        p = pres({"g": n})
        f = default_odd_function(p, ["g"])
        for k in range(1, n):
            x = generator(p, "g", k)
            assert f.evaluate(p, x) == -f.evaluate(p, invert(p, x)), (n, k)
        if n % 2 == 0:
            assert f.evaluate(p, generator(p, "g", n // 2)) == 0


def test_default_odd_function_zero_on_c2k():
    p = pres({"a": 2, "b": 2}, [("a", "b")])
    f = default_odd_function(p, ["a", "b"])
    assert f.is_zero
    assert f.evaluate(p, generator(p, "a")) == 0


def test_default_odd_function_infinite_sign_rule():
    p = pres({"a": None})
    f = default_odd_function(p, ["a"])
    assert f.evaluate(p, generator(p, "a", 7)) == 1
    assert f.evaluate(p, generator(p, "a", -2)) == -1


def test_default_odd_function_two_involution_side():
    # D_inf side: support on powers of ab
    p = pres({"a": 2, "b": 2, "c": 3})
    f = default_odd_function(p, ["a", "b"])
    ab = parse_word(p, "a b")
    assert f.evaluate(p, ab) == 1
    assert f.evaluate(p, power(p, ab, -3)) == -1
    assert f.evaluate(p, generator(p, "a")) == 0


def test_make_split_qm_validation():
    with pytest.raises(PresentationError):
        make_split_qm(pres({"a": 2, "b": 2}, [("a", "b")]), ["a"])  # edge crosses
    with pytest.raises(PresentationError):
        make_split_qm(pres({"a": 2, "b": 2}), ["a", "b"])  # empty right side
    with pytest.raises(PresentationError):
        make_split_qm(pres({"a": 2, "b": 2}), ["a"])  # both sides C_2


def test_split_qm_eval_psl():
    q = make_split_qm(PSL, ["a"])
    assert q.defect == 3 and q.homogenized_defect == 6
    x = parse_word(PSL, "b a b^2 a b")
    assert split_qm_eval(PSL, q, x) == 1 - 1 + 1
    assert split_qm_eval(PSL, q, IDENTITY) == 0
    assert split_qm_eval(PSL, q, invert(PSL, x)) == -split_qm_eval(PSL, q, x)


def test_homogenize_powers_scale_linearly():
    q = make_split_qm(PSL, ["a"])
    ab = parse_word(PSL, "a b")
    v1, e1 = homogenize(PSL, q, ab, "exact")
    assert (v1, e1) == (Fraction(1), 0)
    for n in range(2, 12):
        vn, _ = homogenize(PSL, q, power(PSL, ab, n), "exact")
        assert vn == n * v1


def test_homogenize_vanishes_on_factor_conjugates():
    q = make_split_qm(PSL, ["a"])
    rng = random.Random(1)
    for _ in range(100):
        g = random_word(PSL, rng)
        v = rng.choice(["a", "b"])
        a = generator(PSL, v, 1 if v == "a" else rng.choice([1, 2]))
        conj = multiply(PSL, multiply(PSL, g, a), invert(PSL, g))
        assert homogenize(PSL, q, conj, "exact")[0] == 0


def test_homogenize_single_block_is_zero():
    q = make_split_qm(PSL, ["a"])
    assert homogenize(PSL, q, generator(PSL, "b"), "exact")[0] == 0
    assert homogenize(PSL, q, IDENTITY, "exact")[0] == 0


def test_homogenize_estimate_vs_exact():
    q = make_split_qm(PSL, ["a"])
    rng = random.Random(2)
    for _ in range(20):
        x = random_word(PSL, rng)
        exact, _ = homogenize(PSL, q, x, "exact")
        for s in (4, 16, 64):
            est, err = homogenize(PSL, q, x, "estimate", s)
            assert err == Fraction(q.defect, s)
            assert abs(exact - est) <= q.homogenized_defect / s
    with pytest.raises(ValueError):
        homogenize(PSL, q, IDENTITY, "estimate", 0)
    with pytest.raises(ValueError):
        homogenize(PSL, q, IDENTITY, "nope")


def test_homogenize_conjugation_invariant():
    q = make_split_qm(PSL, ["a"])
    rng = random.Random(3)
    for _ in range(50):
        x = random_word(PSL, rng)
        g = random_word(PSL, rng)
        conj = multiply(PSL, multiply(PSL, g, x), invert(PSL, g))
        assert homogenize(PSL, q, conj, "exact")[0] == homogenize(PSL, q, x, "exact")[0]


def test_defect_bound_empirical_below_analytic():
    for p, M in [(PSL, ["a"]), (pres({"a": None, "b": None}), ["a"])]:
        q = make_split_qm(p, M)
        analytic, emp = defect_bound(p, q, 500, seed=4)
        assert emp <= analytic


def test_serialization_roundtrip():
    q = make_split_qm(PSL, ["a"])
    obj = split_qm_to_obj(q)
    q2 = split_qm_from_obj(PSL, obj)
    assert q2 == q
    f = default_odd_function(PSL, ["b"])
    assert odd_function_from_obj(PSL, odd_function_to_obj(f)) == f
    # infinite-base side
    p = pres({"a": None, "b": 2})
    f = default_odd_function(p, ["a"])
    assert odd_function_from_obj(p, odd_function_to_obj(f)) == f
