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
    NormalWord,
    Syllable,
    Verdict,
    classify,
    default_odd_function,
    generator,
    invert,
    make_split_qm,
    multiply,
    normal_form,
    parse_word,
    power,
    random_word,
    split_qm_eval,
    verify_certificate,
)
from gpnorm.classifier import certificate_from_obj, certificate_to_obj
from gpnorm.presentation import PresentationError
from gpnorm.quasimorphisms import (
    OddFunction,
    homogenize,
    odd_function_from_obj,
    odd_function_to_obj,
    split_qm_from_obj,
    split_qm_to_obj,
)
from gpnorm.words import _free_runs
from conftest import pres


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
    # D_inf side: support on powers of ab, read as repetitions of a b or b a
    p = pres({"a": 2, "b": 2, "c": 3})
    f = default_odd_function(p, ["a", "b"])
    ab = parse_word(p, "a b")
    for k in range(1, 13):
        assert f.evaluate(p, power(p, ab, k)) == 1, k
        assert f.evaluate(p, power(p, ab, -k)) == -1, k
    for lit in ["a", "b", "a b a", "b a b", "a b a b a"]:  # odd lengths: involutions
        assert f.evaluate(p, parse_word(p, lit)) == 0, lit
    # C2 * C2 * C2: base a b, and words of its lengths that are not its powers
    q = pres({"a": 2, "b": 2, "c": 2})
    g = default_odd_function(q, ["a", "b", "c"])
    assert g.power_base == parse_word(q, "a b")
    for lit in ["a c", "a b a c"]:
        assert g.evaluate(q, parse_word(q, lit)) == 0, lit


def test_make_split_qm_validation():
    with pytest.raises(PresentationError, match="edge a-b joins"):
        make_split_qm(pres({"a": 2, "b": 2}, [("a", "b")]), ["a"])  # edge crosses
    with pytest.raises(PresentationError):
        make_split_qm(pres({"a": 2, "b": 2}), ["a", "b"])  # empty right side
    with pytest.raises(PresentationError):
        make_split_qm(pres({"a": 2, "b": 2}), ["a"])  # both sides C_2
    with pytest.raises(PresentationError, match="two nonempty sides"):
        make_split_qm(PSL, [])  # empty M
    with pytest.raises(PresentationError, match="unknown vertex 'r'"):
        make_split_qm(PSL, ["a", "r", "q"])  # the first unknown vertex in input order


CROSSING_EDGE = """
from gpnorm import make_split_qm, named_presentation
try:
    make_split_qm(named_presentation("path_raag"), ["b"])
except ValueError as exc:
    print(exc)
"""


def test_crossing_edge_independent_of_hash_seed():
    """Both edges of the path a-b-c cross the split {b} | {a, c}; the one
    named is the first by vertex index under every hash seed."""
    src = Path(__file__).resolve().parent.parent / "src"
    outs = [
        subprocess.run(
            [sys.executable, "-c", CROSSING_EDGE],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=60,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outs == ["not a free-product split: edge a-b joins the two sides\n"] * 2


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


# -- referee: blocks renormalised one by one, summed block by block --------


def referee_split(p, M, x):
    """Maximal one-side runs of x, each put through normal_form."""
    left = set(M)
    blocks, run, run_side = [], [], ""
    for syl in x.syllables:
        side = "L" if syl.vertex in left else "R"
        if side != run_side and run:
            blocks.append((run_side, normal_form(p, run)))
            run = []
        run_side = side
        run.append(syl)
    if run:
        blocks.append((run_side, normal_form(p, run)))
    return blocks


def referee_sigma(p, sigma, x):
    """sigma(x) with the table scanned in order: the first matching entry wins."""
    if not x:
        return Fraction(0)
    for w, val in sigma.table:
        if w == x:
            return val
    return OddFunction(sigma.side, power_base=sigma.power_base).evaluate(p, x)


def _side_sigma(q, side):
    return q.sigma_left if side == "L" else q.sigma_right


def referee_eval(p, q, x):
    total = Fraction(0)
    for side, block in referee_split(p, q.left, x):
        total += referee_sigma(p, _side_sigma(q, side), block)
    return total


def referee_homogenize(p, q, x, mode, s=0):
    if mode == "estimate":
        return referee_eval(p, q, power(p, x, s)) / s, q.defect / Fraction(s)
    blocks = referee_split(p, q.left, x)
    while len(blocks) >= 2 and blocks[0][0] == blocks[-1][0]:
        if multiply(p, blocks[-1][1], blocks[0][1]):
            break
        blocks = blocks[1:-1]
    if len(blocks) <= 1:
        return Fraction(0), Fraction(0)
    total = sum((referee_sigma(p, _side_sigma(q, side), b) for side, b in blocks), Fraction(0))
    if len(blocks) % 2 == 0:
        return total, Fraction(0)
    (side, first), (_, last) = blocks[0], blocks[-1]
    sig = _side_sigma(q, side)
    value = (total - referee_sigma(p, sig, first) - referee_sigma(p, sig, last)
             + referee_sigma(p, sig, multiply(p, last, first)))
    return value, Fraction(0)


CRITERION_6_CASES = [
    (pres({"a": 2, "b": 3}), ["a"]),
    (pres({"a": None, "b": None}), ["a"]),
    (pres({"a": 2, "b": 2, "c": 3}, [("a", "b")]), ["a", "b"]),
]


def random_split(rng):
    """A random graph product with a free split (M | V - M) that carries a
    nonzero split quasimorphism."""
    while True:
        ids = [f"v{i}" for i in range(rng.randint(2, 6))]
        orders = {v: rng.choice((2, 2, 3, 4, 5, None)) for v in ids}
        M = rng.sample(ids, rng.randint(1, len(ids) - 1))
        density = rng.random()
        edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                 if (a in M) == (b in M) and rng.random() < density]
        p = pres(orders, edges)
        try:
            return p, M, make_split_qm(p, M)
        except PresentationError:  # both sides C_2^k
            continue


def differential_words(p, M, rng):
    """Words of up to 1,024 syllables: random raw words, a long alternating
    word, powers x^s of short alternating words, and conjugates g x g^-1
    whose end blocks cancel."""
    ids = p.vertex_ids
    sides = (sorted(M), [v for v in ids if v not in M])

    def alternating(n):
        return normal_form(p, [(rng.choice(sides[k % 2]), rng.choice((-1, 1, 2)))
                               for k in range(rng.randrange(2), n + rng.randrange(2))])

    words = [normal_form(p, [(rng.choice(ids), rng.choice((-3, -2, -1, 1, 2, 3)))
                             for _ in range(n)]) for n in (1, 8, 64, 256, 1024)]
    words.append(alternating(1022))
    for s in (16, 128):
        words.append(power(p, alternating(6), s))
    g = alternating(300)
    for n in (1, 3, 6):
        words.append(multiply(p, multiply(p, g, alternating(n)), invert(p, g)))
    return words


@pytest.mark.parametrize("case", [f"random-{k}" for k in range(10)]
                         + [f"criterion-6-{k}" for k in range(3)])
def test_split_evaluation_matches_referee(case):
    rng = random.Random(f"split-referee-{case}")
    if case.startswith("random"):
        p, M, q = random_split(rng)
    else:
        p, M = CRITERION_6_CASES[int(case[-1])]
        q = make_split_qm(p, M)
    for x in differential_words(p, M, rng):
        assert len(x) <= 1024
        blocks = [(side, NormalWord(run)) for side, run in _free_runs(p, M, x)]
        assert blocks == referee_split(p, M, x)
        assert split_qm_eval(p, q, x) == referee_eval(p, q, x)
        assert homogenize(p, q, x, "exact") == referee_homogenize(p, q, x, "exact")
        s = rng.choice((2, 3, 8))
        assert homogenize(p, q, x, "estimate", s) == referee_homogenize(p, q, x, "estimate", s)


def test_split_evaluation_rejects_unknown_vertex_and_crossing_edge():
    q = make_split_qm(PSL, ["a"])
    x = NormalWord((Syllable("a", 1), Syllable("zzz", 1), Syllable("a", 1), Syllable("zzz", 1)))
    crossed = pres({"a": 2, "b": 3}, [("a", "b")])
    ab = parse_word(crossed, "a b")
    calls = [
        lambda p, w: split_qm_eval(p, q, w),
        lambda p, w: homogenize(p, q, w, "exact"),
        lambda p, w: homogenize(p, q, w, "estimate", 4),
    ]
    for call in calls:
        with pytest.raises(PresentationError, match="unknown vertex 'zzz'"):
            call(PSL, x)
        with pytest.raises(PresentationError, match="edge a-b joins"):
            call(crossed, ab)


def test_split_evaluation_rejects_an_empty_side():
    q = replace(make_split_qm(PSL, ["a"]), left=("a", "b"))
    ab = parse_word(PSL, "a b")
    for call in (lambda: split_qm_eval(PSL, q, ab), lambda: homogenize(PSL, q, ab, "exact"),
                 lambda: homogenize(PSL, q, ab, "estimate", 4)):
        with pytest.raises(PresentationError, match="two nonempty sides"):
            call()


def test_repeated_table_entry_first_wins():
    b2 = generator(PSL, "b", 2)
    f = OddFunction(("b",), table=((b2, Fraction(-1)), (b2, Fraction(1))))
    assert f.evaluate(PSL, b2) == referee_sigma(PSL, f, b2) == -1
    # a forged certificate: "b^-1" and "b^2" read as the same element, and
    # the literals are read in sorted order, so b^2 -> -1 comes first
    obj = certificate_to_obj(classify(PSL).certificate)
    obj["payload"]["sigma_right"]["table"] = {"b": "1", "b^-1": "-1", "b^2": "1"}
    obj["witness"] = "a b^2"
    cert = certificate_from_obj(PSL, obj)
    want, _ = referee_homogenize(PSL, cert.split_qm, cert.witness, "exact")
    rep = verify_certificate(PSL, Verdict(False, cert))
    detail = next(c.detail for c in rep.checks if c.name == "split-witness-value")
    assert detail == f"qbar(witness) = {want}" == "qbar(witness) = -1"
