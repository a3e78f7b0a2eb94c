import itertools
import json
import math
import random
import time
from dataclasses import replace

import pytest

from gpnorm import (
    Certificate,
    Verdict,
    classify,
    expand_to_primary,
    join_decomposition,
    lower_cone_violation,
    make_split_qm,
    parse_word,
    random_presentation,
    verify_certificate,
    word_literal,
)
from gpnorm import automorphisms, classifier, corpus, norms
from gpnorm.automorphisms import apply_gen, aut0_generators
from gpnorm.classes import FREE, FREE_ABELIAN, tau_structure
from gpnorm.classifier import (
    BOUNDED_DECOMPOSITION,
    CITATION,
    CITE_FREE_PRIMITIVES,
    CITE_HYPERBOLIC,
    HOMOMORPHISM,
    SPLIT_QM,
    certificate_from_obj,
    certificate_to_obj,
    verdict_from_obj,
    verdict_to_obj,
)
from gpnorm.presentation import PresentationError
from gpnorm.words import generator, power, retract
from conftest import pres


CASES = [
    # (presentation, bounded, kind)
    (pres({"a": None}), False, HOMOMORPHISM),                       # Z
    (pres({"a": None, "b": None}, [("a", "b")]), True, BOUNDED_DECOMPOSITION),  # Z^2
    (pres({"a": None, "b": None}), False, CITATION),                # F_2
    (pres({"a": 2, "b": 2}), True, BOUNDED_DECOMPOSITION),          # D_inf
    (pres({"a": 2, "b": 3}), False, SPLIT_QM),                      # C_2 * C_3
    (pres({"a": 2, "b": 2, "c": 2}), False, SPLIT_QM),              # C_2 * C_2 * C_2
    (pres({"a": 3}), True, BOUNDED_DECOMPOSITION),                  # C_3
    (pres({}), True, BOUNDED_DECOMPOSITION),                        # trivial
    (pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")]), False, CITATION),
]


@pytest.mark.parametrize("p,bounded,kind", CASES)
def test_classify_known_cases(p, bounded, kind):
    v = classify(p)
    assert v.bounded == bounded
    assert v.certificate.kind == kind
    assert v.bounded == join_decomposition(p).bounded_form


def test_classify_requires_primary():
    with pytest.raises(PresentationError):
        classify(pres({"a": 6}))


def test_dinf_certificate_payload():
    cert = classify(pres({"a": 2, "b": 2})).certificate
    assert (cert.n, cert.m, cert.finite_part) == (0, 1, ())


def test_z2_dinf_mix_payload():
    p = pres(
        {"a": None, "b": None, "c": 2, "d": 2},
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    )
    cert = classify(p).certificate
    assert (cert.n, cert.m) == (2, 1)


def test_path_raag_certificate():
    v = classify(pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")]))
    cert = v.certificate
    assert cert.kind == CITATION and cert.citation == CITE_FREE_PRIMITIVES
    assert cert.chain == (("a", "c"),)
    assert word_literal(cert.witness) in {"a c a^-1 c^-1", "c a c^-1 a^-1"}


def test_hyperbolic_citation_case():
    # (C_2 x C_2) * (C_2 x C_2): both sides elementary abelian, rank 2
    p = pres({"a": 2, "b": 2, "c": 2, "d": 2}, [("a", "b"), ("c", "d")])
    v = classify(p)
    assert not v.bounded
    assert v.certificate.kind == CITATION
    assert v.certificate.citation == CITE_HYPERBOLIC
    assert verify_certificate(p, v).passed


def test_split_qm_mixed_torsion():
    # (C_2 x C_2) * C_3: right side carries the odd function
    p = pres({"a": 2, "b": 2, "c": 3}, [("a", "b")])
    v = classify(p)
    assert v.certificate.kind == SPLIT_QM
    assert verify_certificate(p, v).passed


def test_composite_order_via_expansion():
    p = expand_to_primary(pres({"a": 6, "b": None}))
    v = classify(p)
    assert not v.bounded
    assert v.certificate.kind == HOMOMORPHISM


def test_oracle_agreement_random():
    rng = random.Random(11)
    for _ in range(200):
        p = random_presentation(rng, max_vertices=7)
        assert classify(p).bounded == join_decomposition(p).bounded_form, repr(p)


def test_verify_random_roundtrip():
    rng = random.Random(12)
    for i in range(60):
        p = random_presentation(rng, max_vertices=6)
        v = classify(p)
        rep = verify_certificate(p, v)
        assert rep.passed, (repr(p), rep.to_obj())


def test_serialization_roundtrip():
    rng = random.Random(13)
    for _ in range(40):
        p = random_presentation(rng, max_vertices=6)
        v = classify(p)
        obj = verdict_to_obj(v)
        # JSON round-trip preserves the verdict exactly
        v2 = verdict_from_obj(p, json.loads(json.dumps(obj)))
        assert v2 == v
        cert2 = certificate_from_obj(p, json.loads(json.dumps(certificate_to_obj(v.certificate))))
        assert cert2 == v.certificate


def test_certificate_from_obj_unknown_kind(psl):
    with pytest.raises(ValueError):
        certificate_from_obj(psl, {"kind": "NOPE", "chain": [], "witness": None})


def test_tampered_chain_fails_with_violating_generator():
    p = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    v = classify(p)
    bad_cert = certificate_from_obj(
        p,
        {
            **certificate_to_obj(v.certificate),
            "chain": [["b"]],  # not a lower cone: a <=_tau b
        },
    )
    rep = verify_certificate(p, Verdict(False, bad_cert))
    assert not rep.passed
    fail = next(c for c in rep.checks if c.status == "FAIL")
    assert fail.name == "chain-lower-cone"
    assert "tv(" in fail.detail  # exhibits the violating transvection


def test_tampered_chain_names_one_violating_pair():
    # a <=_tau c and d <=_tau b both break the step {b, c}: the detail names
    # the first pair of transvections, the one the generator referee finds
    p = pres({"a": None, "b": None, "c": None, "d": None}, [("a", "c")])
    step = ("b", "c")
    tampered = replace(classify(p).certificate, chain=(step,))
    rep = verify_certificate(p, Verdict(False, tampered))
    assert [(c.name, c.detail) for c in rep.checks if c.status == "FAIL"] == [(
        "chain-lower-cone",
        "step ('b', 'c'): a <=_tau c but a outside; violating generator "
        "tv(a,c) or its inverse moves a out of K_X",
    )]
    assert kx_answer(p, kx_invariance_referee(p, step)) == ("a", "c")


def test_tampered_witness_fails(psl):
    v = classify(psl)
    obj = certificate_to_obj(v.certificate)
    obj["witness"] = ""  # identity: trivially in the kernel
    bad = certificate_from_obj(psl, obj)
    rep = verify_certificate(psl, Verdict(False, bad))
    assert not rep.passed


def test_tampered_bounded_payload_fails(z2):
    v = classify(z2)
    obj = certificate_to_obj(v.certificate)
    obj["payload"]["n"] = 5
    bad = certificate_from_obj(z2, obj)
    rep = verify_certificate(z2, Verdict(True, bad))
    assert _failed(rep) == {"decomposition-payload"}
    assert all(c.name != "uniform-bound" for c in rep.checks)


def test_missing_witness_and_unknown_citation_fail(psl, f2):
    no_witness = replace(classify(psl).certificate, witness=None)
    rep = verify_certificate(psl, Verdict(False, no_witness))
    assert [(c.name, c.detail) for c in rep.checks if c.status == "FAIL"] == [
        ("witness", "missing witness")
    ]
    unknown_tag = replace(classify(f2).certificate, citation="NOPE")
    rep = verify_certificate(f2, Verdict(False, unknown_tag))
    assert [(c.name, c.detail) for c in rep.checks if c.status == "FAIL"] == [
        ("citation-endpoint", "unknown tag NOPE")
    ]


def test_kx_invariance_violation_path_raag():
    p = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    assert lower_cone_violation(p, ("b",)) == ("a", "b")
    assert lower_cone_violation(p, ("a", "c")) is None


def kx_invariance_referee(p, X):
    """The generator-applying form of lower_cone_violation: apply every
    Aut0 generator and its inverse to every killed generator, and return the
    first (g, w) whose image leaves K_X.  Complete, since K_X is the normal
    closure of the killed generators."""
    gens = aut0_generators(p)
    kept = set(X)
    for v in p.vertex_ids:
        if v in kept:
            continue
        w = generator(p, v)
        for g in gens:
            if retract(p, X, apply_gen(p, g, w)) or retract(
                p, X, apply_gen(p, g, w, inverse=True)
            ):
                return g, w
    return None


def kx_answer(p, found):
    """The referee's (g, w) as the pair lower_cone_violation returns: g is
    tv(s, t) and w the generator s that it moves."""
    if found is None:
        return None
    g, w = found
    assert g.kind == "TRANSVECTION" and w == generator(p, g.vertex), g.literal()
    return g.vertex, g.target


def test_kx_invariance_closed_form_matches_referee(monkeypatch):
    # every X of 300 random presentations with orders whose transvection
    # exponents q = |w| / |v| exceed 1 (2 -> 4 -> 8, 3 -> 9)
    monkeypatch.setattr(corpus, "ORDER_POOL", (2, 3, 4, 8, 9, None))
    rng = random.Random(61)
    pairs = violations = 0
    for _ in range(300):
        p = random_presentation(rng, max_vertices=6)
        ids = p.vertex_ids
        for X in itertools.chain.from_iterable(
            itertools.combinations(ids, k) for k in range(len(ids) + 1)
        ):
            want = kx_answer(p, kx_invariance_referee(p, X))
            assert lower_cone_violation(p, X) == want, (repr(p), X)
            pairs += 1
            violations += want is not None
    assert pairs > 5000 and violations > 2000


def _every_certificate_kind(psl, f2, dinf, z2):
    path = pres({"a": None, "b": None, "c": None}, [("a", "b"), ("b", "c")])
    # Z^2 x C_2 x C_3 x C_4 x C_5 x C_7, a complete graph
    z2_x_finite = pres(
        dict(zip("abcdefg", (None, None, 2, 3, 4, 5, 7))), itertools.combinations("abcdefg", 2)
    )
    cases = (pres({"a": None}), psl, f2, path, dinf, z2, z2_x_finite)
    verdicts = [(p, classify(p)) for p in cases]
    assert [v.certificate.kind for _, v in verdicts] == [
        HOMOMORPHISM, SPLIT_QM, CITATION, CITATION, *[BOUNDED_DECOMPOSITION] * 3
    ]
    return verdicts


def _verify_all_quickly(verdicts):
    start = time.monotonic()
    for p, v in verdicts:
        rep = verify_certificate(p, v)
        assert rep.passed
        uniform = [c.status for c in rep.checks if c.name == "uniform-bound"]
        assert uniform == (["NOTE"] if v.bounded else [])
    assert time.monotonic() - start < 1


def test_unbounded_verification_draws_no_random_numbers(monkeypatch, psl, f2, dinf, z2):
    # every certificate kind, bounded included: verify samples nothing
    verdicts = _every_certificate_kind(psl, f2, dinf, z2)

    def no_random(*args, **kwargs):
        raise AssertionError("random.Random called")

    monkeypatch.setattr(random, "Random", no_random)
    _verify_all_quickly(verdicts)


def test_unbounded_verify_applies_no_automorphism(monkeypatch, psl, f2, dinf, z2):
    # every certificate kind, bounded included: verify applies no automorphism
    verdicts = _every_certificate_kind(psl, f2, dinf, z2)
    path = verdicts[3][0]
    tampered = replace(verdicts[3][1].certificate, chain=(("b",),))  # a <=_tau b

    def no_automorphism(*args, **kwargs):
        raise AssertionError("verify built an orbit or applied an automorphism")

    for module in (classifier, automorphisms, norms):
        for name in ("apply_gen", "aut0_generators", "orbit", "norm_upper"):
            monkeypatch.setattr(module, name, no_automorphism, raising=False)
    _verify_all_quickly(verdicts)
    rep = verify_certificate(path, Verdict(False, tampered))
    assert [(c.name, c.detail) for c in rep.checks if c.status == "FAIL"] == [(
        "chain-lower-cone",
        "step ('b',): a <=_tau b but a outside; violating generator "
        "tv(a,b) or its inverse moves a out of K_X",
    )]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_finite_vertex_elements_are_products_of_two_unit_powers(n):
    # the finite-vertex lemma of the uniform bound, exactly: the Aut0 orbit
    # of v in C_n is every unit power v^u, and each v^k is a product of two
    p = pres({"v": n})
    v = generator(p, "v")
    orb = automorphisms.orbit(p, [v], aut0_generators(p), n, n)
    assert orb.frontier_exhausted
    assert set(orb.elements) == {power(p, v, u) for u in range(n) if math.gcd(u, n) == 1}
    for k in range(n):
        got = norms.norm_upper(p, power(p, v, k), orb, 2)
        assert got is not None and got <= 2, (n, k)


def test_forged_bounded_certificate_on_f2_fails_shape(f2):
    # the payload matches the recomputed decomposition (n = m = 0, F empty),
    # whose one complement component {a, b} is no bounded factor
    rep = verify_certificate(f2, Verdict(True, Certificate(BOUNDED_DECOMPOSITION)))
    assert _failed(rep) == {"decomposition-shape"}
    assert all(c.name != "uniform-bound" for c in rep.checks)


def test_trace_is_informative(psl):
    v = classify(psl)
    assert any("maximal class" in line for line in v.trace)


def _failed(rep):
    return {c.name for c in rep.checks if c.status == "FAIL"}


def _verify_edited_psl(psl, edit):
    obj = certificate_to_obj(classify(psl).certificate)
    edit(obj["payload"])
    return verify_certificate(psl, Verdict(False, certificate_from_obj(psl, obj)))


@pytest.mark.parametrize("edit,check", [
    # sigma(b^2) = sigma(b^-1) must be -sigma(b): not odd, not a quasimorphism
    (lambda pl: pl["sigma_right"]["table"].update({"b^2": "1"}), "split-odd-symmetry"),
    # below 3 * sup |sigma|: the lower bound would be inflated 300-fold
    (lambda pl: pl.update(defect="1/100"), "split-defect-constant"),
    (lambda pl: pl["sigma_right"]["table"].update({"a": "0"}), "split-odd-support"),
    (lambda pl: pl["sigma_right"].update(power_base="b"), "split-power-base"),  # b has order 3
], ids=["not-odd", "defect-1/100", "support", "power-base"])
def test_forged_split_qm_fails_named_check(psl, edit, check):
    assert _failed(_verify_edited_psl(psl, edit)) == {check}


def test_conservative_defect_passes(psl):
    rep = _verify_edited_psl(psl, lambda pl: pl.update(defect="4"))
    assert rep.passed, rep.to_obj()


def test_split_qm_across_a_transvection_fails(f2):
    # a -> a b is a transvection of F_2, so a b has norm 1 while qbar(a b) = 2:
    # the split sums are not Aut-invariant and bound nothing
    qm = make_split_qm(f2, ["a"])
    cert = Certificate(SPLIT_QM, witness=parse_word(f2, "a b"), split_qm=qm)
    rep = verify_certificate(f2, Verdict(False, cert))
    assert _failed(rep) == {"split-orbit-in-factors"}
    assert "tv(a,b)" in next(c.detail for c in rep.checks if c.status == "FAIL")


def _random_join_plus_free_class(rng):
    """A join of random Z, Dinf and finite factors, plus one to three pairwise
    non-adjacent infinite vertices, each joined to each vertex of the join
    with probability 0.9, so that V - M is often bounded."""
    orders, factors = {}, []
    for i in range(rng.randint(0, 4)):
        kind = rng.choice(("Z", "Dinf", "Dinf", "finite"))
        if kind == "Dinf":
            factor = {f"d{i}": 2, f"e{i}": 2}
        else:
            factor = {f"z{i}": None if kind == "Z" else rng.choice((2, 3, 4, 5, 8, 9))}
        orders.update(factor)
        factors.append(list(factor))
    edges = [(v, w) for i, f in enumerate(factors) for g in factors[:i] for v in f for w in g]
    joined = list(orders)
    for j in range(rng.randint(1, 3)):
        orders[f"f{j}"] = None
        edges += [(f"f{j}", v) for v in joined if rng.random() < 0.9]
    return pres(orders, edges)


def test_maximal_free_or_z_class_commutes_with_bounded_rest():
    """The lemma of classifier._classify: when V - M is bounded and the
    maximal class M is free or a single Z vertex, every vertex of V - M
    commutes with all of M, so L is empty."""
    rng = random.Random(7)
    checked = bounded = 0
    for _ in range(300):
        p = _random_join_plus_free_class(rng)
        ts = tau_structure(p)
        for i in ts.maximal_classes():
            M, t = ts.classes[i], ts.class_types[i]
            rest = [v for v in p.vertex_ids if v not in M]
            free_or_z = t.kind == FREE or (t.kind == FREE_ABELIAN and t.rank == 1)
            if not (rest and free_or_z):
                continue
            checked += 1
            if classify(p.sub(rest)).bounded:
                bounded += 1
                assert all(p.has_edge(v, m) for v in rest for m in M), (repr(p), M)
        classify(p)  # reaches none of the classifier's AssertionErrors
    assert checked > 60 and bounded > 15
