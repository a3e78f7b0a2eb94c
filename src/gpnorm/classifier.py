"""Boundedness classifier with machine-checkable certificates.

``classify`` decides whether the invariant word norm is bounded by recursing
on the transvection-class structure: a single class is decided directly
(free abelian of rank > 1 and finite classes are bounded; Z and free classes
are unbounded), otherwise a maximal class M is removed.  If the remainder is
unbounded the verdict transfers through the lower cone V - M; otherwise the
remainder is Z^n x Dinf^m x F and the analysis of the free-product piece
W_M * W_L (L the part of the remainder not commuting with M) finishes the
induction.

Every verdict carries a certificate: a bounded decomposition, or a chain of
lower cones ending at either a single Z vertex (homomorphism bound), a
free-product split with an explicit split quasimorphism, or a citation-level
tag for the two imported quasimorphism existence results (primitive-bounded
quasimorphisms on free groups; quasimorphisms on non-elementary hyperbolic
two-generator Coxeter-type products).  ``verify_certificate`` re-checks a
verdict independently of how it was produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import classes as cl
from .presentation import Presentation, PresentationError, _ids_from_json, _json_value
from .quasimorphisms import (
    OddFunction,
    SplitQM,
    _is_elementary_two,
    _power_of,
    homogenize,
    make_split_qm,
    split_qm_from_obj,
    split_qm_to_obj,
)
from .words import (
    NormalWord,
    _split,
    commutator,
    generator,
    invert,
    multiply,
    parse_word,
    retract,
    word_literal,
)

BOUNDED_DECOMPOSITION = "BOUNDED_DECOMPOSITION"
HOMOMORPHISM = "HOMOMORPHISM"
SPLIT_QM = "SPLIT_QM"
CITATION = "CITATION"
KINDS = (BOUNDED_DECOMPOSITION, HOMOMORPHISM, SPLIT_QM, CITATION)

CITE_FREE_PRIMITIVES = "FREE_GROUP_PRIMITIVES"
CITE_HYPERBOLIC = "HYPERBOLIC_C2_POWERS"


@dataclass(frozen=True)
class Certificate:
    kind: str
    chain: tuple[tuple[str, ...], ...] = ()
    witness: NormalWord | None = None
    # BOUNDED_DECOMPOSITION payload
    n: int = 0
    m: int = 0
    finite_part: tuple[str, ...] = ()
    # HOMOMORPHISM payload
    target_vertex: str = ""
    # SPLIT_QM payload
    split_qm: SplitQM | None = None
    # CITATION payload
    citation: str = ""
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    bounded: bool
    certificate: Certificate
    trace: tuple[str, ...] = ()


def _bounded_verdict(p: Presentation, X: int, trace: list[str]) -> Verdict:
    jd = cl.join_decomposition(p, X)
    cert = Certificate(BOUNDED_DECOMPOSITION, n=jd.n, m=jd.m, finite_part=jd.finite_part)
    return Verdict(True, cert, tuple(trace))


def _unbounded(kind: str, chain, step: tuple[str, ...], trace: list[str], **fields) -> Verdict:
    """An unbounded verdict whose chain is the callers' chain ending at step.
    Steps are in declaration order and strictly nested, so only the last
    can equal step: a nested node's step of all its vertices, which its
    caller appended.  It is not repeated."""
    if chain[-1:] != (step,):
        chain = (*chain, step)
    return Verdict(False, Certificate(kind, chain=chain, **fields), tuple(trace))


def _free_citation(p: Presentation, M: tuple[str, ...], chain, trace: list[str]) -> Verdict:
    """CITATION for a retraction onto the free class M, witnessed by the
    commutator of its first two vertices."""
    return _unbounded(CITATION, chain, M, trace,
                      witness=commutator(p, generator(p, M[0]), generator(p, M[1])),
                      citation=CITE_FREE_PRIMITIVES,
                      note="witness choice is citation-backed; growth data EMPIRICAL-ONLY")


def _homomorphism(p: Presentation, v: str, chain, trace: list[str]) -> Verdict:
    """HOMOMORPHISM for a retraction onto the Z vertex v, witnessed by v."""
    return _unbounded(HOMOMORPHISM, chain, (v,), trace, witness=generator(p, v), target_vertex=v)


def _split_witness(p: Presentation, qm: SplitQM) -> NormalWord:
    """An alternating witness g * h with positive homogenized value: on each
    side take an element of sigma-value 1 when the side function is nonzero,
    else the least generator."""

    def pick(sigma: OddFunction) -> NormalWord:
        if sigma.power_base is not None:
            return sigma.power_base
        return next((w for w, val in sigma.table if val == 1), None) or generator(p, sigma.side[0])

    return multiply(p, pick(qm.sigma_left), pick(qm.sigma_right))


def classify(p: Presentation) -> Verdict:
    """Decide boundedness and produce a certificate chain.  Requires a
    primary presentation (run expand_to_primary first).  It recurses on
    vertex masks X of p, each the full subgraph on X, classed by
    ``classes._up_sets(p, X)`` and decomposed by
    ``classes.join_decomposition(p, X)``.  The chain and trace of the calls
    above are passed down, so each verdict is built once, at the node that
    decides it.  The one presentation it builds is W_M * W_L's for a split
    quasimorphism, when M and L do not cover all of p's vertices.

    Every bounded verdict is of bounded form, so a bounded V - M is
    Z^n x Dinf^m x F with n != 1.

    If M is a free class or a single Z vertex, L is empty.  For x in M,
    Lk(x) subset V - M, and x <=_tau u for u outside M would put [u] strictly
    above M.  A Z or finite factor u of V - M commutes with the rest of it,
    so Lk(x) subset St(u): there is none.  A Dinf vertex u gives x <=_tau u
    unless x commutes with its partner, so x commutes with all of V - M.

    L empty: a finite M adds finite factors and Z^k adds k Z factors, so W is
    of bounded form unless M is free, or M is one Z vertex and V - M has no
    Z (n = 0 in its certificate).  Then M is a lower cone.  Only an infinite
    s can lie below a t in M.  For a free M, Lk(s) contains M, which lies in
    no St(t); a single Z vertex M leaves no infinite vertex in V - M.

    L nonempty: the complement components of L refine those of V - M, so W_L
    has bounded form and its Z factors are its infinite vertices."""
    if not p.is_primary():
        raise PresentationError("classify requires a primary presentation")
    return _classify(p, -1, (), [])


def _classify(p: Presentation, X: int, chain: tuple, trace: list[str]) -> Verdict:
    """``classify`` of the full subgraph on the vertex mask X, below the
    callers' chain steps and trace lines.  Each caller recurses on its
    V - M after appending V - M as a step and the line that calls it
    unbounded; it keeps its own trace when the answer is bounded.  Each
    unbounded leaf appends its own step unless that step is already last."""
    V = p._ids(X)
    if not V:
        return _bounded_verdict(p, X, [*trace, "empty presentation: trivial group"])
    ups = cl._up_sets(p, X)
    classes = cl._classes(ups)
    if len(classes) == 1:
        t = cl._class_type(p, *classes[0])
        if t.kind == cl.FINITE_PRIMARY:
            return _bounded_verdict(p, X, [*trace, "one class: finite primary"])
        if t.kind == cl.FREE_ABELIAN and t.rank > 1:
            return _bounded_verdict(p, X, [*trace, f"one class: Z^{t.rank}"])
        if t.kind == cl.FREE_ABELIAN:  # rank 1: the group is Z
            return _homomorphism(p, V[0], chain, [*trace, "one class: Z, exponent homomorphism"])
        # free class of rank >= 2
        return _free_citation(p, V, chain, [*trace, f"one class: free of rank {t.rank}"])

    # classes come in order of their least vertex: the first maximal class,
    # whose up-set stays inside it, has the least declaration index (tie-break)
    v, m = next((v, c) for v, c in classes if not ups[v] & ~c)
    M, mtype = p._ids(m), cl._class_type(p, v, m)
    rest = p._ids(X & ~m)
    trace = [*trace, f"maximal class M = {{{','.join(M)}}} ({mtype.kind})"]

    sub = _classify(p, X & ~m, (*chain, rest),
                    [*trace, f"recursion on V-M = {{{','.join(rest)}}} unbounded"])
    if not sub.bounded:
        return sub

    trace.append("V-M bounded: Z^n x Dinf^m x F")
    L = tuple(v for v in rest if m & ~p._adj_mask[p._index[v]])
    if not L:
        trace.append("L empty: direct product W_M x W_{V-M}")
        if mtype.kind == cl.FREE:
            return _free_citation(p, M, chain, trace + ["retract to free class M"])
        if mtype.rank != 1 or sub.certificate.n:
            return _bounded_verdict(p, X, trace)
        return _homomorphism(p, M[0], chain, trace + ["retract to the unique Z vertex"])

    zs = [v for v in L if p.order(v) is None]
    if len(zs) == 1:
        return _homomorphism(p, zs[0], chain,
                             trace + [f"Z-rank of W_L is 1: minimal class {{{zs[0]}}}"])

    ML = p._ids(m | p._mask(L))
    trace.append(f"free product W_M * W_L inside lower cone {{{','.join(ML)}}}")
    if _is_elementary_two(p, M) and _is_elementary_two(p, L):
        if len(M) == 1 and len(L) == 1:
            trace.append("W_M = W_L = C_2: absorbed as an extra Dinf factor")
            return _bounded_verdict(p, X, trace)
        return _unbounded(CITATION, chain, ML, trace + ["hyperbolic C_2^k * C_2^k case"],
                          witness=multiply(p, generator(p, M[0]), generator(p, L[0])),
                          citation=CITE_HYPERBOLIC,
                          note="both sides elementary abelian 2-groups, some rank > 1")

    pml = p.sub(ML)
    qm = make_split_qm(pml, M)
    return _unbounded(SPLIT_QM, chain, ML, trace + ["split quasimorphism on W_M * W_L"],
                      witness=_split_witness(pml, qm), split_qm=qm)


# -- serialization ---------------------------------------------------------


def certificate_to_obj(cert: Certificate) -> dict:
    obj = {
        "kind": cert.kind,
        "chain": [list(step) for step in cert.chain],
        "witness": word_literal(cert.witness) if cert.witness is not None else None,
    }
    if cert.kind == BOUNDED_DECOMPOSITION:
        obj["payload"] = {
            "n": cert.n,
            "m": cert.m,
            "finite_part": list(cert.finite_part),
        }
    elif cert.kind == HOMOMORPHISM:
        obj["payload"] = {"target_vertex": cert.target_vertex}
    elif cert.kind == SPLIT_QM:
        obj["payload"] = split_qm_to_obj(cert.split_qm)
    else:
        obj["payload"] = {"citation": cert.citation}
    if cert.note:
        obj["note"] = cert.note
    return obj


def certificate_from_obj(p: Presentation, obj: dict) -> Certificate:
    kind = obj["kind"]
    chain = tuple(_ids_from_json(step) for step in obj.get("chain", []))
    wit = obj.get("witness")
    witness = parse_word(p, _json_value(wit, str)) if wit is not None else None
    note = _json_value(obj.get("note", ""), str)
    payload = obj.get("payload", {})
    if kind == BOUNDED_DECOMPOSITION:
        fields = {"n": _json_value(payload["n"], int), "m": _json_value(payload["m"], int),
                  "finite_part": _ids_from_json(payload["finite_part"])}
    elif kind == HOMOMORPHISM:
        fields = {"target_vertex": _json_value(payload["target_vertex"], str)}
    elif kind == SPLIT_QM:
        # the payload lives on the last step; verify checks that the steps nest
        final = p.sub(chain[-1] if chain else p.vertex_ids)
        fields = {"split_qm": split_qm_from_obj(final, payload)}
    elif kind == CITATION:
        fields = {"citation": _json_value(payload["citation"], str)}
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return Certificate(kind, chain=chain, witness=witness, note=note, **fields)


def verdict_to_obj(v: Verdict) -> dict:
    return {
        "bounded": v.bounded,
        "certificate": certificate_to_obj(v.certificate),
        "trace": list(v.trace),
    }


def verdict_from_obj(p: Presentation, obj: dict) -> Verdict:
    return Verdict(
        _json_value(obj["bounded"], bool),
        certificate_from_obj(p, obj["certificate"]),
        _ids_from_json(obj.get("trace", [])),
    )


# -- verification ----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | NOTE
    detail: str = ""


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append(CheckResult(name, "PASS" if ok else "FAIL", detail))

    def note(self, name: str, detail: str):
        self.checks.append(CheckResult(name, "NOTE", detail))

    def to_obj(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }


def _odd_function_faults(p: Presentation, sigma: OddFunction, side: tuple[str, ...]):
    """Yield (check name, detail) for each way sigma fails to be a bounded
    odd function on the standard subgroup W_side, side in declaration order:
    its side must be that side; the table must hold distinct nontrivial
    elements of W_side and be closed under inversion with sigma(w^-1) =
    -sigma(w); the power base must lie in W_side and have one of the two
    shapes that carry a sign rule, which ``_power_of(p, base, base) == 1``
    tests (its docstring names them)."""
    if sigma.side != side:
        yield "split-odd-support", f"side {list(sigma.side)} is not the split's {list(side)}"
    values = dict(sigma.table)
    if len(values) != len(sigma.table):
        yield "split-odd-support", "repeated entry"
    for w, val in sigma.table:
        if not w or any(v not in side for v, _ in w):
            yield "split-odd-support", f"entry {word_literal(w) or 'e'} not in W_side - e"
        if values.get(invert(p, w)) != -val:
            yield "split-odd-symmetry", (
                f"sigma({word_literal(w)}) = {val} but sigma of its inverse is not {-val}"
            )
    base = sigma.power_base
    if base is not None and not (all(v in side for v, _ in base) and _power_of(p, base, base) == 1):
        yield "split-power-base", (
            f"{word_literal(base) or 'e'} is neither an infinite syllable nor "
            "two non-commuting involutions of W_side"
        )


def verify_certificate(p: Presentation, verdict: Verdict) -> Report:
    """Re-check a verdict independently of classify.

    Chain steps are re-verified as lower cones of <=_tau.  That check is the
    kernel invariance the chain promises: under the generators of
    aut0_generators, K_X is invariant iff X is a lower cone (proof at
    classes.lower_cone_violation).  On failure the detail names, in closed
    form, the transvection tv(v, w) that lower_cone_violation returns: the
    first in declaration order with v killed and w kept, which moves v out
    of K_X; no automorphism is applied.  Kind-specific payloads are then
    checked: decomposition shape for BOUNDED verdicts; endpoint shape for
    homomorphism and citation certificates; for split quasimorphisms, the
    side, exact oddness and support of both odd functions, the defect against 3 * max
    sup |sigma| read from the odd functions, which compute it from their
    tables, the witness value, and that no transvection joins two free
    factors, so every automorphic image of a vertex is a factor conjugate,
    on which the homogenization vanishes.  No check samples.

    A BOUNDED verdict claims |g| <= 2 * (1 + m + |F|) for every g.  The
    norm is subadditive over the commuting factors of Z^n x Dinf^m x F, and
    each factor is bounded by a lemma:
      - Z^n, n >= 2: every vector is a sum of two primitive vectors, and
        SL_n(Z) moves a primitive vector to a basis vector;
      - each Dinf factor: every element is a reflection (a conjugate of a
        vertex) or a product of two;
      - each finite vertex v of order p^e: every element is a product of at
        most two unit powers v^u, the images of v under factor automorphisms.
    The two decomposition checks are exactly the lemmas' hypotheses.  They
    recompute the join decomposition, so each factor above is a complement
    component joined to all other vertices.  A Z factor's star is therefore
    all of V, every Z-Z transvection is a generator, and the transvections
    generate SL_n(Z).  When both pass, uniform-bound is a NOTE naming the
    lemmas, not a PASS: nothing is computed for it.
    """
    rep = Report()
    cert = verdict.certificate

    rep.add("kind-consistency",
            cert.kind in KINDS and verdict.bounded == (cert.kind == BOUNDED_DECOMPOSITION),
            f"bounded={verdict.bounded} kind={cert.kind}")

    cur = -1  # the previous step's vertex mask
    for step in cert.chain:
        if not set(step) <= set(p._ids(cur)):
            rep.add("chain-subset", False, f"step {step} not inside {p._ids(cur)}")
            return rep
        xs = p._mask(step)
        viol = cl._cone_violation(p, cur, xs)
        if viol is not None:
            s, t = viol
            rep.add("chain-lower-cone", False, f"step {step}: {s} <=_tau {t} but {s} outside; "
                    f"violating generator tv({s},{t}) or its inverse moves {s} out of K_X")
            return rep
        cur = xs
    if cert.chain:
        rep.add("chain-lower-cone", True, f"{len(cert.chain)} step(s)")

    if cert.kind == BOUNDED_DECOMPOSITION:
        jd = cl.join_decomposition(p)
        shape = jd.bounded_form
        payload = (cert.n, cert.m, set(cert.finite_part)) == (jd.n, jd.m, set(jd.finite_part))
        rep.add("decomposition-shape", shape, f"n={jd.n} m={jd.m} other={jd.has_other}")
        rep.add("decomposition-payload", payload, f"claimed (n={cert.n}, m={cert.m})")
        if shape and payload:
            rep.note(
                "uniform-bound",
                f"bound {2 * (1 + jd.m + len(jd.finite_part))} by lemma: Z^n (n >= 2) "
                "sums of two primitive vectors; each Dinf a reflection or a product of "
                "two; each finite vertex v a product of at most two unit powers v^u",
            )
        return rep

    # unbounded kinds: witness must survive the retraction chain, which
    # composes into one retraction because the steps are nested (chain-subset)
    final = p.sub(p._ids(cur))
    if cert.witness is None:
        rep.add("witness", False, "missing witness")
        return rep
    y = retract(p, final.vertex_ids, cert.witness)
    rep.add("witness-nontrivial", bool(y), word_literal(cert.witness))

    if cert.kind == HOMOMORPHISM:
        ok = (
            len(final.vertices) == 1
            and final.vertices[0].order is None
            and final.vertices[0].id == cert.target_vertex
        )
        rep.add("homomorphism-endpoint", ok, f"target {cert.target_vertex}")
        return rep

    comps = final.components()
    if cert.kind == CITATION:
        if cert.citation == CITE_FREE_PRIMITIVES:
            ok = (
                len(final.vertices) >= 2
                and all(v.order is None for v in final.vertices)
                and not final.edges
            )
            rep.add("citation-endpoint", ok, "free group endpoint")
        elif cert.citation == CITE_HYPERBOLIC:
            ok = (
                len(comps) == 2
                and all(_is_elementary_two(final, set(comp)) for comp in comps)
                and any(len(comp) > 1 for comp in comps)
            )
            rep.add("citation-endpoint", ok, "C_2^k1 * C_2^k2 endpoint, some k > 1")
        else:
            rep.add("citation-endpoint", False, f"unknown tag {cert.citation}")
        rep.note("citation", "no numeric bound; certified by the cited result")
        return rep

    # SPLIT_QM
    qm = cert.split_qm
    if qm is None:
        rep.add("split-qm", False, "missing quasimorphism payload")
        return rep
    try:
        sides = _split(final, qm.left)
    except PresentationError:
        rep.add("split-valid", False, f"M={qm.left}")
        return rep
    rep.add("split-valid", True, f"M={qm.left}")
    sigmas = (qm.sigma_left, qm.sigma_right)
    faults: dict[str, str] = {}
    for label, sigma, side in zip(("left", "right"), sigmas, sides):
        for name, detail in _odd_function_faults(final, sigma, side):
            faults.setdefault(name, f"{label}: {detail}")
    for name in ("split-odd-support", "split-odd-symmetry", "split-power-base"):
        rep.add(name, name not in faults, faults.get(name, "left and right"))
    rep.add("split-nonzero-side", not all(sig.is_zero for sig in sigmas))
    sup = max(sig.sup_norm for sig in sigmas)
    rep.add("split-defect-constant", qm.defect >= 3 * sup, f"defect {qm.defect}, 3 sup {3 * sup}")
    value, _err = homogenize(final, qm, y, "exact")
    rep.add("split-witness-value", value != 0, f"qbar(witness) = {value}")
    # Factor automorphisms, partial conjugations and transvections inside a
    # graph component map each component subgroup into a conjugate of one,
    # so every automorphic image of a vertex is a factor conjugate, where
    # qbar vanishes.  Only a transvection v -> v w^q between two components
    # (v an isolated infinite vertex) breaks this: tv(v, w) is a generator
    # exactly when v <=_tau w.
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    join = next(
        (f"tv({v},{w})" for v, w in cl.transvections(final) if comp_of[v] != comp_of[w]),
        None,
    )
    rep.add(
        "split-orbit-in-factors",
        join is None,
        "no transvection joins free factors" if join is None else f"{join} joins two free factors",
    )
    return rep
