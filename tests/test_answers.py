"""Answer digests: the library's answers on a fixed corpus.

``tests/answers.json`` maps each part to the SHA-256 of its answers, so a
failure names the part that changed.  Each family of parts has its own test.

- ``classifier.*``: criterion 3's exhaustive corpus (at most 5 vertices over
  orders {2, 3, 4, inf}, up to relabeling) plus
  ``random_presentation(random.Random(8), 8)`` x 1,000.  For each
  presentation they record ``verdict_to_obj(classify(p))``, the verify report
  of that verdict, ``classes_json_obj(p)``, and the verify report of the
  verdict read back through ``verdict_from_obj`` from its JSON text, which
  pins the certificate reader.
- ``norms.*``: every named shape, expanded to primary form, with fixed orbit
  and ball parameters: the orbit of the generators in discovery order with
  ``frontier_exhausted`` and ``depth_used``, the ``norm_ball`` items in
  order, ``norm_upper`` on seeded words with and without ``ball=``, and
  ``norm_lower`` under the shape's own certificate.
- ``words.*``: ``normal_form``, ``multiply``, ``invert``, ``power`` and
  ``homogenize`` on seeded raw words of 1 to 1,024 syllables over the named
  shapes and seeded random presentations, and on both quadratic back-scan
  families of the ``words`` docstring at 1,024 syllables.

Regenerate the file only with ``python scripts/update_pins.py``, which also
rewrites ``tests/golden.json``, and list each changed part with its cause
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from gpnorm import (
    PresentationError,
    aut0_generators,
    classify,
    expand_to_primary,
    generator,
    homogenize,
    invert,
    make_split_qm,
    multiply,
    named_presentation,
    norm_ball,
    norm_lower,
    norm_upper,
    normal_form,
    orbit,
    parse_presentation,
    power,
    random_presentation,
    verify_certificate,
    word_literal,
)
from gpnorm.classes import classes_json_obj
from gpnorm.classifier import verdict_from_obj, verdict_to_obj
from gpnorm.corpus import NAMED, random_word
from test_acceptance import _exhaustive_corpus

ANSWERS = Path(__file__).with_name("answers.json")


def _hexdigests(family: str, rows) -> dict[str, str]:
    """SHA-256 of each part over the rows, where each row maps part names to
    one answer's text; the keys are named family.part."""
    hashes: dict = {}
    for answers in rows:
        for name, text in answers.items():
            hashes.setdefault(name, hashlib.sha256()).update(text.encode() + b"\n")
    return {f"{family}.{name}": h.hexdigest() for name, h in hashes.items()}


def _classifier_corpus():
    yield from _exhaustive_corpus()
    rng = random.Random(8)
    for _ in range(1000):
        yield random_presentation(rng, 8)


def classifier_digests() -> dict[str, str | int]:
    """The classifier parts, and the number of presentations."""
    count = 0

    def rows():
        nonlocal count
        for p in _classifier_corpus():
            verdict = classify(p)
            text = json.dumps(verdict_to_obj(verdict), sort_keys=True)
            read_back = verdict_from_obj(p, json.loads(text))
            count += 1
            yield {
                "verdict": text,
                "verify": json.dumps(verify_certificate(p, verdict).to_obj(), sort_keys=True),
                "classes": json.dumps(classes_json_obj(p), sort_keys=True),
                "verify_read_back": json.dumps(verify_certificate(p, read_back).to_obj(),
                                               sort_keys=True),
            }

    out: dict[str, str | int] = dict(_hexdigests("classifier", rows()))
    out["classifier.presentations"] = count
    return out


# (orbit depth, length cap, radius) per named shape; radius 4 sends a word
# outside the radius-2 ball to the meet-in-the-middle scan
NORM_PARAMS = {"path_raag": (1, 4, 4)}
NORM_DEFAULT = (2, 6, 4)
NORM_QUERIES = 40
NORM_UNSHARED = 8  # the first queries also run without a shared ball


def _lower(p, x, cert) -> str:
    try:
        return str(norm_lower(p, x, cert))
    except ValueError as exc:
        return f"refused: {exc}"


def _norm_rows():
    for name in sorted(NAMED):
        p = expand_to_primary(named_presentation(name))
        depth, cap, radius = NORM_PARAMS.get(name, NORM_DEFAULT)
        orb = orbit(p, [generator(p, v) for v in p.vertex_ids], aut0_generators(p), depth, cap)
        ball = norm_ball(p, orb, radius)
        rng = random.Random(f"norms-{name}")
        xs = [random_word(p, rng, 6) for _ in range(NORM_QUERIES)]
        cert = classify(p).certificate
        yield {
            "orbit": json.dumps([name, [word_literal(w) for w in orb.elements],
                                 orb.frontier_exhausted, orb.depth_used]),
            "ball": json.dumps([name, [[word_literal(w), d] for w, d in ball.items()]]),
            "upper": json.dumps([name, [norm_upper(p, x, orb, radius) for x in
                                        xs[:NORM_UNSHARED]]]),
            "upper_ball": json.dumps([name, [norm_upper(p, x, orb, radius, ball=ball)
                                             for x in xs]]),
            "lower": json.dumps([name, [_lower(p, x, cert) for x in xs]]),
        }


def norms_digests() -> dict[str, str]:
    return _hexdigests("norms", _norm_rows())


# c and d come before p and q and commute with them; z comes before x and y
# and commutes with them: the two quadratic back-scan families
LONG_SCAN = {"vertices": [{"id": v, "order": "inf"} for v in "cdpqzxy"],
             "edges": [["c", "p"], ["c", "q"], ["d", "p"], ["d", "q"],
                       ["z", "x"], ["z", "y"]]}
WORD_LENGTHS = (1, 16, 64, 256, 1024)
EXPONENTS = (-3, -2, -1, 1, 2, 3)


def _literals(words) -> str:
    return json.dumps([word_literal(w) for w in words])


def _word_presentations():
    for name in sorted(NAMED):
        yield expand_to_primary(named_presentation(name))
    rng = random.Random("words-answers")
    for _ in range(12):
        yield random_presentation(rng, 8)


def _split(p):
    """A split quasimorphism on the first graph component, or None."""
    comps = p.components()
    if len(comps) < 2:
        return None
    try:
        return make_split_qm(p, comps[0])
    except PresentationError:  # both sides C_2^k
        return None


def _word_rows():
    for p in _word_presentations():
        rng = random.Random(repr(p))
        ids = p.vertex_ids
        raws = [[(rng.choice(ids), rng.choice(EXPONENTS)) for _ in range(n)]
                for n in WORD_LENGTHS for _ in range(2)]
        xs = [normal_form(p, w) for w in raws]
        bases = [normal_form(p, [(rng.choice(ids), rng.choice(EXPONENTS))
                                 for _ in range(rng.randint(2, 3))]) for _ in range(4)]
        ns = [rng.randint(-40, 240) for _ in bases]
        qm = _split(p)
        homs = []
        if qm is not None:
            homs = [homogenize(p, qm, x, "exact") for x in xs]
            homs += [homogenize(p, qm, x, "estimate", 16) for x in xs if len(x) <= 64]
        yield {
            "normal_form": _literals(xs),
            "multiply": _literals(multiply(p, x, y) for x, y in zip(xs, xs[1:])),
            "invert": _literals(invert(p, x) for x in xs),
            "power": _literals(power(p, b, n) for b, n in zip(bases, ns)),
            "homogenize": json.dumps([[str(value), str(err)] for value, err in homs]),
        }
    p, k = parse_presentation(LONG_SCAN), 256
    pq = normal_form(p, [("p", 1), ("q", 1)] * k)
    cd = normal_form(p, [("c", 1), ("d", 1)] * k)
    yield {
        "normal_form": _literals([
            normal_form(p, [("x", 1), ("y", 1)] * k + [("z", 1), ("z", -1)] * k),
            normal_form(p, [("p", 1), ("q", 1)] * k + [("c", 1), ("d", 1)] * k)]),
        "multiply": _literals([multiply(p, pq, cd)]),
        "invert": _literals([invert(p, multiply(p, pq, cd))]),
        "power": _literals([power(p, normal_form(p, [(v, 1) for v in "cdpq"]), k)]),
    }


def words_digests() -> dict[str, str]:
    return _hexdigests("words", _word_rows())


FAMILIES = {"classifier": classifier_digests, "norms": norms_digests, "words": words_digests}


def digests() -> dict[str, str | int]:
    """The digest of every part of every family."""
    return {k: v for family in FAMILIES.values() for k, v in family().items()}


def _assert_family_matches(family: str):
    want = {k: v for k, v in json.loads(ANSWERS.read_text()).items()
            if k.startswith(f"{family}.")}
    got = FAMILIES[family]()
    changed = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    assert not changed, f"answer parts differ from answers.json: {changed}"


def test_answers_match_digests():
    _assert_family_matches("classifier")


def test_norms_answers_match_digests():
    _assert_family_matches("norms")


def test_words_answers_match_digests():
    _assert_family_matches("words")
