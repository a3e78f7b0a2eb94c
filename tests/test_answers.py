"""Answer digests: the library's answers on a fixed corpus.

``tests/answers.json`` maps each part to the SHA-256 of its answers, so a
failure names the part that changed.  The classifier parts cover criterion
3's exhaustive corpus (at most 5 vertices over orders {2, 3, 4, inf}, up to
relabeling) plus ``random_presentation(random.Random(8), 8)`` x 1,000.  For
each presentation they record ``verdict_to_obj(classify(p))``, the verify
report of that verdict, ``classes_json_obj(p)``, and the verify report of
the verdict read back through ``verdict_from_obj`` from its JSON text, which
pins the certificate reader.

Regenerate the file only with ``python scripts/update_answers.py``, and list
each changed part with its cause in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from gpnorm import classify, random_presentation, verify_certificate
from gpnorm.classes import classes_json_obj
from gpnorm.classifier import verdict_from_obj, verdict_to_obj
from test_acceptance import _exhaustive_corpus

ANSWERS = Path(__file__).with_name("answers.json")


def _classifier_corpus():
    yield from _exhaustive_corpus()
    rng = random.Random(8)
    for _ in range(1000):
        yield random_presentation(rng, 8)


def digests() -> dict[str, str | int]:
    """The digest of every part, and the number of presentations."""
    parts = {name: hashlib.sha256() for name in
             ("verdict", "verify", "classes", "verify_read_back")}
    count = 0
    for p in _classifier_corpus():
        verdict = classify(p)
        text = json.dumps(verdict_to_obj(verdict), sort_keys=True)
        read_back = verdict_from_obj(p, json.loads(text))
        answers = {
            "verdict": text,
            "verify": json.dumps(verify_certificate(p, verdict).to_obj(), sort_keys=True),
            "classes": json.dumps(classes_json_obj(p), sort_keys=True),
            "verify_read_back": json.dumps(verify_certificate(p, read_back).to_obj(),
                                           sort_keys=True),
        }
        for name, answer in answers.items():
            parts[name].update(answer.encode() + b"\n")
        count += 1
    out: dict[str, str | int] = {f"classifier.{name}": h.hexdigest() for name, h in parts.items()}
    out["classifier.presentations"] = count
    return out


def test_answers_match_digests():
    want = json.loads(ANSWERS.read_text())
    got = digests()
    changed = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    assert not changed, f"answer parts differ from answers.json: {changed}"
