"""Round-trip referee: everything the program writes about a presentation,
it reads back, whatever legal ids the vertices carry."""

import json
import random

from gpnorm import (
    Presentation,
    VertexSpec,
    aut0_generators,
    classify,
    generator,
    orbit,
    parse_generator,
    parse_word,
    random_presentation,
    verify_certificate,
    word_literal,
)
from gpnorm.classifier import verdict_from_obj, verdict_to_obj

# legal ids that look like the grammars' own tokens, numbers or part names
UNUSUAL_IDS = ["a.0", "é", "x'", "[x]", "a=b", "tv", "pc", "factor", "graph", "inf",
               "0", "-1", "1/2", "a.1.0", "{", "|", "Ω", "#", "None", "true"]


def renamed(p, ids):
    """p with its vertices renamed, in declaration order, to ids."""
    name = dict(zip(p.vertex_ids, ids))
    return Presentation([VertexSpec(name[v.id], v.order) for v in p.vertices],
                        [(name[a], name[b]) for a, b in p.edges])


def test_written_literals_read_back():
    """On 400 seeded random presentations (at most 5 vertices) renamed to
    unusual legal ids: each verdict reads back through JSON and verifies,
    each Aut0 generator literal parses to its generator, and each orbit word
    literal (depth 2, cap 6) parses to its word."""
    rng = random.Random(3)
    verdicts = literals = words = 0
    for _ in range(400):
        p = random_presentation(rng, 5)
        p = renamed(p, rng.sample(UNUSUAL_IDS, len(p.vertices)))
        obj = json.loads(json.dumps(verdict_to_obj(classify(p))))
        assert verify_certificate(p, verdict_from_obj(p, obj)).passed, repr(p)
        verdicts += 1
        gens = aut0_generators(p)
        for g in gens:
            assert parse_generator(p, g.literal()) == g, (repr(p), g.literal())
        literals += len(gens)
        orb = orbit(p, [generator(p, v) for v in p.vertex_ids], gens, 2, 6)
        for x in orb.elements:
            assert parse_word(p, word_literal(x)) == x, (repr(p), word_literal(x))
        words += len(orb.elements)
    assert (verdicts, literals, words) == (400, 3185, 30183)
