import json
import random

import pytest

from gpnorm import (
    gen_corpus,
    named_presentation,
    parse_presentation,
    random_presentation,
    random_word,
)
from gpnorm.corpus import NAMED


def test_named_corpus_contents():
    dinf = named_presentation("dinf")
    assert len(dinf.vertices) == 2
    assert all(v.order == 2 for v in dinf.vertices)
    assert not dinf.edges
    for expected in ["z", "z2", "f2", "dinf", "psl", "c2c2c2", "path_raag", "dinf_x_c2"]:
        assert expected in NAMED
    with pytest.raises(KeyError):
        named_presentation("nope")


def test_gen_corpus_roundtrip(tmp_path):
    paths = gen_corpus(tmp_path)
    assert sorted(p.name for p in paths) == sorted(f"{n}.json" for n in NAMED)
    for path in paths:
        p = parse_presentation(path.read_text())
        assert p == named_presentation(path.stem)


def test_gen_corpus_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    gen_corpus(a)
    gen_corpus(b)
    for name in NAMED:
        assert (a / f"{name}.json").read_text() == (b / f"{name}.json").read_text()


def test_random_presentation_properties():
    rng = random.Random(5)
    for _ in range(50):
        p = random_presentation(rng, max_vertices=8)
        assert 1 <= len(p.vertices) <= 8
        assert p.is_primary()
        obj = json.loads(json.dumps(p.to_json_obj()))
        assert parse_presentation(obj) == p


def test_random_presentation_seed_determinism():
    ps1 = [random_presentation(random.Random(9), max_vertices=5) for _ in range(1)]
    ps2 = [random_presentation(random.Random(9), max_vertices=5) for _ in range(1)]
    assert ps1 == ps2


def test_random_word_valid():
    rng = random.Random(6)
    p = named_presentation("psl")
    for _ in range(50):
        w = random_word(p, rng)
        for v, e in w.syllables:
            assert v in p.vertex_ids and e != 0
