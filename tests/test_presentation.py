import itertools
import json
import random

import pytest

from gpnorm import (
    Presentation,
    PresentationError,
    VertexSpec,
    expand_to_primary,
    named_presentation,
    parse_presentation,
)
from gpnorm.presentation import MAX_ORDER, _factorization


def test_parse_roundtrip():
    src = {
        "vertices": [{"id": "a", "order": 2}, {"id": "b", "order": "inf"}],
        "edges": [["a", "b"]],
    }
    p = parse_presentation(src)
    assert p.vertex_ids == ("a", "b")
    assert p.order("a") == 2 and p.order("b") is None
    assert p.has_edge("a", "b") and p.has_edge("b", "a")
    again = parse_presentation(json.dumps(p.to_json_obj()))
    assert again == p


def test_parse_errors():
    with pytest.raises(PresentationError):
        parse_presentation("not json")
    with pytest.raises(PresentationError):
        parse_presentation({"vertices": [{"id": "a", "order": 1}]})
    with pytest.raises(PresentationError):
        parse_presentation({"vertices": [{"id": "a", "order": 2}, {"id": "a", "order": 2}]})
    with pytest.raises(PresentationError):
        parse_presentation({"vertices": [{"id": "a", "order": 2}], "edges": [["a", "a"]]})
    with pytest.raises(PresentationError):
        parse_presentation({"vertices": [{"id": "a", "order": 2}], "edges": [["a", "b"]]})
    with pytest.raises(PresentationError):
        parse_presentation({"vertices": [{"id": "a", "order": 2, "factors": [2]}]})


@pytest.mark.parametrize("vid", ["", "a b", "a\tb", "a\nb", "a^2", "a,b", "f(a", "a)",
                                 "a:b", 'x"', "a\\b"])
def test_vertex_id_without_grammar_separators(vid):
    """Whitespace and ^ , ( ) : " \\ separate the word, generator and DOT
    grammars, so an id holding one, or an empty id, is refused: from a file,
    and from a presentation the library builds, where ``VertexSpec("a b", 2)``
    next to ``VertexSpec("c", 3)`` would give ``classify`` the unreadable
    witness ``a b c``."""
    with pytest.raises(PresentationError, match="vertex id"):
        parse_presentation({"vertices": [{"id": vid, "order": 2}]})
    with pytest.raises(PresentationError, match="vertex id"):
        Presentation([VertexSpec(vid, 2), VertexSpec("c", 3)], [])


def test_vertex_ids_outside_the_separators_parse():
    ids = ["v0", "a.1", "a-b", "x_y", "é", "[a]", "a'"]
    p = parse_presentation({"vertices": [{"id": v, "order": 2} for v in ids]})
    assert p.vertex_ids == tuple(ids)


def test_declaration_order_is_identity():
    p1 = parse_presentation({"vertices": [{"id": "a", "order": 2}, {"id": "b", "order": 2}]})
    p2 = parse_presentation({"vertices": [{"id": "b", "order": 2}, {"id": "a", "order": 2}]})
    assert p1 != p2
    assert p1.index("a") == 0 and p2.index("a") == 1


def test_star_link():
    p = parse_presentation(
        {
            "vertices": [{"id": v, "order": "inf"} for v in "abc"],
            "edges": [["a", "b"], ["b", "c"]],
        }
    )
    assert p.link("b") == {"a", "c"}
    assert p.star("b") == {"a", "b", "c"}
    assert p.link("a") == {"b"}


def test_sub_preserves_declaration_order():
    p = parse_presentation(
        {
            "vertices": [{"id": v, "order": 2} for v in "abcd"],
            "edges": [["a", "b"], ["c", "d"]],
        }
    )
    q = p.sub(["d", "a", "c"])
    assert q.vertex_ids == ("a", "c", "d")
    assert q.edges == (("c", "d"),)


def test_sub_of_every_vertex_is_the_presentation_itself():
    p = parse_presentation({"vertices": [{"id": v, "order": "inf"} for v in "abc"],
                            "edges": [["a", "b"]]})
    for X in itertools.permutations("abc"):
        assert p.sub(X) is p
    q = p.sub("ab")
    assert q is not p and q.vertex_ids == ("a", "b") and q.edges == (("a", "b"),)


def test_edges_in_declaration_order_and_clique():
    p = parse_presentation(
        {
            "vertices": [{"id": v, "order": 2} for v in "dcba"],
            "edges": [["a", "b"], ["a", "d"], ["b", "c"], ["c", "d"], ["b", "d"]],
        }
    )
    assert p.edges == (("d", "c"), ("d", "b"), ("d", "a"), ("c", "b"), ("b", "a"))
    assert p.to_json_obj()["edges"] == [list(e) for e in p.edges]
    assert p.is_clique(["b", "c", "d"]) and p.is_clique(["a"]) and p.is_clique([])
    assert not p.is_clique(["a", "b", "c"])
    with pytest.raises(PresentationError):
        p.has_edge("a", "zzz")
    with pytest.raises(PresentationError):
        p.is_clique(["a", "zzz"])


def test_components_match_a_pairwise_referee():
    """components(X, complement) against a union of the vertex pairs that
    has_edge (or its negation) joins, on random graphs."""
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(0, 7)
        ids = [f"v{i}" for i in range(n)]
        rng.shuffle(ids)
        edges = [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.4]
        p = parse_presentation({"vertices": [{"id": v, "order": 2} for v in ids],
                                "edges": edges})
        X = [v for v in ids if rng.random() < 0.7]
        for complement in (False, True):
            comp = {v: {v} for v in X}
            for a in X:
                for b in X:
                    if a != b and p.has_edge(a, b) != complement and comp[a] is not comp[b]:
                        merged = comp[a] | comp[b]
                        for v in merged:
                            comp[v] = merged
            want = sorted({tuple(sorted(c, key=p.index)) for c in comp.values()},
                          key=lambda c: p.index(c[0]))
            assert p.components(X, complement) == tuple(want), (repr(p), X, complement)
        assert p.components() == p.components(ids)


@pytest.mark.parametrize("density", [0, 0.25, 0.5, 0.75, 1])
def test_stars_and_ids_match_an_edge_list_referee(density):
    """_stars holds each vertex with its neighbours in p.edges, and _ids
    lists a mask's vertices, or with ~mask the others, in declaration
    order, on random graphs of each density."""
    rng = random.Random(int(4 * density))
    for _ in range(50):
        ids = [f"v{i}" for i in range(rng.randint(0, 8))]
        rng.shuffle(ids)
        edges = [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < density]
        p = parse_presentation({"vertices": [{"id": v, "order": 2} for v in ids],
                                "edges": edges})
        for i, v in enumerate(ids):
            star = {v} | {w for e in p.edges if v in e for w in e}
            assert p._ids(p._stars[i]) == tuple(w for w in ids if w in star)
            assert p.star(v) == star
        X = {v for v in ids if rng.random() < 0.5}
        assert p._ids(p._mask(X)) == tuple(v for v in ids if v in X)
        assert p._ids(~p._mask(X)) == tuple(v for v in ids if v not in X)


def test_complement_components():
    # a-b edge, c isolated: complement has edges a-c, b-c => one component
    p = parse_presentation(
        {"vertices": [{"id": v, "order": 2} for v in "abc"], "edges": [["a", "b"]]}
    )
    assert p.components(complement=True) == (("a", "b", "c"),)
    # complete graph: all vertices complement-isolated
    k3 = parse_presentation(
        {
            "vertices": [{"id": v, "order": 2} for v in "abc"],
            "edges": [["a", "b"], ["a", "c"], ["b", "c"]],
        }
    )
    assert k3.components(complement=True) == (("a",), ("b",), ("c",))


def test_components_minus_star():
    p = parse_presentation(
        {
            "vertices": [{"id": v, "order": "inf"} for v in "abc"],
            "edges": [["a", "b"], ["b", "c"]],
        }
    )
    assert p.components_minus_star("b") == ()
    assert p.components_minus_star("a") == (("c",),)


def test_prime_power_parts():
    assert _factorization(2) == ((2, 2),)
    assert _factorization(12) == ((2, 4), (3, 3))
    assert _factorization(360) == ((2, 8), (3, 9), (5, 5))
    # trial division takes up to sqrt(n) steps; 2^40 itself is still factored
    assert MAX_ORDER == 2**40
    assert _factorization(2**40) == ((2, 2**40),)
    for order in (2**40 + 1, 2**61 - 1):
        with pytest.raises(PresentationError, match="above the supported ceiling"):
            _factorization(order)
    with pytest.raises(PresentationError, match="above the supported ceiling"):
        expand_to_primary(parse_presentation({"vertices": [{"id": "a", "factors": [6, 2**41]}]}))


def test_expand_to_primary_c6():
    p = parse_presentation({"vertices": [{"id": "a", "order": 6}, {"id": "b", "order": 2}]})
    q = expand_to_primary(p)
    assert q.vertex_ids == ("a.0", "a.1", "b")
    assert {q.order("a.0"), q.order("a.1")} == {2, 3}
    assert q.has_edge("a.0", "a.1") and not q.has_edge("a.0", "b")
    assert q.is_primary()
    # idempotent
    assert expand_to_primary(q) == q


def test_expand_to_primary_returns_primary_input_itself():
    for name in ("psl", "dinf", "path_raag", "c2c2c2", "z2_x_dinf"):
        p = named_presentation(name)
        assert p.is_primary() and expand_to_primary(p) is p
    q = expand_to_primary(named_presentation("c6_star_z"))  # a has order 6
    assert q.vertex_ids == ("a.0", "a.1", "b") and q.edges == (("a.0", "a.1"),)
    assert (q.order("a.0"), q.order("a.1"), q.order("b")) == (2, 3, None)


@pytest.mark.parametrize("order", [2, 6])
def test_part_id_clash_is_named(order):
    """a.0 is declared, and is also the name of part 0 of a (order 6 = 2 * 3).
    A composite a.0 would vanish into its own parts, but the CLI's word
    reader would still read a.0 as the declared vertex, not as the part."""
    p = parse_presentation({"vertices": [{"id": "a", "order": 6}, {"id": "a.0", "order": order}]})
    with pytest.raises(PresentationError, match=r"^vertex id 'a.0' clashes with part 0 of 'a'$"):
        expand_to_primary(p)


def test_expand_factors_vertex():
    p = parse_presentation(
        {
            "vertices": [{"id": "a", "factors": [6, "inf"]}, {"id": "b", "order": 2}],
            "edges": [["a", "b"]],
        }
    )
    assert not p.is_primary()
    q = expand_to_primary(p)
    assert len(q.vertices) == 4  # C2, C3, Z from a plus b
    ids = [v for v in q.vertex_ids if v.startswith("a.")]
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            assert q.has_edge(x, y)
        assert q.has_edge(x, "b")


def test_dot_output():
    p = parse_presentation(
        {"vertices": [{"id": "a", "order": 2}, {"id": "b", "order": "inf"}], "edges": [["a", "b"]]}
    )
    dot = p.to_dot()
    assert '"a" -- "b"' in dot and "a:2" in dot and "b:inf" in dot
    cdot = p.to_dot(complement=True)
    assert '"a" -- "b"' not in cdot


def test_vertexspec_validation():
    with pytest.raises(PresentationError):
        VertexSpec("a", order=1)
    with pytest.raises(PresentationError):
        VertexSpec("a", factors=())
    with pytest.raises(PresentationError):
        VertexSpec("a", order=2, factors=(2,))
    assert VertexSpec("a").order is None  # infinite cyclic


def test_json_obj_sorted_edges():
    p = parse_presentation(
        {
            "vertices": [{"id": v, "order": 2} for v in "cba"],
            "edges": [["a", "b"], ["c", "b"]],
        }
    )
    obj = p.to_json_obj()
    assert obj["edges"] == [["c", "b"], ["b", "a"]]
    assert json.loads(json.dumps(p.to_json_obj())) == json.loads(json.dumps(obj))
