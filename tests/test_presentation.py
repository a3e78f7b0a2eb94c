import json
import random

import pytest

from gpnorm import (
    PresentationError,
    VertexSpec,
    expand_to_primary,
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
