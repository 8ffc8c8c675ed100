import random

import pytest

from gradcons import (
    GraphMorphism,
    MatchError,
    MismatchError,
    Rule,
    TypedGraph,
    TypeGraph,
    apply,
    empty_graph,
    empty_morphism_into,
    enumerate_monomorphisms,
    extensions,
    inclusion,
    validate_graph,
)
from gradcons.generate import random_graph, random_host, random_type_graph

from .oracles import compose, monos_by_permutation, morphism_key


class TestTypeGraph:
    def test_rejects_duplicate_node_type(self):
        with pytest.raises(ValueError, match="duplicate node type"):
            TypeGraph(["A", "A"])

    def test_rejects_duplicate_edge_type(self):
        with pytest.raises(ValueError, match="duplicate edge type"):
            TypeGraph(["A"], [("e", "A", "A"), ("e", "A", "A")])

    def test_rejects_unknown_endpoint_type(self):
        with pytest.raises(ValueError, match="unknown node type"):
            TypeGraph(["A"], [("e", "A", "B")])

    def test_rejects_name_shared_between_kinds(self):
        with pytest.raises(ValueError, match="both nodes and edges"):
            TypeGraph(["A", "e"], [("e", "A", "A")])

    def test_equality_across_input_styles(self):
        a = TypeGraph(["A", "B"], [("e", "A", "B")])
        b = TypeGraph(("B", "A"), {"e": ("A", "B")})
        assert a == b
        assert hash(a) == hash(b)
        assert a.signature("e") == ("A", "B")

    def test_inequality(self):
        a = TypeGraph(["A"], [("e", "A", "A")])
        b = TypeGraph(["A"])
        assert a != b


class TestTypedGraph:
    def test_rejects_duplicate_ids(self, tg2):
        with pytest.raises(ValueError, match="duplicate node id"):
            TypedGraph(tg2, [("x", "A"), ("x", "B")])
        with pytest.raises(ValueError, match="duplicate element id"):
            TypedGraph(tg2, [("x", "A")], [("x", "aa", "x", "x")])

    def test_accessors(self, tg2):
        g = TypedGraph(
            tg2,
            [("a1", "A"), ("a2", "A"), ("b1", "B")],
            [("e1", "ab", "a1", "b1"), ("e2", "aa", "a1", "a2")],
        )
        assert g.node_count == 3 and g.edge_count == 2
        assert g.node_type("a1") == "A"
        assert g.edge_info("e1") == ("ab", "a1", "b1")
        assert g.nodes_of_type("A") == ("a1", "a2")
        assert g.edges_with_signature("ab", "a1", "b1") == ("e1",)
        assert set(g.incident_edges("a1")) == {"e1", "e2"}
        assert g.incident_edges("b1") == ("e1",)
        assert not g.is_empty()
        assert empty_graph(tg2).is_empty()

    def test_without_and_with_added_are_persistent(self, tg2):
        g = TypedGraph(tg2, [("a1", "A"), ("b1", "B")], [("e1", "ab", "a1", "b1")])
        smaller = g.without({"b1"}, {"e1"})
        assert smaller.node_ids == ("a1",) and smaller.edge_ids == ()
        bigger = smaller.with_added([("a2", "A")], [("e2", "aa", "a1", "a2")])
        assert bigger.node_ids == ("a1", "a2")
        assert g.node_ids == ("a1", "b1")

    def test_broken_edges_are_indexed_as_given(self, tg2):
        # An edge of unknown type is indexed; one with a dangling end is not.
        g = TypedGraph(
            tg2, [("a", "A")], [("e1", "zz", "a", "a"), ("e2", "ab", "a", "gone")]
        )
        assert g.edges_with_signature("zz", "a", "a") == ("e1",)
        assert g.edges_with_signature("ab", "a", "gone") == ()
        assert g.incident_edges("a") == ("e1",)

    def test_parallel_edges_are_distinct_elements(self, tg2):
        g = TypedGraph(
            tg2,
            [("a", "A"), ("b", "B")],
            [("e1", "ab", "a", "b"), ("e2", "ab", "a", "b")],
        )
        assert g.edges_with_signature("ab", "a", "b") == ("e1", "e2")


class TestValidateGraph:
    def test_clean_graph_has_no_problems(self, fixtures):
        assert validate_graph(fixtures.host) == []

    def test_reports_each_problem(self, tg2):
        g = TypedGraph(
            tg2,
            [("a", "A"), ("x", "Nope")],
            [("e1", "zz", "a", "a"), ("e2", "ab", "a", "gone"), ("e3", "ab", "a", "a")],
        )
        problems = "\n".join(validate_graph(g))
        assert "x" in problems  # unknown node type
        assert "e1" in problems  # unknown edge type
        assert "e2" in problems  # dangling endpoint
        assert "e3" in problems  # signature mismatch (target should be B)


class TestMorphisms:
    def test_identity_and_inclusion(self, tg2):
        g = TypedGraph(tg2, [("a", "A"), ("b", "B")], [("e", "ab", "a", "b")])
        i = inclusion(g, g)
        assert i.is_total() and i.is_injective()
        assert (i.domain.node_count, i.domain.edge_count) == (
            i.codomain.node_count, i.codomain.edge_count
        )
        sub = TypedGraph(tg2, [("a", "A")])
        inc = inclusion(sub, g)
        assert inc.node_map == {"a": "a"} and inc.check() == []

    def test_inclusion_requires_subgraph(self, tg2):
        g = TypedGraph(tg2, [("a", "A")])
        other = TypedGraph(tg2, [("c", "A")])
        with pytest.raises(MismatchError):
            inclusion(other, g)

    def test_check_flags_type_change_and_lost_endpoint(self, tg2):
        g = TypedGraph(tg2, [("a", "A"), ("b", "B")], [("e", "ab", "a", "b")])
        h = TypedGraph(tg2, [("x", "B"), ("y", "A")], [("f", "ab", "y", "x")])
        bad = GraphMorphism(g, h, {"a": "x", "b": "y"}, {"e": "f"})
        assert any("changes type" in p for p in bad.check())
        partial = GraphMorphism(g, h, {"a": "y"}, {"e": "f"})
        assert any("endpoint is not" in p for p in partial.check())

    @pytest.mark.parametrize("node_map, edge_map, problem", [
        ({"ghost": "y"}, {}, "maps absent node 'ghost'"),
        ({"a": "nowhere"}, {}, "node 'a' sent to absent node 'nowhere'"),
        ({"a": "x"}, {}, "node 'a' changes type under the map"),
        ({"a": "y", "b": "x"}, {"ghost": "f"}, "maps absent edge 'ghost'"),
        ({"a": "y", "b": "x"}, {"e": "nowhere"}, "edge 'e' sent to absent edge 'nowhere'"),
        ({"a": "y", "b": "x"}, {"e": "l"}, "edge 'e' changes type under the map"),
        ({"a": "y"}, {"e": "f"}, "edge 'e' is mapped but an endpoint is not"),
        ({"a": "z", "b": "x"}, {"e": "f"}, "edge 'e' does not commute with its endpoints"),
    ])
    def test_check_names_each_problem(self, tg2, node_map, edge_map, problem):
        g = TypedGraph(tg2, [("a", "A"), ("b", "B")], [("e", "ab", "a", "b")])
        h = TypedGraph(tg2, [("x", "B"), ("y", "A"), ("z", "A")],
                       [("f", "ab", "y", "x"), ("l", "aa", "y", "y")])
        assert problem in GraphMorphism(g, h, node_map, edge_map).check()

    def test_compose_is_diagrammatic_and_partial_aware(self, tg2):
        g = TypedGraph(tg2, [("a", "A"), ("a2", "A")])
        h = TypedGraph(tg2, [("x", "A"), ("y", "A")])
        k = TypedGraph(tg2, [("u", "A")])
        f = GraphMorphism(g, h, {"a": "x", "a2": "y"}, {})
        s = GraphMorphism(h, k, {"x": "u"}, {})
        both = compose(f, s)
        assert both.node_map == {"a": "u"}
        assert not both.is_total()
        with pytest.raises(MismatchError):
            compose(s, f)

    def test_a_map_of_the_right_size_off_the_domain_ids_is_partial(self, tg2):
        single = TypedGraph(tg2, [("v", "A")])
        host = TypedGraph(tg2, [("a1", "A")])
        misnamed = GraphMorphism(single, host, {"x": "a1"}, {})
        assert not misnamed.is_total()
        assert repr(misnamed).startswith("GraphMorphism(partial,")
        with pytest.raises(MatchError, match="total and injective"):
            apply(Rule("keep", single, single, single), host, misnamed)

    def test_empty_morphism_into(self, tg2):
        g = TypedGraph(tg2, [("a", "A")])
        m = empty_morphism_into(g)
        assert m.domain.is_empty() and m.codomain == g
        assert m.is_total() and m.is_injective()


class TestEnumerateMonomorphisms:
    def test_single_node_pattern_counts_nodes_of_type(self, tg2):
        pattern = TypedGraph(tg2, [("p", "A")])
        host = TypedGraph(tg2, [("a1", "A"), ("a2", "A"), ("b", "B")])
        found = enumerate_monomorphisms(pattern, host)
        assert [m.node_map["p"] for m in found] == ["a1", "a2"]

    def test_empty_pattern_has_one_empty_occurrence(self, tg2):
        empty = empty_graph(tg2)
        for host in (empty, TypedGraph(tg2, [("a", "A")])):
            found = enumerate_monomorphisms(empty, host)
            assert [(m.node_map, m.edge_map) for m in found] == [({}, {})]
            assert len(monos_by_permutation(empty, host)) == 1

    def test_type_graph_mismatch_is_rejected(self, tg2):
        other = TypeGraph(["A"])
        host = TypedGraph(other, [("a", "A")])
        for pattern in (TypedGraph(tg2, [("p", "A")]),
                        TypedGraph(tg2, [("p", "A"), ("q", "A")])):
            with pytest.raises(MismatchError):
                enumerate_monomorphisms(pattern, host)

    def test_parallel_edges_give_distinct_occurrences(self, tg2):
        pattern = TypedGraph(tg2, [("p", "A"), ("q", "B")], [("pe", "ab", "p", "q")])
        host = TypedGraph(
            tg2,
            [("a", "A"), ("b", "B")],
            [("e1", "ab", "a", "b"), ("e2", "ab", "a", "b")],
        )
        found = enumerate_monomorphisms(pattern, host)
        assert [m.edge_map["pe"] for m in found] == ["e1", "e2"]

    def test_pattern_with_two_parallel_edges_needs_two_host_edges(self, tg2):
        pattern = TypedGraph(
            tg2,
            [("p", "A"), ("q", "B")],
            [("pe1", "ab", "p", "q"), ("pe2", "ab", "p", "q")],
        )
        host1 = TypedGraph(tg2, [("a", "A"), ("b", "B")], [("e1", "ab", "a", "b")])
        host2 = host1.with_added([], [("e2", "ab", "a", "b")])
        assert enumerate_monomorphisms(pattern, host1) == []
        found = enumerate_monomorphisms(pattern, host2)
        # Two edges, assigned injectively in both orders.
        assert len(found) == 2

    def test_seeded_enumeration_respects_the_seed(self, tg2):
        pattern = TypedGraph(tg2, [("p", "A"), ("q", "A")], [("pe", "aa", "p", "q")])
        host = TypedGraph(
            tg2,
            [("x", "A"), ("y", "A"), ("z", "A")],
            [("e1", "aa", "x", "y"), ("e2", "aa", "x", "z")],
        )
        # Seeded through the extensions along the inclusion of the seeded nodes.
        seeds = TypedGraph(tg2, [("p", "A"), ("q", "A")])
        p = GraphMorphism(seeds, host, {"p": "x", "q": "z"}, {})
        found = extensions(p, inclusion(seeds, pattern))
        assert len(found) == 1 and found[0].edge_map["pe"] == "e2"

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(7)
        for case in range(60):
            tg = random_type_graph(rng, max_node_types=2, max_edge_types=2)
            pattern = random_graph(tg, rng, max_nodes=3, id_prefix="p")
            host = random_host(tg, rng, rng.randint(0, 4), edge_probability=0.4)
            got = sorted(morphism_key(m) for m in enumerate_monomorphisms(pattern, host))
            want = sorted(morphism_key(m) for m in monos_by_permutation(pattern, host))
            assert got == want, f"case {case}"

    def test_matches_oracle_with_parallel_edges(self, tg2):
        rng = random.Random(11)
        host = TypedGraph(
            tg2,
            [("a1", "A"), ("a2", "A"), ("b1", "B")],
            [
                ("e1", "ab", "a1", "b1"), ("e2", "ab", "a1", "b1"),
                ("e3", "ab", "a2", "b1"), ("e4", "aa", "a1", "a2"),
                ("e5", "aa", "a1", "a2"), ("e6", "aa", "a1", "a1"),
            ],
        )
        for _ in range(20):
            pattern = random_graph(tg2, rng, max_nodes=3, id_prefix="p")
            got = sorted(morphism_key(m) for m in enumerate_monomorphisms(pattern, host))
            want = sorted(morphism_key(m) for m in monos_by_permutation(pattern, host))
            assert got == want

    def test_enumeration_order_is_canonical_and_stable(self, fixtures):
        pattern = fixtures.rules["moveFeature"].lhs
        first = enumerate_monomorphisms(pattern, fixtures.host)
        second = enumerate_monomorphisms(pattern, fixtures.host)
        assert [morphism_key(m) for m in first] == [morphism_key(m) for m in second]
        assert [morphism_key(m) for m in first] == sorted(morphism_key(m) for m in first)
