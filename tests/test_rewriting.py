import random

import pytest

from gradcons import (
    Exists,
    GraphMorphism,
    MatchError,
    Not,
    Rule,
    RuleError,
    TypedGraph,
    apply,
    empty_graph,
    find_matches,
    inclusion,
    scan_matches,
)
from gradcons.generate import random_host, random_rule, random_type_graph

from .oracles import dpo_by_sets, morphism_key


@pytest.fixture
def delete_a(tg2):
    lhs = TypedGraph(tg2, [("d", "A")])
    return Rule("deleteA", lhs, empty_graph(tg2), empty_graph(tg2))


class TestRuleValidation:
    def test_interface_must_be_subgraph_of_both_sides(self, tg2):
        k = TypedGraph(tg2, [("x", "A")])
        lhs = TypedGraph(tg2, [("y", "A")])
        with pytest.raises(RuleError, match="interface is not part of the lhs"):
            Rule("r", lhs, k, k)

    def test_side_overlap_must_equal_interface(self, tg2):
        shared = TypedGraph(tg2, [("x", "A")])
        k = empty_graph(tg2)
        with pytest.raises(RuleError, match="overlap must be exactly the interface"):
            Rule("r", shared, k, shared)

    def test_sides_must_be_well_typed(self, tg2):
        bad = TypedGraph(tg2, [("x", "A")], [("e", "ab", "x", "ghost")])
        with pytest.raises(RuleError, match="not well-typed"):
            Rule("r", bad, TypedGraph(tg2, [("x", "A")]), TypedGraph(tg2, [("x", "A")]))

    def test_sides_must_share_one_type_graph(self, tg2, fixtures):
        with pytest.raises(RuleError, match="sides typed over different type graphs"):
            Rule("r", empty_graph(tg2), empty_graph(tg2), empty_graph(fixtures.type_graph))

    def test_condition_must_anchor_at_lhs(self, tg2):
        lhs = TypedGraph(tg2, [("x", "A")])
        other = TypedGraph(tg2, [("z", "B")])
        bigger = other.with_added([("z2", "B")])
        with pytest.raises(RuleError, match="anchored at the lhs"):
            Rule("r", lhs, lhs, lhs, Not(Exists(inclusion(other, bigger))))

    def test_deleted_and_created_parts(self, fixtures):
        mf = fixtures.rules["moveFeature"]
        assert mf.deleted_nodes == () and mf.deleted_edges == ("e_old",)
        assert mf.created_nodes == () and mf.created_edges == ("e_new",)
        assert not mf.is_plain()
        dec = fixtures.rules["deleteEmptyClass"]
        assert dec.deleted_nodes == ("c",)


class TestMatching:
    def test_check_rule_matches_are_occurrences(self, fixtures):
        pattern = fixtures.rules["moveFeature"].lhs
        check = Rule("check", pattern, pattern, pattern)
        assert not (check.deleted_nodes or check.deleted_edges
                    or check.created_nodes or check.created_edges)
        t = apply(check, fixtures.host, find_matches(check, fixtures.host)[0])
        assert t.result == fixtures.host
        assert t.track.is_total()

    def test_scan_counts_on_the_example_host(self, fixtures):
        host = fixtures.host
        scan = scan_matches(fixtures.rules["assignFeature"], host)
        assert (len(scan.matches), scan.rejected_by_condition) == (0, 6)
        scan = scan_matches(fixtures.rules["createClass"], host)
        assert (len(scan.matches), scan.rejected_by_condition) == (0, 3)
        scan = scan_matches(fixtures.rules["deleteEmptyClass"], host)
        assert (len(scan.matches), scan.rejected_by_condition) == (0, 2)
        scan = scan_matches(fixtures.rules["moveFeature"], host)
        assert len(scan.matches) == 3
        assert scan.rejected_by_condition == 0 and scan.rejected_by_dangling == 0

    def test_dangling_edges_block_node_deletion(self, tg2, delete_a):
        host = TypedGraph(
            tg2, [("a", "A"), ("b", "B")], [("e", "ab", "a", "b")]
        )
        scan = scan_matches(delete_a, host)
        assert scan.matches == () and scan.rejected_by_dangling == 1
        isolated = TypedGraph(tg2, [("a", "A"), ("b", "B")])
        assert len(find_matches(delete_a, isolated)) == 1

    def test_loop_counts_as_one_incidence(self, tg2, delete_a):
        host = TypedGraph(tg2, [("a", "A")], [("l", "aa", "a", "a")])
        # the loop is not in the match image, so deletion must be blocked
        assert find_matches(delete_a, host) == []


class TestApply:
    def test_result_matches_set_arithmetic_on_each_example_rule(self, fixtures):
        host = fixtures.host
        cases = []
        mf = fixtures.rules["moveFeature"]
        cases.extend((mf, m) for m in find_matches(mf, host))
        # unassign f3, then its class is deletable and f3 assignable
        shrunk = host.without(set(), {"asg_f3"})
        for name in ("assignFeature", "createClass", "deleteEmptyClass"):
            rule = fixtures.rules[name]
            cases.extend((rule, m) for m in find_matches(rule, shrunk))
        assert len(cases) >= 6
        for rule, match in cases:
            t = apply(rule, match.codomain, match, step=3)
            assert t.result == dpo_by_sets(rule, match.codomain, match, step=3)

    def test_created_ids_are_deterministic_and_collision_safe(self, tg2):
        lhs = empty_graph(tg2)
        rhs = TypedGraph(tg2, [("m0", "A")])
        rule = Rule("mk", lhs, lhs, rhs)
        host = TypedGraph(tg2, [("mk.0.m0", "B")])
        match = GraphMorphism(lhs, host, {}, {})
        t = apply(rule, host, match)
        assert set(t.result.node_ids) == {"mk.0.m0", "mk.0.m0~0"}
        assert t.result == dpo_by_sets(rule, host, match)
        again = apply(rule, host, match)
        assert again.result == t.result
        assert apply(rule, host, match, step=1).result.has_node("mk.1.m0")

    def test_boundary_morphisms(self, fixtures):
        host = fixtures.host
        mf = fixtures.rules["moveFeature"]
        match = find_matches(mf, host)[0]
        t = apply(mf, host, match)
        assert t.context == host.without(set(), {match.edge_map["e_old"]})
        assert t.host_embedding.node_map == {n: n for n in t.context.node_ids}
        assert t.result_embedding.edge_map == {e: e for e in t.context.edge_ids}
        assert t.comatch.is_total() and t.comatch.check() == []
        # track is the partial identity on the surviving part
        assert t.track.node_map == {n: n for n in t.context.node_ids}
        assert match.edge_map["e_old"] not in t.track.edge_map

    def test_precondition_violations_raise(self, tg2, fixtures, delete_a):
        host = fixtures.host
        mf = fixtures.rules["moveFeature"]
        good = find_matches(mf, host)[0]
        with pytest.raises(MatchError, match="domain"):
            apply(mf, host, GraphMorphism(mf.rhs, host, good.node_map, {}))
        partial = GraphMorphism(mf.lhs, host, dict(list(good.node_map.items())[:1]), {})
        with pytest.raises(MatchError, match="total"):
            apply(mf, host, partial)
        with pytest.raises(MatchError, match="codomain is not the host"):
            apply(mf, apply(mf, host, good).result, good)
        # total and injective, but e_old runs from f1 to c1, not to c2
        twisted = GraphMorphism(
            mf.lhs, host,
            {"f": "f1", "c_src": "c2", "c_tgt": "c1"},
            {"e_old": "asg_f1"},
        )
        with pytest.raises(MatchError) as err:
            apply(mf, host, twisted)
        assert str(err.value) == ("match is not structure-preserving: "
                                  "edge 'e_old' does not commute with its endpoints")
        squash = GraphMorphism(
            mf.lhs, host,
            {"f": "f1", "c_src": "c1", "c_tgt": "c1"},
            {"e_old": "asg_f1"},
        )
        with pytest.raises(MatchError, match="injective"):
            apply(mf, host, squash)
        # structurally fine, but the application condition forbids it
        af = fixtures.rules["assignFeature"]
        mono = GraphMorphism(af.lhs, host, {"f": "f1", "c": "c1"}, {})
        with pytest.raises(MatchError, match="application condition"):
            apply(af, host, mono)
        dangling_host = TypedGraph(tg2, [("a", "A"), ("b", "B")], [("e", "ab", "a", "b")])
        mono = GraphMorphism(delete_a.lhs, dangling_host, {"d": "a"}, {})
        with pytest.raises(MatchError, match="gluing"):
            apply(delete_a, dangling_host, mono)

    def test_random_steps_match_set_arithmetic(self):
        rng = random.Random(31)
        steps = 0
        for case in range(160):
            tg = random_type_graph(rng, max_node_types=2, max_edge_types=2)
            rule = random_rule(tg, rng, name=f"r{case}")
            host = random_host(tg, rng, rng.randint(1, 4), edge_probability=0.4)
            for match in find_matches(rule, host)[:3]:
                t = apply(rule, host, match, step=case)
                assert t.result == dpo_by_sets(rule, host, match, step=case), (
                    f"case {case} at {morphism_key(match)}"
                )
                steps += 1
        assert steps >= 60
