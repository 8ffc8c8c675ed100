import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradcons import (
    BoundError,
    Constraint,
    Exists,
    GraphMorphism,
    MismatchError,
    Rule,
    TypedGraph,
    TypeGraph,
    apply,
    bounded_hosts,
    classify_rule_empirical,
    classify_step,
    consistency_report,
    empty_graph,
    empty_morphism_into,
    find_matches,
    forall,
    inclusion,
    validate_graph,
)
from gradcons import classify, conditions, rewriting
from gradcons.classify import (
    NO_COUNTEREXAMPLE,
    NO_WITNESS,
    PROVEN_NO,
    WITNESS_FOUND,
    _MAX_UNIVERSE_WORK,
    _bounded_hosts_cached,
    _edge_types_by_source,
    _hosts_for_split,
    _least_masks,
    _split_ids,
)
from gradcons.generate import random_host, random_linear_constraint

from . import oracles
from .oracles import (
    RULE_CLAIMS,
    STEP_FLAGS,
    classify_rule_reference,
    classify_step_reference,
    monos_by_permutation,
)
from .suites import (
    has_two_loop_types_on_one_node_type,
    random_rule_pairs,
    random_step_cases,
    seeded_cra_model,
    with_parallel_edges,
)


def _changed_ids(t):
    """The ids a step changed: the removed host node and edge ids as one
    set, and the created ids, nodes first."""
    nodes, edges = t.created
    return t.removed_nodes | t.removed_edges, (*nodes, *edges)


def _one_step(rule, host, **picks):
    matches = [
        m for m in find_matches(rule, host)
        if all(m.node_map[k] == v for k, v in picks.items())
    ]
    assert len(matches) == 1
    return apply(rule, host, matches[0])


class TestClassifyStepUniversal:
    def test_invalidated_occurrence_breaks_direct_sustainment(self, fixtures):
        t = _one_step(fixtures.rules["moveFeature"], fixtures.host,
                      f="f1", c_src="c1", c_tgt="c2")
        v = classify_step(t, fixtures.constraints["c3"])
        assert v.preserving and not v.guaranteeing
        assert not v.sustaining and not v.improving
        assert not v.directly_sustaining
        assert set(v.evidence) == {"invalidated_occurrence"}
        # the occurrence that had a fallback and lost it
        assert v.evidence["invalidated_occurrence"].node_map["F1"] == "f2"

    def test_new_violating_occurrence(self, fixtures):
        tg = fixtures.type_graph
        host = TypedGraph(
            tg,
            [("c1", "Class"), ("c2", "Class"), ("f1", "Feature"), ("f3", "Feature")],
            [("a3", "isAssigned", "f3", "c2"), ("d13", "dependsOn", "f1", "f3")],
        )
        t = _one_step(fixtures.rules["assignFeature"], host, f="f1", c="c1")
        v = classify_step(t, fixtures.constraints["c3"])
        assert v.report_before.satisfied and not v.report_after.satisfied
        assert not v.preserving and not v.directly_sustaining
        assert set(v.evidence) == {"new_violating_occurrence"}
        assert v.evidence["new_violating_occurrence"].node_map["F1"] == "f1"
        assert v.evidence["new_violating_occurrence"].codomain is t.result

    def test_destroyed_occurrence_improves_directly(self, fixtures):
        tg = fixtures.type_graph
        host = TypedGraph(
            tg,
            [("c1", "Class"), ("c2", "Class"), ("f1", "Feature"), ("f3", "Feature")],
            [("a1", "isAssigned", "f1", "c1"), ("a3", "isAssigned", "f3", "c2"),
             ("d13", "dependsOn", "f1", "f3")],
        )
        t = _one_step(fixtures.rules["moveFeature"], host, f="f1", c_tgt="c2")
        v = classify_step(t, fixtures.constraints["c3"])
        assert v.guaranteeing and v.sustaining and v.improving
        assert v.directly_sustaining and v.directly_improving
        assert set(v.evidence) == {"destroyed_occurrence"}

    def test_repaired_occurrence_improves_directly(self, fixtures):
        tg = fixtures.type_graph
        host = TypedGraph(
            tg,
            [("c1", "Class"), ("c2", "Class"),
             ("f1", "Feature"), ("f3", "Feature"), ("f4", "Feature")],
            [("a1", "isAssigned", "f1", "c1"), ("a3", "isAssigned", "f3", "c2"),
             ("d13", "dependsOn", "f1", "f3"), ("d14", "dependsOn", "f1", "f4")],
        )
        t = _one_step(fixtures.rules["assignFeature"], host, f="f4", c="c1")
        v = classify_step(t, fixtures.constraints["c3"])
        assert v.directly_improving and v.improving
        assert set(v.evidence) == {"repaired_occurrence"}
        assert v.evidence["repaired_occurrence"].node_map == {
            "F1": "f1", "F2": "f3", "C1": "c1", "C2": "c2",
        }

    def test_precomputed_report_changes_nothing(self, fixtures):
        t = _one_step(fixtures.rules["moveFeature"], fixtures.host,
                      f="f1", c_src="c1", c_tgt="c2")
        c3 = fixtures.constraints["c3"]
        before = consistency_report(fixtures.host, c3)
        assert classify_step(t, c3, report_before=before) == classify_step(t, c3)

    def test_a_report_of_another_graph_or_constraint_is_refused(self, fixtures):
        """``report_before`` must measure the step's host against the same
        constraint; an equal copy of the host is the same graph."""
        t = _one_step(fixtures.rules["moveFeature"], fixtures.host, f="f3")
        c2, c3 = fixtures.constraints["c2"], fixtures.constraints["c3"]
        assert classify_step(t, c3).improving
        with pytest.raises(MismatchError, match="does not measure the host"):
            classify_step(t, c3, report_before=consistency_report(fixtures.host, c2))
        renamed = Constraint("c3", c2.condition)
        with pytest.raises(MismatchError, match="does not measure the host"):
            classify_step(t, c3, report_before=consistency_report(fixtures.host, renamed))
        with pytest.raises(MismatchError, match="does not measure the host"):
            classify_step(t, c3, report_before=consistency_report(t.result, c3))
        copy = TypedGraph(fixtures.type_graph, fixtures.host.node_items(),
                          fixtures.host.edge_items())
        assert (classify_step(t, c3, report_before=consistency_report(copy, c3))
                == classify_step(t, c3))

    def test_a_report_of_another_body_is_refused(self, fixtures):
        """A report of a constraint with the same name and outer pattern
        but another body measures something else: here the fallback
        feature F3 sits in the target class C2 instead of C1."""
        c3 = fixtures.constraints["c3"]
        p3 = c3.shape.outer_graph
        ext = p3.with_added([("F3", "Feature")], [("as3", "isAssigned", "F3", "C2"),
                                                  ("dep2", "dependsOn", "F1", "F3")])
        variant = Constraint("c3", forall(empty_morphism_into(p3), Exists(inclusion(p3, ext))))
        assert variant.shape.outer_graph == p3 and variant != c3
        rule, host = fixtures.rules["moveFeature"], fixtures.host
        other = consistency_report(host, variant)
        steps = [apply(rule, host, m) for m in find_matches(rule, host)]
        assert len(steps) == 3
        for t in steps:
            with pytest.raises(MismatchError, match="does not measure the host"):
                classify_step(t, c3, report_before=other)
            assert classify_step(t, variant, report_before=other) == classify_step(t, variant)

    def test_evidence_is_built_on_read(self, fixtures, monkeypatch):
        """A verdict keeps the keys of its evidence: classifying builds no
        morphism beyond those of measuring host and result, and each read
        of ``evidence`` builds one per label."""
        t = _one_step(fixtures.rules["moveFeature"], fixtures.host, f="f3")
        constraints = fixtures.constraint_list()
        built = Counter()

        def counting(cls, *args, _inner=GraphMorphism.from_key.__func__):
            built["from_key"] += 1
            return _inner(cls, *args)

        monkeypatch.setattr(GraphMorphism, "from_key", classmethod(counting))
        for c in constraints:
            consistency_report(t.host, c), consistency_report(t.result, c)
        measuring = built["from_key"]
        verdicts = [classify_step(t, c) for c in constraints]
        assert built["from_key"] == 2 * measuring
        evidence = [v.evidence for v in verdicts]
        assert built["from_key"] == 2 * measuring + 2
        assert [sorted(e) for e in evidence] == [
            [], ["invalidated_occurrence"], ["destroyed_occurrence"]]
        assert all(m.codomain is t.host for e in evidence for m in e.values())
        assert verdicts[2].evidence_keys == {"destroyed_occurrence": (
            "c1", "c2", "f1", "f3", "asg_f1", "asg_f3", "dep_13")}

    def test_direct_sustainment_without_sustainment(self):
        # Every looped node needs an r0 edge to another node. T02 lacks one;
        # the step deletes T01's loop and its edge to T00, so T01's valid
        # occurrence is destroyed while T00 keeps its edge to T01. No
        # occurrence is invalidated, yet ci drops from 2/3 to 1/2. These are
        # the flags as the engine defines them today: the aggregate and the
        # occurrence-wise sustainment disagree here, and which reading the
        # paper intends is left open.
        tg = TypeGraph(["T0"], [("r0", "T0", "T0")])
        looped = TypedGraph(tg, [("x", "T0")], [("l", "r0", "x", "x")])
        linked = looped.with_added([("y", "T0")], [("e", "r0", "x", "y")])
        constraint = Constraint(
            "looped_links_out",
            forall(empty_morphism_into(looped), Exists(inclusion(looped, linked))),
        )
        host = TypedGraph(
            tg,
            [("T00", "T0"), ("T01", "T0"), ("T02", "T0")],
            [("l0", "r0", "T00", "T00"), ("l1", "r0", "T01", "T01"),
             ("l2", "r0", "T02", "T02"),
             ("e01", "r0", "T00", "T01"), ("e10", "r0", "T01", "T00")],
        )
        lhs = TypedGraph(
            tg, [("a", "T0"), ("b", "T0")],
            [("la", "r0", "a", "a"), ("ab", "r0", "a", "b")],
        )
        kept = TypedGraph(tg, [("a", "T0"), ("b", "T0")])
        cut = Rule("cutLoopAndLink", lhs, kept, kept)
        t = _one_step(cut, host, a="T01", b="T00")
        v = classify_step(t, constraint)
        assert (v.report_before.ci, v.report_after.ci) == (Fraction(2, 3), Fraction(1, 2))
        assert v.directly_sustaining and not v.sustaining
        assert v.preserving and not v.guaranteeing
        assert not v.improving and not v.directly_improving
        assert v.evidence == {}

    def test_count_comparisons_agree_with_the_fractions(self):
        """``satisfied`` and the sustaining test read the counts, not
        ``ci``; on every report with ro <= 6 they agree with the exact
        fractions, ro = 0 reading as ci = 1."""
        exact = {(ro, ncv): Fraction(1) if ro == 0 else Fraction(ro - ncv, ro)
                 for ro in range(7) for ncv in range(ro + 1)}
        reports = [conditions.ConsistencyReport("c", conditions.UNIVERSAL, ro, ncv)
                   for ro, ncv in exact]
        assert len(reports) == 28
        for before in reports:
            ci_before = exact[before.ro, before.ncv]
            assert before.ci == ci_before
            assert before.satisfied == (ci_before == 1)
            for after in reports:
                ci_after = exact[after.ro, after.ncv]
                assert classify._ci_at_most(before, after) == (ci_before <= ci_after), (
                    before, after)


class TestClassifyStepExistential:
    @pytest.fixture
    def setup(self, tg2):
        single = TypedGraph(tg2, [("p", "A")])
        constraint = Constraint("some_a", Exists(empty_morphism_into(single)))
        lhs = empty_graph(tg2)
        create = Rule("createA", lhs, lhs, TypedGraph(tg2, [("m", "A")]))
        erase = Rule("eraseA", TypedGraph(tg2, [("d", "A")]), lhs, lhs)
        return constraint, create, erase

    def test_creating_the_witness_guarantees_and_improves(self, tg2, setup):
        constraint, create, _ = setup
        host = TypedGraph(tg2, [("b", "B")])
        t = apply(create, host, GraphMorphism(create.lhs, host, {}, {}))
        v = classify_step(t, constraint)
        assert v.guaranteeing and v.preserving and v.sustaining
        assert v.directly_sustaining and v.directly_improving and v.improving

    def test_removing_the_last_witness_preserves_nothing(self, tg2, setup):
        constraint, _, erase = setup
        host = TypedGraph(tg2, [("a", "A")])
        t = apply(erase, host, GraphMorphism(erase.lhs, host, {"d": "a"}, {}))
        v = classify_step(t, constraint)
        assert not v.preserving and not v.directly_sustaining
        assert not v.sustaining

    def test_noop_on_satisfied_host_sustains(self, tg2, setup):
        constraint, create, _ = setup
        host = TypedGraph(tg2, [("a", "A")])
        t = apply(create, host, GraphMorphism(create.lhs, host, {}, {}))
        v = classify_step(t, constraint)
        assert v.preserving and v.directly_sustaining
        assert not v.improving and not v.directly_improving


class TestBoundedHosts:
    def test_loop_universe_count_matches_orbit_arithmetic(self):
        tg = TypeGraph(["X"], [("e", "X", "X")])
        # sizes 0,1,2 contribute 1, 2, and 10 isomorphism classes
        assert len(bounded_hosts(tg, 2)) == 13

    def test_minimum_node_counts_prune(self):
        tg = TypeGraph(["X"], [("e", "X", "X")])
        assert len(bounded_hosts(tg, 2, {"X": 1})) == 12
        assert len(bounded_hosts(tg, 2, {"X": 3})) == 0
        # No host has a node of a type that the type graph lacks.
        assert bounded_hosts(tg, 2, {"Z": 1}) == ()
        assert len(bounded_hosts(tg, 2, {"Z": 0})) == 13

    def test_universe_members_are_valid_and_pairwise_nonisomorphic(self, tg2):
        hosts = bounded_hosts(tg2, 2)
        for g in hosts:
            assert validate_graph(g) == []
            assert g.node_count <= 2
        for i, g in enumerate(hosts):
            for h in hosts[i + 1:]:
                if g.node_count != h.node_count or g.edge_count != h.edge_count:
                    continue
                isos = [
                    m for m in monos_by_permutation(g, h)
                    if len(set(m.edge_map.values())) == h.edge_count
                ]
                assert not isos, "universe contains an isomorphic pair"

    def test_edgeless_type_is_not_permuted(self):
        # Without edge slots every split has one host, so no permutation of
        # its nodes is needed: permuting them built 8! tuples (4.9 MB).
        tracemalloc.start()
        try:
            hosts = bounded_hosts(TypeGraph(["A"]), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [g.node_count for g in hosts] == list(range(9))
        assert peak < 1_000_000

    def test_splits_name_only_the_types_they_have(self, monkeypatch):
        # The work of a split follows its own node types, not all those of
        # the type graph, and the edge-type table is read once per universe.
        splits = []
        reads = Counter()
        inner = _hosts_for_split
        edge_types = TypeGraph.edge_types

        def recording(tg, types, counts, leaving):
            splits.append(counts)
            return inner(tg, types, counts, leaving)

        def counting(self):
            reads["edge_types"] += 1
            return edge_types.fget(self)

        monkeypatch.setattr(classify, "_hosts_for_split", recording)
        monkeypatch.setattr(TypeGraph, "edge_types", property(counting))
        tg = TypeGraph([f"T{i:02d}" for i in range(30)], [("r", "T00", "T01")])
        hosts = _bounded_hosts_cached.__wrapped__(tg, 2, ())
        assert len(splits) == 1 + 30 + 465 and all(all(counts) for counts in splits)
        assert len(hosts) == 497 and sum(g.edge_count for g in hosts) == 1
        assert reads == {"edge_types": 1}

    def test_many_edgeless_types(self):
        tg = TypeGraph([f"T{i:03d}" for i in range(300)])
        assert len(_bounded_hosts_cached.__wrapped__(tg, 2, ())) == 45_451

    def test_cached_between_calls(self, tg2):
        assert bounded_hosts(tg2, 2) is bounded_hosts(tg2, 2)

    def test_node_type_named_like_the_edge_ids(self):
        # Nodes of type "e" are e0, e1, ...: the edge ids avoid them, and
        # the universe is the same as with the type renamed.
        hosts = bounded_hosts(TypeGraph(["e"], [("r", "e", "e")]), 2)
        renamed = bounded_hosts(TypeGraph(["X"], [("r", "X", "X")]), 2)
        assert len(hosts) == len(renamed) == 13
        for g, h in zip(hosts, renamed):
            assert validate_graph(g) == []
            assert g.node_ids == tuple(n.replace("X", "e") for n in h.node_ids)
            assert not set(g.node_ids) & set(g.edge_ids)
            assert g.edge_count == h.edge_count

    def test_ids_stay_unique_across_node_types(self):
        # "A10" is both the 11th node of type A and the first of type A1.
        node_ids, edge_ids = _split_ids(("A", "A1", "e"), (11, 1, 1), 3)
        assert node_ids["A"] == tuple(f"A{i}" for i in range(11))
        assert node_ids["A1"] == ("A10~0",)
        assert node_ids["e"] == ("e0",)
        assert edge_ids == ["e0~0", "e1", "e2"]


# Type graphs like those of the benchmark's rule searches.
SEARCH_TYPE_GRAPHS = [
    TypeGraph(["T0", "T1"], [("r0", "T0", "T1")]),
    TypeGraph(["T0", "T1"], [("r0", "T0", "T1"), ("r1", "T1", "T0")]),
    TypeGraph(["T0", "T1"], [("r0", "T0", "T1"), ("r1", "T0", "T1")]),
    TypeGraph(["T0"], [("r0", "T0", "T0")]),
    TypeGraph(["T0", "T1"], [("r0", "T0", "T0"), ("r1", "T0", "T1")]),
    TypeGraph(["T0", "T1"], [("r0", "T1", "T1"), ("r1", "T1", "T0")]),
]
TWO_LOOPS = TypeGraph(["T"], [("r0", "T", "T"), ("r1", "T", "T")])
# Eight nodes of one type and one of another with one edge type between
# them: 8! = 40 320 permutations, the widest group the work guard admits.
STAR = TypeGraph(["A", "B"], [("e", "A", "B")])


def universe_data(build, *args):
    """The hosts' elements in order, or None when the universe is refused."""
    try:
        return [(g.node_items(), g.edge_items()) for g in build(*args)]
    except BoundError:
        return None


@st.composite
def small_type_graphs(draw):
    node_types = draw(st.lists(st.sampled_from(["A", "A1", "B", "e"]), min_size=1,
                               max_size=3, unique=True))
    signatures = draw(st.lists(st.tuples(st.sampled_from(node_types),
                                         st.sampled_from(node_types)), max_size=4))
    return TypeGraph(node_types, [(f"r{i}", s, t) for i, (s, t) in enumerate(signatures)])


class TestUniverseAgainstScan:
    """bounded_hosts against a scan of every mask against every permutation."""

    @pytest.mark.parametrize("tg", SEARCH_TYPE_GRAPHS)
    def test_search_type_graphs_at_bound_three(self, tg):
        expected = universe_data(oracles.bounded_hosts_by_scan, tg, 3)
        assert expected and universe_data(bounded_hosts, tg, 3) == expected

    def test_two_loop_splits_at_bound_three(self):
        sizes = []
        for n in range(4):
            expected = universe_data(oracles.split_hosts_by_scan, TWO_LOOPS, ("T",), (n,))
            assert universe_data(_hosts_for_split, TWO_LOOPS, ("T",), (n,),
                                 _edge_types_by_source(TWO_LOOPS)) == expected
            sizes.append(len(expected))
        assert sizes == [1, 4, 136, 44_224]

    def test_cra_rules_at_bound_four(self, fixtures):
        for rule in fixtures.rule_list():
            needed = {}
            for v in rule.lhs.node_ids:
                needed[rule.lhs.node_type(v)] = needed.get(rule.lhs.node_type(v), 0) + 1
            expected = universe_data(oracles.bounded_hosts_by_scan, fixtures.type_graph, 4, needed)
            assert expected
            assert universe_data(bounded_hosts, fixtures.type_graph, 4, needed) == expected

    def test_widest_admitted_group_and_the_next(self):
        for bound, mins in ((9, {"A": 8, "B": 1}), (10, {"A": 9, "B": 1})):
            expected = universe_data(oracles.bounded_hosts_by_scan, STAR, bound, mins)
            assert universe_data(bounded_hosts, STAR, bound, mins) == expected
        assert len(universe_data(bounded_hosts, STAR, 9, {"A": 8, "B": 1})) == 9
        assert universe_data(bounded_hosts, STAR, 10, {"A": 9, "B": 1}) is None

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(small_type_graphs(), st.integers(0, 4),
           st.dictionaries(st.sampled_from(["A", "B", "e", "Z"]), st.integers(0, 2), max_size=2))
    def test_random_type_graphs(self, tg, bound, mins):
        work = [w for _, w in oracles.universe_splits(tg, bound, mins)]
        # Admitted universes that take the scan more than a moment are
        # left to the fixed cases above.
        assume(max(work, default=0) > _MAX_UNIVERSE_WORK or sum(work) <= 2 ** 20)
        expected = universe_data(oracles.bounded_hosts_by_scan, tg, bound, mins)
        assert universe_data(bounded_hosts, tg, bound, mins) == expected


@pytest.mark.parametrize("slots, groups, n_least, bound", [
    # Bytes the walk adds once its columns are built (the image list and
    # the path): at most 936 and 996 584, alone or in the suite. The sorted
    # list of slot permutations that the scan it replaced tested every mask
    # against took 2 056 and 4 724 152. The bounds lie halfway.
    ([(r, s, t) for r in ("r0", "r1") for s in ("T0", "T1", "T2") for t in ("T0", "T1", "T2")],
     [("T0", "T1", "T2")], 44_224, 1_496),
    ([("e", f"A{i}", "B0") for i in range(8)],
     [tuple(f"A{i}" for i in range(8)), ("B0",)], 9, 2_860_368),
])
def test_least_mask_walk_stays_below_the_permutation_list(slots, groups, n_least, bound):
    # One list of images, flipped in place on the way down and back up.
    walk = _least_masks(slots, groups)
    tracemalloc.start()
    try:
        next(walk)  # the full mask, once the columns are built
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        count = 1
        for _ in walk:
            count += 1
        added = tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()
    assert count == n_least
    assert added < bound


class TestClassifyRuleEmpirical:
    def test_bound_must_fit_the_rule(self, fixtures):
        mf = fixtures.rules["moveFeature"]
        with pytest.raises(BoundError):
            classify_rule_empirical(mf, fixtures.constraints["c1"], bound=2, samples=0)

    def test_forbidden_creation_is_refuted_with_replayable_counterexample(self, tg2):
        lhs = empty_graph(tg2)
        create = Rule("createA", lhs, lhs, TypedGraph(tg2, [("m", "A")]))
        single = TypedGraph(tg2, [("p", "A")])
        from gradcons import Not

        no_a = Constraint("no_a", Not(Exists(empty_morphism_into(single))))
        result = classify_rule_empirical(create, no_a, bound=2, samples=20, seed=5)
        for claim in ("preserving", "guaranteeing", "sustaining", "directly_sustaining"):
            assert result.claim(claim).status == PROVEN_NO, claim
        assert result.claim("improving").status == NO_WITNESS
        assert result.hosts_examined > 0 and result.steps_examined > 0

        cex = result.claim("sustaining")
        t = cex.transformation
        replayed = classify_step(t, no_a)
        assert replayed == cex.step_verdict
        assert not replayed.sustaining

    def test_witness_and_strong_claims_can_disagree(self, fixtures):
        result = classify_rule_empirical(
            fixtures.rules["assignFeature"], fixtures.constraints["c2"],
            bound=4, samples=0,
        )
        assert result.claim("improving").status == WITNESS_FOUND
        assert result.claim("directly_improving").status == WITNESS_FOUND
        assert result.claim("strongly_improving").status == PROVEN_NO
        assert result.claim("sustaining").status == NO_COUNTEREXAMPLE

    def test_equal_records_hash_equal(self, fixtures):
        """Two runs of one step and of one rule search give equal records
        that hash equal: verdicts, rule classifications and their claims."""
        rule, c3 = fixtures.rules["moveFeature"], fixtures.constraints["c3"]
        verdicts = [classify_step(_one_step(rule, fixtures.host, f="f3"), c3) for _ in range(2)]
        searches = [classify_rule_empirical(rule, c3, bound=4, samples=0) for _ in range(2)]
        claims = list(zip(searches[0].claims.values(), searches[1].claims.values()))
        assert any(first.step_verdict is not None for first, _ in claims)
        for first, second in (verdicts, searches, *claims):
            assert first is not second and first == second
            assert hash(first) == hash(second) and len({first, second}) == 1

    def test_deterministic_for_fixed_seed(self, fixtures):
        def statuses():
            r = classify_rule_empirical(
                fixtures.rules["deleteEmptyClass"], fixtures.constraints["c2"],
                bound=3, samples=40, seed=9,
            )
            return {name: claim.status for name, claim in r.claims.items()}

        assert statuses() == statuses()


def _agrees_with_reference(t, constraint, before=None):
    v = classify_step(t, constraint, report_before=before)
    flags, evidence = classify_step_reference(t, constraint)
    where = (t.rule.name, constraint.name, t.host.edge_items(), sorted(t.match.node_map.items()))
    assert {f: getattr(v, f) for f in STEP_FLAGS} == flags, where
    assert _maps(v.evidence) == _maps(evidence), where
    return v


def _maps(found):
    return {label: (m.domain, m.codomain, dict(m.node_map), dict(m.edge_map))
            for label, m in found.items()}


def _seeded_random_steps():
    """``(step, constraint, host report)`` of the seed-101 random step suite."""
    for constraint, before, transformations, _, _ in random_step_cases(n_cases=250, seed=101):
        for t in transformations:
            yield t, constraint, before


def _random_cra_host_steps(fixtures):
    """Every step of every CRA rule on 40 random CRA hosts, against c1-c3."""
    rng = random.Random(31)
    for _ in range(40):
        host = random_host(fixtures.type_graph, rng, rng.randint(4, 8), rng.uniform(0.2, 0.5))
        reports = {c.name: consistency_report(host, c) for c in fixtures.constraint_list()}
        for rule in fixtures.rule_list():
            for m in find_matches(rule, host):
                t = apply(rule, host, m)
                for c in fixtures.constraint_list():
                    yield t, c, reports[c.name]


def _bound_three_steps():
    """Every step over the bound-3 universe of 40 random rule pairs. Type
    graphs with two loop types on one node type are skipped: their
    universe has 44 365 hosts, too many for the permutation search."""
    for rule, constraint in random_rule_pairs(40, seed=17):
        if has_two_loop_types_on_one_node_type(rule.lhs.type_graph):
            continue
        for host in bounded_hosts(rule.lhs.type_graph, 3):
            before = consistency_report(host, constraint)
            for m in find_matches(rule, host):
                yield apply(rule, host, m), constraint, before


class TestClassifyStepAgainstReference:
    """``classify_step`` reads its direct flags off the two reports; the
    reference enumerates occurrences by permutation and follows each one
    through the track morphism, as the definitions say."""

    def test_seeded_random_step_suite(self):
        steps = 0
        for t, constraint, before in _seeded_random_steps():
            _agrees_with_reference(t, constraint, before)
            steps += 1
        assert steps >= 150

    def test_random_cra_hosts(self, fixtures):
        labels = set()
        for t, c, before in _random_cra_host_steps(fixtures):
            labels.update(_agrees_with_reference(t, c, before).evidence)
        assert len(labels) == 4

    def test_bound_three_universes(self):
        steps = 0
        labels = set()
        for t, constraint, before in _bound_three_steps():
            labels.update(_agrees_with_reference(t, constraint, before).evidence)
            steps += 1
        assert steps >= 500 and len(labels) >= 2


EVIDENCE_LABELS = {"invalidated_occurrence", "new_violating_occurrence", "repaired_occurrence",
                   "destroyed_occurrence"}


def _count_searches(monkeypatch):
    """The list to which each compiled search that ``_StepSearches.run``
    calls appends its seed, from now on."""
    searched = []
    original = conditions._StepSearches._compiled

    def counting(search):
        def counted(graph, seed):
            searched.append(seed)
            return search(graph, seed)

        return counted

    def compiled(self, kind, element_type):
        return tuple(tuple(map(counting, searches))
                     for searches in original(self, kind, element_type))

    monkeypatch.setattr(conditions._StepSearches, "_compiled", compiled)
    return searched


@pytest.fixture
def derived(monkeypatch):
    """Judge every step from the keys :func:`conditions.step_report`
    records: ``searches_per_step`` is put below every occurrence count, so
    each universal step of one or two levels derives its result's report
    (existential constraints and deeper chains measure it again there).
    On every derived step the compiled searches that
    ``_StepSearches.run`` calls number exactly ``searches_per_step`` of
    the step's rule, so the gate weighs the work a derivation does.
    Returns the list of constraint names ``step_report`` was called for."""
    calls, gated = [], []
    searched = _count_searches(monkeypatch)
    original_report = classify.step_report

    def gate(constraint, changed_types):
        gated[:] = [changed_types]
        return -1

    def recording(before, *args):
        calls.append(before.constraint_name)
        done = len(searched)
        found = original_report(before, *args)
        want = conditions.searches_per_step(before.constraint, gated[0])
        assert len(searched) - done == (0 if want == math.inf else want), (
            before.constraint_name, gated[0])
        return found

    monkeypatch.setattr(classify, "searches_per_step", gate)
    monkeypatch.setattr(classify, "step_report", recording)
    return calls


LOOPS = TypeGraph(["A", "B"], [("r", "A", "A"), ("s", "A", "B")])


def _loops_graph(nodes, edges=()):
    return TypedGraph(LOOPS, nodes, edges)


def _hand_built_rules():
    """Rules over ``LOOPS`` whose changed edges the derivation treats
    apart, each with the ``(kind, type)`` pairs it seeds searches at."""
    kept = _loops_graph([("y", "A")])
    # Deletes x with its loop and a parallel pair of edges to the kept y:
    # each deleted edge has a deleted end, so only x seeds searches.
    drop = Rule("dropLoopy", _loops_graph([("x", "A"), ("y", "A")], [
        ("l", "r", "x", "x"), ("p", "r", "x", "y"), ("q", "r", "x", "y")]), kept, kept)
    # Creates n with a loop and an edge to the kept y: only n seeds.
    grow = Rule("growLoopy", kept, kept, _loops_graph([("y", "A"), ("n", "A")], [
        ("l", "r", "n", "n"), ("m", "r", "n", "y")]))
    # Creates a loop, an edge and an s edge between kept nodes.
    ends = _loops_graph([("y", "A"), ("z", "A"), ("b", "B")])
    link = Rule("linkKept", ends, ends, ends.with_added([], [
        ("l", "r", "y", "y"), ("m", "r", "y", "z"), ("t", "s", "y", "b")]))
    return [(drop, (("node", "A"),)), (grow, (("node", "A"),)),
            (link, (("edge", "r"), ("edge", "s"), ("loop", "r")))]


def _hand_built_constraints(rng):
    """Universal constraints over ``LOOPS`` of one and two levels whose
    patterns have loops and parallel edges, and whose witness patterns add
    a loop, a node, or an edge that ends at nodes of b(P); then random
    linear constraints."""
    a = _loops_graph([("a", "A")])
    loop = a.with_added([], [("l", "r", "a", "a")])
    edge = _loops_graph([("a", "A"), ("c", "A")], [("e", "r", "a", "c")])
    witnessed = {
        "looped": (a, loop),
        "linked": (a, a.with_added([("b", "B")], [("t", "s", "a", "b")])),
        "doubled": (edge, edge.with_added([], [("f", "r", "a", "c")])),
        "returned": (edge, edge.with_added([], [("f", "r", "c", "a")])),
        "pointedAt": (a, a.with_added([("c", "A")], [("f", "r", "c", "a")])),
        "loopedPair": (loop, loop.with_added([("c", "A")], [("e", "r", "a", "c"),
                                                           ("f", "r", "a", "c")])),
    }
    return [Constraint("noLoop", forall(empty_morphism_into(loop))),
            *(Constraint(name, forall(empty_morphism_into(p), Exists(inclusion(p, c))))
              for name, (p, c) in witnessed.items()),
            *(random_linear_constraint(LOOPS, rng, f"x{i}") for i in range(8))]


def _renew_step(fixtures):
    """A rule that deletes a class and creates one, matched at the class
    whose id is the created class's: the fresh id takes the removed one
    again."""
    tg = fixtures.type_graph
    renew = Rule("renewClass", TypedGraph(tg, [("c", "Class")]), empty_graph(tg),
                 TypedGraph(tg, [("n", "Class")]))
    host = TypedGraph(tg, [("C0", "Class"), ("F0", "Feature"), ("renewClass.0.n", "Class")],
                      [("a0", "isAssigned", "F0", "C0")])
    return _one_step(renew, host, c="renewClass.0.n")


def _hand_built_steps(fixtures):
    """``(step, constraint, host report)`` of the hand-built rules on 20
    random hosts over ``LOOPS`` with parallel edges, each with a node x
    planted with a loop and a parallel pair of edges to another node,
    against the hand-built constraints; then the renewClass step against
    c1-c3."""
    rng = random.Random(41)
    constraints = _hand_built_constraints(rng)
    for _ in range(20):
        host = with_parallel_edges(random_host(LOOPS, rng, rng.randint(2, 4), 0.4), rng, 0.3)
        y = next((v for v, t in host.node_items() if t == "A"), "y")
        host = host.with_added([("x", "A")] + [("y", "A")] * (y == "y"), [
            ("xl", "r", "x", "x"), ("xp", "r", "x", y), ("xq", "r", "x", y)])
        reports = [consistency_report(host, c) for c in constraints]
        for rule, _ in _hand_built_rules():
            for m in find_matches(rule, host)[:2]:
                t = apply(rule, host, m)
                for c, before in zip(constraints, reports):
                    yield t, c, before
    t = _renew_step(fixtures)
    for c in fixtures.constraint_list():
        yield t, c, consistency_report(t.host, c)


def test_hand_built_rules_seed_only_what_they_change():
    for rule, changed_types in _hand_built_rules():
        assert rule._changed_types == changed_types, rule.name


def _cra_bound_three_steps(fixtures):
    """Every step of every CRA rule over the bound-3 CRA universe, against
    c1-c3."""
    for host in bounded_hosts(fixtures.type_graph, 3):
        for rule in fixtures.rule_list():
            for m in find_matches(rule, host):
                t = apply(rule, host, m)
                for c in fixtures.constraint_list():
                    yield t, c, None


def test_a_step_seeds_the_searches_its_rule_counts(fixtures, monkeypatch):
    """On every step of the hand-built rules, of the CRA rules over the
    bound-3 CRA universe and of the random rule pairs over theirs, the ids
    the step removed from the host and created in the result start
    searches of exactly the rule's ``_changed_types``, and the two runs of
    a derivation make ``searches_per_step`` searches."""
    searched = _count_searches(monkeypatch)
    steps, kinds = Counter(), set()
    for suite, found in (("hand-built", _hand_built_steps(fixtures)),
                         ("cra", _cra_bound_three_steps(fixtures)),
                         ("random", _bound_three_steps())):
        for t, c, _ in found:
            removed, created = _changed_ids(t)
            seeds = sorted((kind, element_type) for kind, element_type, _ in itertools.chain(
                conditions._seeds_at(t.host, removed), conditions._seeds_at(t.result, created)))
            where = (t.rule.name, c.name, t.match.sort_key())
            assert tuple(seeds) == t.rule._changed_types, where
            kinds.update(kind for kind, _ in seeds)
            searches = c._step_searches
            if searches is None:
                continue
            searched.clear()
            searches.run(t.host, removed)
            searches.run(t.result, created)
            assert len(searched) == conditions.searches_per_step(c, t.rule._changed_types), where
            steps[suite] += 1
    assert kinds == {"node", "edge", "loop"}, kinds
    assert min(steps.values()) >= 100 and len(steps) == 3, steps


class TestDerivedJudgementAgainstReference:
    """The suites of :class:`TestClassifyStepAgainstReference`, with every
    step judged from the keys the derivation dropped and added. Together
    they reach every evidence label."""

    @staticmethod
    def _labels(steps, derived):
        n, labels = 0, set()
        for t, constraint, before in steps:
            labels.update(_agrees_with_reference(t, constraint, before).evidence)
            n += 1
        assert len(derived) == n
        return labels

    def test_seeded_random_step_suite(self, derived):
        assert self._labels(_seeded_random_steps(), derived) == {
            "invalidated_occurrence", "new_violating_occurrence", "destroyed_occurrence"}

    def test_random_cra_hosts(self, fixtures, derived):
        assert self._labels(_random_cra_host_steps(fixtures), derived) == EVIDENCE_LABELS

    def test_bound_three_universes(self, derived):
        assert self._labels(_bound_three_steps(), derived) == {
            "new_violating_occurrence", "destroyed_occurrence"}

    def test_hand_built_rules(self, fixtures, derived):
        assert self._labels(_hand_built_steps(fixtures), derived) == EVIDENCE_LABELS


class TestDerivedReportAgainstRecompute:
    """The result's report derived from the host's equals a full
    recompute, keys in order included. The derivation is called directly,
    so it runs whether or not it would pay; existential constraints and
    deeper chains take the recompute."""

    @pytest.fixture
    def recomputes(self, monkeypatch):
        calls = []
        original = conditions.consistency_report

        def counting(graph, constraint):
            calls.append(constraint.name)
            return original(graph, constraint)

        monkeypatch.setattr(conditions, "consistency_report", counting)
        return calls

    @staticmethod
    def _agrees(t, constraint, before, recomputes, kinds):
        done = len(recomputes)
        got, *_ = conditions.step_report(before, t.result, *_changed_ids(t))
        shape = constraint.shape
        recompute = shape.polarity == conditions.EXISTENTIAL or shape.level > 2
        assert len(recomputes) - done == recompute, (constraint.name, shape.render())
        want = consistency_report(t.result, constraint)
        where = (t.rule.name, constraint.name, t.host.edge_items(), t.match.sort_key())
        assert (got.occ, got.ncv, got.ro, got.ci, got.violating_keys) == (
            want.occ, want.ncv, want.ro, want.ci, want.violating_keys), where
        assert (got.constraint, got.graph) == (constraint, t.result), where
        kinds[shape.polarity, shape.level] += 1

    def test_seeded_random_step_suite(self, recomputes):
        kinds = Counter()
        rng = random.Random(5)
        for constraint, before, transformations, _, host in random_step_cases(
                n_cases=250, seed=101):
            deeper = random_linear_constraint(host.type_graph, rng, "deep", max_level=3)
            deeper_before = consistency_report(host, deeper)
            for t in transformations:
                self._agrees(t, constraint, before, recomputes, kinds)
                self._agrees(t, deeper, deeper_before, recomputes, kinds)
        assert all(kinds[polarity, level] for polarity in (conditions.UNIVERSAL,
                   conditions.EXISTENTIAL) for level in (1, 2, 3)), kinds

    def test_random_cra_hosts_and_bound_three_universes(self, fixtures, recomputes):
        kinds = Counter()
        rng = random.Random(31)
        for _ in range(40):
            host = random_host(fixtures.type_graph, rng, rng.randint(4, 8), rng.uniform(0.2, 0.5))
            reports = {c.name: consistency_report(host, c) for c in fixtures.constraint_list()}
            for rule in fixtures.rule_list():
                for m in find_matches(rule, host):
                    t = apply(rule, host, m)
                    for c in fixtures.constraint_list():
                        self._agrees(t, c, reports[c.name], recomputes, kinds)
        for rule, constraint in random_rule_pairs(40, seed=17):
            if has_two_loop_types_on_one_node_type(rule.lhs.type_graph):
                continue
            for host in bounded_hosts(rule.lhs.type_graph, 3):
                before = consistency_report(host, constraint)
                for m in find_matches(rule, host):
                    self._agrees(apply(rule, host, m), constraint, before, recomputes, kinds)
        assert kinds[conditions.UNIVERSAL, 1] and kinds[conditions.UNIVERSAL, 2], kinds

    def test_hand_built_rules(self, fixtures, recomputes):
        kinds, steps, changed = Counter(), Counter(), Counter()
        for t, c, before in _hand_built_steps(fixtures):
            self._agrees(t, c, before, recomputes, kinds)
            steps[t.rule.name] += 1
            changed[t.rule.name] += consistency_report(t.result, c) != before
        assert kinds[conditions.UNIVERSAL, 1] and kinds[conditions.UNIVERSAL, 2], kinds
        # renewClass leaves every report as it was, though a key names a
        # new occurrence; each rule over LOOPS changes some.
        assert steps["renewClass"] == 3 and changed["renewClass"] == 0, (steps, changed)
        assert all(changed[rule.name] >= 100 for rule, _ in _hand_built_rules()), changed

    def test_seeded_cra_model(self, fixtures, cra_model_steps, recomputes):
        reports, steps = cra_model_steps
        kinds = Counter()
        for t in steps:
            for c, before in zip(fixtures.constraint_list(), reports):
                self._agrees(t, c, before, recomputes, kinds)
        assert kinds == {(conditions.UNIVERSAL, 1): 8, (conditions.UNIVERSAL, 2): 16}


@pytest.fixture(scope="module")
def cra_model_steps(fixtures):
    """The reports of c1-c3 on the seeded 160-node model, and two steps
    of each rule on it."""
    host = seeded_cra_model(fixtures.type_graph, random.Random(1))
    reports = [consistency_report(host, c) for c in fixtures.constraint_list()]
    rng = random.Random(1)
    steps = [apply(rule, host, m) for rule in fixtures.rule_list()
             for m in rng.sample(find_matches(rule, host), 2)]
    return reports, steps


def test_large_host_steps_measure_nothing_again(fixtures, cra_model_steps, monkeypatch):
    """On the 160-node model a step derives its result's report from the
    host's: no outer pattern is enumerated, and a violating occurrence
    that survives keeps the host report's key object."""
    constraints = fixtures.constraint_list()
    reports, steps = cra_model_steps
    enumerated = []
    original = conditions.enumerate_monomorphisms

    def counting(pattern, graph):
        enumerated.append(pattern)
        return original(pattern, graph)

    monkeypatch.setattr(conditions, "enumerate_monomorphisms", counting)
    kept = 0
    for t in steps:
        for c, before in zip(constraints, reports):
            after = classify_step(t, c, report_before=before).report_after
            host_keys = {key: key for key in before.violating_keys}
            for key in after.violating_keys:
                if key in host_keys:
                    assert host_keys[key] is key
                    kept += 1
    assert enumerated == []
    assert kept > 1000


@pytest.mark.parametrize("derive", [False, True], ids=["recompute", "derived"])
def test_a_created_id_that_reuses_a_removed_one(fixtures, request, derive):
    """A rule that deletes a class and creates one, matched at the class
    whose id is the created class's: the fresh id takes the removed one
    again, so the empty class's key violates c2 on both sides, yet names a
    new occurrence, not a survivor."""
    t = _renew_step(fixtures)
    host, renew = t.host, t.rule
    assert t.created == (("renewClass.0.n",), ())
    constraints = fixtures.constraint_list()
    if derive:
        derived = request.getfixturevalue("derived")
    else:
        # On this host measuring the result again pays for every constraint.
        assert all(consistency_report(host, c).occ <= conditions.searches_per_step(
            c, renew._changed_types) for c in constraints)
    reused = ("renewClass.0.n",)
    for c in constraints:
        v = _agrees_with_reference(t, c)
        if c.name == "c2":
            assert reused in v.report_before.violating_keys
            assert reused in v.report_after.violating_keys
            assert v.evidence_keys == {"new_violating_occurrence": reused}
    if derive:
        assert derived == [c.name for c in constraints]


def test_a_step_runs_the_fresh_id_policy_once(fixtures, monkeypatch):
    """On the seeded 160-node model, applying a creating step, deriving its
    result's report against c1-c3 and reading its comatch run the fresh-id
    policy once: the step stores the ids it created."""
    host = seeded_cra_model(fixtures.type_graph, random.Random(1))
    constraints = fixtures.constraint_list()
    reports = [consistency_report(host, c) for c in constraints]
    fresh_runs, derived = [], []
    original_fresh_ids, original_step_report = rewriting._fresh_ids, classify.step_report

    def counting(*args):
        fresh_runs.append(args[0].name)
        return original_fresh_ids(*args)

    def recording(before, *args):
        derived.append(before.constraint_name)
        return original_step_report(before, *args)

    monkeypatch.setattr(rewriting, "_fresh_ids", counting)
    monkeypatch.setattr(classify, "step_report", recording)
    for name, picks in (("assignFeature", {"c": "C0", "f": "F76"}),
                        ("createClass", {"f": "F76"})):
        rule = fixtures.rules[name]
        fresh_runs.clear()
        derived.clear()
        t = _one_step(rule, host, **picks)
        for c, before in zip(constraints, reports):
            classify_step(t, c, report_before=before)
        comatch = t.comatch
        assert derived == [c.name for c in constraints]
        assert fresh_runs == [name]
        assert t.created == (tuple(map(comatch.node_map.__getitem__, rule.created_nodes)),
                             tuple(map(comatch.edge_map.__getitem__, rule.created_edges)))
        assert t.created != ((), ())
        assert comatch == oracles.comatch_by_sets(t)


@pytest.mark.parametrize("seed", [1, 2])
def test_judgement_agrees_with_a_scan_of_every_violating_key(fixtures, seed):
    """On the seeded 160-node model, 60 steps per rule (all the matches
    there are, when fewer): flags and evidence keys equal those read by
    walking every violating key of both reports."""
    host = seeded_cra_model(fixtures.type_graph, random.Random(seed))
    constraints = fixtures.constraint_list()
    reports = [consistency_report(host, c) for c in constraints]
    rng = random.Random(seed)
    labels = set()
    for rule in fixtures.rule_list():
        matches = find_matches(rule, host)
        for m in rng.sample(matches, min(60, len(matches))):
            t = apply(rule, host, m)
            for c, before in zip(constraints, reports):
                v = classify_step(t, c, report_before=before)
                flags, evidence = oracles.judge_by_scan(before, v.report_after, host,
                                                        t.removed_nodes, t.removed_edges)
                where = (rule.name, c.name, m.sort_key())
                assert {f: getattr(v, f) for f in STEP_FLAGS} == flags, where
                assert v.evidence_keys == evidence, where
                labels.update(evidence)
    assert labels == EVIDENCE_LABELS


def test_judging_a_large_host_step_reads_only_the_changed_keys(fixtures, cra_model_steps,
                                                               monkeypatch):
    """On the 160-node model, where c3 has over 500 violating occurrences,
    every step derives its result's report: its judgement measures no
    result again, and the ids the step changed tell the evidence labels."""
    reports, steps = cra_model_steps
    measured = []
    original = conditions.consistency_report

    def recording(graph, constraint):
        measured.append(graph)
        return original(graph, constraint)

    monkeypatch.setattr(conditions, "consistency_report", recording)
    labels = set()
    for t in steps:
        for c, before in zip(fixtures.constraint_list(), reports):
            assert before.occ > conditions.searches_per_step(c, t.rule._changed_types)
            labels.update(classify_step(t, c, report_before=before).evidence_keys)
    assert len(steps) == 8 and measured == []
    assert len(labels) >= 2, labels


@pytest.mark.parametrize(("name", "counts"), [
    ("assignFeature", (2, 1, 3)), ("createClass", (2, 1, 2)),
    ("moveFeature", (4, 2, 6)), ("deleteEmptyClass", (2, 1, 2))])
def test_cra_steps_run_only_the_searches_their_change_needs(fixtures, cra_model_steps, derived,
                                                            name, counts):
    """Seeded searches per step against c1, c2 and c3: 28 for the four
    rules, where seeding every witness position and every pattern edge
    of the changed edge's type ran 48 (assignFeature 2/1/5, createClass
    4/3/9, moveFeature 4/2/10, deleteEmptyClass 2/2/4). The ``derived``
    fixture checks that the model's steps make exactly these calls."""
    rule = fixtures.rules[name]
    constraints = fixtures.constraint_list()
    assert tuple(conditions.searches_per_step(c, rule._changed_types)
                 for c in constraints) == counts
    reports, steps = cra_model_steps
    ran = [t for t in steps if t.rule is rule]
    for t in ran:
        for c, before in zip(constraints, reports):
            classify_step(t, c, report_before=before)
    assert len(derived) == 3 * len(ran) == 6


def test_derived_steps_place_gained_witnesses_unchecked_and_recheck_lost_ones(fixtures,
                                                                             monkeypatch):
    """On the seeded 160-node model against c2 (every class holds a
    feature): assigning F76 to C0 gives the survivor (C0,) a witness, and
    the derivation places it without testing the body; moving F20 from
    C0 to C1 takes a witness from (C0,), which it tests again, and gives
    one to (C1,), which it does not."""
    host = seeded_cra_model(fixtures.type_graph, random.Random(1))
    c2 = fixtures.constraints["c2"]
    before = consistency_report(host, c2)
    searches, body = c2._step_searches, c2.shape.body
    tested = []
    original = body._predicate

    def testing(graph, key):
        tested.append(key)
        return original(graph, key)

    monkeypatch.setitem(body.__dict__, "_predicate", testing)
    for name, picks, lost, gained in (
            ("assignFeature", {"c": "C0", "f": "F76"}, set(), {("C0",)}),
            ("moveFeature", {"c_src": "C0", "c_tgt": "C1", "f": "F20"}, {("C0",)}, {("C1",)})):
        t = _one_step(fixtures.rules[name], host, **picks)
        removed, created = _changed_ids(t)
        assert searches.run(host, removed) == (set(), lost), name
        assert searches.run(t.result, created) == (set(), gained), name
        tested.clear()
        after, *_ = conditions.step_report(before, t.result, removed, created)
        assert tested == sorted(lost), name
        assert after == consistency_report(t.result, c2), name


def _search_agrees_with_reference(rule, constraint, bound, samples, seed=1):
    """``classify_rule_empirical`` judges steps on their raw parts and
    records only the first counterexample or witness of each claim; the
    reference applies and classifies every step through the public API."""
    got = classify_rule_empirical(rule, constraint, bound=bound, samples=samples, seed=seed)
    hosts, steps, first = classify_rule_reference(rule, constraint, bound, samples, seed)
    where = (rule.name, constraint.name)
    assert (got.hosts_examined, got.steps_examined) == (hosts, steps), where
    assert set(got.claims) == set(RULE_CLAIMS), where
    for claim in RULE_CLAIMS:
        result = got.claims[claim]
        universal = claim in classify.UNIVERSAL_CLAIMS
        if claim not in first:
            assert result.status == (NO_COUNTEREXAMPLE if universal else NO_WITNESS), where
            assert result.transformation is None and result.step_verdict is None, where
            continue
        assert result.status == (PROVEN_NO if universal else WITNESS_FOUND), (where, claim)
        (t, v), (want_t, want_v) = (result.transformation, result.step_verdict), first[claim]
        assert (t.host, t.match, t.result, t.step) == (
            want_t.host, want_t.match, want_t.result, want_t.step), (where, claim)
        assert t.comatch == want_t.comatch, (where, claim)
        assert {f: getattr(v, f) for f in STEP_FLAGS} == {
            f: getattr(want_v, f) for f in STEP_FLAGS}, (where, claim)
        assert _maps(v.evidence) == _maps(want_v.evidence), (where, claim)
        assert (v.report_before, v.report_after) == (want_v.report_before,
                                                     want_v.report_after), (where, claim)
    return got


class TestRuleSearchAgainstReference:
    def test_cra_pairs_at_bound_three(self, fixtures):
        statuses = Counter()
        for rule in fixtures.rule_list():
            for c in fixtures.constraint_list():
                got = _search_agrees_with_reference(rule, c, bound=3, samples=30)
                statuses.update(claim.status for claim in got.claims.values())
        assert all(statuses[s] for s in (PROVEN_NO, NO_COUNTEREXAMPLE, WITNESS_FOUND,
                                         NO_WITNESS)), statuses

    def test_random_pairs_at_bound_three(self):
        # As in the classify_step differential, type graphs with two loop
        # types on one node type are skipped: 44 365 hosts each.
        pairs = 0
        statuses = Counter()
        for rule, constraint in random_rule_pairs(40, seed=17):
            if has_two_loop_types_on_one_node_type(rule.lhs.type_graph):
                continue
            got = _search_agrees_with_reference(rule, constraint, bound=3, samples=10)
            pairs += 1
            statuses.update(claim.status for claim in got.claims.values())
        assert pairs >= 30, pairs
        assert all(statuses[s] for s in (PROVEN_NO, NO_COUNTEREXAMPLE, WITNESS_FOUND,
                                         NO_WITNESS)), statuses


def test_each_constraint_is_parsed_once(fixtures, monkeypatch):
    parsed = []
    original = conditions.validate_anf

    def counting(constraint):
        parsed.append(id(constraint))
        return original(constraint)

    monkeypatch.setattr(conditions, "validate_anf", counting)
    fresh = [Constraint(c.name, c.condition) for c in fixtures.constraint_list()]
    for c in fresh:
        classify_rule_empirical(fixtures.rules["moveFeature"], c, bound=3, samples=10)
    assert sorted(parsed) == sorted(id(c) for c in fresh)


def test_random_sample_is_streamed(fixtures):
    # The sampled hosts are made one at a time while they are examined:
    # building all 3 000 first peaked at 5.24 MB, streaming them at 0.49 MB.
    tracemalloc.start()
    try:
        result = classify_rule_empirical(
            fixtures.rules["createClass"], fixtures.constraints["c2"], bound=1, samples=3000
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.hosts_examined, result.steps_examined) == (3002, 3119)
    assert peak < 2_860_000
