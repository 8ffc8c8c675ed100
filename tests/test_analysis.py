import random
import sys

import pytest

from gradcons import (
    FALSE,
    TRUE,
    Constraint,
    Exists,
    Not,
    Rule,
    TypedGraph,
    UNIVERSAL,
    UnsupportedShapeError,
    check_depends_on_rule,
    criterion_direct_improve,
    criterion_direct_sustain,
    empty_graph,
    empty_morphism_into,
    forall,
    inclusion,
    independence_table,
    rule_conflicts_on_check,
)
from gradcons import analysis
from gradcons.analysis import (
    CONJECTURED_DIRECTLY_SUSTAINING,
    CONJECTURED_INCONCLUSIVE,
    CONJECTURED_NECESSARY_FAILS,
    CONJECTURED_NECESSARY_HOLDS,
    INCONCLUSIVE,
    NECESSARY_CONDITION_FAILS,
    NECESSARY_CONDITION_HOLDS,
    PROVEN_DIRECTLY_SUSTAINING,
    PROVEN_IMPROVING,
    PROVEN_NOT_DIRECTLY_SUSTAINING,
)
from gradcons.cli import main
from gradcons.errors import GradconsError, MismatchError
from gradcons.formats import emit_constraints_library, emit_rule_document
from gradcons.generate import random_linear_constraint, random_rule, random_type_graph

from .oracles import overlaps_by_gluing, repairs_by_injection

# The one note each criterion gives on the CRA scenario, by short key.
NOTES = {
    "ac": "dependency overlaps exist, but the application condition may rule "
          "the enabling matches out",
    "clear1": "no dependency overlap with the forbidden pattern",
    "clear2": "no dependency overlap with the scope pattern and no conflict "
              "overlap with its continuation",
    "carried": "every dependency overlap already carries the required continuation",
    "lacks": "some enabled occurrence may lack its continuation",
    "damage": "the rule can damage required continuations",
    "no_destroy": "the rule cannot destroy occurrences of the forbidden pattern, "
                  "so no application lowers their count",
    "in_principle": "destruction is possible in principle; improvement is not guaranteed",
    "supply": "the rule can supply a missing continuation",
    "destroy": "the rule can destroy violating scope occurrences",
    "neither": "the rule can neither destroy violating occurrences nor supply "
               "missing continuations",
    "conjectured": "three-level criterion is conjectured, not proven",
}

# (rule, constraint) -> ((sustain verdict, overlaps, note),
#                        (improve verdict, overlaps, note))
CRA_CRITERIA = {
    ("assignFeature", "c1"): ((INCONCLUSIVE, 2, "ac"), (NECESSARY_CONDITION_FAILS, 0, "no_destroy")),
    ("assignFeature", "c2"): ((PROVEN_DIRECTLY_SUSTAINING, 0, "clear2"),
                              (NECESSARY_CONDITION_HOLDS, 1, "supply")),
    ("assignFeature", "c3"): ((INCONCLUSIVE, 2, "lacks"), (NECESSARY_CONDITION_HOLDS, 1, "supply")),
    ("createClass", "c1"): ((INCONCLUSIVE, 2, "ac"), (NECESSARY_CONDITION_FAILS, 0, "no_destroy")),
    ("createClass", "c2"): ((PROVEN_DIRECTLY_SUSTAINING, 1, "carried"),
                            (NECESSARY_CONDITION_FAILS, 0, "neither")),
    ("createClass", "c3"): ((INCONCLUSIVE, 2, "lacks"), (NECESSARY_CONDITION_FAILS, 0, "neither")),
    ("moveFeature", "c1"): ((INCONCLUSIVE, 4, "ac"), (NECESSARY_CONDITION_HOLDS, 4, "in_principle")),
    ("moveFeature", "c2"): ((INCONCLUSIVE, 1, "damage"), (NECESSARY_CONDITION_HOLDS, 1, "supply")),
    ("moveFeature", "c3"): ((INCONCLUSIVE, 6, "damage"), (NECESSARY_CONDITION_HOLDS, 4, "destroy")),
    ("deleteEmptyClass", "c1"): ((PROVEN_DIRECTLY_SUSTAINING, 0, "clear1"),
                                 (NECESSARY_CONDITION_FAILS, 0, "no_destroy")),
    ("deleteEmptyClass", "c2"): ((PROVEN_DIRECTLY_SUSTAINING, 0, "clear2"),
                                 (NECESSARY_CONDITION_HOLDS, 1, "destroy")),
    ("deleteEmptyClass", "c3"): ((PROVEN_DIRECTLY_SUSTAINING, 0, "clear2"),
                                 (NECESSARY_CONDITION_FAILS, 0, "neither")),
}

# rule -> (sustain verdict, improve verdict) against the three-level
# ``deep`` constraint, all conjectured and without evidence.
CRA_DEEP_CRITERIA = {
    "assignFeature": (CONJECTURED_INCONCLUSIVE, CONJECTURED_NECESSARY_HOLDS),
    "createClass": (CONJECTURED_INCONCLUSIVE, CONJECTURED_NECESSARY_FAILS),
    "moveFeature": (CONJECTURED_INCONCLUSIVE, CONJECTURED_NECESSARY_HOLDS),
    "deleteEmptyClass": (CONJECTURED_DIRECTLY_SUSTAINING, CONJECTURED_NECESSARY_HOLDS),
}


def _cra_chain(fixtures, levels):
    """A universal chain over the CRA type graph: a class, one assigned
    feature, a feature it depends on, a class the latter is assigned to,
    cut to the given number of levels; an odd level ends with false."""
    a1 = TypedGraph(fixtures.type_graph, [("C", "Class")])
    a2 = a1.with_added([("F", "Feature")], [("e", "isAssigned", "F", "C")])
    a3 = a2.with_added([("F2", "Feature")], [("d", "dependsOn", "F", "F2")])
    a4 = a3.with_added([("C2", "Class")], [("e2", "isAssigned", "F2", "C2")])
    graphs = [a1, a2, a3, a4][:levels]
    condition = TRUE if levels % 2 == 0 else FALSE
    for i in reversed(range(1, levels)):
        morphism = inclusion(graphs[i - 1], graphs[i])
        condition = Exists(morphism, condition) if i % 2 else forall(morphism, condition)
    return Constraint(f"level{levels}", forall(empty_morphism_into(a1), condition))


@pytest.fixture
def small_rules(tg2):
    lhs_a = TypedGraph(tg2, [("d", "A")])
    nothing = empty_graph(tg2)
    delete_a = Rule("deleteA", lhs_a, nothing, nothing)
    create_a = Rule("createA", nothing, nothing, TypedGraph(tg2, [("m", "A")]))
    pair = TypedGraph(tg2, [("k1", "A"), ("k2", "A")])
    link = Rule("linkA", pair, pair, pair.with_added([], [("me", "aa", "k1", "k2")]))
    return delete_a, create_a, link


@pytest.fixture
def patterns(tg2):
    single = TypedGraph(tg2, [("P", "A")])
    edge = TypedGraph(tg2, [("P", "A"), ("Q", "B")], [("E", "ab", "P", "Q")])
    loop_pair = TypedGraph(tg2, [("P", "A"), ("Q", "A")], [("E", "aa", "P", "Q")])
    return single, edge, loop_pair


class TestOverlaps:
    def test_conflict_on_deleted_node(self, small_rules, patterns):
        delete_a, _, _ = small_rules
        single, _, _ = patterns
        overlaps = rule_conflicts_on_check(delete_a, single)
        assert len(overlaps) == 1
        ov = overlaps[0]
        assert ov.kind == "conflict"
        assert ov.rule_injection.node_map == {"d": "d"} and not ov.rule_injection.edge_map
        assert ov.rule_injection.is_total() and ov.pattern_injection.is_total()
        assert ov.rule_injection.node_map["d"] == ov.pattern_injection.node_map["P"]
        assert ov.graph.node_count == 1

    def test_conflict_rejected_when_pattern_edge_would_dangle(self, small_rules, patterns):
        delete_a, _, _ = small_rules
        _, edge, _ = patterns
        assert rule_conflicts_on_check(delete_a, edge) == ()

    def test_no_conflict_without_deletion(self, small_rules, patterns):
        _, create_a, link = small_rules
        single, _, loop_pair = patterns
        assert rule_conflicts_on_check(create_a, single) == ()
        assert rule_conflicts_on_check(link, loop_pair) == ()

    def test_no_search_without_a_deleted_element(self, fixtures, monkeypatch):
        lookups = []
        nodes_of_type = TypedGraph.nodes_of_type

        def counted(graph, ntype):
            lookups.append(ntype)
            return nodes_of_type(graph, ntype)

        monkeypatch.setattr(TypedGraph, "nodes_of_type", counted)
        rule = _add_feature(fixtures.type_graph, 200)
        for name in ("c1", "c3"):
            for _, morphism in fixtures.constraints[name].shape.chain:
                assert rule_conflicts_on_check(rule, morphism.codomain) == ()
        assert lookups == []
        # The same wrapper sees the dependency search of a smaller rule.
        c1 = fixtures.constraints["c1"].shape.outer_graph
        check_depends_on_rule(_add_feature(fixtures.type_graph, 2), c1)
        assert lookups

    def test_dependency_on_created_node(self, small_rules, patterns):
        _, create_a, _ = small_rules
        single, edge, _ = patterns
        deps = check_depends_on_rule(create_a, single)
        assert len(deps) == 1 and deps[0].kind == "dependency"
        # the pattern edge would need to exist before its created endpoint
        assert check_depends_on_rule(create_a, edge) == ()

    def test_dependency_on_created_edge_keeps_identified_edges(self, small_rules, patterns):
        _, _, link = small_rules
        _, _, loop_pair = patterns
        deps = check_depends_on_rule(link, loop_pair)
        assert deps
        assert all("me" in ov.pattern_injection.edge_map.values() for ov in deps)

    def test_fresh_ids_avoid_the_side(self, tg2):
        lhs = TypedGraph(tg2, [("P", "A")])
        nothing = empty_graph(tg2)
        pair = TypedGraph(tg2, [("P", "A"), ("Q", "A")])
        overlaps = rule_conflicts_on_check(Rule("deleteP", lhs, nothing, nothing), pair)
        assert [ov.identified for ov in overlaps] == [(("P", "P"),), (("Q", "P"),)]
        assert overlaps[1].pattern_injection.node_map == {"P": "P~0", "Q": "P"}
        for ov in overlaps:
            _check_glued_graph(ov)

    def test_overlap_graph_is_a_union_of_both_images(self, small_rules, patterns):
        _, _, link = small_rules
        _, _, loop_pair = patterns
        for ov in check_depends_on_rule(link, loop_pair):
            nodes = set(ov.rule_injection.node_map.values()) | set(
                ov.pattern_injection.node_map.values()
            )
            edges = set(ov.rule_injection.edge_map.values()) | set(
                ov.pattern_injection.edge_map.values()
            )
            assert nodes == set(ov.graph.node_ids)
            assert edges == set(ov.graph.edge_ids)


class TestSustainCriterion:
    def test_verdicts_across_the_example(self, fixtures):
        proven = set()
        for rname, rule in fixtures.rules.items():
            for cname, constraint in fixtures.constraints.items():
                res = criterion_direct_sustain(rule, constraint)
                assert res.rule_name == rname and res.constraint_name == cname
                if res.verdict == PROVEN_DIRECTLY_SUSTAINING:
                    proven.add((rname, cname))
                else:
                    assert res.verdict == INCONCLUSIVE
                    assert not res.decisive
        assert proven == {
            ("assignFeature", "c2"),
            ("createClass", "c2"),
            ("deleteEmptyClass", "c1"),
            ("deleteEmptyClass", "c2"),
            ("deleteEmptyClass", "c3"),
        }

    def test_witnessed_continuation_recovers_a_proof(self, fixtures):
        res = criterion_direct_sustain(
            fixtures.rules["createClass"], fixtures.constraints["c2"]
        )
        assert res.verdict == PROVEN_DIRECTLY_SUSTAINING
        # proven despite dependency overlaps: each one carries the witness
        assert res.evidence

    def test_plain_rule_with_dependency_is_refuted(self, tg2, small_rules, patterns):
        _, create_a, _ = small_rules
        single, _, _ = patterns
        no_a = Constraint("no_a", Not(Exists(empty_morphism_into(single))))
        res = criterion_direct_sustain(create_a, no_a)
        assert res.verdict == PROVEN_NOT_DIRECTLY_SUSTAINING
        assert res.decisive and res.evidence

    def test_deleting_rule_cannot_enable_the_forbidden_pattern(self, tg2, small_rules, patterns):
        delete_a, _, _ = small_rules
        single, _, _ = patterns
        no_a = Constraint("no_a", Not(Exists(empty_morphism_into(single))))
        res = criterion_direct_sustain(delete_a, no_a)
        assert res.verdict == PROVEN_DIRECTLY_SUSTAINING

    def test_existential_shape_is_rejected(self, tg2, small_rules, patterns):
        delete_a, _, _ = small_rules
        single, _, _ = patterns
        some_a = Constraint("some_a", Exists(empty_morphism_into(single)))
        with pytest.raises(UnsupportedShapeError):
            criterion_direct_sustain(delete_a, some_a)

    def test_three_levels_need_conjecture_mode(self, tg2, small_rules, patterns):
        _, create_a, _ = small_rules
        single, edge, _ = patterns
        deeper = edge.with_added([("R", "A")], [("E2", "ab", "R", "Q")])
        c = Constraint(
            "deep",
            forall(empty_morphism_into(single),
                   Exists(inclusion(single, edge), forall(inclusion(edge, deeper)))),
        )
        with pytest.raises(UnsupportedShapeError):
            criterion_direct_sustain(create_a, c)
        res = criterion_direct_sustain(create_a, c, allow_conjecture=True)
        assert res.conjectured and res.verdict.startswith("conjectured")
        imp = criterion_direct_improve(create_a, c, allow_conjecture=True)
        assert imp.conjectured


class TestCraCriteria:
    def test_verdicts_evidence_and_notes(self, fixtures):
        for (rname, cname), (want_s, want_i) in CRA_CRITERIA.items():
            rule, c = fixtures.rules[rname], fixtures.constraints[cname]
            sustain = criterion_direct_sustain(rule, c)
            improve = criterion_direct_improve(rule, c)
            for res, (verdict, overlaps, note) in ((sustain, want_s), (improve, want_i)):
                got = (res.verdict, len(res.evidence), res.notes, res.conjectured)
                assert got == (verdict, overlaps, (NOTES[note],), False), (rname, cname)

    def test_three_levels_under_conjecture(self, fixtures):
        deep = _cra_chain(fixtures, 3)
        assert deep.shape.level == 3
        for rname, (want_s, want_i) in CRA_DEEP_CRITERIA.items():
            rule = fixtures.rules[rname]
            sustain = criterion_direct_sustain(rule, deep, allow_conjecture=True)
            improve = criterion_direct_improve(rule, deep, allow_conjecture=True)
            for res, verdict in ((sustain, want_s), (improve, want_i)):
                got = (res.verdict, res.conjectured, res.evidence, res.notes)
                assert got == (verdict, True, (), (NOTES["conjectured"],)), rname
            for criterion in (criterion_direct_sustain, criterion_direct_improve):
                with pytest.raises(UnsupportedShapeError, match="three-level chains"):
                    criterion(rule, deep)

    def test_four_levels_have_no_criterion(self, fixtures):
        deeper = _cra_chain(fixtures, 4)
        assert deeper.shape.level == 4 and deeper.shape.polarity == UNIVERSAL
        for rule in fixtures.rule_list():
            for criterion in (criterion_direct_sustain, criterion_direct_improve):
                for conjecture in (False, True):
                    with pytest.raises(UnsupportedShapeError, match="no static criterion for shape"):
                        criterion(rule, deeper, allow_conjecture=conjecture)


class TestImproveCriterion:
    def test_necessity_verdicts_across_the_example(self, fixtures):
        expected_holds = {
            ("assignFeature", "c2"), ("assignFeature", "c3"),
            ("moveFeature", "c1"), ("moveFeature", "c2"), ("moveFeature", "c3"),
            ("deleteEmptyClass", "c2"),
        }
        for rname, rule in fixtures.rules.items():
            for cname, constraint in fixtures.constraints.items():
                res = criterion_direct_improve(rule, constraint)
                want = (
                    NECESSARY_CONDITION_HOLDS
                    if (rname, cname) in expected_holds
                    else NECESSARY_CONDITION_FAILS
                )
                assert res.verdict == want, (rname, cname, res.verdict)

    def test_plain_destroyer_is_proven_improving(self, tg2, small_rules, patterns):
        delete_a, _, _ = small_rules
        single, _, _ = patterns
        no_a = Constraint("no_a", Not(Exists(empty_morphism_into(single))))
        res = criterion_direct_improve(delete_a, no_a)
        assert res.verdict == PROVEN_IMPROVING and res.decisive

    def test_supplying_the_sustain_result_changes_nothing(self, fixtures):
        rule = fixtures.rules["deleteEmptyClass"]
        c = fixtures.constraints["c2"]
        sustain = criterion_direct_sustain(rule, c)
        with_hint = criterion_direct_improve(rule, c, sustain=sustain)
        without = criterion_direct_improve(rule, c)
        assert with_hint.verdict == without.verdict

    def test_a_sustain_result_for_another_pair_is_refused(self, fixtures):
        rule, other = fixtures.rules["deleteEmptyClass"], fixtures.rules["createClass"]
        c1, c2 = fixtures.constraints["c1"], fixtures.constraints["c2"]
        for sustain in (criterion_direct_sustain(other, c2), criterion_direct_sustain(rule, c1)):
            with pytest.raises(MismatchError, match="sustain result is for"):
                criterion_direct_improve(rule, c2, sustain=sustain)


class TestIndependenceTable:
    def test_level_one_constraints_have_no_continuation_columns(self, fixtures):
        table = independence_table(fixtures.rule_list(), fixtures.constraint_list())
        assert ("par_independent", "c1") not in table.columns
        assert ("seq_dependent", "c1") not in table.columns
        assert len(table.columns) == 10
        assert len(table.counts) == 40

    def test_signs_follow_counts(self, fixtures):
        table = independence_table(fixtures.rule_list(), fixtures.constraint_list())
        assert table.counts[("assignFeature", "seq_independent", "c1")] > 0
        assert table.sign("assignFeature", "seq_independent", "c1") == "-"
        assert table.counts[("deleteEmptyClass", "seq_independent", "c1")] == 0
        assert table.sign("deleteEmptyClass", "seq_independent", "c1") == "+"
        assert table.counts[("deleteEmptyClass", "seq_dependent", "c2")] == 0
        assert table.sign("deleteEmptyClass", "seq_dependent", "c2") == "-"

    def test_counting_builds_no_glued_graph(self, fixtures, monkeypatch):
        built = []
        with_added = TypedGraph.with_added

        def counted(graph, *args):
            built.append(graph)
            return with_added(graph, *args)

        monkeypatch.setattr(TypedGraph, "with_added", counted)
        table = independence_table(fixtures.rule_list(), fixtures.constraint_list())
        assert sum(table.counts.values()) == 46 and built == []
        c1 = fixtures.constraints["c1"].shape.outer_graph
        ov = check_depends_on_rule(fixtures.rules["assignFeature"], c1)[0]
        assert built == []
        graph = ov.graph
        assert ov.graph is graph and ov.rule_injection.codomain is graph
        assert built == [ov.side]

    def test_rendering(self, fixtures):
        table = independence_table(fixtures.rule_list(), fixtures.constraint_list())
        text = table.render_text()
        assert "moveFeature" in text and "seq:c1.scop" in text


def _random_pair(seed):
    rng = random.Random(seed)
    tg = random_type_graph(rng)
    rule = random_rule(tg, rng, f"r{seed}")
    return rule, random_linear_constraint(tg, rng, f"c{seed}", max_level=4)


def _criteria(rule, constraint):
    """Both criteria, with and without ``allow_conjecture``; a refusal as
    its type and message."""
    results = []
    for conjecture in (False, True):
        for criterion in (criterion_direct_sustain, criterion_direct_improve):
            try:
                results.append(criterion(rule, constraint, allow_conjecture=conjecture))
            except GradconsError as exc:
                results.append((type(exc).__name__, str(exc)))
    return results


def _check_glued_graph(ov) -> None:
    """Both injections of the overlap are total, injective and structure
    preserving and jointly cover its glued graph. The side is included by
    id; each identified pattern element goes to its side partner, and
    each other one to an id outside the side."""
    side, graph = ov.side, ov.graph
    images = ([], [])
    for m, domain in ((ov.rule_injection, side), (ov.pattern_injection, ov.pattern)):
        assert m.domain is domain and m.codomain is graph
        assert m.is_total() and m.is_injective() and m.check() == []
        images[0].extend(m.node_map.values())
        images[1].extend(m.edge_map.values())
    assert set(images[0]) == set(graph.node_ids) and set(images[1]) == set(graph.edge_ids)
    assert set(side.node_items()) <= set(graph.node_items())
    assert set(side.edge_items()) <= set(graph.edge_items())
    partner = dict(ov.identified)
    side_ids = {*side.node_ids, *side.edge_ids}
    for y, x in (*ov.pattern_injection.node_map.items(), *ov.pattern_injection.edge_map.items()):
        assert (x == partner[y]) if y in partner else (x not in side_ids), (y, x)


def _compare_with_gluings(pairs, monkeypatch) -> int:
    """Both criteria give the same results over the recursive reference,
    and every overlap search they make returns the reference's overlaps,
    order included, each with a well-formed glued graph. ``_repairs``
    keeps the overlaps that the reference filter keeps, wherever a
    constraint has a continuation. Returns the number of overlaps
    compared."""
    search = analysis._overlaps
    compared = 0

    def checked(*args):
        nonlocal compared
        want = overlaps_by_gluing(*args)
        got = search(*args)
        assert got == want, args[0]
        for ov in got:
            _check_glued_graph(ov)
        compared += len(want)
        return want

    for rule, constraint in pairs:
        results = _criteria(rule, constraint)
        shape = constraint.shape
        if shape.level >= 2:
            assert analysis._repairs(rule, shape) == repairs_by_injection(rule, shape), (
                rule.name, constraint.name)
        with monkeypatch.context() as patched:
            patched.setattr(analysis, "_overlaps", checked)
            assert _criteria(rule, constraint) == results, (rule.name, constraint.name)
    return compared


def _add_feature(tg, n: int) -> Rule:
    """A rule that adds one Feature next to an interface of n Classes."""
    classes = TypedGraph(tg, [(f"c{i:04d}", "Class") for i in range(n)])
    return Rule("addFeature", classes, classes, classes.with_added([("f", "Feature")]))


class TestOverlapsAgainstGluings:
    def test_cra_pairs_and_the_deep_chain(self, fixtures, monkeypatch):
        pairs = [(rule, c) for rule in fixtures.rule_list() for c in fixtures.constraint_list()]
        pairs += [(rule, _cra_chain(fixtures, 3)) for rule in fixtures.rule_list()]
        assert _compare_with_gluings(pairs, monkeypatch) > 80

    def test_random_pairs(self, monkeypatch):
        pairs = [_random_pair(seed) for seed in range(7000, 7200)]
        assert _compare_with_gluings(pairs, monkeypatch) > 2000

    def test_side_longer_than_the_recursion_limit(self, fixtures, tmp_path, capsys):
        n = 1100
        assert n > sys.getrecursionlimit()
        tg = fixtures.type_graph
        rule = _add_feature(tg, n)
        no_feature = Constraint(
            "noFeature", Not(Exists(empty_morphism_into(TypedGraph(tg, [("F", "Feature")])))))
        res = criterion_direct_sustain(rule, no_feature)
        assert res.verdict == PROVEN_NOT_DIRECTLY_SUSTAINING and len(res.evidence) == 1
        [ov] = res.evidence
        assert ov.pattern_injection.node_map == {"F": "f"}

        (tmp_path / "rule.json").write_text(emit_rule_document(rule))
        (tmp_path / "constraints.json").write_text(emit_constraints_library(tg, [no_feature]))
        code = main(["analyze", str(tmp_path / "rule.json"), str(tmp_path / "constraints.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "direct sustainment:    proven_not_directly_sustaining" in out
