from fractions import Fraction

import pytest

from gradcons import (
    EXISTENTIAL,
    FALSE,
    GraphMorphism,
    TRUE,
    UNIVERSAL,
    And,
    AnfError,
    Condition,
    Constraint,
    Exists,
    MismatchError,
    Not,
    TypedGraph,
    consistency_report,
    empty_graph,
    empty_morphism_into,
    extensions,
    forall,
    graph_satisfies,
    inclusion,
    negate,
    satisfies,
    validate_anf,
)
from gradcons.conditions import iter_extensions


@pytest.fixture
def shapes(tg2):
    single = TypedGraph(tg2, [("p", "A")])
    pair = single.with_added([("q", "B")], [("e", "ab", "p", "q")])
    return single, pair


class TestConditionAlgebra:
    def test_false_is_not_true(self):
        assert FALSE == Not(TRUE)

    def test_negate_collapses_double_negation(self, shapes):
        single, pair = shapes
        c = Exists(inclusion(single, pair))
        assert negate(c) == Not(c)
        assert negate(Not(c)) == c

    def test_forall_desugars_to_not_exists_not(self, shapes):
        single, pair = shapes
        a = inclusion(single, pair)
        assert forall(a) == Not(Exists(a, TRUE))
        inner = Exists(inclusion(pair, pair), TRUE)
        assert forall(a, inner) == Not(Exists(a, Not(inner)))

    def test_exists_rejects_non_injective_and_mismatched_anchors(self, tg2, shapes):
        single, pair = shapes
        a = inclusion(single, pair)
        with pytest.raises(MismatchError, match="anchored"):
            Exists(a, Exists(inclusion(single, pair)))  # sub anchored at single, not pair

    def test_and_rejects_mixed_anchors(self, shapes):
        single, pair = shapes
        with pytest.raises(MismatchError, match="anchored"):
            And(Exists(inclusion(single, single)), Exists(inclusion(pair, pair)))

    def test_constraint_demands_empty_root_anchor(self, shapes):
        single, pair = shapes
        with pytest.raises(MismatchError, match="empty graph"):
            Constraint("bad", Exists(inclusion(single, pair)))


class TestSatisfaction:
    def test_exists_with_seeded_anchor(self, tg2, shapes):
        single, pair = shapes
        host = TypedGraph(
            tg2,
            [("a1", "A"), ("a2", "A"), ("b", "B")],
            [("e1", "ab", "a1", "b")],
        )
        cond = Exists(inclusion(single, pair))
        at_a1 = GraphMorphism(single, host, {"p": "a1"}, {})
        at_a2 = GraphMorphism(single, host, {"p": "a2"}, {})
        assert satisfies(at_a1, cond)
        assert not satisfies(at_a2, cond)

    def test_extensions_agree_with_the_anchor(self, tg2, shapes):
        single, pair = shapes
        host = TypedGraph(
            tg2,
            [("a1", "A"), ("b1", "B"), ("b2", "B")],
            [("e1", "ab", "a1", "b1"), ("e2", "ab", "a1", "b2")],
        )
        p = GraphMorphism(single, host, {"p": "a1"}, {})
        exts = extensions(p, inclusion(single, pair))
        assert len(exts) == 2
        assert all(q.node_map["p"] == "a1" for q in exts)
        assert sorted(q.node_map["q"] for q in exts) == ["b1", "b2"]

    def test_extensions_refuse_a_malformed_anchor(self, tg2, shapes):
        """``a`` must be an embedding, as for an :class:`Exists` node: a
        partial, a non-injective, or a total map whose edge does not run
        between the images of its ends raises instead of finding nothing."""
        _, pair = shapes
        wide = pair.with_added([("r", "B")], [("f", "ab", "p", "r")])
        host = TypedGraph(tg2, [("a1", "A"), ("b1", "B"), ("b2", "B")],
                          [("e1", "ab", "a1", "b1"), ("e2", "ab", "a1", "b2")])
        p = GraphMorphism(pair, host, {"p": "a1", "q": "b1"}, {"e": "e1"})
        two = TypedGraph(tg2, [("p", "A"), ("q", "B"), ("q2", "B")])
        malformed = [
            GraphMorphism(pair, wide, {"p": "p", "q": "q"}, {}),  # not total
            GraphMorphism(two, wide, {"p": "p", "q": "q", "q2": "q"}, {}),  # not injective
            GraphMorphism(pair, wide, {"p": "p", "q": "q"}, {"e": "f"}),  # does not commute
        ]
        assert malformed[2].is_total() and malformed[2].is_injective()
        for a in malformed:
            with pytest.raises(MismatchError):
                Exists(a)
            q = GraphMorphism(a.domain, host, dict(zip(a.domain.node_ids, ("a1", "b1", "b2"))),
                              dict(zip(a.domain.edge_ids, ("e1",))))
            with pytest.raises(MismatchError):
                extensions(q, a)
        assert len(extensions(p, inclusion(pair, wide))) == 1

    def test_extensions_refuse_an_occurrence_that_is_not_total_on_the_anchor(
            self, tg2, shapes):
        """``p`` must be a total occurrence of ``a.domain``, for
        ``extensions`` and ``satisfies`` alike: a partial one, one that maps
        an id the anchor lacks (with the anchor's sizes) and one of another
        graph raise instead of failing in the search."""
        single, pair = shapes
        host = TypedGraph(tg2, [("a1", "A"), ("b1", "B")], [("e1", "ab", "a1", "b1")])
        a = inclusion(single, pair)
        partial = GraphMorphism(single, host, {}, {})
        foreign = GraphMorphism(pair, host, {"p": "a1", "q": "b1"}, {"e": "e1"})
        misnamed = GraphMorphism(single, host, {"x": "a1"}, {})
        for p in (partial, foreign, misnamed):
            with pytest.raises(MismatchError):
                extensions(p, a)
            with pytest.raises(MismatchError):
                satisfies(p, Exists(a))
        assert len(extensions(GraphMorphism(single, host, {"p": "a1"}, {}), a)) == 1

    def test_extensions_refuse_an_occurrence_that_is_not_injective(self, tg2, shapes):
        single, pair = shapes
        two = single.with_added([("p2", "A")])
        host = TypedGraph(tg2, [("a1", "A"), ("b1", "B")], [("e1", "ab", "a1", "b1")])
        glued = GraphMorphism(two, host, {"p": "a1", "p2": "a1"}, {})
        wider = two.with_added([("q", "B")], [("e", "ab", "p", "q")])
        with pytest.raises(ValueError, match="occurrence is not injective"):
            iter_extensions(glued, inclusion(two, wider))

    def test_satisfies_rejects_partial_occurrences(self, tg2, shapes):
        single, _ = shapes
        host = TypedGraph(tg2, [("a1", "A")])
        partial = GraphMorphism(single, host, {}, {})
        with pytest.raises(MismatchError):
            satisfies(partial, TRUE)


class TestAnfValidation:
    def test_fixture_constraints_parse(self, fixtures):
        c1 = validate_anf(fixtures.constraints["c1"])
        assert c1.polarity == UNIVERSAL and c1.level == 1 and c1.ends_with_false
        assert c1.outer_graph.node_count == 3 and c1.witness_graph is None

        c2 = validate_anf(fixtures.constraints["c2"])
        assert c2.polarity == UNIVERSAL and c2.level == 2 and not c2.ends_with_false
        assert c2.witness_graph.node_count == 2

        c3 = validate_anf(fixtures.constraints["c3"])
        assert c3.level == 2
        assert "∀C1" in c3.render() and "∃C2" in c3.render()

    def test_existential_constraint_parses(self, tg2, shapes):
        single, _ = shapes
        c = Constraint("some_a", Exists(empty_morphism_into(single)))
        shape = validate_anf(c)
        assert shape.polarity == EXISTENTIAL and shape.level == 1
        assert not shape.ends_with_false

    def test_rejects_level_zero(self, tg2):
        with pytest.raises(AnfError, match="nesting level 0"):
            validate_anf(Constraint("t", TRUE))
        err = None
        try:
            validate_anf(Constraint("f", FALSE))
        except AnfError as exc:
            err = exc
        assert err is not None and err.position == 0

    def test_rejects_conjunction(self, tg2, shapes):
        single, _ = shapes
        a = empty_morphism_into(single)
        c = Constraint("conj", And(Exists(a), Exists(a)))
        with pytest.raises(AnfError, match="conjunction"):
            validate_anf(c)

    def test_rejects_isomorphic_chain_morphism(self, tg2, shapes):
        single, _ = shapes
        c = Constraint("iso", Exists(empty_morphism_into(empty_graph(tg2))))
        with pytest.raises(AnfError, match="isomorphism"):
            validate_anf(c)

    def test_rejects_degenerate_terminals(self, tg2, shapes):
        single, _ = shapes
        a = empty_morphism_into(single)
        with pytest.raises(AnfError, match="existential level ends with false"):
            validate_anf(Constraint("ef", Exists(a, FALSE)))
        with pytest.raises(AnfError, match="universal level ends with true"):
            validate_anf(Constraint("ut", Not(Exists(a, FALSE))))

    def test_rejects_non_alternation(self, tg2, shapes):
        single, pair = shapes
        a = empty_morphism_into(single)
        b = inclusion(single, pair)
        with pytest.raises(AnfError, match="do not alternate"):
            validate_anf(Constraint("ee", Exists(a, Exists(b))))

    def test_rejects_buried_negation(self, tg2, shapes):
        single, _ = shapes
        a = empty_morphism_into(single)
        with pytest.raises(AnfError, match="negation"):
            validate_anf(Constraint("nn", Not(Not(Exists(a)))))


class Opaque(Condition):
    """A condition node the ANF parser does not know."""

    __slots__ = ()

    def anchor(self):
        return None


@pytest.fixture
def ladder(tg2):
    """The inclusions C0 -> C1 -> ... -> C4 of strictly growing patterns
    (C0 empty, Ck with k nodes and k - 1 edges), and the identity of each Ck."""
    c1 = TypedGraph(tg2, [("p", "A")])
    c2 = c1.with_added([("q", "B")], [("e", "ab", "p", "q")])
    c3 = c2.with_added([("r", "A")], [("f", "aa", "r", "p")])
    c4 = c3.with_added([("s", "B")], [("g", "ab", "r", "s")])
    graphs = [empty_graph(tg2), c1, c2, c3, c4]
    steps = [inclusion(small, large) for small, large in zip(graphs, graphs[1:])]
    return steps, [inclusion(g, g) for g in graphs]


def alternating(first: str, morphisms) -> Condition:
    """The linear constraint over ``morphisms`` whose quantifiers alternate
    from ``first`` (``"exists"`` or ``"forall"``)."""
    a, rest = morphisms[0], morphisms[1:]
    other = "forall" if first == "exists" else "exists"
    if first == "exists":
        return Exists(a, alternating(other, rest) if rest else TRUE)
    return forall(a, alternating(other, rest) if rest else FALSE)


ISO = "chain morphism is an isomorphism"
CONJUNCTION = "conjunction inside a linear constraint"
EXISTS_FALSE = "existential level ends with false"
FORALL_TRUE = "universal level ends with true"
EXISTS_EXISTS = "quantifiers do not alternate (exists under exists)"
FORALL_FORALL = "quantifiers do not alternate (forall under forall)"
MALFORMED_BODY = "malformed chain body"

# (case, condition built from the ladder's inclusions a and identities i,
#  position, reason) for every rejection the parser can reach.
REJECTIONS = [
    ("true", lambda a, i: TRUE, 0, "nesting level 0"),
    ("false", lambda a, i: FALSE, 0, "nesting level 0"),
    ("conjunction", lambda a, i: And(Exists(a[0]), Exists(a[0])), 0, CONJUNCTION),
    ("negated conjunction", lambda a, i: Not(And(Exists(a[0]), Exists(a[0]))), 0, CONJUNCTION),
    ("double negation", lambda a, i: Not(Not(Exists(a[0]))), 0,
     "negation is not at the innermost level"),
    ("isomorphism at level 0", lambda a, i: Exists(i[0]), 0, ISO),
    ("universal isomorphism at level 0", lambda a, i: forall(i[0]), 0, ISO),
    ("isomorphism before a bad body", lambda a, i: Exists(i[0], FALSE), 0, ISO),
    ("isomorphism at level 1", lambda a, i: Exists(a[0], forall(i[1])), 1, ISO),
    ("isomorphism at level 2", lambda a, i: forall(a[0], Exists(a[1], forall(i[2]))), 2, ISO),
    ("exists ending in false", lambda a, i: Exists(a[0], FALSE), 0, EXISTS_FALSE),
    ("forall ending in true", lambda a, i: forall(a[0], TRUE), 0, FORALL_TRUE),
    ("exists ending in false at level 1", lambda a, i: forall(a[0], Exists(a[1], FALSE)), 1,
     EXISTS_FALSE),
    ("forall ending in true at level 1", lambda a, i: Exists(a[0], forall(a[1], TRUE)), 1,
     FORALL_TRUE),
    ("forall ending in true at level 2",
     lambda a, i: forall(a[0], Exists(a[1], forall(a[2], TRUE))), 2, FORALL_TRUE),
    ("exists under exists", lambda a, i: Exists(a[0], Exists(a[1])), 1, EXISTS_EXISTS),
    ("exists under exists at level 2", lambda a, i: forall(a[0], Exists(a[1], Exists(a[2]))), 2,
     EXISTS_EXISTS),
    ("forall under forall", lambda a, i: forall(a[0], forall(a[1])), 1, FORALL_FORALL),
    ("forall under forall at level 2", lambda a, i: Exists(a[0], forall(a[1], forall(a[2]))), 2,
     FORALL_FORALL),
    ("conjunction as a body", lambda a, i: Exists(a[0], And(Exists(a[1]), Exists(a[1]))), 1,
     MALFORMED_BODY),
    ("double negation as a body", lambda a, i: Exists(a[0], Not(Not(Exists(a[1])))), 1,
     MALFORMED_BODY),
    ("unknown node as a body", lambda a, i: Exists(a[0], Opaque()), 1, MALFORMED_BODY),
    ("negated unknown node as a universal body", lambda a, i: forall(a[0], Opaque()), 1,
     MALFORMED_BODY),
    ("negated unknown node as a body at level 2",
     lambda a, i: Exists(a[0], forall(a[1], Not(Opaque()))), 2, MALFORMED_BODY),
    ("unknown node", lambda a, i: Opaque(), 0, "unsupported condition node Opaque"),
    ("negated unknown node", lambda a, i: Not(Opaque()), 0, "malformed chain"),
]

# (first quantifier, level, render()) of accepted chains.
ACCEPTED = [
    ("exists", 1, "∃C1[1n/0e]"),
    ("forall", 1, "∀C1[1n/0e], false"),
    ("exists", 2, "∃C1[1n/0e] . ∀C2[2n/1e], false"),
    ("forall", 2, "∀C1[1n/0e] . ∃C2[2n/1e]"),
    ("exists", 3, "∃C1[1n/0e] . ∀C2[2n/1e] . ∃C3[3n/2e]"),
    ("forall", 3, "∀C1[1n/0e] . ∃C2[2n/1e] . ∀C3[3n/2e], false"),
    ("exists", 4, "∃C1[1n/0e] . ∀C2[2n/1e] . ∃C3[3n/2e] . ∀C4[4n/3e], false"),
    ("forall", 4, "∀C1[1n/0e] . ∃C2[2n/1e] . ∀C3[3n/2e] . ∃C4[4n/3e]"),
]


class TestAnfTable:
    @pytest.mark.parametrize("build,position,reason",
                             [case[1:] for case in REJECTIONS],
                             ids=[case[0] for case in REJECTIONS])
    def test_rejection(self, ladder, build, position, reason):
        steps, identities = ladder
        with pytest.raises(AnfError) as caught:
            validate_anf(Constraint("c", build(steps, identities)))
        assert (caught.value.position, caught.value.reason) == (position, reason)

    @pytest.mark.parametrize("first,level,rendered", ACCEPTED)
    def test_accepted_chain(self, ladder, first, level, rendered):
        steps, _ = ladder
        condition = alternating(first, steps[:level])
        shape = validate_anf(Constraint("c", condition))
        other = "forall" if first == "exists" else "exists"
        quants = ([first, other] * 2)[:level]
        assert shape.chain == tuple(zip(quants, steps[:level]))
        assert shape.polarity == (EXISTENTIAL if first == "exists" else UNIVERSAL)
        assert shape.level == level
        assert shape.ends_with_false == (quants[-1] == "forall")
        assert shape.render() == rendered
        outermost = condition if first == "exists" else condition.sub
        assert shape.body is outermost.sub


class TestConsistencyReport:
    def test_universal_with_no_occurrence_is_clean(self, fixtures):
        r = consistency_report(fixtures.host, fixtures.constraints["c1"])
        assert (r.occ, r.ro, r.ncv) == (0, 0, 0)
        assert r.ci == 1 and r.satisfied

    def test_universal_fully_satisfied(self, fixtures):
        r = consistency_report(fixtures.host, fixtures.constraints["c2"])
        assert (r.occ, r.ro, r.ncv) == (2, 2, 0)
        assert r.ci == 1 and r.satisfied

    def test_universal_half_consistent_with_witness(self, fixtures):
        r = consistency_report(fixtures.host, fixtures.constraints["c3"])
        assert (r.occ, r.ro, r.ncv) == (2, 2, 1)
        assert r.ci == Fraction(1, 2) and not r.satisfied
        assert len(r.violating_occurrences) == 1
        witness = r.violating_occurrences[0].node_map
        assert witness["F1"] == "f1" and witness["F2"] == "f3"

    def test_existential_report_is_all_or_nothing(self, tg2, shapes):
        single, _ = shapes
        c = Constraint("some_a", Exists(empty_morphism_into(single)))
        with_a = TypedGraph(tg2, [("x", "A")])
        without_a = TypedGraph(tg2, [("y", "B")])
        r1 = consistency_report(with_a, c)
        assert (r1.ro, r1.ncv, r1.ci) == (1, 0, 1)
        r0 = consistency_report(without_a, c)
        assert (r0.ro, r0.ncv, r0.ci) == (1, 1, 0)

    def test_graph_satisfies_agrees_with_report(self, fixtures):
        for c in fixtures.constraint_list():
            assert graph_satisfies(fixtures.host, c) == consistency_report(
                fixtures.host, c
            ).satisfied

    def test_type_graph_mismatch_is_rejected(self, fixtures, tg2):
        foreign = TypedGraph(tg2, [("x", "A")])
        with pytest.raises(MismatchError):
            consistency_report(foreign, fixtures.constraints["c1"])
        with pytest.raises(MismatchError, match="different type graphs"):
            graph_satisfies(foreign, fixtures.constraints["c1"])


class TestEmptyGraphSatisfaction:
    def test_empty_graph_satisfies_universals_and_refutes_existentials(self, fixtures, tg2):
        empty = empty_graph(fixtures.type_graph)
        for c in fixtures.constraint_list():
            assert graph_satisfies(empty, c)
        single = TypedGraph(tg2, [("p", "A")])
        some = Constraint("some_a", Exists(empty_morphism_into(single)))
        assert not graph_satisfies(empty_graph(tg2), some)
