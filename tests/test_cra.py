"""Tests for the packaged modeling scenario and its reference tables."""

from dataclasses import replace

import pytest

from gradcons import classify_step, cra
from gradcons.classify import NO_COUNTEREXAMPLE, PROVEN_NO, WITNESS_FOUND
from gradcons.errors import ContradictionError, DocumentError


class TestFixtureFiles:
    def test_loaded_fixtures_match_programmatic_build(self, fixtures):
        built = cra.build_fixtures()
        assert fixtures.type_graph == built.type_graph
        assert fixtures.host == built.host
        assert set(fixtures.rules) == set(cra.RULE_NAMES)
        assert set(fixtures.constraints) == set(cra.CONSTRAINT_NAMES)
        for name in cra.RULE_NAMES:
            assert fixtures.rules[name] == built.rules[name]
        for name in cra.CONSTRAINT_NAMES:
            assert fixtures.constraints[name] == built.constraints[name]

    def test_parsed_documents_share_one_type_graph(self, fixtures):
        # Six documents hold equal type graphs; parsing keeps the first, so
        # matches and reports over them compare by identity.
        tg = fixtures.type_graph
        assert fixtures.host.type_graph is tg
        for rule in fixtures.rule_list():
            for side in (rule.lhs, rule.interface, rule.rhs):
                assert side.type_graph is tg
        for c in fixtures.constraint_list():
            assert c.type_graph is tg
            assert c.shape.outer_graph.type_graph is tg

    def test_equal_loads_hash_equal(self):
        first, second = cra.load_fixtures(), cra.load_fixtures()
        assert first is not second and first == second
        assert hash(first) == hash(second) and len({first, second}) == 1

    def test_rule_and_constraint_lists_follow_canonical_order(self, fixtures):
        assert [r.name for r in fixtures.rule_list()] == list(cra.RULE_NAMES)
        assert [c.name for c in fixtures.constraint_list()] == list(cra.CONSTRAINT_NAMES)

    def test_shipped_files_are_a_regeneration_fixed_point(self, tmp_path):
        written = cra.write_fixture_files(tmp_path)
        packaged = cra.FIXTURES_DIR
        assert {p.name for p in written} == {p.name for p in packaged.iterdir()}
        for path in written:
            assert path.read_bytes() == (packaged / path.name).read_bytes()

    def test_loading_rejects_a_library_missing_a_constraint(self, tmp_path):
        from gradcons.formats import emit_constraints_library

        cra.write_fixture_files(tmp_path)
        fixtures = cra.build_fixtures()
        partial = [fixtures.constraints["c1"], fixtures.constraints["c2"]]
        (tmp_path / "constraints.json").write_text(
            emit_constraints_library(fixtures.type_graph, partial)
        )
        with pytest.raises(DocumentError) as err:
            cra.load_fixtures(tmp_path)
        assert any("missing" in p for p in err.value.problems)

    def test_loading_rejects_a_rule_over_a_different_type_graph(self, tmp_path):
        from gradcons.formats import emit_rule_document
        from gradcons.graphs import TypeGraph, TypedGraph
        from gradcons.rewriting import Rule

        cra.write_fixture_files(tmp_path)
        other_tg = TypeGraph(["Class", "Feature", "Stray"],
                             [("isAssigned", "Feature", "Class"),
                              ("dependsOn", "Feature", "Feature")])
        lhs = TypedGraph(other_tg, [("x", "Stray")])
        stray = Rule("assignFeature", lhs, lhs, lhs)
        (tmp_path / "rule_assignFeature.json").write_text(emit_rule_document(stray))
        with pytest.raises(DocumentError) as err:
            cra.load_fixtures(tmp_path)
        assert any("different type graph" in p for p in err.value.problems)

    def test_loading_surfaces_corrupted_json(self, tmp_path):
        cra.write_fixture_files(tmp_path)
        (tmp_path / "host_graph.json").write_text("{not json")
        with pytest.raises(DocumentError):
            cra.load_fixtures(tmp_path)


class TestGoldenTables:
    def test_golden_shapes(self):
        assert len(cra.INDEPENDENCE_GOLDEN) == 40
        assert len(cra.CLASSIFICATION_GOLDEN) == 12
        assert len(cra.STATIC_PROOF_GOLDEN) == 5
        assert set(cra.INDEPENDENCE_GOLDEN.values()) <= {"+", "-"}
        for sus, imp in cra.CLASSIFICATION_GOLDEN.values():
            assert sus in {"+", "-", "(+)"}
            assert imp in {"+", "-", "+*"}

    def test_static_proofs_imply_positive_sustaining_cells(self):
        for key in cra.STATIC_PROOF_GOLDEN:
            assert cra.CLASSIFICATION_GOLDEN[key][0] == "+"

    def test_continuation_groups_skip_the_single_level_constraint(self):
        # c1 has no inner level, so the groups measured against the
        # continuation pattern carry no c1 column.
        assert ("assignFeature", "seq_independent", "c1") in cra.INDEPENDENCE_GOLDEN
        assert ("assignFeature", "par_dependent", "c1") in cra.INDEPENDENCE_GOLDEN
        assert ("assignFeature", "par_independent", "c1") not in cra.INDEPENDENCE_GOLDEN
        assert ("assignFeature", "seq_dependent", "c1") not in cra.INDEPENDENCE_GOLDEN


class TestIndependenceReproduction:
    def test_reproduction_matches_golden(self, fixtures):
        rep = cra.reproduce_independence_table(fixtures)
        assert rep.ok
        assert rep.diffs == ()
        assert "All 40 cells match" in rep.render_text()

    def test_spot_checked_signs(self, fixtures):
        table = cra.reproduce_independence_table(fixtures).table
        assert table.sign("deleteEmptyClass", "seq_independent", "c1") == "+"
        assert table.sign("moveFeature", "par_dependent", "c1") == "+"
        assert table.sign("moveFeature", "par_dependent", "c3") == "+"
        assert table.sign("assignFeature", "seq_dependent", "c2") == "+"
        assert table.sign("createClass", "seq_independent", "c2") == "-"


@pytest.fixture(scope="module")
def rep(fixtures):
    return cra.reproduce_classification_table(fixtures)


class TestClassificationReproduction:
    def test_reproduction_matches_golden(self, rep):
        assert rep.ok, rep.diffs
        assert rep.statically_proven == cra.STATIC_PROOF_GOLDEN
        assert "All 24 cells match" in rep.render_text()

    def test_cells_follow_the_legend(self, rep, fixtures):
        """Each cell re-derived from the claim statuses behind it and the
        static proofs, as the legend above CLASSIFICATION_GOLDEN reads; the
        step behind every refuted or witnessed claim replays its verdict."""
        assert rep.cells == cra.CLASSIFICATION_GOLDEN
        for key, result in rep.empirical.items():
            constraint = fixtures.constraints[key[1]]
            for claim in result.claims.values():
                if claim.transformation is not None:
                    assert classify_step(claim.transformation, constraint) == claim.step_verdict
            status = {name: claim.status for name, claim in result.claims.items()}
            if key in rep.statically_proven:
                assert PROVEN_NO not in (status["sustaining"], status["directly_sustaining"])
            if status["sustaining"] == PROVEN_NO:
                sus = "-"  # a counterexample step
            elif status["directly_sustaining"] == PROVEN_NO:
                sus = "(+)"  # sustaining held throughout, direct sustainment did not
            else:
                sus = "+"  # a static proof, or no counterexample in the search
            if sus == "-" or status["improving"] != WITNESS_FOUND:
                imp = "-"
            elif status["strongly_improving"] == PROVEN_NO:
                imp = "+"  # some application on an inconsistent host did not improve
            else:
                imp = "+*"  # every application on an inconsistent host improved
            assert rep.cells[key] == (sus, imp), key

    def test_static_results_cross_check_the_search(self, fixtures, monkeypatch):
        """createClass/c2 is statically sustaining and statically not
        improving: a search claiming otherwise is a contradiction, and the
        sustaining one is reported first."""
        search = cra.classify_rule_empirical

        def contradicting(statuses):
            def run(*args, **kwargs):
                result = search(*args, **kwargs)
                claims = {name: replace(claim, status=statuses.get(name, claim.status))
                          for name, claim in result.claims.items()}
                return replace(result, claims=claims)
            return run

        for statuses, message in [
            ({"sustaining": PROVEN_NO, "improving": WITNESS_FOUND}, "statically certified"),
            ({"directly_sustaining": PROVEN_NO}, "statically certified"),
            ({"improving": WITNESS_FOUND}, "improvement statically impossible"),
        ]:
            monkeypatch.setattr(cra, "classify_rule_empirical", contradicting(statuses))
            with pytest.raises(ContradictionError, match=message):
                cra._classify_pair(fixtures.rules["createClass"], fixtures.constraints["c2"],
                                   bound=3, samples=0, seed=1)

    def test_equal_reproductions_hash_equal(self, fixtures):
        independence = [cra.reproduce_independence_table(fixtures) for _ in range(2)]
        classification = [cra.reproduce_classification_table(fixtures, bound=3, samples=0)
                          for _ in range(2)]
        for first, second in (independence, classification):
            assert first is not second and first == second
            assert hash(first) == hash(second) and len({first, second}) == 1

    def test_empirical_claims_behind_the_cells(self, rep):
        mf_c3 = rep.empirical[("moveFeature", "c3")]
        assert mf_c3.claim("sustaining").status == PROVEN_NO
        assert mf_c3.claim("sustaining").transformation is not None

        af_c2 = rep.empirical[("assignFeature", "c2")]
        assert af_c2.claim("sustaining").status == NO_COUNTEREXAMPLE
        assert af_c2.claim("improving").status == WITNESS_FOUND
        assert af_c2.claim("strongly_improving").status == PROVEN_NO
