"""End-to-end tests for the command line front end.

Each test invokes :func:`gradcons.cli.main` in process with an argv list
and captures stdout/stderr, so exit codes and printed text are checked
exactly as a shell user would see them.
"""

import contextlib
import dataclasses
import io
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcons import PROVEN_DIRECTLY_SUSTAINING, cra
from gradcons.cli import _select_match, main
from gradcons.conditions import FALSE, Constraint, Exists, Not, forall
from gradcons.formats import emit_constraint_document, emit_rule_document, parse_graph_document
from gradcons.errors import MatchError
from gradcons.graphs import GraphMorphism, TypedGraph, TypeGraph, empty_morphism_into, inclusion
from gradcons.rewriting import Rule, scan_matches

from .suites import seeded_cra_model


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """A directory with the scenario fixtures plus a few extra documents."""
    base = tmp_path_factory.mktemp("docs")
    cra.write_fixture_files(base)
    fixtures = cra.build_fixtures()
    tg = fixtures.type_graph

    a1 = TypedGraph(tg, [("C", "Class")])
    a2 = a1.with_added([("F", "Feature")], [("e", "isAssigned", "F", "C")])
    a3 = a2.with_added([("F2", "Feature")], [("d", "dependsOn", "F", "F2")])
    deep = Constraint(
        "deep",
        forall(empty_morphism_into(a1),
               Exists(inclusion(a1, a2), forall(inclusion(a2, a3), FALSE))),
    )
    (base / "deep.json").write_text(emit_constraint_document(deep))

    some_class = Constraint("someClass", Exists(empty_morphism_into(a1)))
    (base / "exists.json").write_text(emit_constraint_document(some_class))

    (base / "broken.json").write_text("{oops")
    return base


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_all_fixture_documents_validate(self, docs, capsys):
        files = sorted(str(p) for p in docs.glob("*.json") if p.name != "broken.json")
        code, out, _ = run(capsys, "validate", *files)
        assert code == 0
        assert "host_graph.json: graph ok (5 nodes, 6 edges)" in out
        assert "rule ok" in out
        assert "c1 (universal)" in out

    def test_structured_payload(self, docs, capsys):
        code, out, _ = run(
            capsys, "validate", str(docs / "constraints.json"), "--format", "structured"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["valid"][0]["kind"] == "constraint library"
        assert payload["invalid"] == []

    def test_broken_document_fails_with_exit_2(self, docs, capsys):
        code, out, _ = run(
            capsys, "validate", str(docs / "host_graph.json"), str(docs / "broken.json")
        )
        assert code == 2
        assert "broken.json: INVALID" in out
        assert "not valid JSON" in out

    def test_unknown_format_marker(self, docs, tmp_path, capsys):
        stray = tmp_path / "stray.json"
        # An array or object marker cannot be a dict key, yet is reported
        # like any other unknown one.
        for marker in ('"gradcons/nothing@9"', "[]", "{}"):
            stray.write_text('{"format": %s}\n' % marker)
            code, out, _ = run(capsys, "validate", str(stray))
            assert code == 2
            assert "unknown document format" in out

    def test_missing_file_exits_2(self, docs, capsys):
        code, out, _ = run(capsys, "validate", str(docs / "absent.json"))
        assert code == 2
        assert "absent.json: INVALID\n  - cannot read" in out

    def test_unreadable_files_are_listed_next_to_the_others(self, docs, tmp_path, capsys):
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"format": "gradcons/graph@1", "name": "caf\xe9"}')
        files = [str(docs / "absent.json"), str(docs / "host_graph.json"), str(latin)]
        code, out, err = run(capsys, "validate", *files)
        assert code == 2 and err == ""
        assert "host_graph.json: graph ok" in out
        assert "absent.json: INVALID\n  - cannot read" in out
        assert "latin.json: INVALID\n  - cannot read" in out and "utf-8" in out

        code, out, _ = run(capsys, "validate", *files, "--format", "structured")
        assert code == 2
        payload = json.loads(out)
        assert [v["path"] for v in payload["valid"]] == [files[1]]
        assert [i["path"] for i in payload["invalid"]] == [files[0], files[2]]

    def test_constraint_outside_anf_is_listed_invalid(self, docs, tmp_path, capsys):
        c1 = cra.build_fixtures().constraints["c1"]
        nonanf = tmp_path / "nonanf.json"
        nonanf.write_text(emit_constraint_document(Constraint("nonanf", Not(Not(c1.condition)))))
        files = [str(nonanf), str(docs / "host_graph.json"), str(docs / "constraints.json")]
        code, out, _ = run(capsys, "validate", *files)
        assert code == 2
        assert "host_graph.json: graph ok" in out
        assert "constraints.json: constraint library ok" in out
        assert "nonanf.json: INVALID\n  - constraint 'nonanf': not in alternating normal form" in out

        code, out, _ = run(capsys, "validate", *files, "--format", "structured")
        assert code == 2
        payload = json.loads(out)
        assert payload["ok"] is False
        assert [v["kind"] for v in payload["valid"]] == ["graph", "constraint library"]
        [invalid] = payload["invalid"]
        assert invalid["path"] == str(nonanf)
        assert invalid["problems"] == [
            "constraint 'nonanf': not in alternating normal form at level 0: "
            "negation is not at the innermost level"
        ]


    def test_type_graph_naming_a_node_type_twice_exits_2(self, docs, tmp_path, capsys):
        doc = json.loads((docs / "host_graph.json").read_text())
        doc["type_graph"]["node_types"].append("Class")
        twice = tmp_path / "twice.json"
        twice.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(twice))
        assert code == 2
        assert "twice.json: INVALID\n  - type_graph: duplicate node type name" in out

    def test_extended_graph_without_its_anchor_exits_2(self, docs, tmp_path, capsys):
        """c2 with an exists graph that drops the class its forall binds."""
        doc = json.loads(emit_constraint_document(cra.build_fixtures().constraints["c2"]))
        doc["condition"]["sub"]["graph"] = {"nodes": [{"id": "F", "type": "Feature"}],
                                            "edges": []}
        dropped = tmp_path / "dropped.json"
        dropped.write_text(json.dumps(doc))
        problem = ("condition.sub: extended graph does not contain its anchor: "
                   "node 'C' not present in the larger graph")
        code, out, _ = run(capsys, "validate", str(dropped))
        assert code == 2
        assert f"dropped.json: INVALID\n  - {problem}" in out
        code, out, err = run(capsys, "report", str(docs / "host_graph.json"), str(dropped))
        assert code == 2 and out == ""
        assert err == f"error: {problem}\n"

    @pytest.mark.parametrize("depth, problem", [
        (3000, "nested too deeply to decode"),
        (500, "conditions nest deeper than 100 levels"),
    ])
    def test_deeply_nested_condition_exits_2(self, docs, tmp_path, capsys, depth, problem):
        doc = json.loads((docs / "constraints.json").read_text())
        chain = '{"kind": "not", "sub": ' * depth + '{"kind": "true"}' + "}" * depth
        text = json.dumps({
            "format": "gradcons/constraint@1", "name": "deep",
            "type_graph": doc["type_graph"], "condition": "CHAIN",
        }).replace('"CHAIN"', chain)
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        code, out, _ = run(capsys, "validate", str(deep))
        assert code == 2
        assert "deep.json: INVALID" in out and problem in out
        code, _, err = run(capsys, "report", str(docs / "host_graph.json"), str(deep))
        assert code == 2
        assert err.startswith("error:") and problem in err


class TestSatisfyAndReport:
    def test_satisfy_lists_each_constraint(self, docs, capsys):
        code, out, _ = run(
            capsys, "satisfy", str(docs / "host_graph.json"), str(docs / "constraints.json")
        )
        assert code == 0
        assert "c1: satisfied" in out
        assert "c2: satisfied" in out
        assert "c3: violated" in out

    def test_satisfy_accepts_single_constraint_documents(self, docs, capsys):
        code, out, _ = run(
            capsys, "satisfy", str(docs / "host_graph.json"), str(docs / "exists.json")
        )
        assert code == 0
        assert "someClass: satisfied" in out

    def test_constraint_filter(self, docs, capsys):
        code, out, _ = run(
            capsys, "satisfy", str(docs / "host_graph.json"),
            str(docs / "constraints.json"), "--constraint", "c3",
        )
        assert code == 0
        assert out.strip() == "c3: violated"

    def test_unknown_constraint_name_exits_2(self, docs, capsys):
        code, _, err = run(
            capsys, "satisfy", str(docs / "host_graph.json"),
            str(docs / "constraints.json"), "--constraint", "c9",
        )
        assert code == 2
        assert "no constraint named 'c9'" in err

    def test_non_utf8_document_exits_2(self, docs, tmp_path, capsys):
        latin = tmp_path / "latin.json"
        latin.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, "report", str(latin), str(docs / "constraints.json"))
        assert code == 2
        assert err.startswith(f"error: cannot read {latin}: 'utf-8' codec")

    def test_report_prints_the_graduated_measurement(self, docs, capsys):
        code, out, _ = run(
            capsys, "report", str(docs / "host_graph.json"), str(docs / "constraints.json")
        )
        assert code == 0
        assert ("c3: universal, occurrences=2, relevant=2, violations=1, "
                "consistency=1/2 [violated]") in out
        assert "violating occurrence: C1=c1,C2=c2,F1=f1,F2=f3" in out
        assert "c1: universal, occurrences=0, relevant=0, violations=0, consistency=1" in out

    def test_report_structured_payload(self, docs, capsys):
        code, out, _ = run(
            capsys, "report", str(docs / "host_graph.json"),
            str(docs / "constraints.json"), "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        by_name = {r["constraint"]: r for r in payload["reports"]}
        assert by_name["c3"]["consistency"] == "1/2"
        assert by_name["c3"]["satisfied"] is False
        assert by_name["c3"]["violating_occurrences"] == [
            {"nodes": {"C1": "c1", "C2": "c2", "F1": "f1", "F2": "f3"},
             "edges": {"as1": "asg_f1", "as2": "asg_f3", "dep": "dep_13"}}
        ]
        assert by_name["c2"]["satisfied"] is True

    def test_report_refuses_a_repeated_constraint_name(self, docs, tmp_path, capsys):
        library = json.loads((docs / "constraints.json").read_text())
        library["constraints"].append({**library["constraints"][2], "name": "c1"})
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(library))
        code, out, err = run(capsys, "report", str(docs / "host_graph.json"), str(path))
        assert (code, out) == (2, "")
        assert "constraints[3] repeats the name 'c1' of constraints[0]" in err
        assert "Traceback" not in err

    def test_an_empty_constraint_name_exits_2(self, docs, tmp_path, capsys):
        library = json.loads((docs / "constraints.json").read_text())
        library["constraints"][0]["name"] = ""
        path = tmp_path / "unnamed.json"
        path.write_text(json.dumps(library))
        problem = "constraints[0] name must be a nonempty string"
        code, out, err = run(capsys, "report", str(docs / "host_graph.json"), str(path))
        assert (code, out) == (2, "")
        assert problem in err and "Traceback" not in err
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 2
        assert f"unnamed.json: INVALID\n  - {problem}" in out


class TestApply:
    def test_apply_with_explicit_match(self, docs, capsys):
        code, out, err = run(
            capsys, "apply", str(docs / "rule_moveFeature.json"),
            str(docs / "host_graph.json"), "--match", "f=f1,c_src=c1,c_tgt=c2",
        )
        assert code == 0
        result = parse_graph_document(out)
        assert result.node_count == 5
        assert result.has_edge("moveFeature.0.e_new")
        assert not result.has_edge("asg_f1")
        assert "applied moveFeature" in err

    def test_out_flag_writes_a_file(self, docs, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "apply", str(docs / "rule_moveFeature.json"),
            str(docs / "host_graph.json"), "--match", "f=f3,c_src=c2,c_tgt=c1",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert parse_graph_document(target.read_text()).has_edge("moveFeature.0.e_new")

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_path_exits_2(self, docs, tmp_path, capsys, where):
        target = tmp_path / "missing" / "result.json" if where == "missing directory" else tmp_path
        code, out, err = run(
            capsys, "apply", str(docs / "rule_moveFeature.json"),
            str(docs / "host_graph.json"), "--match", "f=f1", "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    def test_ambiguous_match_exits_3_and_lists_candidates(self, docs, capsys):
        code, _, err = run(
            capsys, "apply", str(docs / "rule_moveFeature.json"), str(docs / "host_graph.json")
        )
        assert code == 3
        assert "disambiguate with --match" in err
        assert "f=f1" in err

    def test_no_applicable_match_exits_3(self, docs, capsys):
        code, _, err = run(
            capsys, "apply", str(docs / "rule_assignFeature.json"), str(docs / "host_graph.json")
        )
        assert code == 3
        assert "no applicable match of 'assignFeature'" in err
        assert "rejected by the application condition" in err

    def test_refusals_print_both_rejection_counts(self, docs, tmp_path, capsys):
        """The exact messages of three refused applications, each counting
        a match at the first filter it fails."""
        tg = cra.build_fixtures().type_graph
        lhs, nothing = TypedGraph(tg, [("c", "Class")]), TypedGraph(tg)
        # Without an application condition, a class that holds a feature
        # keeps an edge its deletion would leave dangling.
        (tmp_path / "deleteClass.json").write_text(
            emit_rule_document(Rule("deleteClass", lhs, nothing, nothing)))
        host = str(docs / "host_graph.json")
        for rule, spec, message in (
            (docs / "rule_assignFeature.json", (),
             "no applicable match of 'assignFeature' "
             "(6 rejected by the application condition, 0 by the gluing condition)"),
            (docs / "rule_deleteEmptyClass.json", ("--match", "c=c1"),
             "no applicable match of 'deleteEmptyClass' under the given bindings "
             "(2 rejected by the application condition, 0 by the gluing condition)"),
            (tmp_path / "deleteClass.json", ("--match", "c=c1"),
             "no applicable match of 'deleteClass' under the given bindings "
             "(0 rejected by the application condition, 2 by the gluing condition)"),
        ):
            assert run(capsys, "apply", str(rule), host, *spec) == (3, "", f"error: {message}\n")

    def test_malformed_match_spec_exits_2(self, docs, capsys):
        code, _, err = run(
            capsys, "apply", str(docs / "rule_moveFeature.json"),
            str(docs / "host_graph.json"), "--match", "f:f1",
        )
        assert code == 2
        assert "not of the form lhsid=hostid" in err

    def test_match_spec_with_unknown_lhs_id_exits_3(self, docs, capsys):
        code, _, err = run(
            capsys, "apply", str(docs / "rule_moveFeature.json"),
            str(docs / "host_graph.json"), "--match", "ghost=f1",
        )
        assert code == 3
        assert "ids not in the rule's left side" in err

    def test_match_spec_naming_an_lhs_edge_exits_3(self, docs, capsys):
        code, out, err = run(
            capsys, "apply", str(docs / "rule_moveFeature.json"),
            str(docs / "host_graph.json"), "--match", "e_old=asg_f1",
        )
        assert (code, out) == (3, "")
        assert err == "error: --match binds lhs nodes only, not the lhs edges ['e_old']\n"

    @pytest.mark.parametrize("spec", ["f=zz,f=f1,c_tgt=c2", "f=f1,f=zz,c_tgt=c2"])
    def test_match_spec_binding_an_id_twice_exits_2(self, docs, capsys, spec):
        code, out, err = run(
            capsys, "apply", str(docs / "rule_moveFeature.json"),
            str(docs / "host_graph.json"), "--match", spec,
        )
        assert (code, out) == (2, "")
        assert err == "error: match spec binds 'f' more than once\n"


class TestMatchSelection:
    """``--match`` filters the scan's keys; only the selected match is
    built as a morphism, and an ambiguity is listed from the keys."""

    def test_a_bound_match_builds_one_morphism(self, fixtures, monkeypatch):
        host = seeded_cra_model(fixtures.type_graph, random.Random(1))
        rule = fixtures.rules["moveFeature"]
        keys = scan_matches(rule, host).keys
        assert len(keys) > 10_000
        n = rule.lhs.node_count
        by_nodes = Counter(key[:n] for key in keys)
        key = next(key for key in keys if by_nodes[key[:n]] == 1)
        spec = ",".join(f"{k}={v}" for k, v in zip(rule.lhs.node_ids, key))
        built = Counter()

        def counting(cls, *args, _inner=GraphMorphism.from_key.__func__):
            built["from_key"] += 1
            return _inner(cls, *args)

        monkeypatch.setattr(GraphMorphism, "from_key", classmethod(counting))
        assert _select_match(rule, host, spec).sort_key() == key
        assert built["from_key"] == 1
        c_src = rule.lhs.node_ids.index("c_src")
        with pytest.raises(MatchError, match="disambiguate with --match"):
            _select_match(rule, host, f"c_src={key[c_src]}")
        assert built["from_key"] == 1


class TestClassifyStep:
    def test_text_verdicts_for_a_damaging_move(self, docs, capsys):
        code, out, _ = run(
            capsys, "classify-step", str(docs / "rule_moveFeature.json"),
            str(docs / "host_graph.json"), str(docs / "constraints.json"),
            "--match", "f=f1,c_src=c1,c_tgt=c2",
        )
        assert code == 0
        assert "step: moveFeature at c_src=c1,c_tgt=c2,f=f1" in out
        assert "c3: consistency 1/2 -> 0" in out
        c3_line = next(line for line in out.splitlines() if "c3:" in line)
        assert "sustaining-" in c3_line
        assert "preserving+" in c3_line

    def test_structured_verdicts(self, docs, capsys):
        code, out, _ = run(
            capsys, "classify-step", str(docs / "rule_moveFeature.json"),
            str(docs / "host_graph.json"), str(docs / "constraints.json"),
            "--match", "f=f1,c_src=c1,c_tgt=c2", "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rule"] == "moveFeature"
        assert payload["match"]["nodes"] == {"c_src": "c1", "c_tgt": "c2", "f": "f1"}
        by_name = {v["constraint"]: v for v in payload["verdicts"]}
        assert by_name["c3"]["sustaining"] is False
        assert by_name["c3"]["consistency_before"] == "1/2"
        assert by_name["c3"]["consistency_after"] == "0"
        assert by_name["c3"]["evidence"]
        assert by_name["c1"]["preserving"] is True


class TestClassifyRule:
    def test_search_claims_for_one_pair(self, docs, capsys):
        code, out, _ = run(
            capsys, "classify-rule", str(docs / "rule_assignFeature.json"),
            str(docs / "constraints.json"), "--constraint", "c2",
            "--bound", "3", "--samples", "20",
        )
        assert code == 0
        assert "assignFeature vs c2" in out
        assert "sustaining" in out
        assert "no_counterexample_found" in out
        assert "witness_found" in out

    def test_structured_claims(self, docs, capsys):
        code, out, _ = run(
            capsys, "classify-rule", str(docs / "rule_moveFeature.json"),
            str(docs / "constraints.json"), "--constraint", "c3",
            "--bound", "3", "--samples", "20", "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        claims = payload["results"][0]["claims"]
        assert claims["sustaining"] == "proven_no"
        assert payload["results"][0]["steps_examined"] > 0


    def test_node_type_named_like_the_edge_ids(self, tmp_path, capsys):
        # The universe of a node type "e" has nodes e0, e1, ... next to its
        # edges; the verdicts are those of the same documents with the
        # type renamed.
        outputs = []
        for ntype in ("e", "X"):
            tg = TypeGraph([ntype], [("r", ntype, ntype)])
            one = TypedGraph(tg, [("x", ntype)])
            two = one.with_added([("y", ntype)], [("a", "r", "x", "y")])
            rule = Rule("grow", one, one, two)
            constraint = Constraint(
                "hasSuccessor", forall(empty_morphism_into(one), Exists(inclusion(one, two)))
            )
            (tmp_path / f"rule_{ntype}.json").write_text(emit_rule_document(rule))
            (tmp_path / f"c_{ntype}.json").write_text(emit_constraint_document(constraint))
            code, out, err = run(
                capsys, "classify-rule", str(tmp_path / f"rule_{ntype}.json"),
                str(tmp_path / f"c_{ntype}.json"), "--bound", "2", "--samples", "5",
                "--format", "structured",
            )
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["results"][0]["steps_examined"] > 0

    def test_condition_refusing_every_match_exits_3(self, docs, tmp_path, capsys):
        lhs = TypedGraph(cra.build_fixtures().type_graph, [("C", "Class")])
        never = Rule("never", lhs, lhs, lhs, Not(Exists(inclusion(lhs, lhs))))
        (tmp_path / "never.json").write_text(emit_rule_document(never))
        code, out, err = run(
            capsys, "classify-rule", str(tmp_path / "never.json"),
            str(docs / "constraints.json"), "--constraint", "c1",
            "--bound", "2", "--samples", "5",
        )
        assert code == 3 and out == ""
        assert err.startswith("error:") and "admits no match of rule 'never'" in err

    def test_oversized_universe_exits_3(self, docs, capsys):
        code, _, err = run(
            capsys, "classify-rule", str(docs / "rule_moveFeature.json"),
            str(docs / "constraints.json"), "--constraint", "c1",
            "--bound", "7", "--samples", "0",
        )
        assert code == 3
        assert err.startswith("error:") and "host universe too large" in err

    def test_many_node_types(self, tmp_path, capsys):
        # The count vectors of 1 200 node types are made without one
        # recursion per type, which overflowed the interpreter's stack.
        tg = TypeGraph([f"N{i:04d}" for i in range(1200)])
        one = TypedGraph(tg, [("x", "N0000")])
        rule = Rule("keep", one, one, one)
        constraint = Constraint("someNode", Exists(empty_morphism_into(one)))
        (tmp_path / "rule.json").write_text(emit_rule_document(rule))
        (tmp_path / "c.json").write_text(emit_constraint_document(constraint))
        code, out, err = run(
            capsys, "classify-rule", str(tmp_path / "rule.json"), str(tmp_path / "c.json"),
            "--bound", "1", "--samples", "0", "--format", "structured",
        )
        assert code == 0, err
        assert json.loads(out)["results"][0]["hosts_examined"] == 1

    @pytest.mark.parametrize("flag, value",
                             [("--samples", "-5"), ("--bound", "-1"), ("--bound", "abc")])
    def test_negative_search_knobs_exit_2(self, docs, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([
                "classify-rule", str(docs / "rule_moveFeature.json"),
                str(docs / "constraints.json"), flag, value,
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"expected a non-negative integer, got {value!r}" in err
        assert "Traceback" not in err


class TestAnalyze:
    def test_static_proofs_for_the_deleting_rule(self, docs, capsys):
        code, out, _ = run(
            capsys, "analyze", str(docs / "rule_deleteEmptyClass.json"),
            str(docs / "constraints.json"),
        )
        assert code == 0
        assert out.count("direct sustainment:    proven_directly_sustaining") == 3

    def test_structured_verdicts(self, docs, capsys):
        code, out, _ = run(
            capsys, "analyze", str(docs / "rule_createClass.json"),
            str(docs / "constraints.json"), "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        by_name = {r["constraint"]: r for r in payload["results"]}
        assert by_name["c2"]["direct_sustainment"]["verdict"] == "proven_directly_sustaining"
        # the NAC blocks the forbidden pattern in practice, but the
        # criterion cannot see that, so c1 stays undecided
        assert by_name["c1"]["direct_sustainment"]["verdict"] == "inconclusive"
        assert by_name["c3"]["improvement_necessity"]["verdict"] == "necessary_condition_fails"

    def test_three_level_chain_needs_the_conjecture_flag(self, docs, capsys):
        code, _, err = run(
            capsys, "analyze", str(docs / "rule_createClass.json"), str(docs / "deep.json")
        )
        assert code == 3
        assert "three-level chains" in err

        code, out, _ = run(
            capsys, "analyze", str(docs / "rule_createClass.json"),
            str(docs / "deep.json"), "--conjecture",
        )
        assert code == 0
        assert "(conjectured)" in out
        assert "treat them as hints" in out

    def test_existential_constraints_are_out_of_scope(self, docs, capsys):
        code, _, err = run(
            capsys, "analyze", str(docs / "rule_createClass.json"), str(docs / "exists.json")
        )
        assert code == 3
        assert "error:" in err


class TestBench:
    def test_independence_only(self, docs, capsys):
        code, out, _ = run(
            capsys, "bench", "--fixtures", str(docs), "--independence-only"
        )
        assert code == 0
        assert "All 40 cells match" in out

    def test_structured_output_is_byte_identical_across_runs(self, docs, capsys):
        args = ("bench", "--fixtures", str(docs), "--independence-only",
                "--format", "structured")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["ok"] is True
        assert len(payload["independence"]["cells"]) == 40
        assert payload["independence"]["diffs"] == []

    def test_both_tables_of_the_packaged_fixtures(self, capsys):
        code, out, _ = run(capsys, "bench", "--format", "structured", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        table = payload["classification"]
        assert table["cells"] == {f"{r}/{c}": list(cell)
                                  for (r, c), cell in cra.CLASSIFICATION_GOLDEN.items()}
        assert sum(map(len, table["cells"].values())) == 24
        assert table["statically_proven"] == sorted(
            f"{r}/{c}" for r, c in cra.STATIC_PROOF_GOLDEN)
        assert table["diffs"] == []
        code, out, _ = run(capsys, "bench", "--seed", "1")
        assert code == 0
        assert out.splitlines()[-1].startswith("All 24 cells match")

    def test_missing_fixture_directory_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "bench", "--fixtures", str(tmp_path / "missing"),
                           "--independence-only")
        assert code == 2
        assert err.startswith("error: cannot read ") and "host_graph.json" in err

    def test_non_utf8_fixture_exits_2(self, tmp_path, capsys):
        cra.write_fixture_files(tmp_path)
        (tmp_path / "constraints.json").write_bytes(b"\x80")
        code, _, err = run(capsys, "bench", "--fixtures", str(tmp_path),
                           "--independence-only")
        assert code == 2
        assert "cannot read" in err and "constraints.json" in err

    def test_rule_file_holding_another_rule_exits_2(self, tmp_path, capsys):
        cra.write_fixture_files(tmp_path)
        (tmp_path / "rule_assignFeature.json").write_bytes(
            (tmp_path / "rule_createClass.json").read_bytes()
        )
        code, _, err = run(capsys, "bench", "--fixtures", str(tmp_path),
                           "--independence-only")
        assert code == 2
        assert err == (
            "error: rule_assignFeature.json holds rule 'createClass', not 'assignFeature'\n"
        )

    def test_library_without_continuation_patterns_exits_2(self, tmp_path, capsys):
        cra.write_fixture_files(tmp_path)
        doc = json.loads((tmp_path / "constraints.json").read_text())
        swap = {"c1": "c2", "c2": "c1"}
        for c in doc["constraints"]:
            c["name"] = swap.get(c["name"], c["name"])
        (tmp_path / "constraints.json").write_text(json.dumps(doc))
        code, _, err = run(capsys, "bench", "--fixtures", str(tmp_path),
                           "--independence-only")
        assert code == 2
        assert err == "error: constraint 'c2' has no pattern nested under its scope\n"

    def test_corrupt_fixture_directory_exits_2(self, tmp_path, capsys):
        cra.write_fixture_files(tmp_path)
        (tmp_path / "host_graph.json").write_text("[]")
        code, _, err = run(capsys, "bench", "--fixtures", str(tmp_path),
                           "--independence-only")
        assert code == 2
        assert "error:" in err

    def test_changed_fixtures_exit_1_and_list_the_diffs(self, tmp_path, capsys):
        """Without moveFeature's application condition one classification
        cell changes; a createClass that creates no assignment flips
        independence signs. Both tables print their DIFFS block."""
        cra.write_fixture_files(tmp_path)

        def edit(name, change):
            doc = json.loads((tmp_path / name).read_text())
            change(doc)
            (tmp_path / name).write_text(json.dumps(doc))

        edit("rule_moveFeature.json",
             lambda doc: doc.update(application_condition={"kind": "true"}))
        edit("rule_createClass.json", lambda doc: doc["rhs"].update(edges=[]))
        code, out, _ = run(capsys, "bench", "--fixtures", str(tmp_path))
        assert code == 1
        matrix, table = out.split("DIFFS against the expected matrix:\n")[1].split("\n\n", 1)
        assert "  createClass/seq_independent/c1: computed +, expected -" in matrix.splitlines()
        diffs = table.split("DIFFS against the expected table:\n")[1].splitlines()
        assert "  moveFeature/c1 improving: computed +, expected -" in diffs
        assert "All 24 cells match" not in out and "All 40 cells match" not in out

    def test_a_contradiction_exits_1(self, monkeypatch, capsys):
        """A static proof that the search refutes is reported, not
        resolved: here every pair is claimed proven directly sustaining."""
        original = cra.criterion_direct_sustain

        def proving(rule, constraint):
            return dataclasses.replace(original(rule, constraint),
                                       verdict=PROVEN_DIRECTLY_SUSTAINING)

        monkeypatch.setattr(cra, "criterion_direct_sustain", proving)
        code, _, err = run(capsys, "bench", "--bound", "3", "--samples", "0")
        assert code == 1
        assert err == ("error: createClass/c3: statically certified sustaining, "
                       "but the search produced a counterexample step\n")


# --- fuzzing: arbitrary bytes in every file argument --------------------------

_FIXTURE_NAMES = sorted(p.name for p in cra.FIXTURES_DIR.glob("*.json"))
_FIXTURES = {name: (cra.FIXTURES_DIR / name).read_bytes() for name in _FIXTURE_NAMES}
# Valid documents of each kind of file argument.
_DOCUMENTS = {
    "graph": [_FIXTURES["host_graph.json"]],
    "rule": [_FIXTURES[name] for name in _FIXTURE_NAMES if name.startswith("rule_")],
    "constraints": [
        _FIXTURES["constraints.json"],
        emit_constraint_document(cra.build_fixtures().constraints["c3"]).encode(),
    ],
}
_ANY_DOCUMENT = [doc for docs in _DOCUMENTS.values() for doc in docs]

# The kind of each file argument of a command.
FILE_ARGUMENTS = {
    "validate": ("graph", "constraints"),
    "satisfy": ("graph", "constraints"),
    "report": ("graph", "constraints"),
    "apply": ("rule", "graph"),
    "classify-step": ("rule", "graph", "constraints"),
    "analyze": ("rule", "constraints"),
}


def _splice(document: bytes, at: int, junk: bytes) -> bytes:
    at %= len(document) + 1
    return document[:at] + junk + document[at + len(junk):]


def file_contents(valid: list[bytes]) -> st.SearchStrategy[bytes]:
    """Raw bytes, a valid document (so that later arguments are reached), a
    document of another kind, or a valid one with a few bytes overwritten."""
    return st.one_of(
        st.binary(max_size=64),
        st.sampled_from(valid),
        st.sampled_from(_ANY_DOCUMENT),
        st.builds(_splice, st.sampled_from(valid), st.integers(min_value=0),
                  st.binary(min_size=1, max_size=8)),
    )


def quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzzedFiles:
    """Whatever the files hold, a command exits 0, 2 or 3 and raises nothing."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(sorted(FILE_ARGUMENTS)), st.booleans(), st.data())
    def test_file_arguments(self, fuzz_dir, command, structured, data):
        argv = [command]
        for i, kind in enumerate(FILE_ARGUMENTS[command]):
            path = fuzz_dir / f"arg{i}.json"
            path.write_bytes(data.draw(file_contents(_DOCUMENTS[kind])))
            argv.append(str(path))
        if structured and command != "apply":
            argv += ["--format", "structured"]
        assert quiet_main(argv) in (0, 2, 3)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.dictionaries(st.sampled_from(_FIXTURE_NAMES),
                           file_contents(_ANY_DOCUMENT), max_size=3))
    def test_bench_fixture_directory(self, fuzz_dir, replaced):
        directory = fuzz_dir / "fixtures"
        directory.mkdir(exist_ok=True)
        for name in _FIXTURE_NAMES:
            (directory / name).write_bytes(replaced.get(name, _FIXTURES[name]))
        argv = ["bench", "--fixtures", str(directory), "--independence-only"]
        assert quiet_main(argv) in (0, 2, 3)


# --- fuzzing: arbitrary text in every option value ----------------------------

_SCENARIO = cra.build_fixtures()
_RULE_FILES = {f"rule_{name}.json": rule for name, rule in _SCENARIO.rules.items()}
# The file arguments of each command, and its options with a free-form value.
OPTION_ARGUMENTS = {
    "apply": (("rule", "host_graph.json"), ("--match", "--step")),
    "classify-step": (("rule", "host_graph.json", "constraints.json"),
                      ("--constraint", "--match", "--step")),
    "report": (("host_graph.json", "constraints.json"), ("--constraint",)),
    "satisfy": (("host_graph.json", "constraints.json"), ("--constraint",)),
}
_BINDINGS = st.lists(
    st.builds("{}={}".format,
              st.sampled_from(sorted({v for r in _RULE_FILES.values() for v in r.lhs.node_ids})
                              + ["ghost"]),
              st.sampled_from(sorted(_SCENARIO.host.node_ids) + ["zz"])),
    max_size=4,
).map(",".join)
_MATCH_SPECS = {
    name: [",".join(f"{k}={v}" for k, v in sorted(m.node_map.items()))
           for m in scan_matches(rule, _SCENARIO.host).matches] or [""]
    for name, rule in _RULE_FILES.items()
}


def option_value(option: str, rule: str) -> st.SearchStrategy[str | None]:
    """No value, arbitrary text, or a value that gets the command further:
    bindings of lhs ids to host ids, one of the rule's matches on the host,
    a constraint name or an integer."""
    if option == "--match":
        valid = _BINDINGS | st.sampled_from(_MATCH_SPECS[rule])
    elif option == "--constraint":
        valid = st.sampled_from(sorted(_SCENARIO.constraints))
    else:
        valid = st.integers().map(str)
    return st.none() | st.text() | valid


def exit_code(argv: list[str]) -> int:
    """The exit code of the command, also when argparse rejects a value."""
    try:
        return quiet_main(argv)
    except SystemExit as exc:
        return exc.code


class TestFuzzedOptions:
    """Whatever an option's value, a command exits 0, 2 or 3 and raises nothing."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(sorted(OPTION_ARGUMENTS)), st.sampled_from(sorted(_RULE_FILES)),
           st.booleans(), st.data())
    def test_option_values(self, command, rule, structured, data):
        files, options = OPTION_ARGUMENTS[command]
        argv = [command] + [str(cra.FIXTURES_DIR / (rule if f == "rule" else f)) for f in files]
        for option in options:
            value = data.draw(option_value(option, rule), label=option)
            if value is not None:
                argv.append(f"{option}={value}")
        if structured and command != "apply":
            argv += ["--format", "structured"]
        assert exit_code(argv) in (0, 2, 3)
