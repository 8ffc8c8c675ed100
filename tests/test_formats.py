"""Round-trip and error-path tests for the JSON document formats."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcons import cra
from gradcons.conditions import FALSE, TRUE, Constraint, Exists, Not
from gradcons.errors import DocumentError
from gradcons.formats import (
    CONSTRAINT_FORMAT,
    CONSTRAINTS_FORMAT,
    GRAPH_FORMAT,
    RULE_FORMAT,
    emit_constraint_document,
    emit_constraints_library,
    emit_graph_document,
    emit_rule_document,
    parse_constraint_document,
    parse_constraints_library,
    parse_graph_document,
    parse_rule_document,
)
from gradcons.generate import (
    random_host,
    random_linear_constraint,
    random_rule,
    random_type_graph,
)
from gradcons.graphs import (
    GraphMorphism,
    TypedGraph,
    empty_graph,
    empty_morphism_into,
)
from gradcons.rewriting import Rule


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestRoundTrips:
    def test_host_graph(self, fixtures):
        text = emit_graph_document(fixtures.host)
        assert parse_graph_document(text) == fixtures.host

    def test_random_graphs(self, rng):
        for _ in range(25):
            tg = random_type_graph(rng, max_node_types=3, max_edge_types=3)
            g = random_host(tg, rng, rng.randint(0, 5))
            assert parse_graph_document(emit_graph_document(g)) == g

    def test_fixture_rules(self, fixtures):
        for rule in fixtures.rule_list():
            assert parse_rule_document(emit_rule_document(rule)) == rule

    def test_random_rules(self, rng):
        for i in range(25):
            tg = random_type_graph(rng, max_node_types=3, max_edge_types=3)
            rule = random_rule(tg, rng, name=f"r{i}")
            assert parse_rule_document(emit_rule_document(rule)) == rule

    def test_fixture_constraints(self, fixtures):
        for c in fixtures.constraint_list():
            assert parse_constraint_document(emit_constraint_document(c)) == c

    def test_random_constraints(self, rng):
        for i in range(25):
            tg = random_type_graph(rng, max_node_types=3, max_edge_types=3)
            c = random_linear_constraint(tg, rng, f"c{i}")
            assert parse_constraint_document(emit_constraint_document(c)) == c

    def test_constraints_library(self, fixtures):
        text = emit_constraints_library(fixtures.type_graph, fixtures.constraint_list())
        assert parse_constraints_library(text) == fixtures.constraint_list()

    def test_equal_values_hash_equal(self, fixtures):
        """Constraints, their condition nodes and rules are frozen values:
        parsed twice from one document, they are equal and hash equal."""
        text = emit_constraints_library(fixtures.type_graph, fixtures.constraint_list())
        first, second = parse_constraints_library(text), parse_constraints_library(text)
        assert all(a is not b for a, b in zip(first, second))
        assert len({first[2], second[2]}) == 1
        assert len(set(first) | set(second)) == 3
        for rule in fixtures.rule_list():
            again = parse_rule_document(emit_rule_document(rule))
            assert again == rule and hash(again) == hash(rule)
            assert hash(again.condition) == hash(rule.condition)

    def test_parsers_accept_mappings(self, fixtures):
        doc = json.loads(emit_graph_document(fixtures.host))
        assert parse_graph_document(doc) == fixtures.host


class TestCanonicalForm:
    def test_emitters_are_deterministic(self, fixtures):
        a = emit_rule_document(fixtures.rules["moveFeature"])
        b = emit_rule_document(fixtures.rules["moveFeature"])
        assert a == b

    def test_canonicalization_is_a_fixed_point(self, fixtures):
        for text in (
            emit_graph_document(fixtures.host),
            emit_rule_document(fixtures.rules["assignFeature"]),
            emit_constraint_document(fixtures.constraints["c3"]),
            emit_constraints_library(fixtures.type_graph, fixtures.constraint_list()),
        ):
            assert text.endswith("\n")
            assert canonical(text) == text

    def test_element_lists_are_sorted_by_id(self, fixtures):
        doc = json.loads(emit_graph_document(fixtures.host))
        node_ids = [n["id"] for n in doc["graph"]["nodes"]]
        edge_ids = [e["id"] for e in doc["graph"]["edges"]]
        assert node_ids == sorted(node_ids)
        assert edge_ids == sorted(edge_ids)

    def test_library_sorts_constraints_by_name(self, fixtures):
        shuffled = [fixtures.constraints[n] for n in ("c3", "c1", "c2")]
        text = emit_constraints_library(fixtures.type_graph, shuffled)
        doc = json.loads(text)
        assert [c["name"] for c in doc["constraints"]] == ["c1", "c2", "c3"]


class TestConditionSugar:
    def test_plain_rule_omits_the_application_condition(self, fixtures):
        lhs = fixtures.rules["deleteEmptyClass"].lhs
        plain = Rule("dropClass", lhs, empty_graph(fixtures.type_graph),
                     empty_graph(fixtures.type_graph))
        doc = json.loads(emit_rule_document(plain))
        assert "application_condition" not in doc
        assert parse_rule_document(emit_rule_document(plain)) == plain

    def test_a_bare_false_condition_emits_as_false(self, fixtures):
        lhs = fixtures.rules["deleteEmptyClass"].lhs
        never = Rule("never", lhs, lhs, lhs, FALSE)
        doc = json.loads(emit_rule_document(never))
        assert doc["application_condition"] == {"kind": "false"}
        assert parse_rule_document(emit_rule_document(never)) == never

    def test_forbidden_patterns_emit_as_not_exists(self, fixtures):
        doc = json.loads(emit_constraint_document(fixtures.constraints["c1"]))
        assert doc["condition"]["kind"] == "not"
        assert doc["condition"]["sub"]["kind"] == "exists"
        assert doc["condition"]["sub"]["sub"] == {"kind": "true"}

    def test_nested_universals_emit_as_forall(self, fixtures):
        doc = json.loads(emit_constraint_document(fixtures.constraints["c2"]))
        assert doc["condition"]["kind"] == "forall"
        assert doc["condition"]["sub"]["kind"] == "exists"

    def test_nac_rules_emit_not_over_exists(self, fixtures):
        doc = json.loads(emit_rule_document(fixtures.rules["assignFeature"]))
        cond = doc["application_condition"]
        assert cond["kind"] == "and"
        for side in (cond["left"], cond["right"]):
            assert side["kind"] == "not"
            assert side["sub"]["kind"] == "exists"

    def test_forall_false_parses_like_not_exists(self, fixtures):
        # A universally forbidden pattern can be spelled either way in a
        # document; both must load to the same condition tree.
        doc = json.loads(emit_constraint_document(fixtures.constraints["c1"]))
        pattern_part = doc["condition"]["sub"]["graph"]
        doc["condition"] = {
            "kind": "forall",
            "graph": pattern_part,
            "sub": {"kind": "false"},
        }
        sugared = parse_constraint_document(doc)
        assert sugared.condition == fixtures.constraints["c1"].condition

    def test_missing_sub_defaults_to_true(self, fixtures):
        doc = json.loads(emit_constraint_document(fixtures.constraints["c1"]))
        del doc["condition"]["sub"]["sub"]
        assert parse_constraint_document(doc) == fixtures.constraints["c1"]


def problems_of(excinfo) -> str:
    return "\n".join(excinfo.value.problems)


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(DocumentError) as err:
            parse_graph_document("{oops")
        assert "not valid JSON" in problems_of(err)

    def test_non_object_top_level(self):
        with pytest.raises(DocumentError) as err:
            parse_graph_document("[1, 2]")
        assert "top level is not an object" in problems_of(err)

    def test_wrong_format_marker(self, fixtures):
        doc = json.loads(emit_graph_document(fixtures.host))
        doc["format"] = RULE_FORMAT
        with pytest.raises(DocumentError) as err:
            parse_graph_document(doc)
        assert f"expected format {GRAPH_FORMAT!r}" in problems_of(err)

    def test_missing_format_marker(self, fixtures):
        doc = json.loads(emit_constraint_document(fixtures.constraints["c1"]))
        del doc["format"]
        with pytest.raises(DocumentError) as err:
            parse_constraint_document(doc)
        assert f"expected format {CONSTRAINT_FORMAT!r}" in problems_of(err)

    def test_unknown_node_type(self, fixtures):
        doc = json.loads(emit_graph_document(fixtures.host))
        doc["graph"]["nodes"][0]["type"] = "Ghost"
        with pytest.raises(DocumentError) as err:
            parse_graph_document(doc)
        assert "unknown type 'Ghost'" in problems_of(err)

    def test_dangling_edge_endpoint(self, fixtures):
        doc = json.loads(emit_graph_document(fixtures.host))
        doc["graph"]["edges"][0]["src"] = "missing"
        with pytest.raises(DocumentError) as err:
            parse_graph_document(doc)
        assert "absent source node 'missing'" in problems_of(err)

    def test_duplicate_ids_are_reported(self, fixtures):
        doc = json.loads(emit_graph_document(fixtures.host))
        doc["graph"]["nodes"].append(dict(doc["graph"]["nodes"][0]))
        with pytest.raises(DocumentError) as err:
            parse_graph_document(doc)
        assert "duplicate node id" in problems_of(err)

    def test_unknown_condition_kind(self, fixtures):
        doc = json.loads(emit_constraint_document(fixtures.constraints["c1"]))
        doc["condition"] = {"kind": "xor"}
        with pytest.raises(DocumentError) as err:
            parse_constraint_document(doc)
        assert "unknown condition kind 'xor'" in problems_of(err)

    def test_library_constraints_must_be_a_list(self, fixtures):
        doc = json.loads(
            emit_constraints_library(fixtures.type_graph, fixtures.constraint_list())
        )
        doc["constraints"] = {"c1": {}}
        with pytest.raises(DocumentError) as err:
            parse_constraints_library(doc)
        assert "constraints must be a list" in problems_of(err)

    def test_library_entry_needs_a_name(self, fixtures):
        doc = json.loads(
            emit_constraints_library(fixtures.type_graph, fixtures.constraint_list())
        )
        del doc["constraints"][0]["name"]
        with pytest.raises(DocumentError) as err:
            parse_constraints_library(doc)
        assert "constraints[0] must be an object with a name" in problems_of(err)

    def test_library_names_are_unique(self, fixtures):
        doc = json.loads(
            emit_constraints_library(fixtures.type_graph, fixtures.constraint_list())
        )
        doc["constraints"].append({**doc["constraints"][2], "name": "c1"})
        with pytest.raises(DocumentError) as err:
            parse_constraints_library(doc)
        assert problems_of(err) == "constraints[3] repeats the name 'c1' of constraints[0]"

    def test_library_names_are_nonempty(self, fixtures):
        doc = json.loads(
            emit_constraints_library(fixtures.type_graph, fixtures.constraint_list())
        )
        doc["constraints"][0]["name"] = ""
        with pytest.raises(DocumentError) as err:
            parse_constraints_library(doc)
        assert problems_of(err) == "constraints[0] name must be a nonempty string"

    def test_rule_with_interface_outside_lhs(self, fixtures):
        doc = json.loads(emit_rule_document(fixtures.rules["createClass"]))
        doc["interface"]["nodes"].append({"id": "ghost", "type": "Feature"})
        with pytest.raises(DocumentError) as err:
            parse_rule_document(doc)
        assert "interface is not part of the lhs" in problems_of(err)

    def test_only_rule_errors_read_as_bad_documents(self, fixtures, monkeypatch):
        # A fault of the engine while building a rule is not a fault of
        # the file, so it is not turned into a DocumentError.
        def broken(self):
            raise TypeError("engine fault")

        text = emit_rule_document(fixtures.rules["createClass"])
        monkeypatch.setattr(Rule, "__post_init__", broken)
        with pytest.raises(TypeError, match="engine fault"):
            parse_rule_document(text)

    def test_several_problems_are_collected_together(self, fixtures):
        doc = json.loads(emit_graph_document(fixtures.host))
        doc["format"] = "nope"
        doc["graph"]["nodes"][0]["type"] = "Ghost"
        with pytest.raises(DocumentError) as err:
            parse_graph_document(doc)
        assert len(err.value.problems) >= 2


class TestSerializationLimits:
    def test_renaming_chain_morphisms_cannot_be_serialized(self, fixtures):
        tg = fixtures.type_graph
        p = TypedGraph(tg, [("x", "Class")])
        q = TypedGraph(tg, [("y", "Class")])
        renaming = GraphMorphism(p, q, {"x": "y"}, {})
        bad = Constraint(
            "bad", Exists(empty_morphism_into(p), Not(Exists(renaming)))
        )
        with pytest.raises(DocumentError) as err:
            emit_constraint_document(bad)
        assert "id-preserving" in problems_of(err)

    def test_constraint_without_graphs_cannot_be_serialized(self):
        with pytest.raises(DocumentError) as err:
            emit_constraint_document(Constraint("empty", TRUE))
        assert "nothing to serialize" in problems_of(err)


# --- robustness at the document boundary ---------------------------------------

PARSERS = (
    parse_graph_document,
    parse_rule_document,
    parse_constraint_document,
    parse_constraints_library,
)
_KEYS = (
    "format", "type_graph", "node_types", "edge_types", "name", "src", "tgt", "graph",
    "nodes", "edges", "id", "type", "kind", "sub", "left", "right", "lhs", "interface",
    "rhs", "application_condition", "constraints", "condition",
)
_WORDS = (
    GRAPH_FORMAT, RULE_FORMAT, CONSTRAINT_FORMAT, CONSTRAINTS_FORMAT,
    "true", "false", "exists", "forall", "not", "and", "Class", "Feature", "c1", "f1",
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from(_WORDS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=30,
)


def _valid_documents() -> list:
    fx = cra.build_fixtures()
    texts = [
        emit_graph_document(fx.host),
        emit_constraints_library(fx.type_graph, fx.constraint_list()),
        emit_constraint_document(fx.constraints["c3"]),
        *(emit_rule_document(rule) for rule in fx.rule_list()),
    ]
    return [json.loads(text) for text in texts]


def _replace(doc, path: list[int], value):
    """``doc`` with the subtree that ``path`` leads to replaced by ``value``."""
    if not path or not isinstance(doc, (dict, list)) or not doc:
        return value
    if isinstance(doc, dict):
        key = sorted(doc)[path[0] % len(doc)]
        return {**doc, key: _replace(doc[key], path[1:], value)}
    i = path[0] % len(doc)
    return [*doc[:i], _replace(doc[i], path[1:], value), *doc[i + 1:]]


damaged_documents = st.builds(
    _replace,
    st.sampled_from(_valid_documents()),
    st.lists(st.integers(min_value=0, max_value=30), max_size=8),
    json_values,
)


def _parse_everywhere(value) -> None:
    for parse in PARSERS:
        for document in (value, json.dumps(value)):
            try:
                parse(document)
            except DocumentError:
                pass


class TestParseRobustness:
    """Any JSON value fed to a parser gives a value or a DocumentError."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(json_values)
    def test_arbitrary_json_values(self, value):
        _parse_everywhere(value)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(damaged_documents)
    def test_damaged_valid_documents(self, value):
        _parse_everywhere(value)

    @pytest.mark.parametrize("doc, problem", [
        ({"format": GRAPH_FORMAT, "type_graph": {"node_types": ["A"], "edge_types": 5}},
         "type_graph.edge_types must be a list"),
        ({"format": GRAPH_FORMAT, "type_graph": {"node_types": ["A"]},
          "graph": {"nodes": [{"id": ["n"], "type": "A"}]}},
         "graph.nodes[0] must have string id and type"),
    ])
    def test_wrongly_typed_parts_are_reported(self, doc, problem):
        with pytest.raises(DocumentError) as err:
            parse_graph_document(doc)
        assert problem in problems_of(err)

    def test_json_nested_beyond_the_decoder_is_reported(self):
        with pytest.raises(DocumentError) as err:
            parse_constraint_document("[" * 5000 + "]" * 5000)
        assert "nested too deeply" in problems_of(err)
