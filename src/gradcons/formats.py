"""JSON document formats for graphs, rules, and constraints.

Emitters produce canonical text: object keys sorted, element lists sorted
by id, two-space indent, trailing newline. Parsing accepts sugar that the
canonical form never uses (a ``forall`` node, a ``false`` node) and
desugars it on load, so ``parse(emit(x)) == x`` and canonical files
re-emit byte for byte.

Condition morphisms are serialized as the extended graph only, with the
anchor's elements repeated under the same ids; only id-preserving
(inclusion) chains can be written out. Parse errors are collected and
raised together as :class:`DocumentError`.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping

from .conditions import (
    TRUE,
    And,
    Condition,
    Constraint,
    Exists,
    Not,
    TrueCondition,
    forall,
    negate,
)
from .errors import DocumentError, MismatchError, RuleError
from .graphs import TypeGraph, TypedGraph, empty_graph, inclusion, validate_graph
from .rewriting import Rule

GRAPH_FORMAT = "gradcons/graph@1"
RULE_FORMAT = "gradcons/rule@1"
CONSTRAINT_FORMAT = "gradcons/constraint@1"
CONSTRAINTS_FORMAT = "gradcons/constraints@1"


# A condition document nested deeper than this is refused; legitimate
# constraints nest a handful of levels, and the limit keeps every parse far
# from the interpreter's recursion limit.
MAX_CONDITION_DEPTH = 100


def read_document(path: str | Path) -> str:
    """The text of a document file; a file that cannot be read or is not
    UTF-8 becomes a DocumentError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError([f"cannot read {path}: {exc}"]) from exc


def load_json(text: str) -> Any:
    """Decode JSON text; every decoding failure becomes a DocumentError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"not valid JSON: {exc}"]) from exc
    except RecursionError as exc:
        raise DocumentError(["not valid JSON: nested too deeply to decode"]) from exc


def _load(document: Any, problems: list[str]) -> dict:
    if isinstance(document, str):
        try:
            document = load_json(document)
        except DocumentError as exc:
            problems.extend(exc.problems)
            return {}
    if not isinstance(document, Mapping):
        problems.append("top level is not an object")
        return {}
    return dict(document)


def _strings(entry: Any, keys: tuple[str, ...]) -> tuple[str, ...] | None:
    """The values under ``keys`` when ``entry`` is an object with a string at each."""
    if not isinstance(entry, dict):
        return None
    values = tuple(map(entry.get, keys))
    for value in values:
        if not isinstance(value, str):
            return None
    return values


def _list(part: dict, key: str, where: str, problems: list[str]) -> list:
    value = part.get(key, [])
    if not isinstance(value, list):
        problems.append(f"{where}.{key} must be a list")
        return []
    return value


def _open(document: Any, expected: str, problems: list[str]) -> tuple[dict, TypeGraph | None]:
    """Load a document, check its format marker and parse its type graph."""
    doc = _load(document, problems)
    found = doc.get("format")
    if found != expected:
        problems.append(f"expected format {expected!r}, found {found!r}")
    return doc, parse_type_graph(doc.get("type_graph"), problems)


def _finish(problems: list[str]) -> None:
    if problems:
        raise DocumentError(problems)


# --- type graphs --------------------------------------------------------------


def parse_type_graph(part: Any, problems: list[str]) -> TypeGraph | None:
    if not isinstance(part, dict):
        problems.append("type_graph is not an object")
        return None
    node_types = part.get("node_types")
    if not isinstance(node_types, list) or not all(isinstance(t, str) for t in node_types):
        problems.append("type_graph.node_types must be a list of strings")
        return None
    edge_types = []
    for i, entry in enumerate(_list(part, "edge_types", "type_graph", problems)):
        fields = _strings(entry, ("name", "src", "tgt"))
        if fields is None:
            problems.append(f"type_graph.edge_types[{i}] must have string name, src, tgt")
            continue
        edge_types.append(fields)
    try:
        return _shared(TypeGraph(node_types, edge_types))
    except ValueError as exc:
        problems.append(f"type_graph: {exc}")
        return None


@lru_cache(maxsize=64)
def _shared(tg: TypeGraph) -> TypeGraph:
    """The first parsed type graph equal to ``tg``. Documents over one
    vocabulary then hold one object, which graphs, matches and reports
    compare by identity before they compare by value."""
    return tg


def emit_type_graph(tg: TypeGraph) -> dict:
    return {
        "node_types": sorted(tg.node_types),
        "edge_types": [
            {"name": name, "src": src, "tgt": tgt}
            for name, (src, tgt) in sorted(tg.edge_types.items())
        ],
    }


# --- graph parts --------------------------------------------------------------


def _parse_graph_part(
    part: Any, tg: TypeGraph, where: str, problems: list[str]
) -> TypedGraph:
    nodes: list[tuple[str, str]] = []
    edges: list[tuple[str, str, str, str]] = []
    if not isinstance(part, dict):
        problems.append(f"{where} is not an object")
        return empty_graph(tg)
    for i, entry in enumerate(_list(part, "nodes", where, problems)):
        fields = _strings(entry, ("id", "type"))
        if fields is None:
            problems.append(f"{where}.nodes[{i}] must have string id and type")
            continue
        nodes.append(fields)
    for i, entry in enumerate(_list(part, "edges", where, problems)):
        fields = _strings(entry, ("id", "type", "src", "tgt"))
        if fields is None:
            problems.append(f"{where}.edges[{i}] must have string id, type, src, tgt")
            continue
        edges.append(fields)
    try:
        graph = TypedGraph(tg, nodes, edges)
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return empty_graph(tg)
    for message in validate_graph(graph):
        problems.append(f"{where}: {message}")
    return graph


def _emit_graph_part(graph: TypedGraph) -> dict:
    return {
        "nodes": [{"id": nid, "type": t} for nid, t in graph.node_items()],
        "edges": [
            {"id": eid, "type": t, "src": s, "tgt": tt}
            for eid, t, s, tt in graph.edge_items()
        ],
    }


def parse_graph_document(document: str | Mapping[str, Any]) -> TypedGraph:
    problems: list[str] = []
    doc, tg = _open(document, GRAPH_FORMAT, problems)
    if tg is None:
        raise DocumentError(problems)
    graph = _parse_graph_part(doc.get("graph"), tg, "graph", problems)
    _finish(problems)
    return graph


def emit_graph_document(graph: TypedGraph) -> str:
    doc = {
        "format": GRAPH_FORMAT,
        "type_graph": emit_type_graph(graph.type_graph),
        "graph": _emit_graph_part(graph),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- conditions ---------------------------------------------------------------


def _parse_condition(
    part: Any, tg: TypeGraph, anchor: TypedGraph, where: str, problems: list[str],
    depth: int = 0,
) -> Condition:
    if depth > MAX_CONDITION_DEPTH:
        problems.append(f"{where}: conditions nest deeper than {MAX_CONDITION_DEPTH} levels")
        return TRUE
    if not isinstance(part, dict) or "kind" not in part:
        problems.append(f"{where} must be an object with a kind")
        return TRUE
    kind = part["kind"]
    if kind == "true":
        return TRUE
    if kind == "false":
        return Not(TRUE)
    if kind in ("exists", "forall"):
        extended = _parse_graph_part(part.get("graph"), tg, f"{where}.graph", problems)
        try:
            morphism = inclusion(anchor, extended)
        except MismatchError as exc:
            problems.append(f"{where}: extended graph does not contain its anchor: {exc}")
            return TRUE
        sub_part = part.get("sub", {"kind": "true"})
        sub = _parse_condition(sub_part, tg, extended, f"{where}.sub", problems, depth + 1)
        try:
            if kind == "exists":
                return Exists(morphism, sub)
            return forall(morphism, sub)
        except MismatchError as exc:
            problems.append(f"{where}: {exc}")
            return TRUE
    if kind == "not":
        return Not(
            _parse_condition(part.get("sub"), tg, anchor, f"{where}.sub", problems, depth + 1)
        )
    if kind == "and":
        return And(
            _parse_condition(part.get("left"), tg, anchor, f"{where}.left", problems, depth + 1),
            _parse_condition(part.get("right"), tg, anchor, f"{where}.right", problems, depth + 1),
        )
    problems.append(f"{where}: unknown condition kind {kind!r}")
    return TRUE


def _emit_condition(condition: Condition, where: str = "condition") -> dict:
    if isinstance(condition, TrueCondition):
        return {"kind": "true"}
    if isinstance(condition, Not):
        inner = condition.sub
        if isinstance(inner, TrueCondition):
            return {"kind": "false"}
        if isinstance(inner, Exists):
            # Re-sugar genuine universals; a plain forbidden pattern
            # (negated existential with a trivial body) reads better as-is.
            if isinstance(inner.sub, TrueCondition):
                return {"kind": "not", "sub": _emit_condition(inner, f"{where}.sub")}
            _require_id_preserving(inner.morphism, where)
            return {
                "kind": "forall",
                "graph": _emit_graph_part(inner.morphism.codomain),
                "sub": _emit_condition(negate(inner.sub), f"{where}.sub"),
            }
        return {"kind": "not", "sub": _emit_condition(inner, f"{where}.sub")}
    if isinstance(condition, Exists):
        _require_id_preserving(condition.morphism, where)
        return {
            "kind": "exists",
            "graph": _emit_graph_part(condition.morphism.codomain),
            "sub": _emit_condition(condition.sub, f"{where}.sub"),
        }
    if isinstance(condition, And):
        return {
            "kind": "and",
            "left": _emit_condition(condition.left, f"{where}.left"),
            "right": _emit_condition(condition.right, f"{where}.right"),
        }
    raise DocumentError([f"{where}: cannot serialize condition node {type(condition).__name__}"])


def _require_id_preserving(morphism, where: str) -> None:
    if any(x != y for x, y in morphism.node_map.items()) or any(
        x != y for x, y in morphism.edge_map.items()
    ):
        raise DocumentError(
            [f"{where}: only id-preserving condition chains can be serialized"]
        )


# --- constraints --------------------------------------------------------------


def parse_constraint_document(document: str | Mapping[str, Any]) -> Constraint:
    problems: list[str] = []
    doc, tg = _open(document, CONSTRAINT_FORMAT, problems)
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.append("constraint name must be a nonempty string")
        name = "unnamed"
    if tg is None:
        raise DocumentError(problems)
    condition = _parse_condition(
        doc.get("condition"), tg, empty_graph(tg), "condition", problems
    )
    _finish(problems)
    return Constraint(name, condition)


def emit_constraint_document(constraint: Constraint) -> str:
    tg = constraint.type_graph
    if tg is None:
        raise DocumentError(["constraint mentions no graphs; nothing to serialize"])
    doc = {
        "format": CONSTRAINT_FORMAT,
        "name": constraint.name,
        "type_graph": emit_type_graph(tg),
        "condition": _emit_condition(constraint.condition),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_constraints_library(document: str | Mapping[str, Any]) -> list[Constraint]:
    problems: list[str] = []
    doc, tg = _open(document, CONSTRAINTS_FORMAT, problems)
    if tg is None:
        raise DocumentError(problems)
    out = []
    entries = doc.get("constraints")
    if not isinstance(entries, list):
        problems.append("constraints must be a list")
        entries = []
    position: dict[str, int] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            problems.append(f"constraints[{i}] must be an object with a name")
            continue
        first = position.setdefault(entry["name"], i)
        if first != i:
            problems.append(f"constraints[{i}] repeats the name {entry['name']!r} of "
                            f"constraints[{first}]")
        condition = _parse_condition(
            entry.get("condition"), tg, empty_graph(tg), f"constraints[{i}].condition", problems
        )
        out.append(Constraint(entry["name"], condition))
    _finish(problems)
    return out


def emit_constraints_library(tg: TypeGraph, constraints: list[Constraint]) -> str:
    doc = {
        "format": CONSTRAINTS_FORMAT,
        "type_graph": emit_type_graph(tg),
        "constraints": [
            {"name": c.name, "condition": _emit_condition(c.condition)}
            for c in sorted(constraints, key=lambda c: c.name)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- rules --------------------------------------------------------------------


def parse_rule_document(document: str | Mapping[str, Any]) -> Rule:
    problems: list[str] = []
    doc, tg = _open(document, RULE_FORMAT, problems)
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.append("rule name must be a nonempty string")
        name = "unnamed"
    if tg is None:
        raise DocumentError(problems)
    lhs = _parse_graph_part(doc.get("lhs"), tg, "lhs", problems)
    interface = _parse_graph_part(doc.get("interface"), tg, "interface", problems)
    rhs = _parse_graph_part(doc.get("rhs"), tg, "rhs", problems)
    condition: Condition = TRUE
    if "application_condition" in doc:
        condition = _parse_condition(
            doc["application_condition"], tg, lhs, "application_condition", problems
        )
    _finish(problems)
    try:
        return Rule(name, lhs, interface, rhs, condition)
    except RuleError as exc:
        raise DocumentError([str(exc)]) from exc


def emit_rule_document(rule: Rule) -> str:
    doc = {
        "format": RULE_FORMAT,
        "name": rule.name,
        "type_graph": emit_type_graph(rule.lhs.type_graph),
        "lhs": _emit_graph_part(rule.lhs),
        "interface": _emit_graph_part(rule.interface),
        "rhs": _emit_graph_part(rule.rhs),
    }
    if not rule.is_plain():
        doc["application_condition"] = _emit_condition(rule.condition, "application_condition")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
