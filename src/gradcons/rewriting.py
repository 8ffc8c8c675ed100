"""Rules, matches, and double-pushout rewriting steps.

A rule is a span lhs <- interface -> rhs given by shared element ids: the
interface is literally a subgraph of both sides, deleted elements are
lhs minus interface, created ones rhs minus interface. Application removes
the deleted image from the host and glues in fresh copies of the created
part, all by id bookkeeping; the two resulting squares are pushouts, which
the test suite verifies against the categorical universal property.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .conditions import TRUE, Condition, TrueCondition, _satisfies, satisfies
from .errors import MatchError, MismatchError, RuleError
from .graphs import (
    GraphMorphism,
    TypedGraph,
    _assembled,
    _node_index,
    enumerate_monomorphisms,
    inclusion,
    validate_graph,
)


@dataclass(frozen=True)
class Rule:
    """A rewrite rule with an optional application condition over the lhs."""

    name: str
    lhs: TypedGraph
    interface: TypedGraph
    rhs: TypedGraph
    condition: Condition = TRUE

    def __post_init__(self) -> None:
        if not (self.lhs.type_graph == self.interface.type_graph == self.rhs.type_graph):
            raise RuleError(f"rule {self.name!r}: sides typed over different type graphs")
        for side, label in ((self.lhs, "lhs"), (self.interface, "interface"), (self.rhs, "rhs")):
            problems = validate_graph(side)
            if problems:
                raise RuleError(f"rule {self.name!r}: {label} is not well-typed: {problems[0]}")
        for side, label in ((self.lhs, "lhs"), (self.rhs, "rhs")):
            try:
                inclusion(self.interface, side)
            except MismatchError as exc:
                raise RuleError(f"rule {self.name!r}: interface is not part of the {label}: {exc}")
        shared_nodes = set(self.lhs.node_ids) & set(self.rhs.node_ids)
        shared_edges = set(self.lhs.edge_ids) & set(self.rhs.edge_ids)
        if shared_nodes != set(self.interface.node_ids) or shared_edges != set(self.interface.edge_ids):
            raise RuleError(
                f"rule {self.name!r}: lhs and rhs overlap must be exactly the interface"
            )
        anchor = self.condition.anchor()
        if anchor is not None and anchor != self.lhs:
            raise RuleError(f"rule {self.name!r}: application condition not anchored at the lhs")

    @cached_property
    def deleted_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.lhs.node_ids if not self.interface.has_node(n))

    @cached_property
    def deleted_edges(self) -> tuple[str, ...]:
        return tuple(e for e in self.lhs.edge_ids if not self.interface.has_edge(e))

    @cached_property
    def created_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.rhs.node_ids if not self.interface.has_node(n))

    @cached_property
    def created_edges(self) -> tuple[str, ...]:
        return tuple(e for e in self.rhs.edge_ids if not self.interface.has_edge(e))

    def is_plain(self) -> bool:
        """True when the application condition is trivially satisfied."""
        return isinstance(self.condition, TrueCondition)


@dataclass(frozen=True)
class MatchScan:
    """Matches of a rule in a host plus per-filter rejection counts."""

    matches: tuple[GraphMorphism, ...]
    rejected_by_condition: int
    rejected_by_dangling: int


def _dangling_ok(rule: Rule, host: TypedGraph, m: GraphMorphism) -> bool:
    # Gluing: an edge of the host incident to a deleted node must itself be
    # in the match image, else the node cannot be removed.
    image_edges = set(m.edge_map.values())
    for v in rule.deleted_nodes:
        w = m.node_map[v]
        for e in host.incident_edges(w):
            if e not in image_edges:
                return False
    return True


def scan_matches(rule: Rule, host: TypedGraph) -> MatchScan:
    """All applicable matches in canonical order, with diagnostics.

    The application condition is evaluated before the gluing condition, so
    the rejection counts attribute each refusal to the first failing filter.
    """
    kept: list[GraphMorphism] = []
    rejected_condition = 0
    rejected_dangling = 0
    for m in enumerate_monomorphisms(rule.lhs, host):
        # m is total, injective and anchored at the lhs, as satisfies asks.
        if not _satisfies(m, rule.condition):
            rejected_condition += 1
            continue
        if not _dangling_ok(rule, host, m):
            rejected_dangling += 1
            continue
        kept.append(m)
    return MatchScan(tuple(kept), rejected_condition, rejected_dangling)


def find_matches(rule: Rule, host: TypedGraph) -> list[GraphMorphism]:
    """Injective matches satisfying the application and gluing conditions."""
    return list(scan_matches(rule, host).matches)


@dataclass(frozen=True)
class Transformation:
    """One rewriting step host => result with all boundary morphisms.

    ``removed_nodes`` / ``removed_edges`` are the images of the deleted
    elements. ``context`` is the host minus them; ``host_embedding`` and
    ``result_embedding`` are its id-preserving inclusions into host and
    result. ``track`` is the partial morphism host -> result defined exactly
    on surviving elements (where it is the identity on ids). These four
    are built on first access.
    """

    rule: Rule
    host: TypedGraph
    match: GraphMorphism
    result: TypedGraph
    comatch: GraphMorphism
    removed_nodes: frozenset[str]
    removed_edges: frozenset[str]
    step: int = 0

    @cached_property
    def context(self) -> TypedGraph:
        return self.host.without(self.removed_nodes, self.removed_edges)

    @cached_property
    def host_embedding(self) -> GraphMorphism:
        return inclusion(self.context, self.host)

    @cached_property
    def result_embedding(self) -> GraphMorphism:
        return inclusion(self.context, self.result)

    @cached_property
    def track(self) -> GraphMorphism:
        context = self.context
        return GraphMorphism(
            self.host, self.result,
            {n: n for n in context.node_ids},
            {e: e for e in context.edge_ids},
        )


def _fresh_id(base: str, taken: Callable[[str], bool]) -> str:
    candidate = base
    serial = 0
    while taken(candidate):
        candidate = f"{base}~{serial}"
        serial += 1
    return candidate


def apply(rule: Rule, host: TypedGraph, match: GraphMorphism, step: int = 0) -> Transformation:
    """Perform the rewriting step at ``match``.

    ``match`` must be one of ``find_matches(rule, host)``; violations raise
    :class:`MatchError`. Created elements receive deterministic fresh ids
    built from the rule name, the step counter, and the rhs element id
    (``"<rule>.<step>.<element>"``, with ``~N`` suffixes on collision), so
    identical inputs give identical results.
    """
    _check_match(rule, host, match)
    return _rewrite(rule, host, match, step)


def _check_match(rule: Rule, host: TypedGraph, match: GraphMorphism) -> None:
    if match.domain != rule.lhs:
        raise MatchError("match domain is not the rule's lhs")
    if match.codomain != host:
        raise MatchError("match codomain is not the host")
    if not (match.is_total() and match.is_injective()):
        raise MatchError("match must be total and injective")
    if match.check():
        raise MatchError(f"match is not structure-preserving: {match.check()[0]}")
    if not satisfies(match, rule.condition):
        raise MatchError("match violates the application condition")
    if not _dangling_ok(rule, host, match):
        raise MatchError("match violates the gluing condition")


def _rewrite(rule: Rule, host: TypedGraph, match: GraphMorphism, step: int) -> Transformation:
    """The step of :func:`apply` at a match known to be one of
    ``find_matches(rule, host)``."""
    removed_nodes = frozenset(match.node_map[v] for v in rule.deleted_nodes)
    removed_edges = frozenset(match.edge_map[e] for e in rule.deleted_edges)

    # Fresh ids avoid the context (the host minus the removed images)
    # and each other.
    fresh: dict[str, str] = {}
    chosen: set[str] = set()

    def taken(x: str) -> bool:
        return x in chosen or (
            (host.has_node(x) or host.has_edge(x))
            and x not in removed_nodes and x not in removed_edges
        )

    for rid in (*rule.created_nodes, *rule.created_edges):
        fresh[rid] = _fresh_id(f"{rule.name}.{step}.{rid}", taken)
        chosen.add(fresh[rid])

    def rhs_node_image(n: str) -> str:
        return fresh[n] if n in fresh else match.node_map[n]

    # The result is the host's parts, copied and patched; without node
    # changes it shares the host's node part.
    if removed_nodes or rule.created_nodes:
        nodes = dict(host._nodes)
        for n in removed_nodes:
            del nodes[n]
        for n in rule.created_nodes:
            nodes[fresh[n]] = rule.rhs.node_type(n)
        node_ids, by_type = _node_index(nodes)
    else:
        nodes, node_ids, by_type = host._nodes, host._node_ids, host._by_type
    edges = dict(host._edges)
    for e in removed_edges:
        del edges[e]
    for e in rule.created_edges:
        etype, src, tgt = rule.rhs.edge_info(e)
        edges[fresh[e]] = (etype, rhs_node_image(src), rhs_node_image(tgt))
    result = _assembled(host.type_graph, nodes, node_ids, by_type, edges, tuple(sorted(edges)))

    comatch = GraphMorphism(
        rule.rhs, result,
        {n: rhs_node_image(n) for n in rule.rhs.node_ids},
        {e: fresh[e] if e in fresh else match.edge_map[e] for e in rule.rhs.edge_ids},
    )
    return Transformation(
        rule=rule,
        host=host,
        match=match,
        result=result,
        comatch=comatch,
        removed_nodes=removed_nodes,
        removed_edges=removed_edges,
        step=step,
    )
