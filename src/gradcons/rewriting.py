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

from .conditions import TRUE, Condition, TrueCondition, satisfies
from .errors import MatchError, MismatchError, RuleError
from .graphs import (
    GraphMorphism,
    TypedGraph,
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

    @property
    def deleted_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.lhs.node_ids if not self.interface.has_node(n))

    @property
    def deleted_edges(self) -> tuple[str, ...]:
        return tuple(e for e in self.lhs.edge_ids if not self.interface.has_edge(e))

    @property
    def created_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.rhs.node_ids if not self.interface.has_node(n))

    @property
    def created_edges(self) -> tuple[str, ...]:
        return tuple(e for e in self.rhs.edge_ids if not self.interface.has_edge(e))

    def is_plain(self) -> bool:
        """True when the application condition is trivially satisfied."""
        return isinstance(self.condition, TrueCondition)

    def is_identity(self) -> bool:
        return not (self.deleted_nodes or self.deleted_edges
                    or self.created_nodes or self.created_edges)


def make_check_rule(pattern: TypedGraph, name: str = "check") -> Rule:
    """The non-modifying rule whose matches are exactly the occurrences of
    ``pattern``: identity span, no application condition."""
    return Rule(name=name, lhs=pattern, interface=pattern, rhs=pattern)


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
        if not satisfies(m, rule.condition):
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

    ``context`` is the host minus the deleted image; ``host_embedding`` and
    ``result_embedding`` are its id-preserving inclusions into host and
    result. ``track`` is the partial morphism host -> result defined exactly
    on surviving elements (where it is the identity on ids).
    """

    rule: Rule
    host: TypedGraph
    match: GraphMorphism
    context: TypedGraph
    result: TypedGraph
    host_embedding: GraphMorphism
    result_embedding: GraphMorphism
    comatch: GraphMorphism
    track: GraphMorphism
    step: int = 0


def _fresh_id(base: str, taken: set[str]) -> str:
    candidate = base
    serial = 0
    while candidate in taken:
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

    removed_nodes = {match.node_map[v] for v in rule.deleted_nodes}
    removed_edges = {match.edge_map[e] for e in rule.deleted_edges}
    context = host.without(removed_nodes, removed_edges)

    taken = set(context.node_ids) | set(context.edge_ids)
    fresh: dict[str, str] = {}
    for rid in (*rule.created_nodes, *rule.created_edges):
        fresh[rid] = _fresh_id(f"{rule.name}.{step}.{rid}", taken)
        taken.add(fresh[rid])

    def rhs_node_image(n: str) -> str:
        return fresh[n] if n in fresh else match.node_map[n]

    new_nodes = [(fresh[n], rule.rhs.node_type(n)) for n in rule.created_nodes]
    new_edges = []
    for e in rule.created_edges:
        etype, src, tgt = rule.rhs.edge_info(e)
        new_edges.append((fresh[e], etype, rhs_node_image(src), rhs_node_image(tgt)))
    result = context.with_added(new_nodes, new_edges)

    comatch = GraphMorphism(
        rule.rhs, result,
        {n: rhs_node_image(n) for n in rule.rhs.node_ids},
        {e: fresh[e] if e in fresh else match.edge_map[e] for e in rule.rhs.edge_ids},
    )
    track = GraphMorphism(
        host, result,
        {n: n for n in context.node_ids},
        {e: e for e in context.edge_ids},
    )
    return Transformation(
        rule=rule,
        host=host,
        match=match,
        context=context,
        result=result,
        host_embedding=inclusion(context, host),
        result_embedding=inclusion(context, result),
        comatch=comatch,
        track=track,
        step=step,
    )
