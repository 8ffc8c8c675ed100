"""Rules, matches, and double-pushout rewriting steps.

A rule is a span lhs <- interface -> rhs given by shared element ids: the
interface is literally a subgraph of both sides, deleted elements are
lhs minus interface, created ones rhs minus interface. Application removes
the deleted image from the host and glues in fresh copies of the created
part, all by id bookkeeping; the two resulting squares are pushouts, which
the test suite verifies against the categorical universal property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

from .conditions import TRUE, Condition, TrueCondition, _satisfies
from .errors import MatchError, MismatchError, RuleError
from .graphs import GraphMorphism, TypedGraph, _Key, _search, inclusion, validate_graph


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

    @cached_property
    def _created(self) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str, str, str], ...]]:
        """What every step creates, read off the rhs once: each created
        node as ``(id, type)`` and each created edge as ``(id, type,
        source, target)``, in rhs ids."""
        rhs = self.rhs
        return (tuple((n, rhs.node_type(n)) for n in self.created_nodes),
                tuple((e, *rhs.edge_info(e)) for e in self.created_edges))

    @cached_property
    def _changed_types(self) -> tuple[tuple[str, str], ...]:
        """``("node", type)`` or ``("edge", type)`` of each element a step
        deletes or creates, sorted: the seeded searches that derive the
        result's report depend on these alone."""
        lhs, (new_nodes, new_edges) = self.lhs, self._created
        return tuple(sorted(
            [("node", lhs.node_type(n)) for n in self.deleted_nodes]
            + [("edge", lhs.edge_info(e)[0]) for e in self.deleted_edges]
            + [("node", ntype) for _, ntype in new_nodes]
            + [("edge", etype) for _, etype, _, _ in new_edges]))

    def is_plain(self) -> bool:
        """True when the application condition is trivially satisfied."""
        return isinstance(self.condition, TrueCondition)


@dataclass(frozen=True)
class MatchScan:
    """Matches of a rule in a host plus per-filter rejection counts.

    A scan stores what it found: ``keys``, the
    :meth:`GraphMorphism.sort_key` of each kept match in canonical order,
    and the two rejection counts. ``lhs`` and ``host`` take no part in
    equality. ``matches`` builds the kept matches as morphisms on read.
    """

    keys: tuple[_Key, ...]
    rejected_by_condition: int
    rejected_by_dangling: int
    lhs: TypedGraph = field(compare=False, repr=False)
    host: TypedGraph = field(compare=False, repr=False)

    @property
    def matches(self) -> tuple[GraphMorphism, ...]:
        """The kept matches as morphisms, built on each read."""
        return tuple(GraphMorphism.from_key(self.lhs, self.host, key) for key in self.keys)


def _dangling_ok(rule: Rule, host: TypedGraph, node_map: Mapping[str, str],
                 edge_map: Mapping[str, str]) -> bool:
    # Gluing: an edge of the host incident to a deleted node must itself be
    # in the match image, else the node cannot be removed.
    if not rule.deleted_nodes:
        return True
    image_edges = set(edge_map.values())
    for v in rule.deleted_nodes:
        for e in host.incident_edges(node_map[v]):
            if e not in image_edges:
                return False
    return True


def scan_matches(rule: Rule, host: TypedGraph) -> MatchScan:
    """All applicable matches in canonical order, with diagnostics.

    The lhs search runs as generated code without seeds and yields image
    tuples, which sort natively into canonical order. The application
    condition is evaluated before the gluing condition, on maps zipped from
    each candidate, so the rejection counts attribute each refusal to the
    first failing filter. No morphism is built.
    """
    lhs = rule.lhs
    keys = sorted(_search(lhs, "search", (), ())(host, {}, {}))
    rejected_condition = 0
    rejected_dangling = 0
    condition = None if rule.is_plain() else rule.condition
    if condition is not None or rule.deleted_nodes:
        node_ids, edge_ids = lhs.node_ids, lhs.edge_ids
        kept = []
        for key in keys:
            # The key is a total injective occurrence of the lhs, as
            # _satisfies asks.
            node_map, edge_map = dict(zip(node_ids, key[0])), dict(zip(edge_ids, key[1]))
            if condition is not None and not _satisfies(condition, host, node_map, edge_map):
                rejected_condition += 1
            elif not _dangling_ok(rule, host, node_map, edge_map):
                rejected_dangling += 1
            else:
                kept.append(key)
        keys = kept
    return MatchScan(tuple(keys), rejected_condition, rejected_dangling, lhs, host)


def find_matches(rule: Rule, host: TypedGraph) -> list[GraphMorphism]:
    """Injective matches satisfying the application and gluing conditions."""
    return list(scan_matches(rule, host).matches)


@dataclass(frozen=True)
class Transformation:
    """One rewriting step host => result with all boundary morphisms.

    ``removed_nodes`` / ``removed_edges`` are the images of the deleted
    elements, and ``created`` the ids of the created node and edge images.
    ``comatch`` is the rhs -> result morphism. ``context`` is
    the host minus the removed images; ``host_embedding`` and
    ``result_embedding`` are its id-preserving inclusions into host and
    result. ``track`` is the partial morphism host -> result defined
    exactly on surviving elements (where it is the identity on ids). These
    five are built on first access.
    """

    rule: Rule
    host: TypedGraph
    match: GraphMorphism
    result: TypedGraph
    removed_nodes: frozenset[str]
    removed_edges: frozenset[str]
    step: int = 0

    @cached_property
    def _fresh(self) -> dict[str, str]:
        # The fresh ids depend only on the rule, the host, the removed
        # images and the step, so they come out as the step chose them.
        return _fresh_ids(self.rule, self.host, self.removed_nodes, self.removed_edges,
                          self.step)

    @property
    def created(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return _created_ids(self.rule, self._fresh)

    @cached_property
    def comatch(self) -> GraphMorphism:
        fresh = self._fresh
        rhs, node_map, edge_map = self.rule.rhs, self.match.node_map, self.match.edge_map
        return GraphMorphism(
            rhs, self.result,
            {n: fresh[n] if n in fresh else node_map[n] for n in rhs.node_ids},
            {e: fresh[e] if e in fresh else edge_map[e] for e in rhs.edge_ids},
        )

    @cached_property
    def context(self) -> TypedGraph:
        # The gluing condition leaves no kept edge at a removed node.
        return self.host._patched(self.removed_nodes, self.removed_edges)

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


def _created_ids(rule: Rule, fresh: Mapping[str, str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ids of the created node and edge images, given the fresh id of
    each element the rule creates."""
    return (tuple(map(fresh.__getitem__, rule.created_nodes)),
            tuple(map(fresh.__getitem__, rule.created_edges)))


def _fresh_ids(rule: Rule, host: TypedGraph, removed_nodes: frozenset[str],
               removed_edges: frozenset[str], step: int) -> dict[str, str]:
    """The id of each element the step creates, by rhs id.

    Fresh ids avoid the context (the host minus the removed images) and
    each other. Each is ``<rule>.<step>.<id>`` when that id is free, as it
    almost always is, and :func:`_fresh_id` of it otherwise.
    """
    fresh: dict[str, str] = {}
    chosen = fresh.values()

    def taken(x: str) -> bool:
        return x in chosen or (
            (host.has_node(x) or host.has_edge(x))
            and x not in removed_nodes and x not in removed_edges
        )

    prefix = f"{rule.name}.{step}."
    for rid in (*rule.created_nodes, *rule.created_edges):
        x = prefix + rid
        if x in chosen or host.has_node(x) or host.has_edge(x):
            x = _fresh_id(x, taken)
        fresh[rid] = x
    return fresh


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
    problems = match.check()
    if problems:
        raise MatchError(f"match is not structure-preserving: {problems[0]}")
    if not _satisfies(rule.condition, host, match.node_map, match.edge_map):
        raise MatchError("match violates the application condition")
    if not _dangling_ok(rule, host, match.node_map, match.edge_map):
        raise MatchError("match violates the gluing condition")


def _rewrite(rule: Rule, host: TypedGraph, match: GraphMorphism, step: int) -> Transformation:
    """The step of :func:`apply` at a match known to be one of
    ``find_matches(rule, host)``."""
    result, removed_nodes, removed_edges, _ = _rewritten(rule, host, match.node_map,
                                                         match.edge_map, step)
    return Transformation(rule, host, match, result, removed_nodes, removed_edges, step)


def _rewritten(
    rule: Rule, host: TypedGraph, node_map: Mapping[str, str], edge_map: Mapping[str, str],
    step: int,
) -> tuple[TypedGraph, frozenset[str], frozenset[str], dict[str, str]]:
    """The raw parts of :func:`_rewrite`'s step at the match with these
    maps: the result, the removed node and edge images, and the fresh id
    of each created element (:func:`_fresh_ids`)."""
    removed_nodes = frozenset(map(node_map.__getitem__, rule.deleted_nodes))
    removed_edges = frozenset(map(edge_map.__getitem__, rule.deleted_edges))
    fresh = _fresh_ids(rule, host, removed_nodes, removed_edges, step)
    # The result copies the host's dicts, which share their untouched
    # index tuples, and patches only the removed and created elements.
    new_nodes, new_edges = rule._created
    created_nodes = [(fresh[n], ntype) for n, ntype in new_nodes]
    created_edges = [
        (fresh[e], etype,
         fresh[src] if src in fresh else node_map[src],
         fresh[tgt] if tgt in fresh else node_map[tgt])
        for e, etype, src, tgt in new_edges
    ]
    result = host._patched(removed_nodes, removed_edges, created_nodes, created_edges)
    return result, removed_nodes, removed_edges, fresh
