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
from itertools import chain
from typing import Callable, Mapping

from .conditions import TRUE, Condition, TrueCondition, _scan_test, _seeds_at
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
    def _deleted_degrees(self) -> tuple[tuple[int, int], ...]:
        """Each deleted node's position in a match's key and the number of
        lhs edges incident to it, a loop counted once (:func:`_glues`)."""
        lhs = self.lhs
        return tuple((lhs.node_ids.index(v), len(lhs.incident_edges(v)))
                     for v in self.deleted_nodes)

    @cached_property
    def _scan(self) -> Callable:
        """The compiled scan of the rule (:func:`scan_matches`), made on
        first use: the lhs search with the application condition and then
        the gluing condition tested inline at each occurrence."""
        return _search(self.lhs, ("scan", _scan_test(self.condition), self._deleted_degrees),
                       (), ())

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
        """``(kind, type)`` of each id a step deletes or creates that
        starts the searches deriving the result's report, sorted
        (:func:`searches_per_step` counts them): the kinds
        :func:`_seeds_at` reads off the lhs at the deleted ids and off the
        rhs at the created ones. Match and comatch are injective, so the
        ids a step removes from the host and creates in the result give
        the same kinds."""
        return tuple(sorted((kind, element_type) for kind, element_type, _ in chain(
            _seeds_at(self.lhs, (*self.deleted_nodes, *self.deleted_edges)),
            _seeds_at(self.rhs, (*self.created_nodes, *self.created_edges)))))

    def _split_created(self, ids: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The created node ids and the created edge ids among ``ids``,
        the ids a step gave the created elements, nodes first
        (:func:`_rewritten`)."""
        n = len(self.created_nodes)
        return ids[:n], ids[n:]

    def is_plain(self) -> bool:
        """True when the application condition is trivially satisfied."""
        return isinstance(self.condition, TrueCondition)


@dataclass(frozen=True)
class MatchScan:
    """Matches of a rule in a host plus per-filter rejection counts.

    A scan stores what it found: ``keys``, the
    :meth:`GraphMorphism.sort_key` of each kept match in canonical order,
    and the two rejection counts, each occurrence of the lhs counted at the
    first filter that refuses it, the application condition before the
    gluing condition. ``lhs`` and ``host`` take no part in equality.
    ``matches`` builds the kept matches as morphisms on read.
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


def _glues(degrees: tuple[tuple[int, int], ...], incident: Mapping[str, tuple[str, ...]],
           key: _Key) -> bool:
    """The gluing condition at the match with this key: every host edge
    at a deleted node's image is in the match's image, else the node
    cannot be removed. The match is injective and preserves structure, so
    the images of the node's lhs edges are distinct host edges at its
    image, and the condition holds when the host has no more edges there.
    ``degrees`` are the rule's ``_deleted_degrees``, ``incident`` the
    host's incidence index. A compiled scan makes the same test inline;
    :func:`apply` calls this one."""
    for position, degree in degrees:
        if len(incident[key[position]]) != degree:
            return False
    return True


def scan_matches(rule: Rule, host: TypedGraph) -> MatchScan:
    """All applicable matches in canonical order, with diagnostics.

    The rule's compiled scan (``Rule._scan``) runs the lhs search as
    generated code without seeds. At each occurrence it tests the
    application condition first, then the gluing condition, so the
    rejection counts attribute each refusal to the first failing filter,
    and yields only the image tuples of the kept matches, which sort
    natively into canonical order. No morphism or map is built.
    """
    rejected = [0, 0]
    keys = sorted(rule._scan(host, rejected))
    return MatchScan(tuple(keys), *rejected, rule.lhs, host)


def find_matches(rule: Rule, host: TypedGraph) -> list[GraphMorphism]:
    """Injective matches satisfying the application and gluing conditions."""
    return list(scan_matches(rule, host).matches)


@dataclass(frozen=True)
class Transformation:
    """One rewriting step host => result with all boundary morphisms.

    ``removed_nodes`` / ``removed_edges`` are the images of the deleted
    elements, and ``created`` the ids of the created node and edge images,
    in the rule's ``created_nodes`` / ``created_edges`` order, as the
    rewrite chose them. ``comatch`` is the rhs -> result morphism.
    ``context`` is the host minus the removed images; ``host_embedding`` and
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
    created: tuple[tuple[str, ...], tuple[str, ...]]
    step: int = 0

    @cached_property
    def comatch(self) -> GraphMorphism:
        rule, (nodes, edges) = self.rule, self.created
        fresh = dict(zip((*rule.created_nodes, *rule.created_edges), (*nodes, *edges)))
        rhs, node_map, edge_map = rule.rhs, self.match.node_map, self.match.edge_map
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


def _fresh_ids(rule: Rule, host: TypedGraph, removed_nodes: frozenset[str],
               removed_edges: frozenset[str], step: int) -> dict[str, str]:
    """The id of each element the step creates, by rhs id: the created
    nodes first, then the created edges, each in the rule's order.

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
    key = match.sort_key()
    if not rule.condition._predicate(host, key):
        raise MatchError("match violates the application condition")
    degrees = rule._deleted_degrees
    if degrees and not _glues(degrees, host._incidence(), key):
        raise MatchError("match violates the gluing condition")


def _rewrite(rule: Rule, host: TypedGraph, match: GraphMorphism, step: int) -> Transformation:
    """The step of :func:`apply` at a match known to be one of
    ``find_matches(rule, host)``."""
    result, *removed, ids = _rewritten(rule, host, match.node_map, match.edge_map, step)
    return Transformation(rule, host, match, result, *removed, rule._split_created(ids), step)


def _rewritten(
    rule: Rule, host: TypedGraph, node_map: Mapping[str, str], edge_map: Mapping[str, str],
    step: int,
) -> tuple[TypedGraph, frozenset[str], frozenset[str], tuple[str, ...]]:
    """The result of :func:`_rewrite`'s step at the match with these
    maps, the removed node and edge images, and the ids of the created
    elements (:func:`_fresh_ids`), nodes first, which
    :meth:`Rule._split_created` splits by kind where they are read."""
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
    return result, removed_nodes, removed_edges, tuple(fresh.values())
