"""Typed multigraphs, graph morphisms, and injective pattern matching.

Every node and edge carries a stable opaque string id. All constructions
downstream (rewriting, gluing, tracking) follow elements by id; nothing is
ever re-identified structurally. Parallel edges are permitted: two edges of
the same type between the same nodes are distinct elements.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Callable, Collection, Iterable, Mapping

from .errors import MismatchError


class TypeGraph:
    """The shared vocabulary: node types plus directed, typed edge types.

    ``edge_types`` maps each edge type name to its (source type, target type)
    signature. Type names are unique across both kinds.
    """

    __slots__ = ("_node_types", "_edge_types")

    def __init__(
        self,
        node_types: Iterable[str],
        edge_types: Mapping[str, tuple[str, str]] | Iterable[tuple[str, str, str]] = (),
    ):
        nts = tuple(node_types)
        if len(set(nts)) != len(nts):
            raise ValueError("duplicate node type name")
        if isinstance(edge_types, Mapping):
            ets = {name: (src, tgt) for name, (src, tgt) in edge_types.items()}
        else:
            ets = {}
            for name, src, tgt in edge_types:
                if name in ets:
                    raise ValueError(f"duplicate edge type name {name!r}")
                ets[name] = (src, tgt)
        overlap = set(nts) & set(ets)
        if overlap:
            raise ValueError(f"type names used for both nodes and edges: {sorted(overlap)}")
        for name, (src, tgt) in ets.items():
            if src not in nts or tgt not in nts:
                raise ValueError(f"edge type {name!r} references unknown node type")
        self._node_types = frozenset(nts)
        self._edge_types = dict(sorted(ets.items()))

    @property
    def node_types(self) -> frozenset[str]:
        return self._node_types

    @property
    def edge_types(self) -> dict[str, tuple[str, str]]:
        return dict(self._edge_types)

    def signature(self, edge_type: str) -> tuple[str, str]:
        return self._edge_types[edge_type]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TypeGraph):
            return NotImplemented
        return self._node_types == other._node_types and self._edge_types == other._edge_types

    def __hash__(self) -> int:
        return hash((self._node_types, tuple(self._edge_types.items())))

    def __repr__(self) -> str:
        return f"TypeGraph(node_types={sorted(self._node_types)}, edge_types={self._edge_types})"


class TypedGraph:
    """A finite directed multigraph typed over a :class:`TypeGraph`.

    ``nodes`` is an iterable of ``(id, type)`` pairs, ``edges`` of
    ``(id, type, source id, target id)`` tuples. Construction only rejects
    duplicate ids; full typing is checked by :func:`validate_graph` so that
    broken inputs (e.g. from files) can still be represented and reported on.
    Instances are immutable by convention: no method changes the elements,
    no accessor hands out a mutable part, and derived graphs are new
    objects. Graphs derived through ``_with_edges`` or ``_patched`` may
    therefore share parts. The incidence index and the search plans are
    caches, built on first use.
    """

    __slots__ = (
        "_type_graph", "_nodes", "_edges", "_node_ids", "_edge_ids",
        "_by_type", "_triples", "_incident", "_plans", "_searches",
    )

    def __init__(
        self,
        type_graph: TypeGraph,
        nodes: Iterable[tuple[str, str]] = (),
        edges: Iterable[tuple[str, str, str, str]] = (),
    ):
        node_dict: dict[str, str] = {}
        for nid, ntype in nodes:
            if nid in node_dict:
                raise ValueError(f"duplicate node id {nid!r}")
            node_dict[nid] = ntype
        edge_dict: dict[str, tuple[str, str, str]] = {}
        for eid, etype, src, tgt in edges:
            if eid in edge_dict or eid in node_dict:
                raise ValueError(f"duplicate element id {eid!r}")
            edge_dict[eid] = (etype, src, tgt)
        self._type_graph = type_graph
        self._nodes = node_dict
        self._node_ids = tuple(sorted(node_dict))
        by_type: dict[str, list[str]] = {}
        for nid in self._node_ids:
            by_type.setdefault(node_dict[nid], []).append(nid)
        self._by_type = {t: tuple(ids) for t, ids in by_type.items()}
        self._edges = edge_dict
        self._edge_ids = tuple(sorted(edge_dict))
        # Edges by (type, src, tgt). Edges with dangling endpoints are
        # skipped here and surface through validate_graph instead.
        triples: dict[tuple[str, str, str], tuple[str, ...]] = {}
        for eid in self._edge_ids:
            info = edge_dict[eid]
            _, src, tgt = info
            if src not in node_dict or tgt not in node_dict:
                continue
            # Keyed by the edge's own tuple. A bundle of k parallel edges
            # is copied k times, cheap for the few bundles a graph has.
            triples[info] = triples.get(info, ()) + (eid,)
        self._triples = triples
        # The incidence index, and the search plans and compiled searches
        # for this graph as a pattern, are built on first use.
        self._incident: dict[str, tuple[str, ...]] | None = None
        self._plans: dict[frozenset[str], _Plan] | None = None
        self._searches: dict[tuple[str | tuple, _Seeds, _Seeds], Callable] | None = None

    def _with_edges(
        self,
        edges: dict[str, tuple[str, str, str]],
        edge_ids: tuple[str, ...],
        bundles: Iterable[tuple[str]],
    ) -> TypedGraph:
        """This graph's nodes, their parts shared, with ``edges`` instead of
        its own. Trusted input: ``edges`` make a simple graph without
        dangling edges, ``edge_ids`` are their sorted ids, ``bundles`` holds
        ``(eid,)`` for each ``eid`` in the order of ``edges``, no edge id is
        a node id, and ``edges``, ``edge_ids`` and the bundles may be shared
        with other graphs but are never mutated."""
        graph = TypedGraph.__new__(TypedGraph)
        graph._type_graph, graph._nodes = self._type_graph, self._nodes
        graph._node_ids, graph._by_type = self._node_ids, self._by_type
        graph._edges, graph._edge_ids = edges, edge_ids
        graph._triples = dict(zip(edges.values(), bundles))
        graph._incident = graph._plans = graph._searches = None
        return graph

    def _incidence(self) -> dict[str, tuple[str, ...]]:
        """The incident edges of each node in sorted order, built on first
        use and kept; edges with dangling endpoints are skipped."""
        incident = self._incident
        if incident is None:
            nodes, edges = self._nodes, self._edges
            lists: dict[str, list[str]] = {nid: [] for nid in self._node_ids}
            for eid in self._edge_ids:
                _, src, tgt = edges[eid]
                if src not in nodes or tgt not in nodes:
                    continue
                lists[src].append(eid)
                if tgt != src:
                    lists[tgt].append(eid)
            incident = self._incident = {k: tuple(v) for k, v in lists.items()}
        return incident

    def _patched(
        self,
        removed_nodes: Collection[str],
        removed_edges: Collection[str],
        created_nodes: Collection[tuple[str, str]] = (),
        created_edges: Collection[tuple[str, str, str, str]] = (),
    ) -> TypedGraph:
        """This graph minus the removed elements plus the created ones.

        The dicts of this graph are copied (the copies share its value
        tuples) and only the changed entries are patched: a removed id is
        cut out of its sorted tuples, a created id inserted at its sorted
        place, and a node type loses its entry with its last node. Parts
        that no change touches are shared. Removals go first, so a created
        id may equal a removed one. Trusted input: the removed ids are
        present, no kept edge ends at a removed node, the created ids are
        not kept ones, and each created edge ends at kept or created nodes.
        The result equals ``TypedGraph(...)`` over the same elements, index
        tuple orders included. The incidence index is patched only when
        this graph has one; otherwise the result's too is left to be built
        on first use.
        """
        nodes, node_ids, by_type = self._nodes, self._node_ids, self._by_type
        edges, edge_ids = self._edges, self._edge_ids
        triples, incident = self._triples, self._incident
        edges_change = removed_edges or created_edges
        nodes_change = removed_nodes or created_nodes
        if edges_change:
            edges, triples = dict(edges), dict(triples)
        if nodes_change:
            nodes, by_type = dict(nodes), dict(by_type)
        if incident is not None and (edges_change or nodes_change):
            incident = dict(incident)
        # Removed edges go before removed nodes and created edges after
        # created nodes, so each incidence entry an edge touches exists.
        for eid in removed_edges:
            info = edges.pop(eid)
            edge_ids = _removed(edge_ids, eid)
            bundle = _removed(triples[info], eid)
            if bundle:
                triples[info] = bundle
            else:
                del triples[info]
            if incident is not None:
                _, src, tgt = info
                incident[src] = _removed(incident[src], eid)
                if tgt != src:
                    incident[tgt] = _removed(incident[tgt], eid)
        for nid in removed_nodes:
            ntype = nodes.pop(nid)
            if incident is not None:
                del incident[nid]
            node_ids = _removed(node_ids, nid)
            same = _removed(by_type[ntype], nid)
            if same:
                by_type[ntype] = same
            else:
                del by_type[ntype]
        for nid, ntype in created_nodes:
            nodes[nid] = ntype
            if incident is not None:
                incident[nid] = ()
            node_ids = _inserted(node_ids, nid)
            by_type[ntype] = _inserted(by_type.get(ntype, ()), nid)
        for eid, etype, src, tgt in created_edges:
            info = edges[eid] = (etype, src, tgt)
            edge_ids = _inserted(edge_ids, eid)
            triples[info] = _inserted(triples.get(info, ()), eid)
            if incident is not None:
                incident[src] = _inserted(incident[src], eid)
                if tgt != src:
                    incident[tgt] = _inserted(incident[tgt], eid)
        graph = TypedGraph.__new__(TypedGraph)
        graph._type_graph = self._type_graph
        graph._nodes, graph._node_ids, graph._by_type = nodes, node_ids, by_type
        graph._edges, graph._edge_ids = edges, edge_ids
        graph._triples, graph._incident = triples, incident
        graph._plans = graph._searches = None
        return graph

    @property
    def type_graph(self) -> TypeGraph:
        return self._type_graph

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._node_ids

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return self._edge_ids

    def has_node(self, nid: str) -> bool:
        return nid in self._nodes

    def has_edge(self, eid: str) -> bool:
        return eid in self._edges

    def node_type(self, nid: str) -> str:
        return self._nodes[nid]

    def edge_info(self, eid: str) -> tuple[str, str, str]:
        """Return ``(type, source id, target id)`` for an edge."""
        return self._edges[eid]

    def nodes_of_type(self, ntype: str) -> tuple[str, ...]:
        return self._by_type.get(ntype, ())

    def edges_with_signature(self, etype: str, src: str, tgt: str) -> tuple[str, ...]:
        return self._triples.get((etype, src, tgt), ())

    def incident_edges(self, nid: str) -> tuple[str, ...]:
        return self._incidence().get(nid, ())

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def is_empty(self) -> bool:
        return not self._nodes and not self._edges

    def node_items(self) -> tuple[tuple[str, str], ...]:
        return tuple((nid, self._nodes[nid]) for nid in self._node_ids)

    def edge_items(self) -> tuple[tuple[str, str, str, str], ...]:
        return tuple((eid, *self._edges[eid]) for eid in self._edge_ids)

    def without(self, node_ids: Iterable[str] = (), edge_ids: Iterable[str] = ()) -> TypedGraph:
        """A copy with the given elements removed (ids preserved elsewhere)."""
        drop_n = set(node_ids)
        drop_e = set(edge_ids)
        return TypedGraph(
            self._type_graph,
            ((nid, t) for nid, t in self.node_items() if nid not in drop_n),
            ((eid, t, s, tt) for eid, t, s, tt in self.edge_items() if eid not in drop_e),
        )

    def with_added(
        self,
        nodes: Iterable[tuple[str, str]] = (),
        edges: Iterable[tuple[str, str, str, str]] = (),
    ) -> TypedGraph:
        """A copy extended by fresh nodes and edges."""
        return TypedGraph(
            self._type_graph,
            list(self.node_items()) + list(nodes),
            list(self.edge_items()) + list(edges),
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TypedGraph):
            return NotImplemented
        return (
            self._type_graph == other._type_graph
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._type_graph, tuple(sorted(self._nodes.items())),
                     tuple(sorted(self._edges.items()))))

    def __repr__(self) -> str:
        return f"TypedGraph(nodes={self.node_count}, edges={self.edge_count})"


def _removed(ids: tuple[str, ...], x: str) -> tuple[str, ...]:
    """The sorted ``ids`` without ``x``, which they contain."""
    i = bisect_left(ids, x)
    return ids[:i] + ids[i + 1:]


def _inserted(ids: tuple[str, ...], x: str) -> tuple[str, ...]:
    """The sorted ``ids`` with ``x``, which they lack, at its place."""
    i = bisect_left(ids, x)
    return ids[:i] + (x,) + ids[i:]


def empty_graph(type_graph: TypeGraph) -> TypedGraph:
    return TypedGraph(type_graph)


def validate_graph(graph: TypedGraph) -> list[str]:
    """Check well-typedness; returns one message per violation (empty = ok)."""
    problems: list[str] = []
    tg = graph.type_graph
    for nid, ntype in graph.node_items():
        if ntype not in tg.node_types:
            problems.append(f"node {nid!r} has unknown type {ntype!r}")
    signatures = tg.edge_types
    for eid, etype, src, tgt in graph.edge_items():
        if etype not in signatures:
            problems.append(f"edge {eid!r} has unknown type {etype!r}")
            continue
        want_src, want_tgt = signatures[etype]
        if not graph.has_node(src):
            problems.append(f"edge {eid!r} has absent source node {src!r}")
        elif graph.node_type(src) != want_src:
            problems.append(f"edge {eid!r} source {src!r} is not of type {want_src!r}")
        if not graph.has_node(tgt):
            problems.append(f"edge {eid!r} has absent target node {tgt!r}")
        elif graph.node_type(tgt) != want_tgt:
            problems.append(f"edge {eid!r} target {tgt!r} is not of type {want_tgt!r}")
    return problems


# An occurrence's :meth:`GraphMorphism.sort_key`: the node images over the
# sorted pattern node ids, then the edge images over the sorted edge ids.
_Key = tuple[str, ...]


@dataclass(frozen=True, slots=True)
class GraphMorphism:
    """A possibly-partial, structure-preserving map between typed graphs.

    ``node_map`` / ``edge_map`` send domain ids to codomain ids; elements
    absent from the maps are where the morphism is undefined. Equality and
    hashing are componentwise. Instances are value objects; do not mutate
    the maps.
    """

    domain: TypedGraph
    codomain: TypedGraph
    node_map: Mapping[str, str]
    edge_map: Mapping[str, str]

    def is_total(self) -> bool:
        """Is the morphism defined on every domain element, and on nothing
        else: do its maps name exactly the domain's ids?"""
        domain = self.domain
        return (self.node_map.keys() == domain._nodes.keys()
                and self.edge_map.keys() == domain._edges.keys())

    def is_injective(self) -> bool:
        return (
            len(set(self.node_map.values())) == len(self.node_map)
            and len(set(self.edge_map.values())) == len(self.edge_map)
        )

    def check(self) -> list[str]:
        """Validate typing and structure preservation; messages per violation."""
        problems: list[str] = []
        for x, y in self.node_map.items():
            if not self.domain.has_node(x):
                problems.append(f"maps absent node {x!r}")
            elif not self.codomain.has_node(y):
                problems.append(f"node {x!r} sent to absent node {y!r}")
            elif self.domain.node_type(x) != self.codomain.node_type(y):
                problems.append(f"node {x!r} changes type under the map")
        for e, f in self.edge_map.items():
            if not self.domain.has_edge(e):
                problems.append(f"maps absent edge {e!r}")
                continue
            if not self.codomain.has_edge(f):
                problems.append(f"edge {e!r} sent to absent edge {f!r}")
                continue
            etype, src, tgt = self.domain.edge_info(e)
            ftype, fsrc, ftgt = self.codomain.edge_info(f)
            if etype != ftype:
                problems.append(f"edge {e!r} changes type under the map")
            if src not in self.node_map or tgt not in self.node_map:
                problems.append(f"edge {e!r} is mapped but an endpoint is not")
                continue
            if self.node_map[src] != fsrc or self.node_map[tgt] != ftgt:
                problems.append(f"edge {e!r} does not commute with its endpoints")
        return problems

    def sort_key(self) -> _Key:
        """Canonical ordering key: one tuple of the images over the sorted
        domain node ids, then over the sorted domain edge ids. Keys of one
        domain have one length, so they sort as the pair of the two
        image tuples would."""
        return (*(self.node_map.get(v, "") for v in self.domain.node_ids),
                *(self.edge_map.get(e, "") for e in self.domain.edge_ids))

    @classmethod
    def from_key(cls, domain: TypedGraph, codomain: TypedGraph, key: _Key) -> GraphMorphism:
        """The total morphism whose :meth:`sort_key` is ``key``, its maps
        listing the sorted domain ids. Nothing is validated."""
        node_ids = domain._node_ids
        return cls(domain, codomain, dict(zip(node_ids, key)),
                   dict(zip(domain._edge_ids, key[len(node_ids):])))

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, frozenset(self.node_map.items()),
                     frozenset(self.edge_map.items())))

    def __repr__(self) -> str:
        kind = "total" if self.is_total() else "partial"
        return f"GraphMorphism({kind}, nodes={dict(self.node_map)}, edges={dict(self.edge_map)})"


def inclusion(sub: TypedGraph, sup: TypedGraph) -> GraphMorphism:
    """The id-preserving embedding of ``sub`` into ``sup``."""
    for nid in sub.node_ids:
        if not sup.has_node(nid) or sup.node_type(nid) != sub.node_type(nid):
            raise MismatchError(f"node {nid!r} not present in the larger graph")
    for eid in sub.edge_ids:
        if not sup.has_edge(eid) or sup.edge_info(eid) != sub.edge_info(eid):
            raise MismatchError(f"edge {eid!r} not present in the larger graph")
    return GraphMorphism(
        sub, sup,
        {nid: nid for nid in sub.node_ids},
        {eid: eid for eid in sub.edge_ids},
    )


def empty_morphism_into(graph: TypedGraph) -> GraphMorphism:
    return GraphMorphism(empty_graph(graph.type_graph), graph, {}, {})


# Seeded pattern nodes or pinned pattern edges of a compiled search, each
# paired with the position in the seed key where the search reads its image.
_Seeds = tuple[tuple[int, str], ...]


class _Plan:
    """The search plan for one pattern and one set of seeded nodes.

    ``steps`` lists the free nodes in search order as ``(node, type,
    source, checks)``: sorted by id, but the free nodes without a pattern
    edge come after all the others, and a seeded plan takes next the
    first free node with a placed neighbour. ``source`` is ``None`` when
    the candidates are all
    host nodes of the type, or ``(placed node, edge type, outgoing)`` when
    they are the host neighbours of that node's image along edges of the
    type, leaving it when ``outgoing``. ``checks`` are the signatures of
    the pattern edges from the node to itself or to nodes placed before
    it, but for the edge its candidates come along, which each of them
    has. ``scan_types`` are the node types of the steps without a source.
    ``groups`` are the pattern edges grouped by signature, in sorted
    order; within a group any injective assignment onto host edges of the
    image signature preserves structure.
    """

    __slots__ = ("steps", "scan_types", "groups")

    def __init__(self, pattern: TypedGraph, seeded: frozenset[str]):
        placed = set(seeded)
        # A free node without pattern edges has nothing to check, so it
        # goes after every node that has one (a stable sort): there it
        # multiplies only finished occurrences, not the loops after it.
        free = sorted((v for v in pattern.node_ids if v not in placed),
                      key=lambda v: not pattern.incident_edges(v))
        steps = []
        while free:
            # A seeded search places next the first free node adjacent to
            # a placed one; an unseeded one keeps the sorted order and
            # scans every node's type.
            v, along, source = free[0], None, None
            if seeded:
                for u in free:
                    found = _neighbour_source(pattern, u, placed)
                    if found is not None:
                        v, (along, source) = u, found
                        break
            free.remove(v)
            placed.add(v)
            infos = [pattern.edge_info(e) for e in pattern.incident_edges(v) if e != along]
            checks = tuple(info for info in infos if info[1] in placed and info[2] in placed)
            steps.append((v, pattern.node_type(v), source, checks))
        self.steps = tuple(steps)
        self.scan_types = tuple({ntype: None for _, ntype, source, _ in steps if source is None})
        groups: dict[tuple[str, str, str], list[str]] = {}
        for e in pattern.edge_ids:
            groups.setdefault(pattern.edge_info(e), []).append(e)
        self.groups = tuple((key, tuple(groups[key])) for key in sorted(groups))


def _neighbour_source(
    pattern: TypedGraph, v: str, placed: set[str]
) -> tuple[str, tuple[str, str, bool]] | None:
    """The first pattern edge between ``v`` and another, placed node, and
    the step source of ``v`` along it; ``None`` if there is none."""
    for e in pattern.incident_edges(v):
        etype, src, tgt = pattern.edge_info(e)
        if src == v and tgt != v and tgt in placed:
            return e, (tgt, etype, False)
        if tgt == v and src != v and src in placed:
            return e, (src, etype, True)
    return None


def _plan(pattern: TypedGraph, seeded: frozenset[str]) -> _Plan:
    """The search plan, compiled on first use and kept on the pattern."""
    plans = pattern._plans
    if plans is None:
        plans = pattern._plans = {}
    plan = plans.get(seeded)
    if plan is None:
        plan = plans[seeded] = _Plan(pattern, seeded)
    return plan


def enumerate_monomorphisms(pattern: TypedGraph, host: TypedGraph) -> list[GraphMorphism]:
    """All total injective morphisms pattern -> host, in canonical order.

    The order is lexicographic over the images of the sorted pattern node ids,
    with ties broken the same way on sorted pattern edge ids, so results are
    reproducible across runs. The keys that the unseeded ``"search"`` form
    of :func:`_search` yields are sorted before any morphism is built from
    them by :meth:`GraphMorphism.from_key`.
    Each morphism appears exactly once. The occurrences that extend a given
    one along a morphism are :func:`gradcons.conditions.extensions`.
    """
    node_ids, edge_ids = pattern._node_ids, pattern._edge_ids
    if len(node_ids) == 1 and not edge_ids:
        # The occurrences of one node are the host nodes of its type, which
        # the host keeps in sorted order.
        if pattern._type_graph is not host._type_graph and pattern._type_graph != host._type_graph:
            raise MismatchError("pattern and host are typed over different type graphs")
        [v] = node_ids
        return [GraphMorphism(pattern, host, {v: w}, {})
                for w in host._by_type.get(pattern._nodes[v], ())]
    return [GraphMorphism.from_key(pattern, host, key)
            for key in sorted(_search(pattern, "search", (), ())(host, ()))]


# --- compiled searches --------------------------------------------------------

# The most loops one generated function nests. CPython refuses more than 20
# statically nested blocks, so a longer search goes on in a further function
# that takes the images placed so far.
_LOOPS_PER_FUNCTION = 12


def _search(pattern: TypedGraph, form: str | tuple, nodes: _Seeds, edges: _Seeds) -> Callable:
    """The search of ``pattern`` as generated code, kept on the pattern.

    ``nodes``/``edges`` pair each seeded pattern node and pinned pattern
    edge with the position at which the function, called as ``(host,
    key)``, reads its image from ``key``: along a condition morphism, the
    position of the anchor element it comes from in the anchor
    occurrence's :meth:`GraphMorphism.sort_key`, so an :class:`Exists`
    node and ``iter_extensions`` along the same morphism share one
    function. The ``"exists"`` form tells whether the images extend to a
    total injective morphism pattern -> host; the ``"search"`` form yields
    each one as its :meth:`GraphMorphism.sort_key`, one flat tuple of the
    node images over the sorted pattern node ids, then the edge images
    over the sorted edge ids, lazily: stopping the iteration stops the
    search. Without seeds the ``"search"`` form finds every occurrence:
    :func:`enumerate_monomorphisms` runs it.

    The scan form ``("scan", test, degrees)`` is a rule's match scan over
    its lhs ``pattern``, without seeds. Called as ``(host, rejected)``, it
    yields the keys of the matches it keeps, in no fixed order. At each
    occurrence it tests first the application condition as ``test``
    describes it (``conditions._scan_test``), then the gluing condition:
    the image of each deleted node, at a ``(key position, lhs degree)`` of
    ``degrees``, must have exactly that many incident host edges. It
    counts each occurrence it refuses in ``rejected[0]`` or
    ``rejected[1]``, by the first test that fails.

    Every form refuses a host typed over another type graph with
    :class:`MismatchError`, a generator on the first ``next``. The plan is
    built only when the function is compiled.
    """
    searches = pattern._searches
    if searches is None:
        searches = pattern._searches = {}
    search = searches.get((form, nodes, edges))
    if search is None:
        source, constants = _search_source(pattern, form, nodes, edges)
        search = searches[form, nodes, edges] = _search_factory(source)(*constants)
    return search


@cache
def _search_factory(source: str) -> Callable[..., Callable]:
    namespace = {"MismatchError": MismatchError, "permutations": permutations}
    exec(compile(source, "<compiled search>", "exec"), namespace)
    return namespace["make"]


class _Source:
    """The source of one search factory as it is written: the lines of its
    functions, the constants ``K<i>`` they read, named in order of first
    use, and the number of continuation functions ``s<i>`` so far."""

    __slots__ = ("lines", "constants", "functions")

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.constants: dict[tuple[str, object], str] = {}
        self.functions = 0

    def k(self, role: str, value: object) -> str:
        name = self.constants.get((role, value))
        if name is None:
            name = self.constants[role, value] = f"K{len(self.constants)}"
        return name


def _search_source(
    pattern: TypedGraph, form: str | tuple, nodes: _Seeds, edges: _Seeds
) -> tuple[str, tuple[object, ...]]:
    """The source of a search factory ``make``, which takes the constants
    and returns the function ``search``, and the constants it takes.

    Type names, element ids, seed positions, degrees and predicates reach
    the code only as arguments ``K<i>`` of the factory, next to the type
    graph ``TG``, so the text depends on the form and the plans' shapes
    alone (:func:`_emit_search` writes each search, :func:`_emit_scan`
    a scan).
    """
    source = _Source()
    if isinstance(form, str):
        _emit_search(source, "search", pattern, nodes, edges, form)
    else:
        _emit_scan(source, pattern, *form[1:])
    params = ", ".join(["TG", *source.constants.values()])
    text = "\n".join([f"def make({params}):", *source.lines, "    return search", ""])
    return text, (pattern.type_graph, *(value for _, value in source.constants))


def _emit_scan(source: _Source, lhs: TypedGraph, test: object,
               degrees: tuple[tuple[int, int], ...]) -> None:
    """Write the scan form of :func:`_search` into ``source``.

    The test becomes boolean structure around each occurrence: a
    ``("call", predicate)`` calls the predicate on the key, and an
    ``("exists", graph, nodes, edges)`` calls a function ``x<i>`` written
    after the scan. That function is the ``"exists"`` form of ``graph``,
    but it takes the images the scan placed at its seeds as arguments,
    and trusts them: it tests neither the type graph, nor their types,
    nor the pinned edges. The gluing test reads the host's incidence
    index, built there on first use.
    """
    existence: list[tuple[TypedGraph, _Seeds, _Seeds]] = []

    def tests(emit: Callable[..., None], fail: str, images: list[str]) -> None:
        def expression(part) -> str:
            if part is True:
                return "True"
            kind, *args = part
            if kind == "not":
                return f"not {expression(args[0])}"
            if kind == "and":
                return f"({expression(args[0])} and {expression(args[1])})"
            if kind == "call":
                key = "".join(f"{x}, " for x in images)
                return f"{source.k('predicate', args[0])}(host, ({key}))"
            existence.append(tuple(args))
            at = [images[position] for position, _ in (*args[1], *args[2])]
            return f"x{len(existence) - 1}({', '.join(['host', *at])})"

        if test is not True:
            emit(f"if not {expression(test)}:", "    rejected[0] += 1", f"    {fail}")
        if degrees:
            dangles = " or ".join(f"len(inc[{images[position]}]) != {source.k('degree', degree)}"
                                  for position, degree in degrees)
            emit("inc = host._incident",
                 "if inc is None:",
                 "    inc = host._incidence()",
                 f"if {dangles}:", "    rejected[1] += 1", f"    {fail}")

    _emit_search(source, "search", lhs, (), (), "scan", tests)
    for i, (graph, at_nodes, at_edges) in enumerate(existence):
        _emit_search(source, f"x{i}", graph, at_nodes, at_edges, "placed")


def _emit_search(
    out: _Source, name: str, pattern: TypedGraph, nodes: _Seeds, edges: _Seeds, form: str,
    tests: Callable[[Callable[..., None], str, list[str]], None] | None = None,
) -> None:
    """Write the function ``name`` of one search of ``pattern`` into
    ``out``, with the continuations it needs.

    ``form`` is ``"exists"`` or ``"search"``, called as ``(host, key)``;
    ``"scan"``, a ``"search"`` without seeds called as ``(host,
    rejected)``, where ``tests(emit, fail, images)`` writes what each
    occurrence must pass before its key is yielded; or ``"placed"``, an
    ``"exists"`` called with the seed images themselves, trusted.

    Each pattern edge is tested once: at entry a pinned edge, whose ends
    are seeded, by its image, and one between seeded nodes by a probe;
    the others as the plan's checks place them. One loop places each free
    node in plan order, then one per signature group with free edges
    assigns those. Every :data:`_LOOPS_PER_FUNCTION` loops the search goes
    on in a new function ``s<i>``, so the nesting stays bounded for any
    pattern size.
    """
    exists = form in ("exists", "placed")
    trusted = form == "placed"
    carried = ["rejected"] if form == "scan" else []
    k = out.k
    lines = out.lines
    plan = _plan(pattern, frozenset(v for _, v in nodes))
    # A candidate can only be a host node placed before it if that node has
    # its type. So a step tests its candidates against the set ``used``
    # only where its type was placed before, and ``used`` holds the placed
    # nodes of the types a later step places.
    step_types = [ntype for _, ntype, _, _ in plan.steps]
    seen = {pattern.node_type(v) for _, v in nodes}
    tested = [t in seen or t in step_types[:level] for level, t in enumerate(step_types)]
    tracked = any(tested)

    depth = 2
    loops = 0
    # What ends this candidate: outside every loop the function ends.
    done = "return False" if exists else "return"
    fail = done
    # The depth of each node loop's body in the current function, and the
    # node its candidate put into ``used``; the body ends by taking it out.
    taken: list[tuple[int, str]] = []

    def emit(*texts: str) -> None:
        lines.extend("    " * depth + text for text in texts)

    def end_function() -> None:
        for body, n in reversed(taken):
            lines.append("    " * body + f"used.discard({n})")
        taken.clear()
        if exists:
            lines.append("        return False")

    def make_room() -> None:
        # Called before the code of a loop: with the current function full,
        # the search goes on in a new one.
        nonlocal depth, loops, fail
        if loops < _LOOPS_PER_FUNCTION:
            return
        out.functions += 1
        args = ", ".join(["host", *carried, *(["used"] if tracked else []),
                          *node_var.values(), *edge_var.values()])
        if exists:
            emit(f"if s{out.functions}({args}):", "    return True")
        else:
            emit(f"yield from s{out.functions}({args})")
        end_function()
        lines.append(f"    def s{out.functions}({args}):")
        depth, loops, fail = 2, 0, done
        emit("hn, he, tr = host._nodes, host._edges, host._triples",
             "bt, inc = host._by_type, host._incident")

    def open_loop(header: str) -> None:
        nonlocal depth, loops, fail
        emit(header)
        depth += 1
        loops += 1
        fail = "continue"

    def fails(test: str) -> None:
        emit(f"if {test}:", f"    {fail}")

    # The pattern node or edge -> the variable holding its host image.
    node_var = {v: f"n{i}" for i, (_, v) in enumerate(nodes)}
    edge_var = {c: f"f{j}" for j, (_, c) in enumerate(edges)}
    params = [*node_var.values(), *edge_var.values()] if trusted else carried or ["key"]
    lines.append(f"    def {name}({', '.join(['host', *params])}):")
    neighbours = any(source for _, _, source, _ in plan.steps)

    def probe(etype: str, src: str, tgt: str) -> str:
        return f"({k('edge type', etype)}, {node_var[src]}, {node_var[tgt]})"

    if trusted:
        if neighbours:
            emit("hn = host._nodes", "he = host._edges")
    else:
        emit("tg = host._type_graph",
             "if tg is not TG and tg != TG:",
             "    raise MismatchError('pattern and host are typed over different type graphs')")
        if nodes or neighbours:
            emit("hn = host._nodes")
        for position, v in nodes:
            emit(f"{node_var[v]} = key[{k('position', position)}]")
            fails(f"hn.get({node_var[v]}) != {k('node type', pattern.node_type(v))}")
        if edges or neighbours:
            emit("he = host._edges")
        for position, c in edges:
            emit(f"{edge_var[c]} = key[{k('position', position)}]")
            fails(f"he.get({edge_var[c]}) != {probe(*pattern.edge_info(c))}")
    pinned = dict(edge_var)
    if len(pinned) < len(pattern.edge_ids):
        emit("tr = host._triples")
    for e, etype, src, tgt in pattern.edge_items():
        if e not in pinned and src in node_var and tgt in node_var:
            fails(f"{probe(etype, src, tgt)} not in tr")
    if plan.scan_types:
        emit("bt = host._by_type")
    for ntype in plan.scan_types:
        fails(f"{k('node type', ntype)} not in bt")
    if neighbours:
        # The entry function builds the host's incidence index if it has
        # none yet, so every later function finds it built.
        emit("inc = host._incident",
             "if inc is None:",
             "    inc = host._incidence()")
    if tracked:
        held = [n for v, n in node_var.items() if pattern.node_type(v) in step_types]
        emit(f"used = {{{', '.join(held)}}}" if held else "used = set()")

    for level, (v, ntype, source, checks) in enumerate(plan.steps):
        make_room()
        n, ktype = f"n{len(node_var)}", k("node type", ntype)
        if source is None:
            open_loop(f"for {n} in bt[{ktype}]:")
        else:
            u, etype, outgoing = source
            near, anchor_end, other_end = f"near{level}", *(("s", "t") if outgoing else ("t", "s"))
            emit(f"{near} = {{}}",
                 f"for e in inc[{node_var[u]}]:",
                 "    et, s, t = he[e]",
                 f"    if et == {k('edge type', etype)} and {anchor_end} == {node_var[u]}"
                 f" and hn[{other_end}] == {ktype}:",
                 f"        {near}[{other_end}] = None")
            open_loop(f"for {n} in {near}:")
        if tested[level]:
            fails(f"{n} in used")
        node_var[v] = n
        for etype, src, tgt in checks:
            fails(f"{probe(etype, src, tgt)} not in tr")
        if ntype in step_types[level + 1:]:
            emit(f"used.add({n})")
            taken.append((depth, n))

    # Every node is placed, and every pattern edge has at least one host
    # edge under the map. Within a signature group any injective choice of
    # host edges that keeps the pinned edges preserves structure, so the
    # free edges of a group take the group's other host edges.
    for signature, p_edges in plan.groups:
        free = [e for e in p_edges if e not in pinned]
        if not free:
            continue
        make_room()
        pins = [pinned[e] for e in p_edges if e in pinned]
        names = [f"g{len(edge_var) + j}" for j in range(len(free))]
        pool = f"tr[{probe(*signature)}]"
        if pins:
            pool = f"[x for x in {pool} if {' and '.join(f'x != {f}' for f in pins)}]"
        if len(free) == 1:
            open_loop(f"for {names[0]} in {pool}:")
        else:
            open_loop(f"for {', '.join(names)} in permutations({pool}, {len(free)}):")
        edge_var.update(zip(free, names))
    images = [*map(node_var.__getitem__, pattern.node_ids),
              *map(edge_var.__getitem__, pattern.edge_ids)]
    if tests is not None:
        tests(emit, fail, images)
    if exists:
        emit("return True")
    else:
        emit("yield (" + "".join(f"{x}, " for x in images) + ")")
    end_function()
