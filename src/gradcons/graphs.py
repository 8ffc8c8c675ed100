"""Typed multigraphs, graph morphisms, and injective pattern matching.

Every node and edge carries a stable opaque string id. All constructions
downstream (rewriting, gluing, tracking) follow elements by id; nothing is
ever re-identified structurally. Parallel edges are permitted: two edges of
the same type between the same nodes are distinct elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, product
from typing import Iterable, Iterator, Mapping

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
    Instances are immutable by convention: no method mutates, no accessor
    hands out a mutable part, and derived graphs are new objects. Graphs
    built through :func:`_assembled` may therefore share parts.
    """

    __slots__ = (
        "_type_graph", "_nodes", "_edges", "_node_ids", "_edge_ids",
        "_by_type", "_triples", "_incident", "_plans",
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
        node_ids, by_type = _node_index(node_dict)
        self._assemble(type_graph, node_dict, node_ids, by_type, edge_dict, tuple(sorted(edge_dict)))

    def _assemble(
        self,
        type_graph: TypeGraph,
        nodes: dict[str, str],
        node_ids: tuple[str, ...],
        by_type: dict[str, tuple[str, ...]],
        edges: dict[str, tuple[str, str, str]],
        edge_ids: tuple[str, ...],
    ) -> None:
        """Build the edge indices over trusted parts: ids unique across
        nodes and edges, ``node_ids``/``edge_ids`` the sorted keys and
        ``by_type`` as :func:`_node_index` makes it. The parts may be
        shared with other graphs and are never mutated."""
        self._type_graph = type_graph
        self._nodes = nodes
        self._node_ids = node_ids
        self._by_type = by_type
        self._edges = edges
        self._edge_ids = edge_ids

        # Index edges by (type, src, tgt) and nodes by incident edges;
        # edges with dangling endpoints are skipped here and surface through
        # validate_graph instead.
        triples: dict[tuple[str, str, str], tuple[str, ...]] = {}
        incident: dict[str, list[str]] = {nid: [] for nid in node_ids}
        for eid in edge_ids:
            info = edges[eid]
            _, src, tgt = info
            if src not in nodes or tgt not in nodes:
                continue
            # Keyed by the edge's own tuple. A bundle of k parallel edges
            # is copied k times, cheap for the few bundles a graph has.
            triples[info] = triples.get(info, ()) + (eid,)
            incident[src].append(eid)
            if tgt != src:
                incident[tgt].append(eid)
        self._triples = triples
        self._incident = {k: tuple(v) for k, v in incident.items()}
        # Search plans for this graph as a pattern, compiled on first use.
        self._plans: dict[frozenset[str], _Plan] | None = None

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

    def edge_type(self, eid: str) -> str:
        return self._edges[eid][0]

    def nodes_of_type(self, ntype: str) -> tuple[str, ...]:
        return self._by_type.get(ntype, ())

    def edges_with_signature(self, etype: str, src: str, tgt: str) -> tuple[str, ...]:
        return self._triples.get((etype, src, tgt), ())

    def incident_edges(self, nid: str) -> tuple[str, ...]:
        return self._incident.get(nid, ())

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


def _node_index(
    nodes: dict[str, str]
) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]]]:
    """The sorted node ids and the sorted ids of each present node type."""
    node_ids = tuple(sorted(nodes))
    by_type: dict[str, list[str]] = {}
    for nid in node_ids:
        by_type.setdefault(nodes[nid], []).append(nid)
    return node_ids, {t: tuple(ids) for t, ids in by_type.items()}


def _assembled(
    type_graph: TypeGraph,
    nodes: dict[str, str],
    node_ids: tuple[str, ...],
    by_type: dict[str, tuple[str, ...]],
    edges: dict[str, tuple[str, str, str]],
    edge_ids: tuple[str, ...],
) -> TypedGraph:
    """A graph over trusted, possibly shared parts (see ``TypedGraph._assemble``)."""
    graph = TypedGraph.__new__(TypedGraph)
    graph._assemble(type_graph, nodes, node_ids, by_type, edges, edge_ids)
    return graph


def empty_graph(type_graph: TypeGraph) -> TypedGraph:
    return TypedGraph(type_graph)


def validate_graph(graph: TypedGraph) -> list[str]:
    """Check well-typedness; returns one message per violation (empty = ok)."""
    problems: list[str] = []
    tg = graph.type_graph
    for nid, ntype in graph.node_items():
        if ntype not in tg.node_types:
            problems.append(f"node {nid!r} has unknown type {ntype!r}")
    for eid, etype, src, tgt in graph.edge_items():
        if etype not in tg.edge_types:
            problems.append(f"edge {eid!r} has unknown type {etype!r}")
            continue
        want_src, want_tgt = tg.signature(etype)
        if not graph.has_node(src):
            problems.append(f"edge {eid!r} has absent source node {src!r}")
        elif graph.node_type(src) != want_src:
            problems.append(f"edge {eid!r} source {src!r} is not of type {want_src!r}")
        if not graph.has_node(tgt):
            problems.append(f"edge {eid!r} has absent target node {tgt!r}")
        elif graph.node_type(tgt) != want_tgt:
            problems.append(f"edge {eid!r} target {tgt!r} is not of type {want_tgt!r}")
    return problems


@dataclass(frozen=True, slots=True)
class GraphMorphism:
    """A possibly-partial, structure-preserving map between typed graphs.

    ``node_map`` / ``edge_map`` send domain ids to codomain ids; elements
    absent from the maps are where the morphism is undefined. Equality is
    componentwise. Instances are value objects; do not mutate the maps.
    """

    domain: TypedGraph
    codomain: TypedGraph
    node_map: Mapping[str, str]
    edge_map: Mapping[str, str]

    def is_total(self) -> bool:
        return (
            len(self.node_map) == self.domain.node_count
            and len(self.edge_map) == self.domain.edge_count
        )

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

    def sort_key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Canonical ordering key: images listed over sorted domain ids."""
        return (
            tuple(self.node_map.get(v, "") for v in self.domain.node_ids),
            tuple(self.edge_map.get(e, "") for e in self.domain.edge_ids),
        )

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


class _Plan:
    """The compiled search for one pattern and one set of seeded nodes.

    ``seed_checks`` are the pattern edges between seeded nodes, tested
    before any free node is placed. ``steps`` lists the free nodes in
    search order as ``(node, type, source, checks)``. ``source`` is
    ``None`` when the candidates are all host nodes of the type, or
    ``(placed node, edge type, outgoing)`` when they are the host
    neighbours of that node's image along edges of the type, leaving it
    when ``outgoing``. ``checks`` are the pattern edges from the node to
    itself or to nodes placed before it. ``scan_types`` are the node types
    of the steps without a source. ``groups`` are the pattern edges
    grouped by signature, in sorted order; within a group any injective
    assignment onto host edges of the image signature preserves structure.
    ``edges`` lists the pattern edges group by group.
    """

    __slots__ = ("seed_checks", "steps", "scan_types", "groups", "edges")

    def __init__(self, pattern: TypedGraph, seeded: frozenset[str]):
        placed = set(seeded)
        self.seed_checks = _edges_within(pattern, pattern.edge_ids, placed)
        free = [v for v in pattern.node_ids if v not in placed]
        steps = []
        while free:
            # A seeded search places next the first free node adjacent to
            # a placed one; an unseeded one keeps the sorted order and
            # scans every node's type.
            v, source = free[0], None
            if seeded:
                for u in free:
                    source = _neighbour_source(pattern, u, placed)
                    if source is not None:
                        v = u
                        break
            free.remove(v)
            placed.add(v)
            checks = _edges_within(pattern, pattern.incident_edges(v), placed)
            steps.append((v, pattern.node_type(v), source, checks))
        self.steps = tuple(steps)
        self.scan_types = tuple({ntype: None for _, ntype, source, _ in steps if source is None})
        groups: dict[tuple[str, str, str], list[str]] = {}
        for e in pattern.edge_ids:
            groups.setdefault(pattern.edge_info(e), []).append(e)
        self.groups = tuple((key, tuple(groups[key])) for key in sorted(groups))
        self.edges = tuple(e for _, p_edges in self.groups for e in p_edges)


def _edges_within(
    pattern: TypedGraph, edges: Iterable[str], nodes: set[str]
) -> tuple[tuple[str, str, str], ...]:
    """``(type, source, target)`` of the given edges with both ends in ``nodes``."""
    infos = (pattern.edge_info(e) for e in edges)
    return tuple(info for info in infos if info[1] in nodes and info[2] in nodes)


def _neighbour_source(
    pattern: TypedGraph, v: str, placed: set[str]
) -> tuple[str, str, bool] | None:
    for e in pattern.incident_edges(v):
        etype, src, tgt = pattern.edge_info(e)
        if src == v and tgt != v and tgt in placed:
            return tgt, etype, False
        if tgt == v and src != v and src in placed:
            return src, etype, True
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


def iter_monomorphisms(
    pattern: TypedGraph,
    host: TypedGraph,
    *,
    node_seed: Mapping[str, str] | None = None,
    edge_seed: Mapping[str, str] | None = None,
) -> Iterator[GraphMorphism]:
    """Every total injective morphism pattern -> host, lazily, in search order.

    ``node_seed``/``edge_seed`` pin parts of the map in advance; seeded
    entries must be type-correct and injective. In a seeded search, a free
    node adjacent to a node placed before it (first of all a seeded one)
    takes its candidates from the host neighbours of that node's image,
    so a search anchored at an occurrence looks only around it. Stopping
    the iteration stops the search, so the first witness of an existence
    check ends it. Each morphism comes once. The search backtracks in one
    loop, so the size of a pattern is not bounded by the recursion limit.
    """
    if pattern._type_graph is not host._type_graph and pattern._type_graph != host._type_graph:
        raise MismatchError("pattern and host are typed over different type graphs")
    host_nodes = host._nodes
    host_edges = host._edges
    if node_seed:
        node_map = dict(node_seed)
        used = set(node_map.values())
        if len(used) != len(node_map):
            raise ValueError("node seed is not injective")
    else:
        node_map = {}
        used = set()
    if edge_seed and len(set(edge_seed.values())) != len(edge_seed):
        raise ValueError("edge seed is not injective")
    for v, w in node_map.items():
        ntype = pattern._nodes.get(v)
        if ntype is None:
            raise ValueError(f"seed maps absent pattern node {v!r}")
        if host_nodes.get(w) != ntype:
            return
    if edge_seed:
        for e, f in edge_seed.items():
            info = pattern._edges.get(e)
            if info is None:
                raise ValueError(f"seed maps absent pattern edge {e!r}")
            image = host_edges.get(f)
            if image is None or image[0] != info[0]:
                return

    plan = _plan(pattern, frozenset(node_map))
    # Each pinned pattern edge with its position among the edge images.
    pins = [(plan.edges.index(e), f) for e, f in edge_seed.items()] if edge_seed else ()
    probe = host.edges_with_signature
    for etype, src, tgt in plan.seed_checks:
        if not probe(etype, node_map[src], node_map[tgt]):
            return
    by_type = host._by_type
    # A node type the host lacks leaves no candidates for a type scan.
    for ntype in plan.scan_types:
        if ntype not in by_type:
            return

    steps = plan.steps
    depth = len(steps)
    incident = host._incident
    # The host nodes still to try at each step; the step being placed
    # (``depth`` once every node is placed); and whether that step was just
    # entered from the one before it, or is resumed for its next candidate.
    candidates: list[Iterator[str]] = [iter(())] * depth
    level = 0
    fresh = True
    while True:
        if level == depth:
            # Within a signature group any injective choice of host edges
            # preserves structure, and different groups have disjoint host
            # edges, so the edge maps are the product of the groups'
            # permutations, filtered by the pinned edges.
            choices = []
            for (etype, src, tgt), p_edges in plan.groups:
                h_edges = probe(etype, node_map[src], node_map[tgt])
                if len(h_edges) < len(p_edges):
                    break
                choices.append(permutations(h_edges, len(p_edges)))
            else:
                for combo in product(*choices):
                    images = tuple(chain.from_iterable(combo))
                    for k, f in pins:
                        if images[k] != f:
                            break
                    else:
                        yield GraphMorphism(
                            pattern, host, dict(node_map), dict(zip(plan.edges, images)))
            if not depth:
                return
            level -= 1
            fresh = False
        v, ntype, source, checks = steps[level]
        if fresh:
            if source is None:
                candidates[level] = iter(by_type[ntype])
            else:
                u, etype, outgoing = source
                anchor = node_map[u]
                near: dict[str, None] = {}
                for e in incident.get(anchor, ()):
                    ftype, fsrc, ftgt = host_edges[e]
                    if ftype == etype and (fsrc if outgoing else ftgt) == anchor:
                        w = ftgt if outgoing else fsrc
                        if host_nodes[w] == ntype:
                            near[w] = None
                candidates[level] = iter(near)
        else:
            used.discard(node_map[v])
        for w in candidates[level]:
            if w in used:
                continue
            node_map[v] = w
            # Early consistency: every pattern edge with both ends placed
            # must have at least one host edge under the partial map.
            for etype, src, tgt in checks:
                if not probe(etype, node_map[src], node_map[tgt]):
                    break
            else:
                break
        else:
            # No candidate left at this step: back to the step before it.
            node_map.pop(v, None)
            if not level:
                return
            level -= 1
            fresh = False
            continue
        used.add(w)
        level += 1
        fresh = True


def enumerate_monomorphisms(
    pattern: TypedGraph,
    host: TypedGraph,
    *,
    node_seed: Mapping[str, str] | None = None,
    edge_seed: Mapping[str, str] | None = None,
) -> list[GraphMorphism]:
    """All total injective morphisms pattern -> host, in canonical order.

    The order is lexicographic over the images of the sorted pattern node ids,
    with ties broken the same way on sorted pattern edge ids, so results are
    reproducible across runs. ``node_seed``/``edge_seed`` pin parts of the map
    in advance (used to enumerate extensions along a fixed anchor); seeded
    entries must be type-correct and injective. This is the sorted form of
    :func:`iter_monomorphisms`.

    Duplicate-free: each returned morphism appears exactly once.
    """
    return sorted(
        iter_monomorphisms(pattern, host, node_seed=node_seed, edge_seed=edge_seed),
        key=GraphMorphism.sort_key,
    )
