"""Independent reference implementations the tests check the engine against.

Everything here is deliberately naive: permutation search instead of
pruned backtracking, raw set arithmetic instead of incremental graph
construction, and an explicit quotient for the categorical checks. Slow
but transparently correct on small inputs, and sharing no algorithmic
code with the package, but for :func:`satisfies_by_maps`, which walks a
condition tree on maps over the package's extension search.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from gradcons import (
    EXISTENTIAL,
    And,
    BoundError,
    ConsistencyReport,
    Constraint,
    Exists,
    GraphMorphism,
    MismatchError,
    Not,
    Overlap,
    Rule,
    Transformation,
    TypeGraph,
    TypedGraph,
    apply,
    bounded_hosts,
    classify_step,
    find_matches,
    satisfies,
)
from gradcons.classify import _MAX_UNIVERSE_WORK, _split_ids
from gradcons.conditions import iter_extensions
from gradcons.generate import random_host


def compose(first: GraphMorphism, second: GraphMorphism) -> GraphMorphism:
    """Apply ``first``, then ``second``; defined where both legs are.

    Requires ``first.codomain == second.domain`` (checked structurally).
    """
    if first.codomain != second.domain:
        raise MismatchError("compose: codomain of the first leg is not the domain of the second")
    node_map = {x: second.node_map[y] for x, y in first.node_map.items() if y in second.node_map}
    edge_map = {e: second.edge_map[f] for e, f in first.edge_map.items() if f in second.edge_map}
    return GraphMorphism(first.domain, second.codomain, node_map, edge_map)


def _edges_between(host):
    """The host edges of each ``(type, source, target)``, in sorted order."""
    between: dict = {}
    for e in host.edge_ids:
        between.setdefault(host.edge_info(e), []).append(e)
    return between


def _edge_assignments(pattern, between, node_map, injective):
    pedges = list(pattern.edge_ids)

    def extend(i, acc, used):
        if i == len(pedges):
            yield dict(acc)
            return
        e = pedges[i]
        etype, src, tgt = pattern.edge_info(e)
        for h in between.get((etype, node_map[src], node_map[tgt]), ()):
            if injective and h in used:
                continue
            acc[e] = h
            yield from extend(i + 1, acc, used | {h})
            del acc[e]

    yield from extend(0, {}, frozenset())


def _node_assignments(pattern, host, injective):
    """Every type-preserving assignment of host nodes to the sorted pattern
    nodes, in lexicographic order of the images: the node permutations (or,
    unless ``injective``, tuples) of the host that keep types."""
    pnodes = list(pattern.node_ids)
    candidates = [[h for h in host.node_ids if host.node_type(h) == pattern.node_type(p)]
                  for p in pnodes]
    for images in itertools.product(*candidates):
        if injective and len(set(images)) < len(images):
            continue
        yield dict(zip(pnodes, images))


def monos_by_permutation(pattern: TypedGraph, host: TypedGraph) -> list[GraphMorphism]:
    """Every injective occurrence, by trying all injective node assignments
    that keep types and then all injective edge assignments along them, in
    canonical order."""
    between = _edges_between(host)
    return [GraphMorphism(pattern, host, node_map, edge_map)
            for node_map in _node_assignments(pattern, host, injective=True)
            for edge_map in _edge_assignments(pattern, between, node_map, injective=True)]


def homs_brute(pattern: TypedGraph, host: TypedGraph) -> list[GraphMorphism]:
    """Every structure-preserving map, injective or not."""
    between = _edges_between(host)
    return [GraphMorphism(pattern, host, node_map, edge_map)
            for node_map in _node_assignments(pattern, host, injective=False)
            for edge_map in _edge_assignments(pattern, between, node_map, injective=False)]


def morphism_key(m: GraphMorphism) -> tuple:
    return (tuple(sorted(m.node_map.items())), tuple(sorted(m.edge_map.items())))


def dpo_by_sets(rule: Rule, host: TypedGraph, match: GraphMorphism, step: int = 0) -> TypedGraph:
    """Recompute a rewriting result with raw set arithmetic on element ids.

    Follows the engine's published naming contract for created elements
    (rule name, step counter, rhs id, tilde suffixes on collision, nodes
    before edges in id order) without sharing its code.
    """
    keep_nodes, keep_edges, fresh = _dpo_parts(rule, host, match, step)

    def node_image(n):
        return fresh[n] if n in fresh else match.node_map[n]

    new_nodes = [(fresh[n], rule.rhs.node_type(n)) for n in rule.rhs.node_ids if n in fresh]
    new_edges = []
    for e in rule.rhs.edge_ids:
        if e in fresh:
            etype, src, tgt = rule.rhs.edge_info(e)
            new_edges.append((fresh[e], etype, node_image(src), node_image(tgt)))
    return TypedGraph(host.type_graph, keep_nodes + new_nodes, keep_edges + new_edges)


def comatch_by_sets(t: Transformation) -> GraphMorphism:
    """The comatch of a step, built at once from the naming contract that
    :func:`dpo_by_sets` follows."""
    *_, fresh = _dpo_parts(t.rule, t.host, t.match, t.step)
    rhs, match = t.rule.rhs, t.match
    return GraphMorphism(
        rhs, t.result,
        {n: fresh[n] if n in fresh else match.node_map[n] for n in rhs.node_ids},
        {e: fresh[e] if e in fresh else match.edge_map[e] for e in rhs.edge_ids},
    )


def _dpo_parts(rule: Rule, host: TypedGraph, match: GraphMorphism, step: int):
    """The kept nodes and edges of a step, and the id of each created rhs
    element."""
    removed_nodes = {
        match.node_map[n] for n in rule.lhs.node_ids if not rule.interface.has_node(n)
    }
    removed_edges = {
        match.edge_map[e] for e in rule.lhs.edge_ids if not rule.interface.has_edge(e)
    }
    keep_nodes = [
        (n, host.node_type(n)) for n in host.node_ids if n not in removed_nodes
    ]
    keep_edges = []
    for e in host.edge_ids:
        etype, src, tgt = host.edge_info(e)
        if e in removed_edges or src in removed_nodes or tgt in removed_nodes:
            continue
        keep_edges.append((e, etype, src, tgt))

    taken = {n for n, _ in keep_nodes} | {e for e, *_ in keep_edges}
    fresh = {}
    created_nodes = [n for n in rule.rhs.node_ids if not rule.interface.has_node(n)]
    created_edges = [e for e in rule.rhs.edge_ids if not rule.interface.has_edge(e)]
    for rid in created_nodes + created_edges:
        base = f"{rule.name}.{step}.{rid}"
        candidate, serial = base, 0
        while candidate in taken:
            candidate = f"{base}~{serial}"
            serial += 1
        fresh[rid] = candidate
        taken.add(candidate)
    return keep_nodes, keep_edges, fresh


def satisfies_by_permutation(p: GraphMorphism, condition, memo: dict | None = None) -> bool:
    """Satisfaction from the definition: an existential holds when some
    occurrence q of the extended graph, found by permutation search, has
    ``q . a = p`` and satisfies the sub-condition.

    ``memo`` keeps, between calls, the occurrences q of each (morphism,
    graph) pair grouped by ``q . a``, read off as the images of the sorted
    anchor ids; the caller keeps both objects alive while it holds the memo.
    """
    memo = {} if memo is None else memo
    if isinstance(condition, Not):
        return not satisfies_by_permutation(p, condition.sub, memo)
    if isinstance(condition, And):
        return (satisfies_by_permutation(p, condition.left, memo)
                and satisfies_by_permutation(p, condition.right, memo))
    if not isinstance(condition, Exists):
        return True
    a = condition.morphism
    anchor_nodes, anchor_edges = a.domain.node_ids, a.domain.edge_ids
    key = (id(a), id(p.codomain))
    if key not in memo:
        by_restriction = memo[key] = {}
        for q in monos_by_permutation(a.codomain, p.codomain):
            restriction = (tuple(q.node_map[a.node_map[x]] for x in anchor_nodes),
                           tuple(q.edge_map[a.edge_map[e]] for e in anchor_edges))
            by_restriction.setdefault(restriction, []).append(q)
    restriction = (tuple(p.node_map[x] for x in anchor_nodes),
                   tuple(p.edge_map[e] for e in anchor_edges))
    return any(satisfies_by_permutation(q, condition.sub, memo)
               for q in memo[key].get(restriction, ()))


def satisfies_by_maps(condition, host: TypedGraph, node_map, edge_map) -> bool:
    """Satisfaction by walking the condition tree on the maps of a total
    injective occurrence of its anchor in ``host``, nothing validated:
    each existential node runs :func:`iter_extensions` from these maps and
    evaluates its sub-condition on the maps of each extension it yields.

    The reference for the compiled predicates, which read flat keys
    instead: it shares their searches through ``iter_extensions`` (itself
    checked against :func:`monos_by_permutation`), but none of the way
    they are composed or seeded.
    """
    if isinstance(condition, Not):
        return not satisfies_by_maps(condition.sub, host, node_map, edge_map)
    if isinstance(condition, And):
        return (satisfies_by_maps(condition.left, host, node_map, edge_map)
                and satisfies_by_maps(condition.right, host, node_map, edge_map))
    if not isinstance(condition, Exists):
        return True
    a = condition.morphism
    p = GraphMorphism(a.domain, host, node_map, edge_map)
    return any(satisfies_by_maps(condition.sub, host, q.node_map, q.edge_map)
               for q in iter_extensions(p, a))


def scan_by_permutation(rule: Rule, host: TypedGraph) -> tuple[list[tuple], int, int]:
    """A match scan from the definitions: the lhs occurrences by
    permutation search in canonical order, the application condition by
    :func:`satisfies_by_permutation`, then the gluing test by sets.

    Returns the sort keys of the kept matches and the counts rejected by
    the condition and by the gluing test, each match counted at the first
    test it fails.
    """
    deleted = [v for v in rule.lhs.node_ids if not rule.interface.has_node(v)]
    memo: dict = {}
    kept, by_condition, by_gluing = [], 0, 0
    for m in sorted(monos_by_permutation(rule.lhs, host), key=GraphMorphism.sort_key):
        if not satisfies_by_permutation(m, rule.condition, memo):
            by_condition += 1
            continue
        removed = {m.node_map[v] for v in deleted}
        if removed and any(set(host.edge_info(e)[1:]) & removed
                           for e in set(host.edge_ids) - set(m.edge_map.values())):
            by_gluing += 1
            continue
        kept.append(m.sort_key())
    return kept, by_condition, by_gluing


# --- step classification ------------------------------------------------------

STEP_FLAGS = (
    "preserving", "guaranteeing", "sustaining", "improving",
    "directly_sustaining", "directly_improving",
)


def classify_step_reference(t: Transformation, constraint: Constraint) -> tuple[dict, dict]:
    """The six step flags and the direct evidence, from the definitions.

    Occurrences come from permutation search on host and result, in
    canonical order. An occurrence violates a universal constraint when it
    satisfies the negated body of the outer quantifier. The direct flags
    follow each host occurrence through ``compose(p, t.track)``; a result
    occurrence that is no such image is new. Returns ``(flags, evidence)``.
    """
    root = constraint.condition
    universal = isinstance(root, Not)
    outer = root.sub if universal else root
    pattern, body = outer.morphism.codomain, outer.sub

    def occurrences(graph):
        return sorted(monos_by_permutation(pattern, graph), key=GraphMorphism.sort_key)

    def measure(occs):
        if universal:
            ncv = sum(1 for p in occs if satisfies(p, body))
            return ncv, Fraction(1) if not occs else 1 - Fraction(ncv, len(occs))
        ncv = 0 if any(satisfies(p, body) for p in occs) else 1
        return ncv, Fraction(1 - ncv)

    host_occs, result_occs = occurrences(t.host), occurrences(t.result)
    ncv_before, ci_before = measure(host_occs)
    ncv_after, ci_after = measure(result_occs)
    flags = {
        "preserving": ci_after == 1 or ci_before < 1,
        "guaranteeing": ci_after == 1,
        "sustaining": ci_before <= ci_after,
    }
    flags["improving"] = flags["sustaining"] and 0 < ncv_before and ncv_after < ncv_before
    evidence: dict[str, GraphMorphism] = {}
    if not universal:
        flags["directly_sustaining"] = flags["preserving"]
        flags["directly_improving"] = (
            flags["preserving"] and ci_before < 1 and flags["guaranteeing"]
        )
        return flags, evidence

    tracked = {p.sort_key(): compose(p, t.track) for p in host_occs}
    for p in host_occs:
        q = tracked[p.sort_key()]
        if not satisfies(p, body) and q.is_total() and satisfies(q, body):
            evidence["invalidated_occurrence"] = p
            break
    if not evidence:
        images = {q.sort_key() for q in tracked.values() if q.is_total()}
        for q in result_occs:
            if q.sort_key() not in images and satisfies(q, body):
                evidence["new_violating_occurrence"] = q
                break
    flags["directly_sustaining"] = not evidence
    flags["directly_improving"] = False
    if flags["directly_sustaining"] and ci_before < 1:
        for p in host_occs:
            if not satisfies(p, body):
                continue
            q = tracked[p.sort_key()]
            if not q.is_total():
                evidence["destroyed_occurrence"] = p
                break
            if not satisfies(q, body):
                evidence["repaired_occurrence"] = p
                break
        flags["directly_improving"] = bool(evidence)
    return flags, evidence


def judge_by_scan(
    before: ConsistencyReport,
    after: ConsistencyReport,
    host: TypedGraph,
    removed_nodes: frozenset[str],
    removed_edges: frozenset[str],
) -> tuple[dict, dict]:
    """The six step flags and the evidence keys, read off two reports by
    walking every violating key of both.

    An occurrence key is in the context when every image is a host
    element the step did not remove. A violating result key in the
    context that the host's report does not hold is invalidated, one
    outside it is new; a violating host key outside the context is
    destroyed, one the result's report does not hold is repaired. Each
    label takes the first such key in canonical order, and invalidation
    is looked for before novelty. Returns ``(flags, evidence_keys)``.
    """
    n = before.pattern.node_count

    def in_context(key):
        nodes, edges = key[:n], key[n:]
        return (all(host.has_node(x) and x not in removed_nodes for x in nodes)
                and all(host.has_edge(e) and e not in removed_edges for e in edges))

    flags = {
        "preserving": after.ncv == 0 or before.ncv > 0,
        "guaranteeing": after.ncv == 0,
        "sustaining": after.ci >= before.ci,
    }
    flags["improving"] = flags["sustaining"] and 0 < before.ncv and after.ncv < before.ncv
    evidence: dict = {}
    if before.polarity == EXISTENTIAL:
        flags["directly_sustaining"] = flags["preserving"]
        flags["directly_improving"] = (
            flags["preserving"] and before.ncv > 0 and flags["guaranteeing"])
        return flags, evidence

    violating_before, violating_after = set(before.violating_keys), set(after.violating_keys)
    for key in after.violating_keys:
        if key not in violating_before and in_context(key):
            evidence["invalidated_occurrence"] = key
            break
    if not evidence:
        for key in after.violating_keys:
            if not in_context(key):
                evidence["new_violating_occurrence"] = key
                break
    flags["directly_sustaining"] = not evidence
    flags["directly_improving"] = False
    if flags["directly_sustaining"] and before.ncv > 0:
        for key in before.violating_keys:
            if not in_context(key):
                evidence["destroyed_occurrence"] = key
                break
            if key not in violating_after:
                evidence["repaired_occurrence"] = key
                break
        flags["directly_improving"] = bool(evidence)
    return flags, evidence


RULE_CLAIMS = (
    "preserving", "guaranteeing", "sustaining", "directly_sustaining", "strongly_improving",
    "improving", "directly_improving",
)


def classify_rule_reference(
    rule: Rule, constraint: Constraint, bound: int, samples: int, seed: int
) -> tuple[int, int, dict]:
    """The rule search from public steps: validated ``apply`` plus
    ``classify_step`` at every match of every host, the bounded universe
    first, then the seeded sample drawn as the engine draws it.

    Returns ``(hosts, steps, first)``, where ``first`` maps each claim of
    :data:`RULE_CLAIMS` to the ``(transformation, verdict)`` of the first
    step that refutes it (the five universal claims) or witnesses it (the
    two improving ones), and lacks the claims that no step decides.
    """
    tg = rule.lhs.type_graph
    needed = Counter(rule.lhs.node_type(v) for v in rule.lhs.node_ids)
    rng = random.Random(seed)
    hosts = list(bounded_hosts(tg, bound, needed))
    for _ in range(samples):
        hosts.append(random_host(tg, rng, rng.randint(bound + 1, bound + 3),
                                 rng.uniform(0.1, 0.5)))
    first: dict = {}
    steps = 0
    for host in hosts:
        for m in find_matches(rule, host):
            t = apply(rule, host, m)
            v = classify_step(t, constraint)
            steps += 1
            decided = (not v.preserving, not v.guaranteeing, not v.sustaining,
                       not v.directly_sustaining,
                       v.report_before.ncv > 0 and not v.improving,
                       v.improving, v.directly_improving)
            for claim, hit in zip(RULE_CLAIMS, decided):
                if hit:
                    first.setdefault(claim, (t, v))
    return len(hosts), steps, first


# --- pushout checks -----------------------------------------------------------


def interface_into_context(t: Transformation) -> GraphMorphism:
    """The left leg of the gluing square: interface mapped by the match."""
    k = t.rule.interface
    return GraphMorphism(
        k, t.context,
        {n: t.match.node_map[n] for n in k.node_ids},
        {e: t.match.edge_map[e] for e in k.edge_ids},
    )


def interface_into_rhs(t: Transformation) -> GraphMorphism:
    k = t.rule.interface
    return GraphMorphism(
        k, t.rule.rhs,
        {n: n for n in k.node_ids},
        {e: e for e in k.edge_ids},
    )


def gluing_square_commutes(t: Transformation) -> bool:
    via_context = compose(interface_into_context(t), t.result_embedding)
    via_rhs = compose(interface_into_rhs(t), t.comatch)
    return via_context == via_rhs


def jointly_surjective(t: Transformation) -> bool:
    nodes = set(t.result_embedding.node_map.values()) | set(t.comatch.node_map.values())
    edges = set(t.result_embedding.edge_map.values()) | set(t.comatch.edge_map.values())
    return nodes == set(t.result.node_ids) and edges == set(t.result.edge_ids)


def _union_find_classes(size_tags, pairs):
    parent = {tag: tag for tag in size_tags}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes = {}
    for tag in size_tags:
        classes.setdefault(find(tag), []).append(tag)
    return {root: sorted(members) for root, members in classes.items()}


def pushout_by_quotient(t: Transformation):
    """The pushout of context <- interface -> rhs built as an explicit
    quotient of the disjoint union. Returns (graph, context leg, rhs leg).
    """
    k = t.rule.interface
    d, r = t.context, t.rule.rhs
    node_tags = [("D", n) for n in d.node_ids] + [("R", n) for n in r.node_ids]
    edge_tags = [("D", e) for e in d.edge_ids] + [("R", e) for e in r.edge_ids]
    node_pairs = [(("D", t.match.node_map[n]), ("R", n)) for n in k.node_ids]
    edge_pairs = [(("D", t.match.edge_map[e]), ("R", e)) for e in k.edge_ids]
    node_classes = _union_find_classes(node_tags, node_pairs)
    edge_classes = _union_find_classes(edge_tags, edge_pairs)

    def class_id(members):
        return "|".join(f"{side}:{ident}" for side, ident in members)

    node_of_tag = {}
    q_nodes = []
    for members in node_classes.values():
        qid = class_id(members)
        side, ident = members[0]
        ntype = d.node_type(ident) if side == "D" else r.node_type(ident)
        q_nodes.append((qid, ntype))
        for tag in members:
            node_of_tag[tag] = qid

    edge_of_tag = {}
    q_edges = []
    for members in edge_classes.values():
        qid = class_id(members)
        side, ident = members[0]
        if side == "D":
            etype, src, tgt = d.edge_info(ident)
        else:
            etype, src, tgt = r.edge_info(ident)
        q_edges.append((qid, etype, node_of_tag[(side, src)], node_of_tag[(side, tgt)]))
        for tag in members:
            edge_of_tag[tag] = qid

    quotient = TypedGraph(d.type_graph, q_nodes, q_edges)
    leg_d = GraphMorphism(
        d, quotient,
        {n: node_of_tag[("D", n)] for n in d.node_ids},
        {e: edge_of_tag[("D", e)] for e in d.edge_ids},
    )
    leg_r = GraphMorphism(
        r, quotient,
        {n: node_of_tag[("R", n)] for n in r.node_ids},
        {e: edge_of_tag[("R", e)] for e in r.edge_ids},
    )
    return quotient, leg_d, leg_r


def cocone_commutes(t: Transformation, f: GraphMorphism, g: GraphMorphism) -> bool:
    """Whether (f from the context, g from the rhs) agree on the interface."""
    return compose(interface_into_context(t), f) == compose(interface_into_rhs(t), g)


def forced_mediator(t: Transformation, f: GraphMorphism, g: GraphMorphism) -> GraphMorphism | None:
    """The only possible mediating map from the result to the cocone tip.

    Joint surjectivity pins the mediator down on every element; this
    builds it and returns None when the forced assignment is inconsistent
    or fails to be a morphism.
    """
    node_map: dict[str, str] = {}
    edge_map: dict[str, str] = {}
    for d_id, h_id in t.result_embedding.node_map.items():
        node_map[h_id] = f.node_map[d_id]
    for r_id, h_id in t.comatch.node_map.items():
        if h_id in node_map and node_map[h_id] != g.node_map[r_id]:
            return None
        node_map[h_id] = g.node_map[r_id]
    for d_id, h_id in t.result_embedding.edge_map.items():
        edge_map[h_id] = f.edge_map[d_id]
    for r_id, h_id in t.comatch.edge_map.items():
        if h_id in edge_map and edge_map[h_id] != g.edge_map[r_id]:
            return None
        edge_map[h_id] = g.edge_map[r_id]
    mediator = GraphMorphism(t.result, f.codomain, node_map, edge_map)
    if not mediator.is_total() or mediator.check():
        return None
    if compose(t.result_embedding, mediator) != f:
        return None
    if compose(t.comatch, mediator) != g:
        return None
    return mediator


def universe_splits(
    tg: TypeGraph, max_nodes: int, min_nodes_by_type: dict[str, int] | None = None
) -> list[tuple[tuple[int, ...], int]]:
    """Every split of the bounded universe (node counts per sorted type, by
    total, then lexicographic) that meets the minimums, each with the
    masks times permutations of its slot-touching types that a scan of it
    tests. A minimum for a type that ``tg`` lacks admits no split."""
    mins = min_nodes_by_type or {}
    types = tuple(sorted(tg.node_types))
    if any(n > 0 and t not in types for t, n in mins.items()):
        return []
    splits = []
    for total in range(max_nodes + 1):
        for counts in itertools.product(range(total + 1), repeat=len(types)):
            if sum(counts) != total or any(c < mins.get(t, 0) for t, c in zip(types, counts)):
                continue
            count_of = dict(zip(types, counts))
            n_slots = sum(count_of[a] * count_of[b] for a, b in tg.edge_types.values())
            n_perms = math.prod(math.factorial(count_of[t]) for t in _touched_types(tg, count_of))
            splits.append((counts, 2 ** n_slots * n_perms))
    return splits


def bounded_hosts_by_scan(
    tg: TypeGraph, max_nodes: int, min_nodes_by_type: dict[str, int] | None = None
) -> list[TypedGraph]:
    """The bounded host universe, split by split, by :func:`split_hosts_by_scan`.

    A split whose scan would test more than the engine's work limit
    raises :class:`BoundError` before anything is scanned.
    """
    splits = universe_splits(tg, max_nodes, min_nodes_by_type)
    for counts, work in splits:
        if work > _MAX_UNIVERSE_WORK:
            raise BoundError(f"split {counts} is too large to scan")
    types = tuple(sorted(tg.node_types))
    return [host for counts, _ in splits for host in split_hosts_by_scan(tg, types, counts)]


def _touched_types(tg: TypeGraph, count_of: dict[str, int]) -> list[str]:
    return sorted({
        t for a, b in tg.edge_types.values() if count_of[a] and count_of[b] for t in (a, b)
    })


def split_hosts_by_scan(
    tg: TypeGraph, types: tuple[str, ...], counts: tuple[int, ...]
) -> list[TypedGraph]:
    """The hosts of one split, by testing every edge mask against every
    node permutation that keeps types and keeping the masks that none
    makes numerically smaller, in mask order.

    Slots are (edge type, source, target) triples in sorted order, and bit
    i of a mask is slot i. Node and edge ids come from the engine's
    ``_split_ids`` naming contract.
    """
    count_of = dict(zip(types, counts))
    node_ids, _ = _split_ids(types, counts, 0)
    slots = [
        (etype, s, t)
        for etype, (a, b) in sorted(tg.edge_types.items())
        for s in node_ids[a]
        for t in node_ids[b]
    ]
    _, edge_ids = _split_ids(types, counts, len(slots))
    slot_index = {slot: i for i, slot in enumerate(slots)}
    touched = _touched_types(tg, count_of)
    perms = []
    for combo in itertools.product(*(itertools.permutations(node_ids[t]) for t in touched)):
        node_map = {v: w for t, perm in zip(touched, combo) for v, w in zip(node_ids[t], perm)}
        perms.append([slot_index[etype, node_map[s], node_map[t]] for etype, s, t in slots])
    nodes = [(v, t) for t in types for v in node_ids[t]]
    hosts = []
    for mask in range(2 ** len(slots)):
        present = [i for i in range(len(slots)) if mask >> i & 1]
        if any(sum(1 << perm[i] for i in present) < mask for perm in perms):
            continue
        edges = [(eid, *slots[i]) for eid, i in zip(edge_ids, present)]
        hosts.append(TypedGraph(tg, nodes, edges))
    return hosts


def _injective_matchings(left, right, compatible):
    """All partial injective maps left -> right honoring ``compatible``."""

    def rec(i, used, acc):
        if i == len(left):
            yield dict(acc)
            return
        x = left[i]
        yield from rec(i + 1, used, acc)
        for y in right:
            if y in used or not compatible(x, y):
                continue
            acc[x] = y
            used.add(y)
            yield from rec(i + 1, used, acc)
            del acc[x]
            used.discard(y)

    yield from rec(0, set(), {})


def _gluings(side, pattern):
    """Every (node identification, edge identification) of ``side`` with
    ``pattern``; an edge only where its endpoints are identified."""

    def node_ok(x, y):
        return side.node_type(x) == pattern.node_type(y)

    for node_pairs in _injective_matchings(side.node_ids, pattern.node_ids, node_ok):

        def edge_ok(e, f):
            etype, es, et = side.edge_info(e)
            ftype, fs, ft = pattern.edge_info(f)
            return etype == ftype and node_pairs.get(es) == fs and node_pairs.get(et) == ft

        for edge_pairs in _injective_matchings(side.edge_ids, pattern.edge_ids, edge_ok):
            yield node_pairs, edge_pairs


def overlaps_by_gluing(kind, side, pattern, nodes, edges):
    """The overlaps of ``analysis._overlaps``, by enumerating every partial
    injective identification recursively and filtering afterwards: keep
    those that identify one of ``nodes``/``edges`` and leave no pattern
    edge at the image of one of ``nodes`` unidentified. Same order."""
    found = []
    for node_pairs, edge_pairs in _gluings(side, pattern):
        if not (any(x in nodes for x in node_pairs) or any(x in edges for x in edge_pairs)):
            continue
        images = {y for x, y in node_pairs.items() if x in nodes}
        identified = set(edge_pairs.values())
        if any(
            f not in identified and not images.isdisjoint(pattern.edge_info(f)[1:])
            for f in pattern.edge_ids
        ):
            continue
        owner = {y: x for x, y in (*node_pairs.items(), *edge_pairs.items())}
        found.append(Overlap(kind, side, pattern, tuple(
            (y, owner[y]) for y in (*pattern.node_ids, *pattern.edge_ids) if y in owner)))
    return tuple(found)


def repairs_by_injection(rule, shape):
    """The overlaps that ``analysis._repairs`` keeps, filtered on each
    overlap's pattern injection rather than its identification: drop a
    dependency overlap with the continuation pattern where a created rhs
    node or edge is the image of an anchor node or edge. The overlaps
    come from :func:`overlaps_by_gluing`, in its order."""
    continuation = shape.chain[1][1]
    anchor_nodes = set(continuation.node_map.values())
    anchor_edges = set(continuation.edge_map.values())
    created_nodes = set(rule.created_nodes)
    created_edges = set(rule.created_edges)
    overlaps = overlaps_by_gluing("dependency", rule.rhs, continuation.codomain,
                                  created_nodes, created_edges)
    return tuple(
        ov for ov in overlaps
        if not any(y in anchor_nodes and x in created_nodes
                   for y, x in ov.pattern_injection.node_map.items())
        and not any(y in anchor_edges and x in created_edges
                    for y, x in ov.pattern_injection.edge_map.items())
    )
