"""Classifying transformation steps and rules against linear constraints.

A step verdict records six boolean classifications. Four of them compare
consistency measurements of host and result: preserving (satisfaction is
not lost), guaranteeing (the result satisfies the constraint), sustaining
(the consistency index does not drop), improving (sustaining, with strictly
fewer violating occurrences than the host had). The two "direct" variants
look at individual occurrences instead of aggregate counts: a step is
directly sustaining when no surviving valid occurrence turns invalid and
every genuinely new occurrence is valid, and directly improving when it is
directly sustaining, the host was inconsistent, and at least one violating
occurrence is repaired or destroyed. For existential constraints the direct
notions degenerate to preserving resp. preserving-plus-guaranteeing on an
inconsistent host.

Rule-level classification here is empirical: exhaustive search over all
hosts up to a node bound (one representative per isomorphism class) plus a
seeded sample of larger random hosts. Negative verdicts are decisive and
ship a replayable counterexample step; positive ones are bounded evidence.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from operator import xor

from .conditions import (
    EXISTENTIAL,
    ConsistencyReport,
    Constraint,
    consistency_report,
    searches_per_step,
    step_report,
)
from .errors import BoundError, MismatchError
from .generate import random_host
from .graphs import GraphMorphism, TypeGraph, TypedGraph, _Key
from .rewriting import Rule, Transformation, _fresh_id, _rewritten, scan_matches


@dataclass(frozen=True)
class StepVerdict:
    """All six step classifications plus the measurements and witnesses.

    ``evidence_keys`` maps labels (``invalidated_occurrence``,
    ``new_violating_occurrence``, ``repaired_occurrence``,
    ``destroyed_occurrence``) to the keys (:meth:`GraphMorphism.sort_key`)
    of the occurrences that decided the direct classifications.
    ``evidence`` builds them as morphisms on read.
    """

    constraint_name: str
    preserving: bool
    guaranteeing: bool
    sustaining: bool
    improving: bool
    directly_sustaining: bool
    directly_improving: bool
    report_before: ConsistencyReport
    report_after: ConsistencyReport
    evidence_keys: dict[str, _Key] = field(default_factory=dict, hash=False)

    @property
    def evidence(self) -> dict[str, GraphMorphism]:
        """The evidence as morphisms, built on each read: a new violating
        occurrence into the result, the others into the host."""
        after = self.report_after
        return {label: GraphMorphism.from_key(after.pattern, (
            after if label == "new_violating_occurrence" else self.report_before).graph, key)
            for label, key in self.evidence_keys.items()}


def _ci_at_most(before: ConsistencyReport, after: ConsistencyReport) -> bool:
    """``before.ci <= after.ci`` on the counts, ro = 0 (so ncv = 0) read as 1/1."""
    ro_b, ro_a = before.ro or 1, after.ro or 1
    return (ro_b - before.ncv) * ro_a <= (ro_a - after.ncv) * ro_b


def _judge(
    before: ConsistencyReport,
    result: TypedGraph,
    removed: frozenset[str],
    created: tuple[str, ...],
    derive: bool,
) -> tuple[ConsistencyReport, tuple[bool, ...], dict[str, _Key]]:
    """The result's report, the six flags of the step, in
    :class:`StepVerdict` order, and the keys of the occurrences that
    decided the direct ones.

    ``removed`` is the set of host node and edge ids the step removed,
    ``created`` the ids it created. :func:`step_report` derives the
    result's report from the host's, or measures the result again unless
    ``derive``, and gives the violating keys the step changed: only those
    can decide a direct flag. The track morphism is the partial identity
    on the context and fresh ids avoid the context, so a changed key lies
    outside the context exactly when it uses a changed id: a dropped key
    that uses a removed id names a destroyed occurrence, any other a
    repaired one; an added key that uses a created id names a new
    occurrence, any other an invalidated one. Evidence is the least key
    that decides. The polarity is the host report's.
    """
    after, dropped, added = step_report(before, result, removed, created if derive else None)
    preserving = after.satisfied or not before.satisfied
    guaranteeing = after.satisfied
    sustaining = _ci_at_most(before, after)
    improving = sustaining and before.ncv > 0 and before.ncv > after.ncv
    evidence: dict[str, _Key] = {}

    if before.polarity == EXISTENTIAL:
        directly_sustaining = preserving
        directly_improving = directly_sustaining and not before.satisfied and guaranteeing
    else:
        # An added key that uses no created id lies in the context: it is
        # the image of a host occurrence that was valid (it is no violating
        # survivor), so it is invalidated. Invalidation is looked for first.
        fresh = frozenset(created)
        new = None
        for key in added:
            if fresh.isdisjoint(key):
                evidence["invalidated_occurrence"] = key
                break
            if new is None:
                new = key
        if new is not None and not evidence:
            evidence["new_violating_occurrence"] = new
        directly_sustaining = not evidence

        # There is no dropped key when the host satisfied the constraint.
        directly_improving = directly_sustaining and bool(dropped)
        if directly_improving:
            key = dropped[0]
            evidence["repaired_occurrence" if removed.isdisjoint(key)
                     else "destroyed_occurrence"] = key

    flags = (preserving, guaranteeing, sustaining, improving,
             directly_sustaining, directly_improving)
    return after, flags, evidence


def classify_step(
    t: Transformation,
    constraint: Constraint,
    report_before: ConsistencyReport | None = None,
) -> StepVerdict:
    """Classify one step against an ANF constraint.

    Every flag is read off the reports of host and result. Since the track
    morphism is the identity on the ids of the context, an occurrence that
    lands in the context has the same images on both sides, so
    occurrences are compared by their keys (:meth:`GraphMorphism.sort_key`).
    The direct flags read only the violating keys the step changed, and
    a changed key is labelled by whether it uses an id the step removed
    or created (:func:`_judge`). Evidence is the first hit in canonical
    order. ``report_before`` may carry a precomputed measurement of the
    host to avoid recomputation in scans; passing it never changes the
    outcome. The result's report is derived from the host's where that
    pays (:func:`searches_per_step`, :func:`step_report`); otherwise the
    result is measured again. A report of another graph or constraint is
    refused with :class:`MismatchError`.
    """
    before = report_before or consistency_report(t.host, constraint)
    if before.graph != t.host or (before.constraint is not constraint
                                  and before.constraint != constraint):
        raise MismatchError(f"report_before does not measure the host against {constraint.name!r}")
    derive = before.occ > searches_per_step(constraint, t.rule._changed_types)
    nodes, edges = t.created
    after, flags, evidence = _judge(before, t.result, t.removed_nodes | t.removed_edges,
                                    (*nodes, *edges), derive)
    return StepVerdict(constraint.name, *flags, before, after, evidence)


# --- bounded host universes --------------------------------------------------

# Refuse universes whose enumeration would be unreasonably expensive in
# pure Python; the acceptance workloads stay far below this.
_MAX_UNIVERSE_WORK = 60_000_000


def _split_ids(
    types: tuple[str, ...], counts: tuple[int, ...], n_edges: int
) -> tuple[dict[str, tuple[str, ...]], list[str]]:
    """The node ids per type and the edge ids of the hosts of one split.

    Node ids are ``<type><index>`` and edge ids ``e<serial>``. An id that
    collides with one chosen before it (edge ``e0`` and node ``e0`` of a
    type ``e``, or ``A10`` of types ``A`` and ``A1``) gets a ``~N``
    suffix, so ids that collide with nothing stay as they are.
    """
    chosen: set[str] = set()

    def unique(base: str) -> str:
        element_id = _fresh_id(base, chosen.__contains__)
        chosen.add(element_id)
        return element_id

    node_ids_by_type = {
        t: tuple(unique(f"{t}{i}") for i in range(c)) for t, c in zip(types, counts)
    }
    return node_ids_by_type, [unique(f"e{serial}") for serial in range(n_edges)]


def _least_masks(slots: list[tuple[str, str, str]], groups: list[tuple[str, ...]]):
    """Yield, in no particular order, every edge mask over ``slots`` that
    is numerically least in its orbit under the permutations of the node
    ids within each of ``groups``.

    Orderly generation (Read 1978; McKay 1998): adding its lowest missing
    slot z to a least mask M gives a least mask P = M | 2^z. Were
    g(P) < P, the highest bit where they differ would lie above z (P has
    every bit up to z, and g(P) as many bits as P), so g(M) < M. The
    least masks therefore form a tree rooted at the full mask, in which
    the children of P are P with one of its trailing one bits cleared, and
    a child that is not least has no least descendant. The walk carries
    the mask's images under every non-identity permutation: clearing or
    setting bit b flips bit g(b) of the image under g.
    """
    bit_of = {slot: 1 << i for i, slot in enumerate(slots)}
    # flips[b][j] is 1 << g(b) for the j-th non-identity permutation g.
    n_images = math.prod(math.factorial(len(group)) for group in groups) - 1
    flips = [[0] * n_images for _ in slots]
    relabelings = itertools.product(*map(itertools.permutations, groups))
    next(relabelings)  # the identity comes first
    for j, combo in enumerate(relabelings):
        node_map = {v: w for group, perm in zip(groups, combo) for v, w in zip(group, perm)}
        for column, (etype, s, t) in zip(flips, slots):
            column[j] = bit_of[etype, node_map[s], node_map[t]]
    mask = full = (1 << len(slots)) - 1
    yield full
    # path[d] counts the trailing one bits of the mask at depth d that are
    # not yet cleared, so the entry below the last names the bit by which
    # the current mask was reached.
    images = [full] * n_images
    path = [len(slots)]
    while path:
        b = path[-1]
        if b:
            b -= 1
            path[-1] = b
            mask ^= 1 << b
            images[:] = map(xor, images, flips[b])
            if not images or min(images) >= mask:
                yield mask
                path.append(b)
                continue
        else:
            path.pop()
            if not path:
                return
            b = path[-1]
        # Set bit b again: its child was not least, or is done.
        mask ^= 1 << b
        images[:] = map(xor, images, flips[b])


def _edge_types_by_source(tg: TypeGraph) -> dict[str, list[tuple[str, str]]]:
    """``(edge type, target type)`` of the edge types leaving each node
    type, sorted by edge type."""
    leaving: dict[str, list[tuple[str, str]]] = {}
    for etype, (src_t, tgt_t) in sorted(tg.edge_types.items()):
        leaving.setdefault(src_t, []).append((etype, tgt_t))
    return leaving


def _hosts_for_split(
    tg: TypeGraph,
    types: tuple[str, ...],
    counts: tuple[int, ...],
    leaving: dict[str, list[tuple[str, str]]],
):
    """The hosts of one split, ``counts[i]`` nodes of ``types[i]``.

    ``leaving`` is :func:`_edge_types_by_source` of ``tg``, which a
    universe builds once for all its splits. Types with count 0 are
    dropped, so the edge slots follow the types present.
    """
    count_of = {t: c for t, c in zip(types, counts) if c}
    signatures = sorted(
        (etype, src_t, tgt_t)
        for src_t in count_of for etype, tgt_t in leaving.get(src_t, ())
        if tgt_t in count_of
    )
    n_slots = sum(count_of[src_t] * count_of[tgt_t] for _, src_t, tgt_t in signatures)
    # Permuting the nodes of a type that no edge slot touches leaves every
    # mask as it is, so only the touched types are permuted.
    touched = {t for _, src_t, tgt_t in signatures for t in (src_t, tgt_t)}
    permuted_types = [t for t in types if t in touched]
    n_perms = math.prod(math.factorial(count_of[t]) for t in permuted_types)
    # The guard counts what a scan of every mask against every permutation
    # would test, far more than the walk of _least_masks does, so that the
    # inputs it refuses stay the same.
    if (2 ** n_slots) * n_perms > _MAX_UNIVERSE_WORK:
        split = tuple(count_of.get(t, 0) for t in sorted(tg.node_types))
        raise BoundError(
            f"host universe too large to enumerate (split {split}, {n_slots} edge slots); "
            "lower the bound"
        )
    node_ids_by_type, edge_ids = _split_ids(types, counts, n_slots)
    # Every host of the split shares the node parts of its edgeless graph,
    # the edge ids, the slot tuples and the one-edge bundles of its
    # signature index; the sorted edge ids depend only on the edge count
    # ("e10" sorts before "e2").
    edgeless = TypedGraph(tg, ((nid, t) for t in types for nid in node_ids_by_type[t]))
    sorted_edge_ids = [tuple(sorted(edge_ids[:k])) for k in range(n_slots + 1)]
    bundles = [(eid,) for eid in edge_ids]

    slots = [
        (etype, s, t)
        for etype, src_t, tgt_t in signatures
        for s in node_ids_by_type[src_t] for t in node_ids_by_type[tgt_t]
    ]

    groups = [node_ids_by_type[t] for t in permuted_types]
    for mask in sorted(_least_masks(slots, groups)):
        present = [slots[i] for i in range(n_slots) if mask >> i & 1]
        edges = dict(zip(edge_ids, present))
        yield edgeless._with_edges(edges, sorted_edge_ids[len(edges)], bundles)


@lru_cache(maxsize=32)
def _bounded_hosts_cached(tg: TypeGraph, max_nodes: int, mins: tuple[tuple[str, int], ...]):
    if any(n > 0 and t not in tg.node_types for t, n in mins):
        return ()
    types = sorted(tg.node_types)
    leaving = _edge_types_by_source(tg)
    floor = {t: n for t, n in mins if n > 0}
    base = sum(floor.values())
    hosts: list[TypedGraph] = []
    for total in range(base, max_nodes + 1):
        # A split adds a multiset of node types to the minimum counts. The
        # multisets, as sorted tuples of types, come in the reverse of the
        # lexicographic order of their count vectors, so reversed they give
        # the splits in order, each naming only the types it has.
        for extra in reversed(list(itertools.combinations_with_replacement(types, total - base))):
            count_of = dict(floor)
            for t in extra:
                count_of[t] = count_of.get(t, 0) + 1
            present = tuple(sorted(count_of))
            counts = tuple(count_of[t] for t in present)
            hosts.extend(_hosts_for_split(tg, present, counts, leaving))
    return tuple(hosts)


def bounded_hosts(
    tg: TypeGraph,
    max_nodes: int,
    min_nodes_by_type: dict[str, int] | None = None,
) -> tuple[TypedGraph, ...]:
    """Every simple typed graph with at most ``max_nodes`` nodes, one
    representative per isomorphism class, in a fixed canonical order.

    "Simple" means at most one edge per (type, source, target) triple;
    the rewriting engine itself has no such restriction. A split fixes the
    node count of each type; its edge slots are the (type, source, target)
    triples, ordered by edge type, source and target, and a host of the
    split is a mask over them. The representative of an isomorphism class
    is the numerically least mask of its orbit under the node permutations
    that keep types, found by orderly generation (Read, "Every one a
    winner", 1978; McKay, "Isomorph-free exhaustive generation", 1998):
    adding its lowest missing slot to a least mask gives a least mask, so
    the least masks form a tree rooted at the full mask. Hosts come by
    node count, then by split (count vectors over the sorted node types,
    in lexicographic order), then by mask. Splits with fewer nodes of some
    type than ``min_nodes_by_type`` demands are skipped (used to prune
    hosts that cannot contain a match anyway); demanding a node type that
    ``tg`` lacks leaves the universe empty.
    """
    mins = tuple(sorted((min_nodes_by_type or {}).items()))
    return _bounded_hosts_cached(tg, max_nodes, mins)


# --- empirical rule classification -------------------------------------------

PROVEN_NO = "proven_no"
NO_COUNTEREXAMPLE = "no_counterexample_found"
WITNESS_FOUND = "witness_found"
NO_WITNESS = "no_witness_found"

UNIVERSAL_CLAIMS = (
    "preserving",
    "guaranteeing",
    "sustaining",
    "directly_sustaining",
    "strongly_improving",
)
WITNESS_CLAIMS = ("improving", "directly_improving")
_CLAIMS = UNIVERSAL_CLAIMS + WITNESS_CLAIMS


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one rule-level claim search.

    For universal claims the step (if any) is the canonically smallest
    counterexample; for witness claims it is the first witness found. Both
    replay: re-running apply + classify_step on the stored host and match
    reproduces the verdict.
    """

    claim: str
    status: str
    transformation: Transformation | None = None
    step_verdict: StepVerdict | None = None


@dataclass(frozen=True)
class RuleClassification:
    rule_name: str
    constraint_name: str
    bound: int
    samples: int
    seed: int
    hosts_examined: int
    steps_examined: int
    claims: dict[str, ClaimResult] = field(hash=False)

    def claim(self, name: str) -> ClaimResult:
        return self.claims[name]


def classify_rule_empirical(
    rule: Rule,
    constraint: Constraint,
    bound: int = 4,
    samples: int = 200,
    seed: int = 1,
) -> RuleClassification:
    """Search for counterexamples and witnesses over a bounded universe.

    Exhausts all hosts up to ``bound`` nodes (up to renaming), then tries
    ``samples`` random larger hosts from a generator seeded with ``seed``.
    The five universal claims come back ``proven_no`` with a counterexample
    step or ``no_counterexample_found``; the improving-witness claims come
    back ``witness_found`` or ``no_witness_found``. ``strongly_improving``
    quantifies only over hosts that actually violate the constraint.
    """
    if bound < rule.lhs.node_count:
        raise BoundError(
            f"bound {bound} is below the {rule.lhs.node_count} nodes of the lhs of {rule.name!r}"
        )
    tg = rule.lhs.type_graph
    needed: dict[str, int] = {}
    for v in rule.lhs.node_ids:
        t = rule.lhs.node_type(v)
        needed[t] = needed.get(t, 0) + 1
    exhaustive = bounded_hosts(tg, bound, needed)

    rng = random.Random(seed)
    sampled = (
        random_host(tg, rng, rng.randint(bound + 1, bound + 3), rng.uniform(0.1, 0.5))
        for _ in range(samples)
    )

    # Each step is judged on its raw parts, at the maps of its match key. A
    # step is recorded, once, with its match as a morphism, only when it
    # becomes the first counterexample or witness of some claim.
    lhs_nodes, lhs_edges = rule.lhs.node_ids, rule.lhs.edge_ids
    n = len(lhs_nodes)
    derive_above = searches_per_step(constraint, rule._changed_types)
    found: dict[str, tuple[Transformation, StepVerdict]] = {}
    hosts_examined = 0
    steps_examined = 0
    for host in itertools.chain(exhaustive, sampled):
        hosts_examined += 1
        keys = scan_matches(rule, host).keys
        if not keys:
            continue
        before = consistency_report(host, constraint)
        derive = before.occ > derive_above
        for key in keys:
            node_map, edge_map = dict(zip(lhs_nodes, key)), dict(zip(lhs_edges, key[n:]))
            result, removed_nodes, removed_edges, ids = _rewritten(rule, host, node_map,
                                                                   edge_map, 0)
            after, flags, evidence = _judge(before, result, removed_nodes | removed_edges, ids,
                                            derive)
            steps_examined += 1
            (preserving, guaranteeing, sustaining, improving,
             directly_sustaining, directly_improving) = flags
            # Per claim of UNIVERSAL_CLAIMS + WITNESS_CLAIMS: does the step
            # refute it, or witness it?
            hits = (not preserving, not guaranteeing, not sustaining, not directly_sustaining,
                    before.ncv > 0 and not improving, improving, directly_improving)
            new = [claim for claim, hit in zip(_CLAIMS, hits) if hit and claim not in found]
            if new:
                m = GraphMorphism(rule.lhs, host, node_map, edge_map)
                # Only a recorded step reads the created ids by kind.
                t = Transformation(rule, host, m, result, removed_nodes, removed_edges,
                                   rule._split_created(ids), 0)
                record = (t, StepVerdict(constraint.name, *flags, before, after, evidence))
                found.update(dict.fromkeys(new, record))
    if steps_examined == 0:
        raise BoundError(
            f"bound {bound} admits no match of rule {rule.name!r} in the searched universe"
        )

    claims: dict[str, ClaimResult] = {}
    for claim in _CLAIMS:
        yes, no = ((PROVEN_NO, NO_COUNTEREXAMPLE) if claim in UNIVERSAL_CLAIMS
                   else (WITNESS_FOUND, NO_WITNESS))
        claims[claim] = (ClaimResult(claim, yes, *found[claim]) if claim in found
                         else ClaimResult(claim, no))

    return RuleClassification(rule.name, constraint.name, bound, samples, seed,
                              hosts_examined, steps_examined, claims)
