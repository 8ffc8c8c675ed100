"""Independent output checks for the benchmark workloads.

Nothing here calls engine algorithms. Graphs and rules are read as plain
data (node and edge items, element ids), and every count is recomputed
with plain loops: hand-derived formulas for the CRA scenario, brute-force
permutation search for the small random hosts of the rule search, and
Burnside's lemma for the size of a bounded host universe.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from gradcons import And, Exists, Not, TrueCondition

# --- graphs as plain data -------------------------------------------------------


def graph_data(graph) -> tuple[dict[str, str], dict[str, tuple[str, str, str]]]:
    """Node id -> type and edge id -> (type, source, target)."""
    nodes = dict(graph.node_items())
    edges = {eid: (etype, s, t) for eid, etype, s, t in graph.edge_items()}
    return nodes, edges


def morphism_key(m) -> tuple:
    return (tuple(sorted(m.node_map.items())), tuple(sorted(m.edge_map.items())))


# --- the CRA scenario by hand-derived formulas -----------------------------------


class CraFacts:
    """Assignment and dependency structure of a CRA graph."""

    def __init__(self, graph):
        nodes, edges = graph_data(graph)
        self.classes = sorted(n for n, t in nodes.items() if t == "Class")
        self.features = sorted(n for n, t in nodes.items() if t == "Feature")
        self.assign: list[tuple[str, str, str]] = []  # (edge, feature, class)
        self.depend: list[tuple[str, str, str]] = []  # (edge, source, target)
        for eid, (etype, s, t) in sorted(edges.items()):
            (self.assign if etype == "isAssigned" else self.depend).append((eid, s, t))
        self.classes_of: dict[str, list[tuple[str, str]]] = {f: [] for f in self.features}
        self.features_in: dict[str, set[str]] = {c: set() for c in self.classes}
        for eid, f, c in self.assign:
            self.classes_of[f].append((eid, c))
            self.features_in[c].add(f)
        self.depends_on: dict[str, set[str]] = {f: set() for f in self.features}
        for _, f1, f2 in self.depend:
            self.depends_on[f1].add(f2)

    def counts(self) -> dict[str, tuple[int, int]]:
        """(occurrences, violations) for c1, c2 and c3."""
        c1 = 0
        for asg in self.classes_of.values():
            c1 += sum(1 for (_, x), (_, y) in itertools.permutations(asg, 2) if x != y)
        c2_occ = len(self.classes)
        c2_ncv = sum(1 for c in self.classes if not self.features_in[c])
        c3_occ = c3_ncv = 0
        for _, f1, f2 in self.depend:
            if f1 == f2:
                continue
            for _, c1_ in self.classes_of[f1]:
                for _, c2_ in self.classes_of[f2]:
                    if c1_ == c2_:
                        continue
                    c3_occ += 1
                    fallback = any(
                        f3 not in (f1, f2) and f3 in self.features_in[c1_]
                        for f3 in self.depends_on[f1]
                    )
                    c3_ncv += not fallback
        return {"c1": (c1, c1), "c2": (c2_occ, c2_ncv), "c3": (c3_occ, c3_ncv)}

    def scans(self) -> dict[str, tuple[set, int, int]]:
        """Per rule: kept matches as (node pairs, edge pairs) keys, condition
        rejections and gluing rejections, from the rules' documented shapes."""
        unassigned = [f for f in self.features if not self.classes_of[f]]
        empty = [c for c in self.classes if not self.features_in[c]]
        nf, nc = len(self.features), len(self.classes)
        assign = {
            ((("c", c), ("f", f)), ()) for f in unassigned for c in self.classes
        }
        create = {((("f", f),), ()) for f in unassigned}
        move = set()
        move_rejected = 0
        for eid, f, c_src in self.assign:
            held = {c for _, c in self.classes_of[f]}
            for c_tgt in self.classes:
                if c_tgt == c_src:
                    continue
                if c_tgt in held:
                    move_rejected += 1
                    continue
                move.add(((("c_src", c_src), ("c_tgt", c_tgt), ("f", f)), (("e_old", eid),)))
        delete = {((("c", c),), ()) for c in empty}
        return {
            "assignFeature": (assign, nf * nc - len(assign), 0),
            "createClass": (create, nf - len(create), 0),
            "moveFeature": (move, move_rejected, 0),
            "deleteEmptyClass": (delete, nc - len(delete), 0),
        }


# --- rewriting by set arithmetic ---------------------------------------------------


def rewrite_by_sets(rule, host, match, step: int):
    """The result of a step as (nodes, edges) dicts: host minus the deleted
    image plus fresh copies of the created part, named as documented
    (``<rule>.<step>.<rhs id>``, ``~N`` on collision, nodes first)."""
    lhs_n, lhs_e = graph_data(rule.lhs)
    k_n, k_e = graph_data(rule.interface)
    rhs_n, rhs_e = graph_data(rule.rhs)
    nodes, edges = graph_data(host)
    gone_n = {match.node_map[n] for n in lhs_n if n not in k_n}
    gone_e = {match.edge_map[e] for e in lhs_e if e not in k_e}
    nodes = {n: t for n, t in nodes.items() if n not in gone_n}
    edges = {e: v for e, v in edges.items() if e not in gone_e}
    taken = set(nodes) | set(edges)
    fresh = {}
    for rid in sorted(n for n in rhs_n if n not in k_n) + sorted(e for e in rhs_e if e not in k_e):
        base = candidate = f"{rule.name}.{step}.{rid}"
        serial = 0
        while candidate in taken:
            candidate = f"{base}~{serial}"
            serial += 1
        fresh[rid] = candidate
        taken.add(candidate)
    image = {**match.node_map, **fresh}
    for n, t in rhs_n.items():
        if n not in k_n:
            nodes[fresh[n]] = t
    for e, (etype, s, t) in rhs_e.items():
        if e not in k_e:
            edges[fresh[e]] = (etype, image[s], image[t])
    return nodes, edges


# --- step classifications from counts ---------------------------------------------


def aggregate_flags(before: tuple[int, int], after: tuple[int, int]) -> dict[str, bool]:
    """Preserving, guaranteeing, sustaining and improving from the
    (relevant, violations) counts of host and result."""

    def ci(ro: int, ncv: int) -> Fraction:
        return Fraction(1) if ro == 0 else 1 - Fraction(ncv, ro)

    ci_b, ci_a = ci(*before), ci(*after)
    sustaining = ci_b <= ci_a
    return {
        "preserving": ci_a == 1 or ci_b != 1,
        "guaranteeing": ci_a == 1,
        "sustaining": sustaining,
        "improving": sustaining and before[1] > 0 and before[1] > after[1],
    }


def implications(verdict, host_satisfied: bool) -> list[tuple[bool, bool, str]]:
    """The eight implications between the six step classifications."""
    v = verdict
    return [
        (v.guaranteeing, v.directly_sustaining, "guaranteeing -> directly sustaining"),
        (v.directly_sustaining, v.sustaining, "directly sustaining -> sustaining"),
        (v.sustaining, v.preserving, "sustaining -> preserving"),
        (v.directly_improving, v.improving, "directly improving -> improving"),
        (v.improving, v.sustaining, "improving -> sustaining"),
        (v.guaranteeing and not host_satisfied, v.directly_improving,
         "guaranteeing an unsatisfied constraint -> directly improving"),
        (v.guaranteeing, v.preserving, "guaranteeing -> preserving"),
        (v.preserving and host_satisfied, v.guaranteeing,
         "preserving a satisfied constraint -> guaranteeing"),
    ]


# --- brute-force occurrences and conditions on small graphs -----------------------


def monos(pattern, host, fixed_nodes=None, fixed_edges=None) -> list[tuple[dict, dict]]:
    """Every injective occurrence of ``pattern`` in ``host`` that agrees
    with the fixed parts, by trying all injective node assignments."""
    p_nodes, p_edges = pattern
    h_nodes, h_edges = host
    fixed_nodes = fixed_nodes or {}
    fixed_edges = fixed_edges or {}
    pn = sorted(p_nodes)
    found = []
    for image in itertools.permutations(sorted(h_nodes), len(pn)):
        node_map = dict(zip(pn, image))
        if any(p_nodes[p] != h_nodes[h] for p, h in node_map.items()):
            continue
        if any(node_map[p] != h for p, h in fixed_nodes.items()):
            continue

        def edges_from(rest, used, acc):
            if not rest:
                found.append((dict(node_map), dict(acc)))
                return
            e, remaining = rest[0], rest[1:]
            etype, s, t = p_edges[e]
            for f, (ftype, fs, ft) in h_edges.items():
                if f in used or ftype != etype or fs != node_map[s] or ft != node_map[t]:
                    continue
                if e in fixed_edges and fixed_edges[e] != f:
                    continue
                acc[e] = f
                edges_from(remaining, used | {f}, acc)
                del acc[e]

        edges_from(sorted(p_edges), frozenset(), {})
    return found


def holds(occurrence: tuple[dict, dict], condition, host) -> bool:
    """Does the occurrence (node map, edge map) satisfy the condition tree?"""
    if isinstance(condition, TrueCondition):
        return True
    if isinstance(condition, Not):
        return not holds(occurrence, condition.sub, host)
    if isinstance(condition, And):
        return holds(occurrence, condition.left, host) and holds(occurrence, condition.right, host)
    if isinstance(condition, Exists):
        a = condition.morphism
        node_map, edge_map = occurrence
        fixed_nodes = {a.node_map[x]: node_map[x] for x in a.node_map}
        fixed_edges = {a.edge_map[e]: edge_map[e] for e in a.edge_map}
        extended = graph_data(a.codomain)
        return any(
            holds(q, condition.sub, host)
            for q in monos(extended, host, fixed_nodes, fixed_edges)
        )
    raise TypeError(f"unknown condition node {condition!r}")


def constraint_counts(constraint, graph) -> tuple[int, int, int]:
    """(occurrences, relevant, violations) of a linear constraint.

    A universal constraint is stored as not-exists over its outer pattern;
    an occurrence violates when it satisfies the stored (negated) body.
    An existential constraint has one relevant occurrence, violated when
    no occurrence satisfies the body.
    """
    host = graph_data(graph)
    root = constraint.condition
    universal = isinstance(root, Not)
    outer = root.sub if universal else root
    occurrences = monos(graph_data(outer.morphism.codomain), host)
    satisfying = sum(1 for p in occurrences if holds(p, outer.sub, host))
    if universal:
        return len(occurrences), len(occurrences), satisfying
    return len(occurrences), 1, 0 if satisfying else 1


# --- universe sizes by Burnside's lemma -----------------------------------------------


def universe_size(tg, max_nodes: int, min_nodes: dict[str, int] | None = None) -> int:
    """Isomorphism classes of simple typed graphs with at most ``max_nodes``
    nodes, and at least ``min_nodes[t]`` of type t: for each split of the
    nodes over the types, the average number of edge sets fixed by a
    type-preserving node permutation."""
    types = sorted(tg.node_types)
    signatures = sorted(tg.edge_types.items())
    mins = [(min_nodes or {}).get(t, 0) for t in types]
    total = 0
    for counts in itertools.product(range(max_nodes + 1), repeat=len(types)):
        if sum(counts) > max_nodes or any(c < m for c, m in zip(counts, mins)):
            continue
        ids = {t: [(t, i) for i in range(c)] for t, c in zip(types, counts)}
        slots = [
            (etype, s, d)
            for etype, (src_t, tgt_t) in signatures
            for s in ids[src_t]
            for d in ids[tgt_t]
        ]
        fixed_sum = 0
        for perms in itertools.product(*(itertools.permutations(ids[t]) for t in types)):
            move = {}
            for t, perm in zip(types, perms):
                move.update(zip(ids[t], perm))
            successor = {slot: (slot[0], move[slot[1]], move[slot[2]]) for slot in slots}
            seen, cycles = set(), 0
            for slot in slots:
                if slot in seen:
                    continue
                cycles += 1
                while slot not in seen:
                    seen.add(slot)
                    slot = successor[slot]
            fixed_sum += 2 ** cycles
        group = 1
        for c in counts:
            group *= factorial(c)
        total += fixed_sum // group
    return total
