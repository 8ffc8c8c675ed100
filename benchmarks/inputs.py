"""Seeded input generators owned by the benchmark.

The engine has generators of its own (``gradcons.generate``), but a
benchmark that drew its inputs from them would change whenever they
change. These generators build every input from the public data
constructors only, so the same seed gives the same inputs on every
version of the engine.
"""

from __future__ import annotations

import random

from gradcons import (
    Constraint,
    Exists,
    Not,
    Rule,
    TRUE,
    TypedGraph,
    TypeGraph,
    empty_morphism_into,
    forall,
    inclusion,
)

# --- the large CRA model ------------------------------------------------------

# 80 classes and 80 features: at this size the reports take about a
# second on engine version 0.1.0. All but four features are assigned to
# exactly two classes, and all but four classes hold exactly two features,
# so createClass and deleteEmptyClass always have matches. Every feature
# depends on exactly two others. With degrees fixed, the seed only wires
# the edges, and the occurrence counts the work grows with barely move
# between seeds (with independent edges, c3's count swings by a quarter).
MODEL_SIZE = 80
MODEL_RESERVED = 4
MODEL_DEGREE = 2


def _regular_wiring(rng: random.Random, n: int) -> list[list[int]]:
    """``MODEL_DEGREE`` permutations of range(n) that, read as columns,
    give each i distinct targets different from i."""
    columns: list[list[int]] = []
    while len(columns) < MODEL_DEGREE:
        column = list(range(n))
        rng.shuffle(column)
        if all(column[i] != i and all(c[i] != column[i] for c in columns) for i in range(n)):
            columns.append(column)
    return columns


def cra_model(tg: TypeGraph, rng: random.Random) -> TypedGraph:
    """A CRA model with fixed node counts and fixed degrees, wired by the seed."""
    classes = [f"C{i}" for i in range(MODEL_SIZE)]
    features = [f"F{i}" for i in range(MODEL_SIZE)]
    held = MODEL_SIZE - MODEL_RESERVED
    edges = []
    for column in _regular_wiring(rng, held):
        for i, j in enumerate(column):
            edges.append((f"a{len(edges)}", "isAssigned", features[i], classes[j]))
    for column in _regular_wiring(rng, MODEL_SIZE):
        for i, j in enumerate(column):
            edges.append((f"d{len(edges)}", "dependsOn", features[i], features[j]))
    nodes = [(c, "Class") for c in classes] + [(f, "Feature") for f in features]
    return TypedGraph(tg, nodes, edges)


# --- random rules and constraints for the rule search ----------------------------

# Rule-search pairs cycle through these type graphs; the seed draws only
# rules and constraints. Drawing type graphs too makes the cost of a run
# swing several-fold between seeds, because the size of the bound-3
# universe depends on the type graph alone. The first three are loop-free,
# as the analysis-pair shapes require.
SEARCH_TYPE_GRAPHS = (
    TypeGraph(["T0", "T1"], [("r0", "T0", "T1")]),
    TypeGraph(["T0", "T1"], [("r0", "T0", "T1"), ("r1", "T1", "T0")]),
    TypeGraph(["T0", "T1"], [("r0", "T0", "T1"), ("r1", "T0", "T1")]),
    TypeGraph(["T0"], [("r0", "T0", "T0")]),
    TypeGraph(["T0", "T1"], [("r0", "T0", "T0"), ("r1", "T0", "T1")]),
    TypeGraph(["T0", "T1"], [("r0", "T1", "T1"), ("r1", "T1", "T0")]),
)
LOOP_FREE = 3
RULE_EDGE_P = 0.35


def _free_slots(graph: TypedGraph) -> list[tuple[str, str, str]]:
    slots = []
    for etype, (src_t, tgt_t) in sorted(graph.type_graph.edge_types.items()):
        for s in graph.nodes_of_type(src_t):
            for t in graph.nodes_of_type(tgt_t):
                if not graph.edges_with_signature(etype, s, t):
                    slots.append((etype, s, t))
    return slots


def _sprinkle(graph: TypedGraph, rng: random.Random, p: float, prefix: str) -> TypedGraph:
    edges = [
        (f"{prefix}{i}", etype, s, t)
        for i, (etype, s, t) in enumerate(
            slot for slot in _free_slots(graph) if rng.random() < p
        )
    ]
    return graph.with_added([], edges)


def _nodes(rng: random.Random, types: list[str], prefix: str, count: int):
    return [(f"{prefix}{i}", rng.choice(types)) for i in range(count)]


def random_rule(
    tg: TypeGraph,
    rng: random.Random,
    name: str,
    shape: tuple[int, int, int],
    *,
    nac: bool = False,
    deleted_edges_need_deleted_endpoint: bool = False,
) -> Rule:
    """A rule of the given (interface, deleted, created) node counts, built
    as interface plus deleted and created parts; with ``nac`` it gets a
    negative application condition forbidding one extra edge."""
    interface_nodes, deleted_nodes, created_nodes = shape
    types = sorted(tg.node_types)
    interface = TypedGraph(tg, _nodes(rng, types, "k", interface_nodes))
    interface = _sprinkle(interface, rng, RULE_EDGE_P, "ke")
    lhs = interface.with_added(_nodes(rng, types, "d", deleted_nodes))
    doomed = set(lhs.node_ids) - set(interface.node_ids)
    lhs_edges = []
    for etype, s, t in _free_slots(lhs):
        if deleted_edges_need_deleted_endpoint and s not in doomed and t not in doomed:
            continue
        if rng.random() < RULE_EDGE_P:
            lhs_edges.append((f"de{len(lhs_edges)}", etype, s, t))
    lhs = lhs.with_added([], lhs_edges)
    rhs = interface.with_added(_nodes(rng, types, "m", created_nodes))
    rhs = _sprinkle(rhs, rng, RULE_EDGE_P, "me")

    condition = TRUE
    if nac:
        forbidden = lhs
        if not _free_slots(forbidden) or rng.random() < 0.5:
            forbidden = forbidden.with_added([("nac_n0", rng.choice(types))])
        slots = _free_slots(forbidden)
        if slots:
            etype, s, t = rng.choice(slots)
            forbidden = forbidden.with_added([], [("nac_e0", etype, s, t)])
            condition = Not(Exists(inclusion(lhs, forbidden)))
    return Rule(name, lhs, interface, rhs, condition)


def _pattern(tg: TypeGraph, rng: random.Random, nodes: int) -> TypedGraph:
    g = TypedGraph(tg, _nodes(rng, sorted(tg.node_types), "q0_", nodes))
    return _sprinkle(g, rng, 0.4, "q0_e")


def universal_constraint(
    tg: TypeGraph, rng: random.Random, name: str, shape: tuple[int, int]
) -> Constraint:
    """A universal linear constraint of the given (outer nodes, growth)
    shape: growth 0 gives "no occurrence of C", otherwise "every C
    extends to C'" with C' adding that many nodes and some edges."""
    outer_nodes, growth = shape
    outer = _pattern(tg, rng, outer_nodes)
    scope = empty_morphism_into(outer)
    if growth == 0:
        return Constraint(name, Not(Exists(scope)))
    grown = outer.with_added(_nodes(rng, sorted(tg.node_types), "q1_", growth))
    grown = _sprinkle(grown, rng, 0.5, "q1_e")
    return Constraint(name, forall(scope, Exists(inclusion(outer, grown))))


# Every pair's shape is fixed by its index and the seed draws the rest
# (node types, edges, application conditions): the shapes, not the draws,
# decide most of a pair's cost. The shape lists follow the node-count
# ranges of the engine's improvement-necessity suite, restricted to the
# universal constraints its static criteria accept.
PROBE_SHAPES = tuple(
    [(k, d, m) for k in range(2) for d in range(2) for m in range(2)]
    + [(k, 0, m) for k in range(3) for m in range(2)]
)
RULE_SHAPES = tuple((k, d, m) for k in range(3) for d in range(2) for m in range(3))
CONSTRAINT_SHAPES = ((1, 0), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2))
NAC_EVERY = 5


# One node type with two loop edge types. Its bound-3 universe has 44 365
# hosts and takes seconds to build, which makes universe generation a real
# share of the rule search, as it is in the engine's own suite. A pair
# drawn at random over it costs 4-24 s, so one fixed pair is used: a rule
# cutting one arc of a doubly linked triangle, against "no node carries
# both loops". Few hosts hold such a triangle, so the pair costs little
# beyond the universe and one report and match scan per host.
LOOPS_TYPE_GRAPH = TypeGraph(["T0"], [("r0", "T0", "T0"), ("r1", "T0", "T0")])


def universe_pair() -> tuple[Rule, Constraint]:
    tg = LOOPS_TYPE_GRAPH
    kept = TypedGraph(
        tg,
        [("x", "T0"), ("y", "T0"), ("z", "T0")],
        [("a0", "r0", "x", "y"), ("b0", "r0", "y", "z"), ("c0", "r0", "z", "x"),
         ("b1", "r1", "y", "z"), ("c1", "r1", "z", "x")],
    )
    lhs = kept.with_added([], [("a1", "r1", "x", "y")])
    both = TypedGraph(tg, [("q", "T0")], [("q0", "r0", "q", "q"), ("q1", "r1", "q", "q")])
    return (Rule("cutArc", lhs, kept, kept),
            Constraint("noDoubleLoop", Not(Exists(empty_morphism_into(both)))))


def search_pair(rng: random.Random, index: int) -> tuple[Rule, Constraint]:
    """Pair ``index`` of the rule search, alternating between two kinds.

    Even indices give a plain rule with at most one deleted node, whose
    deleted edges all lose an endpoint, against an atomic negative
    constraint on a loop-free type graph. Odd ones give a general rule
    against a universal constraint of up to two levels.
    """
    j = index // 2
    if index % 2 == 0:
        tg = SEARCH_TYPE_GRAPHS[j % LOOP_FREE]
        shape = PROBE_SHAPES[(j // LOOP_FREE) % len(PROBE_SHAPES)]
        forbidden = 1 + (j // (LOOP_FREE * len(PROBE_SHAPES))) % 3
        rule = random_rule(tg, rng, f"probe{index}", shape,
                           deleted_edges_need_deleted_endpoint=True)
        constraint = universal_constraint(tg, rng, f"forbid{index}", (forbidden, 0))
    else:
        n_tg = len(SEARCH_TYPE_GRAPHS)
        tg = SEARCH_TYPE_GRAPHS[j % n_tg]
        c_shape = CONSTRAINT_SHAPES[(j // n_tg) % len(CONSTRAINT_SHAPES)]
        r_shape = RULE_SHAPES[(j // (n_tg * len(CONSTRAINT_SHAPES))) % len(RULE_SHAPES)]
        rule = random_rule(tg, rng, f"r{index}", r_shape, nac=j % NAC_EVERY == 0)
        constraint = universal_constraint(tg, rng, f"c{index}", c_shape)
    return rule, constraint
