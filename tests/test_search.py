"""The anchored, lazy existence search and the vetted rewrite step.

Existence checks run one seeded search that stops at the first witness,
and the rule search rewrites at matches the scan has just vetted. Both
are checked against the permutation oracles and the validated paths they
stand in for, and guards make sure the work they skip stays skipped.
"""

import random
import re
import sys
from collections import Counter

import pytest

from gradcons import (
    FALSE,
    TRUE,
    And,
    Exists,
    GraphMorphism,
    MismatchError,
    Not,
    Rule,
    TypedGraph,
    TypeGraph,
    bounded_hosts,
    classify_rule_empirical,
    consistency_report,
    cra,
    enumerate_monomorphisms,
    graph_satisfies,
    inclusion,
    satisfies,
    scan_matches,
)
from gradcons import classify, conditions, graphs, rewriting
from gradcons.cli import main
from gradcons.conditions import Constraint, _anchor_keys, forall
from gradcons.formats import emit_constraint_document, emit_graph_document
from gradcons.generate import random_host, random_linear_constraint, random_type_graph
from gradcons.graphs import empty_morphism_into
from gradcons.rewriting import _rewrite

from .oracles import (
    comatch_by_sets,
    dpo_by_sets,
    monos_by_permutation,
    satisfies_by_maps,
    satisfies_by_permutation,
    scan_by_permutation,
)
from .suites import random_step_cases, seeded_cra_model, with_parallel_edges


def _check_source(node: Exists) -> str:
    """The generated source of an :class:`Exists` node's search."""
    form = "exists" if node.sub == TRUE else "search"
    return graphs._search_source(node.morphism.codomain, form, *_anchor_keys(node.morphism))[0]


def _nodes(condition):
    """Every node of a condition tree, outermost first."""
    yield condition
    if isinstance(condition, (Exists, Not)):
        yield from _nodes(condition.sub)
    elif isinstance(condition, And):
        yield from _nodes(condition.left)
        yield from _nodes(condition.right)


def _exists_nodes(condition):
    return (node for node in _nodes(condition) if isinstance(node, Exists))


def _check_every_node(condition, graph, outcomes: Counter, kinds: Counter | None = None) -> None:
    """The compiled predicate of every node of ``condition`` that has an
    anchor, at every occurrence of the anchor in ``graph``, against
    ``satisfies``, the tree walked on maps and the permutation oracle.
    ``kinds`` counts the checks by the kind of node, an existential one
    by whether it has a sub-condition."""
    memo: dict = {}
    occurrences: dict = {}
    for node in _nodes(condition):
        anchor = node.anchor()
        if anchor is None:
            continue
        if id(anchor) not in occurrences:
            occurrences[id(anchor)] = (anchor, monos_by_permutation(anchor, graph))
        for p in occurrences[id(anchor)][1]:
            got = node._predicate(graph, p.sort_key())
            where = (node, graph.edge_items(), sorted(p.node_map.items()))
            assert got == satisfies(p, node), where
            assert got == satisfies_by_maps(node, graph, p.node_map, p.edge_map), where
            assert got == satisfies_by_permutation(p, node, memo), where
            outcomes[got] += 1
            if kinds is not None:
                kind = type(node).__name__
                kinds[(kind, node.sub != TRUE) if kind == "Exists" else kind] += 1


class TestLazyExistsAgainstOracle:
    def test_seeded_random_step_suite(self):
        outcomes: Counter = Counter()
        for constraint, _, transformations, rule, host in random_step_cases(250, seed=101):
            for graph in (host, *(t.result for t in transformations)):
                _check_every_node(constraint.condition, graph, outcomes)
                _check_every_node(rule.condition, graph, outcomes)
        assert outcomes[True] >= 200 and outcomes[False] >= 500

    def test_random_cra_hosts(self, fixtures):
        rng = random.Random(37)
        outcomes: Counter = Counter()
        kinds: Counter = Counter()
        conditions_ = [c.condition for c in fixtures.constraint_list()]
        conditions_ += [r.condition for r in fixtures.rule_list()]
        for _ in range(40):
            host = random_host(fixtures.type_graph, rng, rng.randint(4, 8), rng.uniform(0.2, 0.5))
            for condition in conditions_:
                _check_every_node(condition, host, outcomes, kinds)
        assert outcomes[True] >= 600 and outcomes[False] >= 600
        assert kinds["Exists", True] >= 50 and kinds["And"] >= 300 and kinds["Not"] >= 1000, kinds

    def test_chains_with_loops_bundles_and_conjunctions(self):
        rng = random.Random(61)
        outcomes: Counter = Counter()
        kinds: Counter = Counter()
        seen: Counter = Counter()
        for case in range(400):
            levels, universal = 3 + case % 2, case % 4 < 2
            condition = _random_chain(rng, levels, universal)
            for node in _exists_nodes(condition):
                seen["bundle"] += _pins_a_bundle(node)
                seen["loop"] += any(s == t for _, _, s, t in node.morphism.codomain.edge_items())
                seen["and"] += isinstance(node.sub, And)
            seen[levels, universal] += 1
            for _ in range(3):
                host = with_parallel_edges(
                    random_host(LOOPS, rng, rng.randint(3, 5), 0.6), rng, 0.5)
                _check_every_node(condition, host, outcomes, kinds)
        assert outcomes[True] >= 2000 and outcomes[False] >= 3000, outcomes
        assert min(seen[levels, universal] for levels in (3, 4) for universal in (True, False)) == 100
        assert seen["bundle"] >= 800 and seen["loop"] >= 1000 and seen["and"] >= 100, seen
        # Each existential level with a sub-condition is checked at every
        # occurrence of its anchor; its predicate hands each key its
        # search yields to the level below.
        assert kinds["Exists", True] >= 4000 and kinds["And"] >= 1000, kinds

    def test_user_text_never_enters_the_source(self):
        """Type names and ids that are not identifiers, or are code, give
        the source of plain names and the verdicts of the oracle."""
        odd = "__import__('os').system('exit 1')\n\"\\'"
        outcomes: dict[str, Counter] = {}
        for prefix in ("", odd):
            def label(x: str) -> str:
                return prefix + x

            tg = TypeGraph([label("A"), label("B")], [(label("r"), label("A"), label("A")),
                                                      (label("s"), label("A"), label("B"))])

            def graph(nodes, edges):
                return TypedGraph(tg, [(label(v), label(t)) for v, t in nodes],
                                  [(label(e), label(t), label(x), label(y))
                                   for e, t, x, y in edges])

            anchor = graph([("a", "A"), ("b", "B")], [("ab", "s", "a", "b")])
            scope = graph([("a", "A"), ("b", "B")], [("ab", "s", "a", "b"), ("ab2", "s", "a", "b")])
            loop = graph([("a", "A"), ("b", "B")],
                         [("ab", "s", "a", "b"), ("ab2", "s", "a", "b"), ("aa", "r", "a", "a")])
            other = graph([("a", "A"), ("b", "B"), ("c", "A")],
                          [("ab", "s", "a", "b"), ("ab2", "s", "a", "b"), ("ca", "r", "c", "a")])
            condition = Exists(inclusion(anchor, scope), And(
                Not(Exists(inclusion(scope, loop))), Exists(inclusion(scope, other))))
            sources = [_check_source(node) for node in _exists_nodes(condition)]
            codes = [n._check.__code__ for n in _exists_nodes(condition)]
            predicates = [n._predicate.__code__ for n in _nodes(condition)]
            if prefix:
                assert sources == plain_sources
                assert codes == plain_codes and predicates == plain_predicates
            plain_sources, plain_codes, plain_predicates = sources, codes, predicates
            assert all("import" not in source for source in sources)
            assert sum("yield" in source for source in sources) == 1  # both forms
            for node, source in zip(_exists_nodes(condition), sources):
                # Seeds are read by position from the anchor occurrence's
                # key, and the positions too reach the code as arguments.
                nodes, edges = _anchor_keys(node.morphism)
                positions = [position for position, _ in nodes + edges]
                anchor = node.morphism.domain
                assert positions == list(range(anchor.node_count + anchor.edge_count))
                reads = re.findall(r"\bkey\[([^\]]*)\]", source)
                assert len(reads) == len(positions) and all(re.fullmatch(r"K\d+", r) for r in reads)
            for node in _nodes(condition):
                # A predicate is a compiled search or composes others in
                # code of its own module: no further source is generated.
                code = node._predicate.__code__
                if code.co_filename == "<compiled search>":
                    assert node._predicate is node._check
                else:
                    assert code.co_filename == conditions.__file__
            full = graph([("h", "A"), ("i", "A"), ("j", "B")],
                         [("e1", "s", "h", "j"), ("e2", "s", "h", "j"), ("e3", "s", "h", "j"),
                          ("e4", "r", "h", "h"), ("e5", "r", "i", "h"), ("e6", "s", "i", "j")])
            outcomes[prefix] = Counter()
            for host in (full, full.without(edge_ids=[label("e4")]),
                         full.without(edge_ids=[label("e5")])):
                _check_every_node(condition, host, outcomes[prefix])
        assert outcomes[odd] == outcomes[""] and len(outcomes[""]) == 2


    def test_searches_split_over_several_functions(self, monkeypatch):
        """A search that fills its function goes on in the next one, with
        the images placed so far; the verdicts stay the oracle's. Here a
        function holds one loop, so every second loop starts a new one."""
        monkeypatch.setattr(graphs, "_LOOPS_PER_FUNCTION", 1)
        rng = random.Random(71)
        outcomes: Counter = Counter()
        split = 0
        for case in range(150):
            condition = _random_chain(rng, 3 + case % 2, case % 4 < 2)
            split += sum("def s1(" in _check_source(node) for node in _exists_nodes(condition))
            for _ in range(2):
                host = with_parallel_edges(
                    random_host(LOOPS, rng, rng.randint(3, 5), 0.6), rng, 0.5)
                _check_every_node(condition, host, outcomes)
        for constraint, _, transformations, rule, host in random_step_cases(60, seed=103):
            for graph in (host, *(t.result for t in transformations)):
                _check_every_node(constraint.condition, graph, outcomes)
                _check_every_node(rule.condition, graph, outcomes)
        assert outcomes[True] >= 500 and outcomes[False] >= 500, outcomes
        assert split >= 300

LOOPS = TypeGraph(["A", "B"], [("r", "A", "A"), ("s", "A", "B")])


def _grown(graph: TypedGraph, rng: random.Random, level: int) -> TypedGraph:
    """``graph`` with one more edge and maybe one more node. The edge may
    be a loop or run parallel to an edge already there."""
    nodes = list(graph.node_items())
    edges = list(graph.edge_items())
    if not any(t == "A" for _, t in nodes):
        nodes.append((f"v{level}", "A"))
    elif rng.random() < 0.5:
        nodes.append((f"v{level}", rng.choice("AB")))
    a_nodes = [v for v, t in nodes if t == "A"]
    b_nodes = [v for v, t in nodes if t == "B"]
    if edges and rng.random() < 0.35:
        _, etype, src, tgt = rng.choice(edges)
    elif b_nodes and rng.random() < 0.4:
        etype, src, tgt = "s", rng.choice(a_nodes), rng.choice(b_nodes)
    else:
        etype, src, tgt = "r", rng.choice(a_nodes), rng.choice(a_nodes)
    edges.append((f"x{level}", etype, src, tgt))
    return TypedGraph(LOOPS, nodes, edges)


def _random_chain(rng: random.Random, levels: int, universal: bool,
                  anchor: TypedGraph | None = None):
    """An alternating chain of ``levels`` quantifiers over graphs that
    grow level by level from ``anchor``, or from a random anchor that may
    have nodes and edges. Some levels carry a second, negated branch in an
    And node."""
    if anchor is not None:
        graphs_ = [anchor]
    else:
        graphs_ = [TypedGraph(LOOPS)]
        if rng.random() < 0.6:
            graphs_[0] = _grown(graphs_[0], rng, 0)
    for level in range(1, levels + 1):
        graphs_.append(_grown(graphs_[-1], rng, level))
    quantifiers = ["forall" if (i % 2 == 0) == universal else "exists" for i in range(levels)]
    body = FALSE if quantifiers[-1] == "forall" else TRUE
    for i in reversed(range(levels)):
        a = inclusion(graphs_[i], graphs_[i + 1])
        body = forall(a, body) if quantifiers[i] == "forall" else Exists(a, body)
        if i and rng.random() < 0.3:
            side = inclusion(graphs_[i], _grown(graphs_[i], rng, 9))
            body = And(body, Not(Exists(side)))
    return body


def _random_deleting_rule(rng: random.Random, index: int) -> Rule:
    """A rule over ``LOOPS`` whose lhs has loops and parallel edges, that
    deletes some lhs nodes with all their edges and some other edges,
    under a nested application condition of one to three levels most of
    the time."""
    nodes = [("l0", "A"), *((f"l{i}", rng.choice("AB")) for i in range(1, rng.randint(1, 3)))]
    a_nodes = [v for v, t in nodes if t == "A"]
    b_nodes = [v for v, t in nodes if t == "B"]
    edges = []
    for i in range(rng.randint(1, 4)):
        if b_nodes and rng.random() < 0.3:
            edges.append((f"m{i}", "s", rng.choice(a_nodes), rng.choice(b_nodes)))
        else:
            src = rng.choice(a_nodes)
            edges.append((f"m{i}", "r", src, src if rng.random() < 0.5 else rng.choice(a_nodes)))
    edges += [(f"{e}p", t, x, y) for e, t, x, y in edges if rng.random() < 0.3]
    lhs = TypedGraph(LOOPS, nodes, edges)
    deleted = {v for v, _ in nodes if rng.random() < 0.5}
    kept_edges = [e for e, _, x, y in edges
                  if x not in deleted and y not in deleted and rng.random() < 0.7]
    interface = lhs.without(deleted, set(lhs.edge_ids) - set(kept_edges))
    condition = TRUE
    if rng.random() < 0.8:
        condition = _random_chain(rng, rng.randint(1, 3), rng.random() < 0.5, lhs)
    return Rule(f"d{index}", lhs, interface, interface, condition)


def _pins_a_bundle(node: Exists) -> bool:
    """Does an anchor edge share its signature with an edge the node adds?"""
    a = node.morphism
    pinned = set(a.edge_map.values())
    infos = {a.codomain.edge_info(e) for e in pinned}
    return any(a.codomain.edge_info(e) in infos
               for e in a.codomain.edge_ids if e not in pinned)


def _seeded_oracle(oracle, node_seed, edge_seed):
    return sorted(
        (m for m in oracle
         if all(m.node_map[v] == w for v, w in node_seed.items())
         and all(m.edge_map[e] == f for e, f in edge_seed.items())),
        key=GraphMorphism.sort_key,
    )


def _seeded(pattern, host, node_seed, edge_seed):
    """The seeded question as an extension: ``p`` maps the seeded nodes
    and the pinned edges with their ends as given, and ``a`` includes the
    anchor they span into ``pattern``. ``node_seed`` names the ends of
    every pinned edge."""
    anchor = TypedGraph(pattern.type_graph, [(v, pattern.node_type(v)) for v in node_seed],
                        [(e, *pattern.edge_info(e)) for e in edge_seed])
    return GraphMorphism(anchor, host, node_seed, edge_seed), inclusion(anchor, pattern)


def _with_ends(pattern, host, node_seed, edge_seed):
    """``node_seed`` with the ends of each pinned edge's pattern edge sent
    to those of its image, unless ``node_seed`` sends them elsewhere."""
    ends = {v: w for e, f in edge_seed.items()
            for v, w in zip(pattern.edge_info(e)[1:], host.edge_info(f)[1:])}
    return {**ends, **node_seed}


def _misplaced_pin(pattern, host, rng: random.Random):
    """A seed that sends the ends of a pattern edge to host nodes of their
    types and pins the edge to a host edge of its type that does not join
    them, or ``None`` when the host has no such choice."""
    if not pattern.edge_count:
        return None
    e = rng.choice(pattern.edge_ids)
    etype, src, tgt = pattern.edge_info(e)
    ends: dict[str, str] = {}
    for v in dict.fromkeys((src, tgt)):
        choices = [w for w in host.node_ids
                   if host.node_type(w) == pattern.node_type(v) and w not in ends.values()]
        if not choices:
            return None
        ends[v] = rng.choice(choices)
    off = [f for f in host.edge_ids
           if host.edge_info(f)[0] == etype and host.edge_info(f) != (etype, ends[src], ends[tgt])]
    return (ends, {e: rng.choice(off)}) if off else None


def _pins_fit(pattern, host, nodes, edge_seed) -> bool:
    """Does the image of each pinned edge have its type and join the
    images of its ends under ``nodes``?"""
    def image(etype, src, tgt):
        return etype, nodes[src], nodes[tgt]
    return all(host.edge_info(f) == image(*pattern.edge_info(e)) for e, f in edge_seed.items())


def _seeded_cases(rng: random.Random):
    """Patterns and hosts with parallel edges, their oracle morphisms and
    the seeds to try: random ones, then fixed bundles. Seeds with a
    misplaced pin come from a generator of their own, so the other seeds
    stay as they were."""
    pins = random.Random(61)
    for _ in range(300):
        tg = random_type_graph(rng, max_node_types=2, max_edge_types=2)
        pattern = with_parallel_edges(random_host(tg, rng, rng.randint(1, 3), 0.5), rng, 0.2)
        host = with_parallel_edges(random_host(tg, rng, rng.randint(2, 6), 0.4), rng, 0.4)
        oracle = monos_by_permutation(pattern, host)
        seeds = []
        for m in rng.sample(oracle, min(3, len(oracle))):
            nodes = [v for v in pattern.node_ids if rng.random() < 0.6]
            edges = [e for e in pattern.edge_ids if rng.random() < 0.3]
            seeds.append(({v: m.node_map[v] for v in nodes},
                          {e: m.edge_map[e] for e in edges}))
        # A seed drawn without regard to any occurrence, often wrongly typed.
        nodes = [v for v in pattern.node_ids if rng.random() < 0.5]
        if len(nodes) <= host.node_count:
            seeds.append((dict(zip(nodes, rng.sample(host.node_ids, len(nodes)))), {}))
        seeds.append(({}, {}))
        misplaced = _misplaced_pin(pattern, host, pins)
        if misplaced is not None:
            seeds.append(misplaced)
        yield pattern, host, oracle, seeds
    # Three parallel pattern edges over a bundle of four host edges, next
    # to a second signature group, with one edge of the bundle pinned.
    tg = TypeGraph(["T"], [("r", "T", "T")])
    pattern = TypedGraph(tg, [("u", "T"), ("v", "T")],
                         [("x0", "r", "u", "v"), ("x1", "r", "u", "v"), ("x2", "r", "u", "v"),
                          ("y", "r", "v", "u")])
    host = TypedGraph(tg, [("a", "T"), ("b", "T"), ("c", "T")],
                      [("e0", "r", "a", "b"), ("e1", "r", "a", "b"), ("e2", "r", "a", "b"),
                       ("e3", "r", "a", "b"), ("f0", "r", "b", "a"), ("f1", "r", "b", "a"),
                       ("g0", "r", "a", "c"), ("g1", "r", "c", "a")])
    oracle = monos_by_permutation(pattern, host)
    yield pattern, host, oracle, [({}, {"x1": "e2"}), ({"v": "b"}, {"x0": "e3", "y": "f1"})]
    # A pinned edge that joins the images of its ends, of the right type
    # or of another type with the same signature.
    tg = TypeGraph(["T"], [("r", "T", "T"), ("s", "T", "T")])
    pattern = TypedGraph(tg, [("u", "T"), ("v", "T")], [("x", "r", "u", "v")])
    host = TypedGraph(tg, [("a", "T"), ("b", "T")], [("e", "r", "a", "b"), ("f", "s", "a", "b")])
    oracle = monos_by_permutation(pattern, host)
    yield pattern, host, oracle, [({}, {"x": "e"}), ({}, {"x": "f"})]


def _compare_seeded_cases() -> None:
    compared = nonempty = misplaced = 0
    for pattern, host, oracle, seeds in _seeded_cases(random.Random(53)):
        for node_seed, edge_seed in seeds:
            want = _seeded_oracle(oracle, node_seed, edge_seed)
            nodes = _with_ends(pattern, host, node_seed, edge_seed)
            misplaced += not _pins_fit(pattern, host, nodes, edge_seed)
            p, a = _seeded(pattern, host, nodes, edge_seed)
            got = conditions.extensions(p, a)
            assert got == want, (pattern.edge_items(), host.edge_items(), node_seed)
            lazy = list(conditions.iter_extensions(p, a))
            assert len(lazy) == len(want)
            assert sorted(lazy, key=GraphMorphism.sort_key) == want
            compared += 1
            nonempty += bool(want)
    assert compared >= 600 and nonempty >= 300 and misplaced >= 100


class TestCanonicalOrderFromImages:
    """Unseeded enumeration sorts the keys, each one tuple of the node and
    then the edge images over the sorted pattern ids, and reports read
    their keys off the maps."""

    def test_unseeded_enumeration_sorts_the_image_tuples(self):
        seen: Counter = Counter()
        rng = random.Random(59)
        cases = []
        for pattern, host, oracle, _ in _seeded_cases(random.Random(53)):
            cases.append((pattern, host, oracle))
            # The same pattern with its edge ids shuffled.
            ids = list(pattern.edge_ids)
            rng.shuffle(ids)
            shuffled = TypedGraph(pattern.type_graph, pattern.node_items(),
                                  [(x, *info) for x, (_, *info) in zip(ids, pattern.edge_items())])
            cases.append((shuffled, host, monos_by_permutation(shuffled, host)))
        # Edge ids sorted against their signature groups ("a" of type s
        # after the group of type r), a loop, and a parallel bundle.
        tg = TypeGraph(["T", "U"], [("r", "T", "T"), ("s", "T", "U")])
        pattern = TypedGraph(tg, [("u", "T"), ("v", "T"), ("w", "U")],
                             [("a", "s", "v", "w"), ("b", "r", "u", "v"), ("c", "r", "u", "u"),
                              ("d", "r", "u", "v")])
        host = TypedGraph(tg, [("p", "T"), ("q", "T"), ("x", "U"), ("y", "U")],
                          [("e0", "r", "p", "q"), ("e1", "r", "p", "q"), ("e2", "r", "p", "q"),
                           ("e3", "r", "p", "p"), ("e4", "s", "q", "x"), ("e5", "s", "q", "y"),
                           ("e6", "r", "q", "p"), ("e7", "r", "q", "q")])
        cases.append((pattern, host, monos_by_permutation(pattern, host)))
        for pattern, host, oracle in cases:
            got = enumerate_monomorphisms(pattern, host)
            assert got == sorted(oracle, key=GraphMorphism.sort_key), pattern.edge_items()
            assert [m.sort_key() for m in got] == sorted(graphs._images(pattern, host))
            for m in got:
                assert (tuple(m.node_map), tuple(m.edge_map)) == (pattern.node_ids,
                                                                  pattern.edge_ids)
                assert (*m.node_map.values(), *m.edge_map.values()) == m.sort_key()
            if got:
                infos = [info for _, *info in pattern.edge_items()]
                # The search assigns edges group by group, in an order
                # other than that of the sorted edge ids.
                groups = graphs._plan(pattern, frozenset()).groups
                seen["reordered"] += (tuple(e for _, p_edges in groups for e in p_edges)
                                      != pattern.edge_ids)
                seen["bundle"] += len(set(map(tuple, infos))) < len(infos)
                seen["loop"] += any(src == tgt for _, src, tgt in infos)
                seen["one node"] += pattern.node_count == 1 and not infos
        assert seen["reordered"] >= 20 and seen["bundle"] >= 15 and seen["loop"] >= 80, seen
        assert seen["one node"] >= 50, seen

    def test_unseeded_search_over_several_functions(self):
        # More pattern loops than one generated function nests loops, so
        # the unseeded search goes on in continuation functions. Each node
        # has a type of its own, so the oracle tries few node assignments:
        # two host nodes of each of the first three types, one of the rest.
        n = graphs._LOOPS_PER_FUNCTION + 1
        types = [f"T{i:02d}" for i in range(n)]
        tg = TypeGraph(types, [(f"l{t}", t, t) for t in types])
        pattern = TypedGraph(tg, [(f"v{t}", t) for t in types],
                             [(f"e{t}", f"l{t}", f"v{t}", f"v{t}") for t in types])
        nodes = [(f"h{t}", t) for t in types] + [(f"k{t}", t) for t in types[:3]]
        edges = [(f"x{t}", f"l{t}", f"h{t}", f"h{t}") for t in types]
        edges += [(f"y{t}{j}", f"l{t}", f"k{t}", f"k{t}") for t in types[:3] for j in (0, 1)]
        host = TypedGraph(tg, nodes, edges)
        assert "def s1(" in graphs._search_source(pattern, "search", (), ())[0]
        got = enumerate_monomorphisms(pattern, host)
        assert got == sorted(monos_by_permutation(pattern, host), key=GraphMorphism.sort_key)
        assert len(got) == 3 ** 3
        # A host node of a type without its loop is no candidate.
        bare = TypedGraph(tg, nodes + [(f"z{t}", t) for t in types], edges)
        assert ([m.sort_key() for m in enumerate_monomorphisms(pattern, bare)]
                == [m.sort_key() for m in got])

    def test_unseeded_search_on_a_host_without_a_pattern_type(self):
        tg = TypeGraph(["A", "B"], [("r", "A", "B")])
        pattern = TypedGraph(tg, [("a", "A"), ("b", "B")], [("e", "r", "a", "b")])
        for host in (TypedGraph(tg, [("p", "A"), ("q", "A")]),
                     TypedGraph(tg, [("q", "B")]),
                     TypedGraph(tg, [("p", "A"), ("q", "B")]),
                     TypedGraph(tg)):
            assert enumerate_monomorphisms(pattern, host) == []
            assert monos_by_permutation(pattern, host) == []
            assert list(graphs._images(pattern, host)) == []

    def test_unseeded_search_refuses_another_type_graph(self):
        tg = TypeGraph(["A"], [("r", "A", "A")])
        other = TypeGraph(["A"], [("s", "A", "A")])
        host = TypedGraph(other, [("p", "A")], [("x", "s", "p", "p")])
        for pattern in (TypedGraph(tg, [("a", "A")]),
                        TypedGraph(tg, [("a", "A"), ("b", "A")], [("e", "r", "a", "b")])):
            with pytest.raises(MismatchError):
                enumerate_monomorphisms(pattern, host)
            with pytest.raises(MismatchError):
                graphs._images(pattern, host)
        # Equal type graphs are one vocabulary, however they were built.
        same = TypeGraph(["A"], [("r", "A", "A")])
        pattern = TypedGraph(tg, [("a", "A")], [("e", "r", "a", "a")])
        host = TypedGraph(same, [("p", "A")], [("x", "r", "p", "p")])
        assert [m.sort_key() for m in enumerate_monomorphisms(pattern, host)] == [("p", "x")]

    def test_flat_keys_sort_as_the_pairs_of_image_tuples(self, fixtures):
        """A key is one tuple: the node images over the sorted pattern node
        ids, then the edge images over the sorted edge ids. Keys of one
        pattern have one length, so sorting them gives the order of the
        pairs of node and edge image tuples, read here off the maps; and
        ``from_key`` inverts ``sort_key``."""
        # The patterns of the seeded search tests have loops and parallel
        # edges; the random suites' are mostly edgeless.
        cases = [(pattern, host) for pattern, host, _, _ in _seeded_cases(random.Random(53))]
        for constraint, _, transformations, rule, host in random_step_cases(250, seed=101):
            pattern = constraint.shape.outer_graph
            cases += [(pattern, host), (rule.lhs, host),
                      *((pattern, t.result) for t in transformations)]
        model = seeded_cra_model(fixtures.type_graph, random.Random(1))
        cases += [(c.shape.outer_graph, model) for c in fixtures.constraint_list()]
        cases += [(rule.lhs, model) for rule in fixtures.rule_list()]
        seen: Counter = Counter()
        for pattern, host in cases:
            got = enumerate_monomorphisms(pattern, host)
            keys = [m.sort_key() for m in got]
            pairs = [(tuple(m.node_map[v] for v in pattern.node_ids),
                      tuple(m.edge_map[e] for e in pattern.edge_ids)) for m in got]
            assert keys == sorted(keys)
            assert sorted(keys) == [nodes + edges for nodes, edges in sorted(pairs)]
            assert all(len(key) == pattern.node_count + pattern.edge_count for key in keys)
            assert [GraphMorphism.from_key(pattern, host, key) for key in keys] == got
            if len(keys) > 1:
                seen["several"] += 1
                seen["with edges"] += pattern.edge_count > 0
                seen["keys"] += len(keys)
        assert seen["several"] >= 250 and seen["with edges"] >= 80, seen
        assert seen["keys"] > 20_000, seen

    def test_reports_store_the_keys_of_the_oracle_violations(self):
        """A report keeps the key of each violating occurrence that the
        permutation oracles find, in canonical order, and builds the
        occurrences from them; ``from_key`` inverts ``sort_key``; a report
        built by hand from the same measurement equals the engine's."""
        keys = 0
        for constraint, before, transformations, _, _ in random_step_cases(250, seed=101):
            shape = constraint.shape
            for report in (before, *(consistency_report(t.result, constraint)
                                     for t in transformations)):
                occurrences = monos_by_permutation(shape.outer_graph, report.graph)
                memo: dict = {}
                hits = sorted((p for p in occurrences
                               if satisfies_by_permutation(p, shape.body, memo)),
                              key=GraphMorphism.sort_key)
                if report.polarity == conditions.UNIVERSAL:
                    want, ncv = tuple(p.sort_key() for p in hits), len(hits)
                else:
                    hits, want, ncv = [], (), 0 if hits else 1
                assert report.violating_keys == want
                assert report.violating_occurrences == tuple(hits)
                for key in want:
                    m = GraphMorphism.from_key(report.pattern, report.graph, key)
                    assert m.sort_key() == key
                hand = conditions.ConsistencyReport(
                    constraint.name, shape.polarity, len(occurrences), ncv, want)
                assert hand == report and (hand.ro, hand.ci) == (report.ro, report.ci)
                keys += sum(len(key) > 1 for key in want)
        assert keys >= 100, keys


class _CountingTriples(dict):
    """A host's edge index that counts its lookups, as generated code
    reads the index itself and ``edges_with_signature`` through ``get``."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class TestSeededEnumerationAgainstOracle:
    def test_random_seeds_with_parallel_edges(self):
        _compare_seeded_cases()

    def test_random_seeds_split_over_several_functions(self, monkeypatch):
        """With one loop per generated function, searches of two or more
        loops yield from a further function."""
        split = Counter()
        source = graphs._search_source

        def counting(*args):
            text, constants = source(*args)
            split[args[1]] += "yield from s1(" in text
            return text, constants

        monkeypatch.setattr(graphs, "_LOOPS_PER_FUNCTION", 1)
        monkeypatch.setattr(graphs, "_search_source", counting)
        _compare_seeded_cases()
        assert split["search"] >= 150 and not split["exists"], split

    def test_seed_contract(self):
        """An anchor occurrence with a wrongly typed or absent image, or a
        pinned edge whose image does not join the images of its ends,
        extends to nothing; consistent pins extend as the oracle says."""
        tg = TypeGraph(["A", "B"], [("r", "A", "A"), ("s", "A", "B")])
        pattern = TypedGraph(tg, [("u", "A"), ("v", "A"), ("w", "B")],
                             [("x", "r", "u", "v"), ("y", "s", "v", "w")])
        host = TypedGraph(tg, [("a", "A"), ("b", "A"), ("c", "B"), ("d", "A")],
                          [("e1", "r", "a", "b"), ("e2", "s", "b", "c"), ("e3", "r", "d", "a"),
                           ("e4", "r", "a", "b"), ("e5", "s", "a", "c")])
        oracle = monos_by_permutation(pattern, host)
        empty = [
            ({"u": "c"}, {}),  # wrongly typed images
            ({"u": "b", "v": "c"}, {"x": "e2"}),
            ({"u": "gone"}, {}),  # absent host elements
            ({"v": "b", "w": "c"}, {"y": "gone"}),
            ({"u": "a", "v": "b"}, {"x": "e3"}),  # a pin that misses its ends' images
        ]
        pinned = [
            ({"u": "a", "v": "b"}, {"x": "e4"}),
            ({"u": "a", "v": "b", "w": "c"}, {"y": "e2", "x": "e1"}),
            ({"u": "d", "v": "a", "w": "c"}, {"x": "e3"}),
        ]
        for node_seed, edge_seed in empty + pinned:
            want = _seeded_oracle(oracle, node_seed, edge_seed)
            assert bool(want) == ((node_seed, edge_seed) in pinned)
            p, a = _seeded(pattern, host, node_seed, edge_seed)
            assert conditions.extensions(p, a) == want
            lazy = list(conditions.iter_extensions(p, a))
            assert sorted(lazy, key=GraphMorphism.sort_key) == want

    def test_stopping_a_seeded_search_stops_its_probes(self):
        """The first of 9 900 extensions of the centre of a star, or of 99
        of one of its spokes, leaves the rest unprobed."""
        tg = TypeGraph(["A", "B"], [("s", "A", "B")])
        star = TypedGraph(tg, [("a", "A"), ("b1", "B"), ("b2", "B")],
                          [("x1", "s", "a", "b1"), ("x2", "s", "a", "b2")])
        host = TypedGraph(tg, [("h", "A"), *((f"k{i:03d}", "B") for i in range(100))],
                          [(f"e{i:03d}", "s", "h", f"k{i:03d}") for i in range(100)])
        host._triples = _CountingTriples(host._triples)
        for node_seed, edge_seed, count, ratio in (({"a": "h"}, {}, 9900, 1000),
                                                   ({"a": "h", "b1": "k000"}, {"x1": "e000"},
                                                    99, 10)):
            p, a = _seeded(star, host, node_seed, edge_seed)
            host._triples.lookups = 0
            assert next(conditions.iter_extensions(p, a), None) is not None
            first = host._triples.lookups
            host._triples.lookups = 0
            assert len(list(conditions.iter_extensions(p, a))) == count
            assert first * ratio < host._triples.lookups, (first, host._triples.lookups)

    def test_pinned_edges_seed_their_endpoints(self):
        """A pinned edge's ends are in the anchor, so the search tests the
        pin by its image without the edge index; a pin whose image does
        not join the images of its ends, or is absent, leaves nothing."""
        tg = TypeGraph(["T"], [("r", "T", "T")])
        pattern = TypedGraph(tg, [("u", "T"), ("v", "T")], [("x", "r", "u", "v")])
        ids = [f"n{i:03d}" for i in range(200)]
        host = TypedGraph(tg, [(v, "T") for v in ids],
                          [(f"e{i:03d}", "r", ids[i], ids[i + 1]) for i in range(199)])
        host._triples = _CountingTriples(host._triples)
        p, a = _seeded(pattern, host, {"u": "n100", "v": "n101"}, {"x": "e100"})
        [m] = conditions.iter_extensions(p, a)
        assert (m.node_map, m.edge_map) == ({"u": "n100", "v": "n101"}, {"x": "e100"})
        assert host._triples.lookups == 0

        three = TypedGraph(tg, [("a", "T"), ("b", "T"), ("c", "T")],
                           [("f1", "r", "a", "b"), ("f2", "r", "b", "a"), ("f3", "r", "a", "a")])
        chain = pattern.with_added([("w", "T")], [("y", "r", "v", "w")])
        for pat, node_seed, edge_seed in ((pattern, {"u": "b", "v": "a"}, {"x": "f1"}),
                                          (pattern, {"u": "a", "v": "b"}, {"x": "f3"}),
                                          (chain, {"u": "a", "v": "b", "w": "c"},
                                           {"x": "f1", "y": "f2"}),
                                          (pattern, {"u": "a", "v": "b"}, {"x": "gone"})):
            assert list(conditions.iter_extensions(*_seeded(pat, three, node_seed,
                                                            edge_seed))) == []

    def test_each_pin_is_tested_once(self, fixtures):
        """In the search of each existential node of the CRA conditions, one
        test of the source reads a pinned edge: the one that compares its
        image's entry with the edge's type and the images of its ends. No
        other test names the image or probes that signature."""
        pins = 0
        conditions_ = [c.condition for c in fixtures.constraint_list()]
        conditions_ += [r.condition for r in fixtures.rule_list()]
        for node in (n for c in conditions_ for n in _exists_nodes(c)):
            source = _check_source(node)
            tests = [line.strip() for line in source.splitlines()
                     if line.lstrip().startswith("if ")]
            for i in range(node.morphism.domain.edge_count):
                [test] = [t for t in tests if re.search(rf"\bf{i}\b", t)]
                signature = re.fullmatch(rf"if he\.get\(f{i}\) != (\(.*\)):", test)
                assert signature, source
                assert [t for t in tests if signature[1] in t] == [test], source
                pins += 1
        assert pins >= 4

    def test_parallel_edges_give_each_neighbour_once(self):
        tg = TypeGraph(["T"], [("r", "T", "T")])
        pattern = TypedGraph(tg, [("u", "T"), ("v", "T")], [("x", "r", "u", "v")])
        host = TypedGraph(tg, [("a", "T"), ("b", "T")],
                          [("e1", "r", "a", "b"), ("e2", "r", "a", "b")])
        for node_seed in ({"u": "a"}, {"v": "b"}):
            found = list(conditions.iter_extensions(*_seeded(pattern, host, node_seed, {})))
            assert sorted(m.edge_map["x"] for m in found) == ["e1", "e2"]


def test_lean_rewrite_agrees_with_validated_apply():
    steps = 0
    for _, _, transformations, _, _ in random_step_cases(n_cases=250, seed=101):
        for t in transformations:
            lean = _rewrite(t.rule, t.host, t.match, t.step)
            assert lean.result == t.result
            assert lean.comatch == t.comatch
            assert lean.result == dpo_by_sets(t.rule, t.host, t.match, t.step)
            context = t.host.without(
                {t.match.node_map[v] for v in t.rule.deleted_nodes},
                {t.match.edge_map[e] for e in t.rule.deleted_edges},
            )
            for s in (lean, t):
                assert s.context == context
                assert s.host_embedding == inclusion(context, t.host)
                assert s.result_embedding == inclusion(context, t.result)
                assert s.track == GraphMorphism(
                    t.host, t.result,
                    {n: n for n in context.node_ids},
                    {e: e for e in context.edge_ids},
                )
            steps += 1
    assert steps >= 150


def _scan_agrees_with_oracle(rule, host) -> tuple[int, int, int]:
    """The scan's kept keys and rejection counts against
    :func:`scan_by_permutation`; returns the three counts."""
    scan = scan_matches(rule, host)
    got = (list(scan.keys), scan.rejected_by_condition, scan.rejected_by_dangling)
    assert got == scan_by_permutation(rule, host), (rule.name, host.edge_items())
    return len(scan.keys), scan.rejected_by_condition, scan.rejected_by_dangling


class TestScanAgainstOracle:
    """``scan_matches`` sorts the image tuples of the compiled lhs search
    and tests each with the condition's predicate, then with the degree
    test for gluing; the oracle finds the occurrences by permutation and
    tests the condition and gluing from the definitions."""

    def test_seeded_random_step_suite(self):
        totals = [0, 0, 0]
        for _, _, _, rule, host in random_step_cases(250, seed=101):
            totals = [t + n for t, n in zip(totals, _scan_agrees_with_oracle(rule, host))]
        assert all(totals), totals

    def test_random_rules_deleting_nodes_with_loops_and_parallel_edges(self):
        """Nested application conditions, and gluing at deleted nodes
        whose lhs edges include loops and parallel edges."""
        rng = random.Random(83)
        totals = [0, 0, 0]
        seen: Counter = Counter()
        for index in range(400):
            rule = _random_deleting_rule(rng, index)
            lhs = rule.lhs
            for v in rule.deleted_nodes:
                ends = [(t, x, y) for _, t, x, y in lhs.edge_items() if v in (x, y)]
                seen["loop"] += any(x == y for _, x, y in ends)
                seen["parallel"] += len(ends) > len(set(ends))
            seen["nested"] += sum(node.sub != TRUE for node in _exists_nodes(rule.condition))
            for _ in range(3):
                host = with_parallel_edges(
                    random_host(LOOPS, rng, rng.randint(2, 4), 0.6), rng, 0.4)
                totals = [t + n for t, n in zip(totals, _scan_agrees_with_oracle(rule, host))]
        assert min(totals) >= 80, totals
        assert min(seen.values()) >= 200, seen

    def test_cra_rules_on_their_bound_four_universes(self, fixtures):
        totals = [0, 0, 0]
        for host in bounded_hosts(fixtures.type_graph, 4):
            for rule in fixtures.rule_list():
                totals = [t + n for t, n in zip(totals, _scan_agrees_with_oracle(rule, host))]
        # The CRA conditions refuse every match the gluing test would.
        assert totals[0] and totals[1], totals

    def test_parallel_edges_in_two_signature_groups(self):
        # The search assigns edge group x (pattern edge b) outside group y
        # (pattern edge a), so its yields are not in canonical order.
        tg = TypeGraph(["A"], [("x", "A", "A"), ("y", "A", "A")])
        lhs = TypedGraph(tg, [("u", "A"), ("v", "A")],
                         [("a", "y", "u", "v"), ("b", "x", "u", "v")])
        host = TypedGraph(tg, [("n1", "A"), ("n2", "A")],
                          [("x1", "x", "n1", "n2"), ("x2", "x", "n1", "n2"),
                           ("y1", "y", "n1", "n2"), ("y2", "y", "n1", "n2")])
        assert _scan_agrees_with_oracle(Rule("keep", lhs, lhs, lhs), host) == (4, 0, 0)

    def test_cra_rules_on_the_seeded_160_node_model(self, fixtures):
        host = seeded_cra_model(fixtures.type_graph, random.Random(1))
        counts = {rule.name: _scan_agrees_with_oracle(rule, host)
                  for rule in fixtures.rule_list()}
        assert counts["moveFeature"][0] > 10_000
        assert all(kept for kept, _, _ in counts.values()), counts


class TestSkippedWork:
    def test_reads_never_materialize_extensions(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("extensions were materialized")

        source = graphs._search_source
        compiled = []

        def no_seeded_search(pattern, form, nodes, edges):
            assert form == "exists" or not nodes, "a seeded search form was compiled"
            if form == "exists":
                compiled.append(pattern)
            return source(pattern, form, nodes, edges)

        # Existence checks of the CRA conditions all have a TRUE
        # sub-condition, so a read compiles the exists form for them and
        # the extension API does not run. Outer searches have no seed,
        # whichever engine runs them. Fresh fixtures hold no compiled
        # search yet.
        for name in ("extensions", "iter_extensions"):
            monkeypatch.setattr(conditions, name, refuse)
        monkeypatch.setattr(graphs, "_search_source", no_seeded_search)
        fresh = cra.build_fixtures()
        rng = random.Random(5)
        for host in (fresh.host, random_host(fresh.type_graph, rng, 12, 0.3)):
            for rule in fresh.rule_list():
                scan_matches(rule, host)
            for c in fresh.constraint_list():
                consistency_report(host, c)
        assert len(compiled) >= 4

    def test_building_and_parsing_compile_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a search was compiled")

        monkeypatch.setattr(graphs, "_search_factory", refuse)
        for fx in (cra.build_fixtures(), cra.load_fixtures()):
            nodes = []
            for c in fx.constraint_list():
                assert c.shape.level >= 1
                nodes += _exists_nodes(c.condition)
            for rule in fx.rule_list():
                nodes += _exists_nodes(rule.condition)
            assert len(nodes) >= 8
            assert not any("_check" in vars(node) for node in nodes)

    def test_same_shaped_conditions_share_one_code_object(self):
        built, loaded = cra.build_fixtures(), cra.load_fixtures()
        conditions_ = [(c.condition, d.condition)
                       for c, d in zip(built.constraint_list(), loaded.constraint_list())]
        conditions_ += [(r.condition, s.condition)
                        for r, s in zip(built.rule_list(), loaded.rule_list())]
        pairs = [pair for ours, theirs in conditions_
                 for pair in zip(_exists_nodes(ours), _exists_nodes(theirs))]
        assert len(pairs) >= 8
        for ours, theirs in conditions_:
            # Every node's predicate, composed or compiled, shares its code.
            nodes = list(zip(_nodes(ours), _nodes(theirs)))
            assert len(nodes) == len(list(_nodes(ours)))
            for mine, other in nodes:
                assert mine._predicate.__code__ is other._predicate.__code__
        forms = Counter()
        for ours, theirs in pairs:
            assert ours is not theirs and ours._check is not theirs._check
            assert ours._check.__code__ is theirs._check.__code__
            # The seeds are read at the same positions of the anchor's key.
            assert _anchor_keys(ours.morphism) == _anchor_keys(theirs.morphism)
            forms[ours.sub == TRUE] += 1
            if ours.sub != TRUE:
                # The extension API along the same morphism runs this search.
                a = ours.morphism
                assert ours._check is graphs._search(a.codomain, "search", *_anchor_keys(a))
        assert forms[True] and forms[False], forms

    def test_the_factory_cache_keeps_every_source_it_compiled(self):
        """After more than 256 distinct sources, the first one is still
        cached: a search of the same shape on new objects compiles nothing."""
        tg = TypeGraph(["T"], [("r", "T", "T")])

        def scan_a_path():
            # A new graph holds no plan, so the scan asks the factory.
            path = TypedGraph(tg, [(f"v{i}", "T") for i in range(6)],
                              [(f"e{i}", "r", f"v{i}", f"v{i + 1}") for i in range(5)])
            scan_matches(Rule("keep", path, path, path), path)

        info = graphs._search_factory.cache_info
        graphs._search_factory.cache_clear()
        scan_a_path()
        assert info().misses == 1
        rng = random.Random(1)
        for index in range(3000):
            if info().misses > 257:
                break
            tg_r = random_type_graph(rng)
            constraint = random_linear_constraint(tg_r, rng, f"c{index}", max_level=3)
            consistency_report(random_host(tg_r, rng, 5, 0.4), constraint)
        misses = info().misses
        assert misses > 257
        scan_a_path()
        assert info().misses == misses

    def test_reports_use_the_traced_name_and_scans_build_no_morphism(self, fixtures, monkeypatch):
        # Reports enumerate through the name that the benchmark tracer
        # wraps, once per constraint.
        calls: Counter = Counter()

        def counting(*args, _inner=conditions.enumerate_monomorphisms, **kwargs):
            calls["enumerate"] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(conditions, "enumerate_monomorphisms", counting)
        for c in fixtures.constraint_list():
            consistency_report(fixtures.host, c)
        assert calls["enumerate"] == len(fixtures.constraint_list())

        # A scan runs the compiled lhs search and keeps image tuples: it
        # builds no morphism, and reading its matches builds one per key.
        built: Counter = Counter()

        def counting_init(self, *args, _inner=GraphMorphism.__init__, **kwargs):
            built["morphisms"] += 1
            _inner(self, *args, **kwargs)

        monkeypatch.setattr(GraphMorphism, "__init__", counting_init)
        rng = random.Random(5)
        kept = rejected = 0
        for host in (fixtures.host, random_host(fixtures.type_graph, rng, 12, 0.3)):
            for rule in fixtures.rule_list():
                scan = scan_matches(rule, host)
                assert not built
                assert [m.sort_key() for m in scan.matches] == list(scan.keys)
                assert built.pop("morphisms", 0) == len(scan.keys)
                kept += len(scan.keys)
                rejected += scan.rejected_by_condition + scan.rejected_by_dangling
        assert kept and rejected

    def test_rule_search_compiles_each_plan_once_and_skips_validation(self, monkeypatch):
        compiled: Counter = Counter()

        class CountingPlan(graphs._Plan):
            __slots__ = ()

            def __init__(self, pattern, seeded):
                compiled[(id(pattern), seeded)] += 1
                super().__init__(pattern, seeded)

        def refuse(*args, **kwargs):
            raise AssertionError("match validation ran")

        monkeypatch.setattr(graphs, "_Plan", CountingPlan)
        monkeypatch.setattr(rewriting, "_check_match", refuse)
        fresh = cra.build_fixtures()
        for c in fresh.constraint_list():
            classify_rule_empirical(fresh.rules["moveFeature"], c, bound=3, samples=10)
        assert len(compiled) >= 4
        assert max(compiled.values()) == 1

    def test_rule_search_records_only_kept_steps(self, monkeypatch):
        # Steps are judged on their raw parts; a Transformation and a
        # StepVerdict are built once for each step that becomes the first
        # counterexample or witness of a claim, so at most 7 per call.
        built: Counter = Counter()
        for module, name in ((classify, "Transformation"), (rewriting, "Transformation"),
                             (classify, "StepVerdict")):
            def counting(*args, _name=name, _inner=getattr(module, name), **kwargs):
                built[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        fresh = cra.build_fixtures()
        steps = 0
        for rule in fresh.rule_list():
            for c in fresh.constraint_list():
                built.clear()
                result = classify_rule_empirical(rule, c, bound=3, samples=10)
                kept = {id(claim.transformation) for claim in result.claims.values()
                        if claim.transformation is not None}
                assert built["Transformation"] == built["StepVerdict"] == len(kept) <= 7
                steps += result.steps_examined
        assert steps >= 1000

    def test_comatch_is_built_on_first_access(self):
        steps = 0
        for _, _, transformations, _, _ in random_step_cases(n_cases=250, seed=101):
            for t in transformations:
                assert "comatch" not in vars(t)
                assert t.comatch == comatch_by_sets(t)
                steps += 1
        assert steps >= 150
        # Fresh ids that collide with kept host elements, and one that
        # reuses the id of the node the step removes.
        tg = TypeGraph(["T"], [("r", "T", "T")])
        lhs = TypedGraph(tg, [("x", "T")])
        rhs = TypedGraph(tg, [("x", "T"), ("y", "T")], [("e", "r", "x", "y")])
        grow = Rule("grow", lhs, lhs, rhs)
        host = TypedGraph(tg, [("a", "T"), ("grow.0.y", "T"), ("grow.0.y~0", "T")],
                          [("grow.0.e", "r", "a", "a")])
        t = _rewrite(grow, host, enumerate_monomorphisms(lhs, host)[0], 0)
        assert t.comatch == comatch_by_sets(t)
        assert dict(t.comatch.node_map) == {"x": "a", "y": "grow.0.y~1"}
        assert dict(t.comatch.edge_map) == {"e": "grow.0.e~0"}
        swap = Rule("swap", lhs, TypedGraph(tg), TypedGraph(tg, [("z", "T")]))
        host = TypedGraph(tg, [("swap.0.z", "T")])
        t = _rewrite(swap, host, enumerate_monomorphisms(lhs, host)[0], 0)
        assert t.comatch == comatch_by_sets(t)
        assert dict(t.comatch.node_map) == {"z": "swap.0.z"}

    def test_stopping_an_unseeded_search_stops_its_probes(self, fixtures):
        host = random_host(fixtures.type_graph, random.Random(7), 100, 0.03)
        host._triples = probes = _CountingTriples(host._triples)
        pattern = fixtures.constraints["c3"].shape.outer_graph
        assert next(graphs._images(pattern, host), None) is not None
        first, probes.lookups = probes.lookups, 0
        every = list(graphs._images(pattern, host))
        assert len(every) > 1
        assert first * 10 < probes.lookups, (first, probes.lookups)


class TestDeepPatterns:
    def test_path_longer_than_the_recursion_limit(self, tmp_path, capsys):
        n = 600
        assert 2 * n > sys.getrecursionlimit()
        # Sorted ids follow the path. The start node's own type leaves the
        # first step one candidate, so the unseeded search stays quadratic.
        tg = TypeGraph(["Start", "N"], [("first", "Start", "N"), ("next", "N", "N")])
        ids = [f"n{i:04d}" for i in range(n)]
        path = TypedGraph(
            tg,
            [(ids[0], "Start"), *((v, "N") for v in ids[1:])],
            [(f"e{i:04d}", "first" if i == 0 else "next", ids[i], ids[i + 1])
             for i in range(n - 1)],
        )
        [m] = enumerate_monomorphisms(path, path)
        assert all(m.node_map[v] == v for v in ids)

        (tmp_path / "path.json").write_text(emit_graph_document(path))
        no_path = Constraint("noPath", forall(empty_morphism_into(path)))
        (tmp_path / "no_path.json").write_text(emit_constraint_document(no_path))
        code = main(["report", str(tmp_path / "path.json"), str(tmp_path / "no_path.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("noPath: universal, occurrences=1, relevant=1, violations=1")

    def test_existence_checks_on_long_patterns(self, tmp_path, capsys):
        n = 600
        tg = TypeGraph(["Start", "N"], [("first", "Start", "N"), ("next", "N", "N")])
        ids = [f"n{i:04d}" for i in range(n)]
        path = _path(tg, ids)
        no_path = Constraint("noPath", forall(empty_morphism_into(path)))
        broken = path.without(edge_ids=["e0300"])
        assert not graph_satisfies(path, no_path) and graph_satisfies(broken, no_path)
        (tmp_path / "path.json").write_text(emit_graph_document(path))
        (tmp_path / "no_path.json").write_text(emit_constraint_document(no_path))
        assert main(["satisfy", str(tmp_path / "path.json"), str(tmp_path / "no_path.json")]) == 0
        assert capsys.readouterr().out == "noPath: violated\n"

        # A rule whose NAC forbids a path of 30 nodes from its start node,
        # over starts with paths of 29, 30 and 40 nodes; and a check whose
        # sub-condition asks for one node more than its 30-node pattern.
        lhs = TypedGraph(tg, [("p00", "Start")])
        nac = _path(tg, [f"p{i:02d}" for i in range(30)])
        longer = _path(tg, [f"p{i:02d}" for i in range(31)])
        rule = Rule("mark", lhs, lhs, lhs, Not(Exists(inclusion(lhs, nac))))
        reaches = Exists(inclusion(lhs, nac), Exists(inclusion(nac, longer)))
        chains = [[f"c{c}x{i:02d}" for i in range(size)] for c, size in enumerate((29, 30, 40))]
        host = TypedGraph(tg, [(v, "Start" if i == 0 else "N") for chain in chains
                               for i, v in enumerate(chain)],
                          [e for c, chain in enumerate(chains) for e in _path_edges(chain, f"c{c}")])
        scan = scan_matches(rule, host)
        assert [m.node_map["p00"] for m in scan.matches] == ["c0x00"]
        assert scan.rejected_by_condition == 2
        verdicts = [satisfies(GraphMorphism(lhs, host, {"p00": chain[0]}, {}), reaches)
                    for chain in chains]
        assert verdicts == [False, False, True]


    def test_seeded_searches_on_long_patterns(self):
        """Seeded at either end, the 600-node path finds itself through a
        search split over 101 generated functions."""
        n = 600
        tg = TypeGraph(["Start", "N"], [("first", "Start", "N"), ("next", "N", "N")])
        ids = [f"n{i:04d}" for i in range(n)]
        path = _path(tg, ids)
        identity = inclusion(path, path)
        end = TypedGraph(tg, [(ids[-1], "N")])
        p = GraphMorphism(end, path, {ids[-1]: ids[-1]}, {})
        assert conditions.extensions(p, inclusion(end, path)) == [identity]
        start = TypedGraph(tg, [(ids[0], "Start")])
        p = GraphMorphism(start, path, {ids[0]: ids[0]}, {})
        assert conditions.extensions(p, inclusion(start, path)) == [identity]
        broken = path.without(edge_ids=["e0300"])
        q = GraphMorphism(start, broken, {ids[0]: ids[0]}, {})
        assert conditions.extensions(q, inclusion(start, path)) == []


def _path_edges(ids: list[str], prefix: str = "e") -> list[tuple[str, str, str, str]]:
    return [(f"{prefix}{i:04d}", "first" if i == 0 else "next", ids[i], ids[i + 1])
            for i in range(len(ids) - 1)]


def _path(tg: TypeGraph, ids: list[str]) -> TypedGraph:
    """A path whose first node is a Start and the rest are N."""
    return TypedGraph(tg, [(ids[0], "Start"), *((v, "N") for v in ids[1:])], _path_edges(ids))
