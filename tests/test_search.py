"""The anchored, lazy existence search and the vetted rewrite step.

Existence checks run one seeded search that stops at the first witness,
and the rule search rewrites at matches the scan has just vetted. Both
are checked against the permutation oracles and the validated paths they
stand in for, and guards make sure the work they skip stays skipped.
"""

import random
import sys
from collections import Counter

from gradcons import (
    And,
    Exists,
    GraphMorphism,
    Not,
    TypedGraph,
    TypeGraph,
    classify_rule_empirical,
    consistency_report,
    cra,
    enumerate_monomorphisms,
    inclusion,
    satisfies,
    scan_matches,
)
from gradcons import conditions, graphs, rewriting
from gradcons.cli import main
from gradcons.conditions import Constraint, forall
from gradcons.formats import emit_constraint_document, emit_graph_document
from gradcons.generate import random_host, random_type_graph
from gradcons.graphs import empty_morphism_into, iter_monomorphisms
from gradcons.rewriting import _rewrite

from .oracles import dpo_by_sets, monos_by_permutation, satisfies_by_permutation
from .suites import random_step_cases


def _exists_nodes(condition):
    if isinstance(condition, Exists):
        yield condition
        yield from _exists_nodes(condition.sub)
    elif isinstance(condition, Not):
        yield from _exists_nodes(condition.sub)
    elif isinstance(condition, And):
        yield from _exists_nodes(condition.left)
        yield from _exists_nodes(condition.right)


def _check_every_exists(condition, graph, outcomes: Counter) -> None:
    """Lazy ``satisfies`` against the oracle on every existential node of
    ``condition``, at every occurrence of its anchor in ``graph``."""
    memo: dict = {}
    for node in _exists_nodes(condition):
        for p in monos_by_permutation(node.morphism.domain, graph):
            got = satisfies(p, node)
            assert got == satisfies_by_permutation(p, node, memo), (
                node, graph.edge_items(), sorted(p.node_map.items()))
            outcomes[got] += 1


class TestLazyExistsAgainstOracle:
    def test_seeded_random_step_suite(self):
        outcomes: Counter = Counter()
        for constraint, _, transformations, rule, host in random_step_cases(250, seed=101):
            for graph in (host, *(t.result for t in transformations)):
                _check_every_exists(constraint.condition, graph, outcomes)
                _check_every_exists(rule.condition, graph, outcomes)
        assert outcomes[True] >= 200 and outcomes[False] >= 500

    def test_random_cra_hosts(self, fixtures):
        rng = random.Random(37)
        outcomes: Counter = Counter()
        conditions_ = [c.condition for c in fixtures.constraint_list()]
        conditions_ += [r.condition for r in fixtures.rule_list()]
        for _ in range(40):
            host = random_host(fixtures.type_graph, rng, rng.randint(4, 8), rng.uniform(0.2, 0.5))
            for condition in conditions_:
                _check_every_exists(condition, host, outcomes)
        assert outcomes[True] >= 600 and outcomes[False] >= 600


def _with_parallel_edges(graph: TypedGraph, rng: random.Random, share: float) -> TypedGraph:
    copies = [(f"{eid}p", etype, s, t) for eid, etype, s, t in graph.edge_items()
              if rng.random() < share]
    return TypedGraph(graph.type_graph, graph.node_items(), [*graph.edge_items(), *copies])


def _seeded_oracle(oracle, node_seed, edge_seed):
    return sorted(
        (m for m in oracle
         if all(m.node_map[v] == w for v, w in node_seed.items())
         and all(m.edge_map[e] == f for e, f in edge_seed.items())),
        key=GraphMorphism.sort_key,
    )


def _seeded_cases(rng: random.Random):
    """Patterns and hosts with parallel edges, their oracle morphisms and
    the seeds to try: random ones, then a fixed bundle."""
    for _ in range(300):
        tg = random_type_graph(rng, max_node_types=2, max_edge_types=2)
        pattern = _with_parallel_edges(random_host(tg, rng, rng.randint(1, 3), 0.5), rng, 0.2)
        host = _with_parallel_edges(random_host(tg, rng, rng.randint(2, 6), 0.4), rng, 0.4)
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


class TestSeededEnumerationAgainstOracle:
    def test_random_seeds_with_parallel_edges(self):
        compared = nonempty = 0
        for pattern, host, oracle, seeds in _seeded_cases(random.Random(53)):
            for node_seed, edge_seed in seeds:
                want = _seeded_oracle(oracle, node_seed, edge_seed)
                got = enumerate_monomorphisms(
                    pattern, host, node_seed=node_seed, edge_seed=edge_seed)
                assert got == want, (pattern.edge_items(), host.edge_items(), node_seed)
                lazy = list(iter_monomorphisms(
                    pattern, host, node_seed=node_seed, edge_seed=edge_seed))
                assert len(lazy) == len(want)
                assert sorted(lazy, key=GraphMorphism.sort_key) == want
                compared += 1
                nonempty += bool(want)
        assert compared >= 600 and nonempty >= 300

    def test_parallel_edges_give_each_neighbour_once(self):
        tg = TypeGraph(["T"], [("r", "T", "T")])
        pattern = TypedGraph(tg, [("u", "T"), ("v", "T")], [("x", "r", "u", "v")])
        host = TypedGraph(tg, [("a", "T"), ("b", "T")],
                          [("e1", "r", "a", "b"), ("e2", "r", "a", "b")])
        found = list(iter_monomorphisms(pattern, host, node_seed={"u": "a"}))
        assert sorted(m.edge_map["x"] for m in found) == ["e1", "e2"]
        found = list(iter_monomorphisms(pattern, host, node_seed={"v": "b"}))
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


class TestSkippedWork:
    def test_reads_never_materialize_extensions(self, fixtures, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("extensions was called")

        monkeypatch.setattr(conditions, "extensions", refuse)
        rng = random.Random(5)
        for host in (fixtures.host, random_host(fixtures.type_graph, rng, 12, 0.3)):
            for rule in fixtures.rule_list():
                scan_matches(rule, host)
            for c in fixtures.constraint_list():
                consistency_report(host, c)

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

    def test_stopping_an_unseeded_search_stops_its_probes(self, fixtures, monkeypatch):
        probes = Counter()
        probe = TypedGraph.edges_with_signature

        def counting(self, *args):
            probes["calls"] += 1
            return probe(self, *args)

        monkeypatch.setattr(TypedGraph, "edges_with_signature", counting)
        host = random_host(fixtures.type_graph, random.Random(7), 100, 0.03)
        pattern = fixtures.constraints["c3"].shape.outer_graph
        assert next(iter_monomorphisms(pattern, host), None) is not None
        first = probes.pop("calls")
        every = list(iter_monomorphisms(pattern, host))
        assert len(every) > 1
        assert first * 10 < probes["calls"], (first, probes["calls"])


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
