"""Graphs built over shared parts against the public constructor.

Universe hosts share their split's node part, edge ids, slot tuples and
one-edge bundles, and rewrite results and their contexts are the host's
dicts copied and patched. Each such graph must be indistinguishable from
the same elements passed through ``TypedGraph(type_graph, nodes,
edges)``, its incidence index included once built. Only ``graphs.py``
builds or reads those parts.
"""

import ast
import gc
import itertools
import random
import tracemalloc
from pathlib import Path

import gradcons
from gradcons import (
    Rule,
    TypedGraph,
    TypeGraph,
    apply,
    bounded_hosts,
    consistency_report,
    cra,
    find_matches,
    scan_matches,
)
from gradcons.classify import _bounded_hosts_cached, _edge_types_by_source, _hosts_for_split

from .oracles import dpo_by_sets
from .suites import random_step_cases, seeded_cra_model

TWO_LOOPS = TypeGraph(["T"], [("r0", "T", "T"), ("r1", "T", "T")])
TWO_LOOPS_LEAVING = _edge_types_by_source(TWO_LOOPS)
# A carries loops of type r and points at B by s.
AB = TypeGraph(["A", "B"], [("r", "A", "A"), ("s", "A", "B")])


def assert_like_public(g: TypedGraph) -> None:
    ref = TypedGraph(g.type_graph, g.node_items(), g.edge_items())
    assert g == ref and hash(g) == hash(ref)
    assert g.node_ids == ref.node_ids and g.edge_ids == ref.edge_ids
    for ntype in g.type_graph.node_types:
        assert g.nodes_of_type(ntype) == ref.nodes_of_type(ntype)
    for eid in g.edge_ids:
        signature = g.edge_info(eid)
        assert g.edges_with_signature(*signature) == ref.edges_with_signature(*signature)
    for nid in g.node_ids:
        assert g.incident_edges(nid) == ref.incident_edges(nid)
    assert (g._by_type, g._triples) == (ref._by_type, ref._triples)
    assert g._incidence() == ref._incidence()


def assert_patched_like_public(t) -> None:
    """Both branches of ``_patched`` on the host of step ``t``: a host with
    an incidence index patches it into the context and the result, and a
    host without one leaves theirs unbuilt, to be built on first use."""
    created_nodes = [item for item in t.result.node_items() if not t.context.has_node(item[0])]
    created_edges = [item for item in t.result.edge_items() if not t.context.has_edge(item[0])]
    for built in (False, True):
        host = TypedGraph(t.host.type_graph, t.host.node_items(), t.host.edge_items())
        if built:
            host._incidence()
        for patched, expected in (
            (host._patched(t.removed_nodes, t.removed_edges), t.context),
            (host._patched(t.removed_nodes, t.removed_edges, created_nodes, created_edges),
             t.result),
        ):
            assert (patched._incident is not None) == built
            assert patched == expected
            assert_like_public(patched)


def assert_split_parts_shared(hosts) -> None:
    """Hosts of one split (the same node ids) share one node part, and
    their equal edge tuples and edge ids are one object each."""
    first_by_nodes = {}
    shared = {}
    for h in hosts:
        first = first_by_nodes.setdefault(h.node_ids, h)
        assert h._nodes is first._nodes
        assert h._node_ids is first._node_ids and h._by_type is first._by_type
        for eid, info in h._edges.items():
            for part in (eid, info):
                assert shared.setdefault((h.node_ids, part), part) is part


class TestUniverseHosts:
    def test_bound_three_universes(self, tg2, fixtures):
        for tg in (tg2, fixtures.type_graph):
            hosts = bounded_hosts(tg, 3)
            for h in hosts:
                assert_like_public(h)
            assert_split_parts_shared(hosts)

    def test_incidence_index_is_built_on_first_use(self, tg2, fixtures):
        for tg in (tg2, fixtures.type_graph):
            # A fresh universe, not the cached one other tests have read.
            hosts = _bounded_hosts_cached.__wrapped__(tg, 3, ())
            assert hosts and all(h._incident is None for h in hosts)
            for h in hosts:
                ref = TypedGraph(tg, h.node_items(), h.edge_items())
                assert h.incident_edges("absent") == ()
                assert h._incident is not None and h._incident == ref._incidence()

    def test_every_seventh_host_of_the_two_loop_universe(self):
        # Split by split, without the cache behind bounded_hosts: the
        # universe has 44 365 hosts, some with 11 or more edges.
        hosts = itertools.chain.from_iterable(
            _hosts_for_split(TWO_LOOPS, ("T",), (n,), TWO_LOOPS_LEAVING) for n in range(4)
        )
        checked = []
        for i, h in enumerate(hosts):
            if i % 7 == 0:
                assert_like_public(h)
                checked.append(h)
        assert i + 1 == 44_365
        assert max(h.edge_count for h in checked) >= 11
        assert_split_parts_shared(checked)


class TestRewriteResults:
    @staticmethod
    def check_step(t, kinds):
        assert_like_public(t.result)
        assert_like_public(t.context)
        assert_patched_like_public(t)
        if t.removed_nodes:
            kinds.add("node deletion")
        if t.rule.created_nodes:
            kinds.add("node creation")
        if not t.removed_nodes and not t.rule.created_nodes:
            assert t.result._nodes is t.host._nodes
            if t.removed_edges or t.rule.created_edges:
                kinds.add("edges only")

    def test_seeded_random_step_suite(self):
        kinds = set()
        steps = 0
        for _, _, transformations, _, _ in random_step_cases(n_cases=250, seed=101):
            for t in transformations:
                self.check_step(t, kinds)
                steps += 1
        assert steps >= 150
        assert kinds == {"node deletion", "node creation", "edges only"}

    def test_cra_rules_on_the_bound_three_universe(self, fixtures):
        kinds = set()
        steps = 0
        for host in bounded_hosts(fixtures.type_graph, 3):
            for rule in fixtures.rule_list():
                for m in find_matches(rule, host):
                    self.check_step(apply(rule, host, m), kinds)
                    steps += 1
        assert steps >= 100
        assert kinds == {"node deletion", "node creation", "edges only"}

    @staticmethod
    def steps(rule, host):
        """Every step of ``rule`` on ``host``, each result and context
        checked against the public constructor and set arithmetic."""
        transformations = [apply(rule, host, m) for m in find_matches(rule, host)]
        assert transformations
        for t in transformations:
            assert_like_public(t.result)
            assert_like_public(t.context)
            assert t.result == dpo_by_sets(rule, host, t.match)
            assert t.context == host.without(t.removed_nodes, t.removed_edges)
        return transformations

    def test_created_edge_joins_a_parallel_bundle_inside(self):
        ends = TypedGraph(AB, [("a", "A"), ("b", "B")])
        rule = Rule("join", ends, ends, ends.with_added([], [("e", "s", "a", "b")]))
        host = ends.with_added([], [("e1", "s", "a", "b"), ("z1", "s", "a", "b")])
        [t] = self.steps(rule, host)
        assert t.result.edges_with_signature("s", "a", "b") == ("e1", "join.0.e", "z1")
        assert t.result.incident_edges("a") == ("e1", "join.0.e", "z1")

    def test_deleted_edge_leaves_the_rest_of_its_bundle(self):
        ends = TypedGraph(AB, [("a", "A"), ("b", "B")])
        rule = Rule("cut", ends.with_added([], [("e", "s", "a", "b")]), ends, ends)
        host = ends.with_added([], [("e1", "s", "a", "b"), ("l", "r", "a", "a"),
                                    ("z1", "s", "a", "b")])
        cut_e1, cut_z1 = self.steps(rule, host)
        for t, kept in ((cut_e1, "z1"), (cut_z1, "e1")):
            assert t.removed_edges == {"e1", "z1"} - {kept}
            assert t.result.edges_with_signature("s", "a", "b") == (kept,)
            assert t.result.incident_edges("a") == tuple(sorted({"l", kept}))
            assert t.result.incident_edges("b") == (kept,)

    def test_deleted_node_carries_a_loop(self):
        looped = TypedGraph(AB, [("v", "A")], [("l", "r", "v", "v")])
        rule = Rule("unloop", looped, TypedGraph(AB), TypedGraph(AB))
        host = TypedGraph(AB, [("x", "A"), ("y", "A")],
                          [("lx", "r", "x", "x"), ("ly", "r", "y", "y")])
        t, _ = self.steps(rule, host)
        assert t.result.node_ids == ("y",) and t.result.edge_ids == ("ly",)
        assert t.result.edges_with_signature("r", "x", "x") == ()

    def test_created_node_of_a_type_the_host_lacks(self):
        rule = Rule("addB", TypedGraph(AB), TypedGraph(AB), TypedGraph(AB, [("n", "B")]))
        host = TypedGraph(AB, [("a", "A")])
        [t] = self.steps(rule, host)
        assert host.nodes_of_type("B") == ()
        assert t.result.nodes_of_type("B") == ("addB.0.n",)
        assert t.result.incident_edges("addB.0.n") == ()

    def test_deleting_the_last_node_of_a_type(self):
        single = TypedGraph(AB, [("v", "B")])
        rule = Rule("dropB", single, TypedGraph(AB), TypedGraph(AB))
        host = TypedGraph(AB, [("a", "A"), ("b", "B")])
        [t] = self.steps(rule, host)
        assert t.result.nodes_of_type("B") == () and "B" not in t.result._by_type
        assert t.context.nodes_of_type("B") == ()

    def test_created_edge_id_collides_with_a_surviving_one(self):
        ends = TypedGraph(AB, [("a", "A"), ("b", "B")])
        rule = Rule("mk", ends, ends, ends.with_added([], [("e", "s", "a", "b")]))
        host = ends.with_added([], [("mk.0.e", "s", "a", "b")])
        [t] = self.steps(rule, host)
        assert t.result.edge_ids == ("mk.0.e", "mk.0.e~0")
        assert t.result.edges_with_signature("s", "a", "b") == ("mk.0.e", "mk.0.e~0")

    def test_created_ids_equal_removed_ones(self):
        # The step removes a node and an edge and creates a node and an
        # edge under the same ids, with a new type and new ends.
        lhs = TypedGraph(AB, [("a", "A"), ("n", "A")], [("e", "r", "n", "n")])
        interface = TypedGraph(AB, [("a", "A")])
        rhs = TypedGraph(AB, [("a", "A"), ("m", "B")], [("f", "s", "a", "m")])
        rule = Rule("swap", lhs, interface, rhs)
        host = TypedGraph(AB, [("a", "A"), ("swap.0.m", "A")],
                          [("swap.0.f", "r", "swap.0.m", "swap.0.m")])
        [t] = self.steps(rule, host)
        assert t.removed_nodes == {"swap.0.m"} and t.removed_edges == {"swap.0.f"}
        assert t.result.node_items() == (("a", "A"), ("swap.0.m", "B"))
        assert t.result.edge_items() == (("swap.0.f", "s", "a", "swap.0.m"),)
        assert t.result.nodes_of_type("A") == ("a",)
        assert t.result.incident_edges("a") == ("swap.0.f",)


def test_universe_hosts_stay_compact():
    # Retained bytes per host of one split (2 nodes, 8 edge slots, 136
    # hosts), with a full collection before and after the measure: 1 070
    # when each host built its own one-edge bundles and an incidence index
    # it may never read, 571 with bundles shared by the split and the
    # index built on first use. The bound lies halfway between the two.
    gc.collect()
    tracemalloc.start()
    try:
        hosts = list(_hosts_for_split(TWO_LOOPS, ("T",), (2,), TWO_LOOPS_LEAVING))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(hosts) == 136
    assert retained / len(hosts) < 820


def test_rewrite_results_share_the_host_indices():
    # A 160-node CRA model with the benchmark's degrees: 80 classes, 76
    # features assigned to two classes each, every feature depending on
    # two others. Retained bytes per result of 108 steps (up to 50 per
    # rule): 46 540 when each result rebuilt its signature and incidence
    # indices, 21 733 when it copies the host's dicts and shares their
    # untouched tuples (21 925 with a full collection before and after the
    # measure). The bound lies halfway between the two.
    fx = cra.load_fixtures()
    classes = [f"C{i}" for i in range(80)]
    features = [f"F{i}" for i in range(80)]
    edges = []
    for i in range(76):
        for j in (i, (i + 1) % 76):
            edges.append((f"a{len(edges)}", "isAssigned", features[i], classes[j]))
    for i in range(80):
        for j in ((i + 1) % 80, (i + 3) % 80):
            edges.append((f"d{len(edges)}", "dependsOn", features[i], features[j]))
    host = TypedGraph(fx.type_graph,
                      [(c, "Class") for c in classes] + [(f, "Feature") for f in features],
                      edges)
    plan = [(rule, m) for rule in fx.rule_list() for m in find_matches(rule, host)[:50]]
    for rule, m in plan:  # compiles the application conditions outside the measure
        apply(rule, host, m)
    gc.collect()
    tracemalloc.start()
    try:
        results = [apply(rule, host, m).result for rule, m in plan]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(results) == 108
    assert retained / len(results) < 34_100


def test_reports_keep_only_the_keys_of_their_violations():
    # A c3 report on a seeded 160-node CRA model: retained bytes per
    # violating occurrence were 641 when the report kept each one as a
    # morphism with two dicts next to its key, 201 with the key alone as a
    # pair of image tuples, and are 105 with the key as one flat tuple.
    # The bound lies halfway between the last two. A full collection
    # before and after the measure empties the interpreter's free lists,
    # so temporaries parked there are not counted as retained.
    fx = cra.load_fixtures()
    host = seeded_cra_model(fx.type_graph, random.Random(1))
    c3 = fx.constraints["c3"]
    consistency_report(host, c3)  # compiles the constraint outside the measure
    gc.collect()
    tracemalloc.start()
    try:
        report = consistency_report(host, c3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.ncv > 500
    assert retained / report.ncv < 153


def test_scans_keep_only_the_keys_of_their_matches():
    # moveFeature on the same model: retained bytes per kept match were 440
    # when the scan kept each match as a morphism with two dicts, 176 with
    # its key alone as a pair of image tuples, and are 80 with the key as
    # one flat tuple. The bound lies halfway between the last two; the full
    # collections are as in the report test above.
    fx = cra.load_fixtures()
    host = seeded_cra_model(fx.type_graph, random.Random(1))
    rule = fx.rules["moveFeature"]
    scan_matches(rule, host)  # compiles the search and the condition outside the measure
    gc.collect()
    tracemalloc.start()
    try:
        scan = scan_matches(rule, host)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(scan.keys) > 10_000
    assert retained / len(scan.keys) < 128


def test_only_graphs_reads_graph_storage():
    # Of the private names of graphs.py, other modules may import only
    # the entry point of the search compiler and the type of the keys
    # that ``GraphMorphism.sort_key`` makes.
    entry_points = {"_search", "_Key"}
    slots = set(TypedGraph.__slots__)
    offences = []
    for path in sorted(Path(gradcons.__file__).parent.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute) and node.attr in slots:
                offences.append(f"{where} reads .{node.attr}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "graphs" and node.attr.startswith("_")):
                offences.append(f"{where} reads graphs.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("graphs", "gradcons.graphs"):
                offences += [f"{where} imports {alias.name}" for alias in node.names
                             if alias.name.startswith("_") and alias.name not in entry_points]
    assert not offences, offences
