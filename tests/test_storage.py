"""Graphs built over shared parts against the public constructor.

Universe hosts share their split's node part, edge ids and slot tuples,
and rewrite results are the host's parts copied and patched. Each such
graph must be indistinguishable from the same elements passed through
``TypedGraph(type_graph, nodes, edges)``.
"""

import itertools
import tracemalloc

from gradcons import TypedGraph, TypeGraph, apply, bounded_hosts, find_matches
from gradcons.classify import _hosts_for_split

from .suites import random_step_cases

TWO_LOOPS = TypeGraph(["T"], [("r0", "T", "T"), ("r1", "T", "T")])


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
    assert (g._by_type, g._triples, g._incident) == (ref._by_type, ref._triples, ref._incident)


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

    def test_every_seventh_host_of_the_two_loop_universe(self):
        # Split by split, without the cache behind bounded_hosts: the
        # universe has 44 365 hosts, some with 11 or more edges.
        hosts = itertools.chain.from_iterable(
            _hosts_for_split(TWO_LOOPS, ("T",), (n,)) for n in range(4)
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


def test_universe_hosts_stay_compact():
    # Retained bytes per host of one split (2 nodes, 8 edge slots, 136
    # hosts): 3 023 when every host held its own parts, 1 559 with shared
    # parts and a per-node degree index, 926 without that index. The bound
    # lies halfway between the last two.
    tracemalloc.start()
    try:
        hosts = list(_hosts_for_split(TWO_LOOPS, ("T",), (2,)))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(hosts) == 136
    assert retained / len(hosts) < 1_240
