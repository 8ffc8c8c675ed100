"""Randomized checking suites shared by the unit and acceptance tests.

Each suite generates inputs from a seeded generator, checks a family of
properties on every case, and returns counters so callers can assert
both "no violations" and "the suite actually exercised enough distinct
material". Violations raise AssertionError with enough context to
reproduce the failing case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from gradcons import (
    GraphMorphism,
    Transformation,
    TypedGraph,
    TypeGraph,
    UNIVERSAL,
    UnsupportedShapeError,
    apply,
    bounded_hosts,
    classify_step,
    consistency_report,
    criterion_direct_improve,
    criterion_direct_sustain,
    empty_graph,
    enumerate_monomorphisms,
    find_matches,
    graph_satisfies,
)
from gradcons.analysis import (
    NECESSARY_CONDITION_FAILS,
    PROVEN_DIRECTLY_SUSTAINING,
    PROVEN_NOT_DIRECTLY_SUSTAINING,
)
from gradcons.generate import (
    random_analysis_pair,
    random_graph,
    random_host,
    random_linear_constraint,
    random_rule,
    random_type_graph,
)

from .oracles import (
    cocone_commutes,
    compose,
    dpo_by_sets,
    forced_mediator,
    gluing_square_commutes,
    homs_brute,
    jointly_surjective,
    pushout_by_quotient,
)


@dataclass
class SuiteStats:
    cases: int = 0
    steps: int = 0
    rules: set = field(default_factory=set)
    constraints: set = field(default_factory=set)
    flag_counts: dict = field(default_factory=dict)

    def bump(self, flag: str) -> None:
        self.flag_counts[flag] = self.flag_counts.get(flag, 0) + 1


def _implications(verdict, before):
    """Every implication between the step classifications, as
    (premise, conclusion, label) triples evaluated on one verdict."""
    v = verdict
    return [
        (v.guaranteeing, v.directly_sustaining, "guaranteeing -> directly sustaining"),
        (v.directly_sustaining, v.sustaining, "directly sustaining -> sustaining"),
        (v.sustaining, v.preserving, "sustaining -> preserving"),
        (v.directly_improving, v.improving, "directly improving -> improving"),
        (v.improving, v.sustaining, "improving -> sustaining"),
        (v.guaranteeing and not before.satisfied, v.directly_improving,
         "guaranteeing an unsatisfied constraint -> directly improving"),
        (v.guaranteeing, v.preserving, "guaranteeing -> preserving"),
        (v.preserving and before.satisfied, v.guaranteeing,
         "preserving a satisfied constraint -> guaranteeing"),
    ]


def random_step_cases(n_cases: int, seed: int, max_steps_per_case: int = 4):
    """Seeded random cases: a random rule applied to a random host, up to
    ``max_steps_per_case`` times, against a random linear constraint.

    Yields ``(constraint, host report, steps, rule, host)`` per case,
    steps possibly empty when the rule has no match.
    """
    rng = random.Random(seed)
    for case in range(n_cases):
        tg = random_type_graph(rng, max_node_types=3, max_edge_types=3)
        rule = random_rule(tg, rng, name=f"r{case}")
        constraint = random_linear_constraint(tg, rng, f"c{case}")
        host = random_host(tg, rng, rng.randint(1, 5))
        before = consistency_report(host, constraint)
        matches = find_matches(rule, host)[:max_steps_per_case]
        yield constraint, before, [apply(rule, host, m, step=case) for m in matches], rule, host


def seeded_cra_model(tg: TypeGraph, rng: random.Random) -> TypedGraph:
    """80 classes and 80 features, wired by ``rng``: 76 features assigned
    to two classes each, 76 classes holding two features each, and every
    feature depending on two others."""

    def wiring(n):
        # Two permutations that, read as columns, give each i two distinct
        # targets other than i.
        columns = []
        while len(columns) < 2:
            column = rng.sample(range(n), n)
            if all(column[i] != i and all(c[i] != column[i] for c in columns)
                   for i in range(n)):
                columns.append(column)
        return columns

    edges = []
    for column in wiring(76):
        edges += [(f"a{len(edges) + i}", "isAssigned", f"F{i}", f"C{j}")
                  for i, j in enumerate(column)]
    for column in wiring(80):
        edges += [(f"d{len(edges) + i}", "dependsOn", f"F{i}", f"F{j}")
                  for i, j in enumerate(column)]
    nodes = [(f"C{i}", "Class") for i in range(80)] + [(f"F{i}", "Feature") for i in range(80)]
    return TypedGraph(tg, nodes, edges)


def random_rule_pairs(n_pairs: int, seed: int):
    """Seeded random ``(rule, constraint)`` pairs: restricted analysis
    pairs at even indices, free ones over at most two node and two edge
    types at odd indices."""
    rng = random.Random(seed)
    for index in range(n_pairs):
        if index % 2 == 0:
            yield random_analysis_pair(rng, index)
        else:
            tg = random_type_graph(rng, max_node_types=2, max_edge_types=2)
            rule = random_rule(tg, rng, name=f"r{index}")
            yield rule, random_linear_constraint(tg, rng, f"c{index}", max_outer_nodes=2)


def has_two_loop_types_on_one_node_type(tg) -> bool:
    """Whether two edge types loop on one node type: the bound-3 universe
    of such a type graph has 44 365 hosts."""
    loop_types = [src for src, tgt in tg.edge_types.values() if src == tgt]
    return len(loop_types) > len(set(loop_types))


def run_step_implication_suite(
    n_cases: int, seed: int, max_steps_per_case: int = 4
) -> SuiteStats:
    """Random steps against random linear constraints; checks every
    implication between the six step classifications plus the
    definitional bookkeeping of the measurements."""
    stats = SuiteStats()
    for constraint, before, steps, _, _ in random_step_cases(n_cases, seed, max_steps_per_case):
        stats.cases += 1
        for t in steps:
            v = classify_step(t, constraint, report_before=before)
            for premise, conclusion, label in _implications(v, before):
                assert not premise or conclusion, (
                    f"{label} violated: rule {t.rule.name}, constraint "
                    f"{constraint.name}, host nodes {t.host.node_ids}, "
                    f"match {sorted(t.match.node_map.items())}"
                )
            after = v.report_after
            assert v.preserving == (after.satisfied or not before.satisfied)
            assert v.guaranteeing == after.satisfied
            assert v.sustaining == (before.ci <= after.ci)
            if v.improving:
                assert before.ncv > after.ncv and before.ncv > 0
            stats.steps += 1
            stats.rules.add(t.rule.name)
            stats.constraints.add(constraint.name)
            for label in ("preserving", "guaranteeing", "sustaining", "improving",
                          "directly_sustaining", "directly_improving"):
                if getattr(v, label):
                    stats.bump(label)
            stats.bump(constraint.shape.polarity)
    return stats


def run_track_totality_suite(n_steps: int, seed: int) -> SuiteStats:
    """Composing an occurrence with the track morphism is total exactly
    when the occurrence lands in the surviving part of the host."""
    rng = random.Random(seed)
    stats = SuiteStats()
    case = 0
    while stats.steps < n_steps:
        case += 1
        assert case < n_steps * 20, "generator failed to produce enough steps"
        tg = random_type_graph(rng, max_node_types=2, max_edge_types=2)
        rule = random_rule(tg, rng, name=f"r{case}")
        host = random_host(tg, rng, rng.randint(1, 5))
        matches = find_matches(rule, host)
        if not matches:
            continue
        t = apply(rule, host, matches[0], step=case)
        pattern = random_graph(tg, rng, max_nodes=2, id_prefix="p")
        for p in enumerate_monomorphisms(pattern, host)[:5]:
            tracked = compose(p, t.track)
            lands = all(t.context.has_node(x) for x in p.node_map.values()) and all(
                t.context.has_edge(e) for e in p.edge_map.values()
            )
            assert tracked.is_total() == lands, (
                f"track totality mismatch: rule {rule.name}, "
                f"occurrence {sorted(p.node_map.items())}"
            )
            stats.steps += 1
            stats.bump("lands" if lands else "escapes")
        stats.cases += 1
    return stats


def run_empty_graph_suite(n_constraints: int, seed: int) -> SuiteStats:
    """The empty graph satisfies every universal linear constraint and
    refutes every existential one."""
    rng = random.Random(seed)
    stats = SuiteStats()
    while stats.cases < n_constraints:
        tg = random_type_graph(rng, max_node_types=3, max_edge_types=3)
        constraint = random_linear_constraint(tg, rng, f"c{stats.cases}")
        polarity = constraint.shape.polarity
        expected = polarity == UNIVERSAL
        assert graph_satisfies(empty_graph(tg), constraint) == expected, (
            f"empty-graph satisfaction wrong for {polarity} constraint "
            f"{constraint.name}"
        )
        stats.cases += 1
        stats.bump(polarity)
    return stats


def run_static_exactness_suite(
    n_pairs: int, seed: int, bound: int = 4
) -> SuiteStats:
    """The dependency criterion against exhaustive bounded ground truth.

    For restricted generator pairs (plain rule, atomic negative
    constraint) the static verdict must match "some application in the
    bounded universe breaks direct sustainment" exactly, in both
    directions.
    """
    rng = random.Random(seed)
    stats = SuiteStats()
    for index in range(n_pairs):
        rule, constraint = random_analysis_pair(rng, index)
        result = criterion_direct_sustain(rule, constraint)
        assert result.verdict in (
            PROVEN_DIRECTLY_SUSTAINING,
            PROVEN_NOT_DIRECTLY_SUSTAINING,
        ), f"pair {index}: unexpected verdict {result.verdict} for a plain rule"

        counterexample = None
        tg = rule.lhs.type_graph
        for host in bounded_hosts(tg, bound):
            before = consistency_report(host, constraint)
            for match in find_matches(rule, host):
                t = apply(rule, host, match)
                v = classify_step(t, constraint, report_before=before)
                stats.steps += 1
                if not v.directly_sustaining:
                    counterexample = (host, match)
                    break
            if counterexample:
                break

        statically_safe = result.verdict == PROVEN_DIRECTLY_SUSTAINING
        assert statically_safe == (counterexample is None), (
            f"pair {index}: static verdict {result.verdict} but bounded search "
            + ("found a counterexample at host nodes "
               f"{counterexample[0].node_ids}" if counterexample else
               "found no counterexample")
        )
        stats.cases += 1
        stats.bump("safe" if statically_safe else "unsafe")
    return stats


def run_improvement_necessity_suite(n_pairs: int, seed: int, bound: int = 3) -> SuiteStats:
    """Whenever any bounded application improves consistency, the static
    necessary condition for improvement must hold."""
    rng = random.Random(seed)
    stats = SuiteStats()
    index = 0
    while stats.cases < n_pairs:
        index += 1
        assert index < n_pairs * 30, "generator failed to produce enough usable pairs"
        if index % 2 == 0:
            rule, constraint = random_analysis_pair(rng, index)
        else:
            tg = random_type_graph(rng, max_node_types=2, max_edge_types=2)
            rule = random_rule(tg, rng, name=f"r{index}")
            constraint = random_linear_constraint(tg, rng, f"c{index}", max_outer_nodes=2)
        try:
            necessity = criterion_direct_improve(rule, constraint)
        except UnsupportedShapeError:
            continue
        stats.cases += 1

        improving_found = False
        tg = rule.lhs.type_graph
        for host in bounded_hosts(tg, bound):
            before = consistency_report(host, constraint)
            if before.ncv == 0:
                continue
            for match in find_matches(rule, host):
                t = apply(rule, host, match)
                v = classify_step(t, constraint, report_before=before)
                stats.steps += 1
                if v.improving:
                    improving_found = True
                    assert necessity.verdict != NECESSARY_CONDITION_FAILS, (
                        f"pair {index}: improvement observed on host nodes "
                        f"{host.node_ids} but statically ruled out"
                    )
                    break
            if improving_found:
                break
        stats.bump("improving_found" if improving_found else "no_improving_step")
    return stats


def _node_merge_probe(graph):
    """A quotient of ``graph`` merging the first same-type node pair."""
    by_type = {}
    for n in graph.node_ids:
        by_type.setdefault(graph.node_type(n), []).append(n)
    for group in by_type.values():
        if len(group) < 2:
            continue
        keep, drop = group[0], group[1]
        nodes = [(n, graph.node_type(n)) for n in graph.node_ids if n != drop]
        edges = []
        for e in graph.edge_ids:
            etype, src, tgt = graph.edge_info(e)
            src = keep if src == drop else src
            tgt = keep if tgt == drop else tgt
            edges.append((e, etype, src, tgt))
        return TypedGraph(graph.type_graph, nodes, edges)
    return None


def run_pushout_suite(
    n_cases: int, seed: int, max_result_nodes: int = 6
) -> SuiteStats:
    """The gluing construction behaves as a pushout on the nose.

    Checks per generated step: the result equals independent set
    arithmetic, the square commutes, the two embeddings are jointly
    surjective, the explicit disjoint-union quotient is the same graph,
    and for every commuting cocone into a family of probe graphs exactly
    the forced mediating morphism factors it (with brute-force
    uniqueness on the smallest cases).
    """
    rng = random.Random(seed)
    stats = SuiteStats()
    attempts = 0
    while stats.cases < n_cases and attempts < n_cases * 30:
        attempts += 1
        tg = random_type_graph(rng, max_node_types=2, max_edge_types=2)
        rule = random_rule(tg, rng, name=f"r{attempts}", max_interface_nodes=2)
        host = random_host(tg, rng, rng.randint(1, 4))
        matches = find_matches(rule, host)
        if not matches:
            continue
        t = apply(rule, host, matches[0], step=attempts)
        if t.result.node_count > max_result_nodes:
            continue
        stats.cases += 1
        stats.rules.add(rule.name)

        assert t.result == dpo_by_sets(rule, host, matches[0], step=attempts)
        assert gluing_square_commutes(t)
        assert jointly_surjective(t)
        _check_quotient_agrees(t)
        stats.steps += _check_universal_property(t, rng)
    assert stats.cases == n_cases, f"only {stats.cases} usable cases generated"
    return stats


def _check_quotient_agrees(t: Transformation) -> None:
    quotient, leg_d, leg_r = pushout_by_quotient(t)
    assert quotient.node_count == t.result.node_count
    assert quotient.edge_count == t.result.edge_count
    # the bijection is forced by the legs; build and verify it
    node_map = {}
    for d_id, q_id in leg_d.node_map.items():
        node_map[q_id] = t.result_embedding.node_map[d_id]
    for r_id, q_id in leg_r.node_map.items():
        expected = t.comatch.node_map[r_id]
        assert node_map.get(q_id, expected) == expected
        node_map[q_id] = expected
    edge_map = {}
    for d_id, q_id in leg_d.edge_map.items():
        edge_map[q_id] = t.result_embedding.edge_map[d_id]
    for r_id, q_id in leg_r.edge_map.items():
        expected = t.comatch.edge_map[r_id]
        assert edge_map.get(q_id, expected) == expected
        edge_map[q_id] = expected
    iso = GraphMorphism(quotient, t.result, node_map, edge_map)
    assert iso.is_total() and iso.is_injective() and iso.check() == []


def _check_universal_property(t: Transformation, rng: random.Random) -> int:
    probes = [t.result]
    merged = _node_merge_probe(t.result)
    if merged is not None:
        probes.append(merged)
    extra_type = sorted(t.result.type_graph.node_types)[0]
    probes.append(t.result.with_added([("probe_extra", extra_type)]))
    probes.append(random_host(t.result.type_graph, rng, 2, edge_probability=0.5))

    checked = 0
    for x in probes:
        fs = homs_brute(t.context, x)
        gs = homs_brute(t.rule.rhs, x)
        if len(fs) * len(gs) > 4000:
            continue
        brute = (
            t.result.node_count <= 4
            and x.node_count <= 4
            and t.result.edge_count <= 4
        )
        hs = homs_brute(t.result, x) if brute else None
        for f in fs:
            for g in gs:
                if not cocone_commutes(t, f, g):
                    continue
                mediator = forced_mediator(t, f, g)
                assert mediator is not None, (
                    f"no mediating morphism for a commuting cocone into "
                    f"{x.node_count} nodes (rule {t.rule.name})"
                )
                if brute:
                    all_mediators = [
                        h for h in hs
                        if compose(t.result_embedding, h) == f
                        and compose(t.comatch, h) == g
                    ]
                    assert all_mediators == [mediator], "mediating morphism is not unique"
                checked += 1
    return checked
