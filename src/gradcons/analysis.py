"""Static conflict and dependency analysis against constraint patterns.

A constraint pattern C is read as the left side of a non-modifying check
rule (identity span, no application condition) whose matches are exactly
the occurrences of C. Whether a rewrite rule can interfere with such a
check reduces to enumerating overlaps:

* a conflict overlap glues the rule's lhs with C so that they share a
  deleted element; applying the rule there can destroy an occurrence;
* a dependency overlap glues the rule's rhs with C so that they share a
  created element; applying the rule there can enable a new occurrence.

Both directions filter out overlaps that no host can realize: a deleted
node may not touch an unidentified C edge (such a match would fail the
gluing condition), and symmetrically a created node may not touch an
unidentified C edge (the edge would have to exist before its endpoint
does). These filters are what make the counts agree with exhaustive
search.

On top of the raw overlaps sit decision procedures for the rule-level
classifications. For sustainment they are sound in both directions on
plain rules; rules with application conditions only ever get positive
proofs, never negative ones, because the overlap enumeration ignores
application conditions and may overapproximate. For improvement the
criteria are necessary conditions: when they fail, no improving
application exists anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator

from .conditions import UNIVERSAL, AnfShape, Constraint
from .errors import MismatchError, UnsupportedShapeError
from .graphs import GraphMorphism, TypedGraph, inclusion
from .rewriting import Rule, _fresh_id


@dataclass(frozen=True)
class Overlap:
    """One jointly surjective gluing of a rule side with a pattern.

    ``side`` is the rule's lhs (conflict) or rhs (dependency).
    ``identified`` pairs each identified pattern node, then edge, with
    its side partner, in pattern order. The glued ``graph`` and both
    injections are built on first read: ``rule_injection`` embeds the
    side, ``pattern_injection`` the pattern, and every element of
    ``graph`` is hit by at least one of the two.
    """

    kind: str  # "conflict" or "dependency"
    side: TypedGraph
    pattern: TypedGraph
    identified: tuple[tuple[str, str], ...]

    @cached_property
    def pattern_injection(self) -> GraphMorphism:
        """Into the glued graph, which keeps the side's ids and gives each
        unidentified pattern node, then edge, a fresh id."""
        side, pattern = self.side, self.pattern
        image = dict(self.identified)
        taken = {*side.node_ids, *side.edge_ids}
        for y in pattern.node_ids + pattern.edge_ids:
            if y not in image:
                image[y] = x = _fresh_id(y, taken.__contains__)
                taken.add(x)
        # Identified elements have side ids, fresh ones never do.
        glued = side.with_added(
            [(image[y], t) for y, t in pattern.node_items() if not side.has_node(image[y])],
            [(image[f], t, image[src], image[tgt]) for f, t, src, tgt in pattern.edge_items()
             if not side.has_edge(image[f])],
        )
        return GraphMorphism(pattern, glued, {y: image[y] for y in pattern.node_ids},
                             {f: image[f] for f in pattern.edge_ids})

    @property
    def graph(self) -> TypedGraph:
        return self.pattern_injection.codomain

    @cached_property
    def rule_injection(self) -> GraphMorphism:
        return inclusion(self.side, self.graph)


def _overlaps(
    kind: str, side: TypedGraph, pattern: TypedGraph, nodes: set[str], edges: set[str]
) -> tuple[Overlap, ...]:
    """Gluings of ``side`` with ``pattern`` that identify one of the given
    rule nodes or edges, where none of the given nodes touches a pattern
    edge outside the identification.

    One backtracking loop visits the side's nodes, then its edges. Each
    is first left out, then identified with each unused pattern element of
    its type, in id order; an edge only with one between its endpoints'
    partners. Distinct identifications give non-isomorphic cospans, so
    these are the overlaps up to equivalence. Without a given element no
    identification is kept, so none is visited.
    """
    if not nodes and not edges:
        return ()
    elements = side.node_ids + side.edge_ids
    split, depth = side.node_count, len(elements)
    pattern_elements = pattern.node_ids + pattern.edge_ids
    # Side id -> pattern id and back; node and edge ids never clash.
    partner: dict[str, str] = {}
    owner: dict[str, str] = {}
    candidates: list[Iterator[str | None]] = [iter(())] * depth
    found = []
    level, fresh = 0, True
    while level >= 0:
        if level == depth:
            changed = [y for x, y in partner.items() if x in nodes]
            if (changed or not edges.isdisjoint(partner)) and all(
                f in owner for y in changed for f in pattern.incident_edges(y)
            ):
                found.append(Overlap(kind, side, pattern, tuple(
                    (y, owner[y]) for y in pattern_elements if y in owner)))
            level, fresh = level - 1, False
            continue
        x = elements[level]
        if fresh:
            if level < split:
                pool = pattern.nodes_of_type(side.node_type(x))
            else:
                etype, src, tgt = side.edge_info(x)
                pool = pattern.edges_with_signature(etype, partner.get(src), partner.get(tgt))
            # ``None`` leaves the element out.
            candidates[level] = chain((None,), pool)
        else:
            owner.pop(partner.pop(x, None), None)
        for y in candidates[level]:
            if y not in owner:
                break
        else:
            level, fresh = level - 1, False
            continue
        if y is not None:
            partner[x], owner[y] = y, x
        level, fresh = level + 1, True
    return tuple(found)


def rule_conflicts_on_check(rule: Rule, pattern: TypedGraph) -> tuple[Overlap, ...]:
    """Overlaps where applying the rule damages an occurrence of ``pattern``.

    Requires a deleted element in the identification and rejects gluings
    whose deleted nodes touch an unidentified pattern edge (the match
    could never satisfy the gluing condition there).
    """
    return _overlaps("conflict", rule.lhs, pattern,
                     set(rule.deleted_nodes), set(rule.deleted_edges))


def check_depends_on_rule(rule: Rule, pattern: TypedGraph) -> tuple[Overlap, ...]:
    """Overlaps where applying the rule enables a new occurrence of
    ``pattern``: a created element is identified, and no created node
    touches an unidentified pattern edge (such an edge would need to
    predate its endpoint)."""
    return _overlaps("dependency", rule.rhs, pattern,
                     set(rule.created_nodes), set(rule.created_edges))


# --- rule-level criteria ------------------------------------------------------

PROVEN_DIRECTLY_SUSTAINING = "proven_directly_sustaining"
PROVEN_NOT_DIRECTLY_SUSTAINING = "proven_not_directly_sustaining"
INCONCLUSIVE = "inconclusive"
CONJECTURED_DIRECTLY_SUSTAINING = "conjectured_directly_sustaining"
CONJECTURED_INCONCLUSIVE = "conjectured_inconclusive"

NECESSARY_CONDITION_FAILS = "necessary_condition_fails"
NECESSARY_CONDITION_HOLDS = "necessary_condition_holds"
PROVEN_IMPROVING = "proven_improving"
CONJECTURED_NECESSARY_HOLDS = "conjectured_necessary_condition_holds"
CONJECTURED_NECESSARY_FAILS = "conjectured_necessary_condition_fails"


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of a static criterion for one rule and constraint.

    Sustain verdicts speak about direct sustainment. Neither direction
    carries over to plain sustainment in general: a step that destroys a
    valid occurrence can lower ``ci`` and still be directly sustaining,
    and a rule that always creates a forbidden node, say, is never
    directly sustaining yet can be trivially sustaining when every
    applicable host already violates the constraint.
    Improvement verdicts are necessary conditions against plain
    improvement, hence also against direct improvement.
    """

    verdict: str
    rule_name: str
    constraint_name: str
    evidence: tuple[Overlap, ...] = ()
    notes: tuple[str, ...] = ()
    conjectured: bool = False

    @property
    def decisive(self) -> bool:
        return self.verdict in (
            PROVEN_DIRECTLY_SUSTAINING,
            PROVEN_NOT_DIRECTLY_SUSTAINING,
            NECESSARY_CONDITION_FAILS,
            PROVEN_IMPROVING,
        )


def _fragment(constraint: Constraint, allow_conjecture: bool) -> AnfShape:
    """The constraint's shape, when the criteria cover it: a universal
    chain of level one or two, or of level three in conjecture mode. For
    a universal chain the level fixes the terminal: odd levels end with
    false."""
    shape = constraint.shape
    if shape.polarity != UNIVERSAL:
        raise UnsupportedShapeError(
            f"static criteria cover universal constraints; {constraint.name!r} is existential"
        )
    if shape.level > 3:
        raise UnsupportedShapeError(f"no static criterion for shape {shape.render()!r}")
    if shape.level == 3 and not allow_conjecture:
        raise UnsupportedShapeError("three-level chains are supported only in conjecture mode")
    return shape


def _repairs(rule: Rule, shape: AnfShape) -> tuple[Overlap, ...]:
    """Dependency overlaps with the continuation pattern that can repair a
    violating occurrence: the created elements they share all lie beyond
    the continuation's anchor image, since the anchor part must come from
    the surviving host."""
    continuation = shape.chain[1][1]
    anchor = {*continuation.node_map.values(), *continuation.edge_map.values()}
    created = {*rule.created_nodes, *rule.created_edges}
    return tuple(
        ov for ov in check_depends_on_rule(rule, continuation.codomain)
        if not any(y in anchor and x in created for y, x in ov.identified)
    )


_CONJECTURED = ("three-level criterion is conjectured, not proven",)


def criterion_direct_sustain(
    rule: Rule, constraint: Constraint, allow_conjecture: bool = False
) -> CriterionResult:
    """Decide or bound whether the rule directly sustains the constraint.

    Atomic negative constraints (no occurrence of C): direct sustainment
    holds exactly when the rule has no dependency overlap with C; the
    negative direction is only claimed for plain rules. Level-two universals
    (every C extends to C'): proven when the rule has no conflict overlap
    with C' and either no dependency overlap with C, or every dependency
    overlap already carries the required C' continuation. Deeper chains
    are available only behind ``allow_conjecture`` and come back marked
    as conjectured.
    """
    shape = _fragment(constraint, allow_conjecture)
    name = constraint.name

    if shape.level == 1:
        deps = check_depends_on_rule(rule, shape.outer_graph)
        if not deps:
            return CriterionResult(PROVEN_DIRECTLY_SUSTAINING, rule.name, name,
                                   notes=("no dependency overlap with the forbidden pattern",))
        if rule.is_plain():
            return CriterionResult(
                PROVEN_NOT_DIRECTLY_SUSTAINING, rule.name, name, evidence=deps,
                notes=("each dependency overlap extends to a counterexample host",),
            )
        return CriterionResult(
            INCONCLUSIVE, rule.name, name, evidence=deps,
            notes=("dependency overlaps exist, but the application condition "
                   "may rule the enabling matches out",),
        )

    if shape.level == 2:
        conflicts = rule_conflicts_on_check(rule, shape.witness_graph)
        if conflicts:
            return CriterionResult(
                INCONCLUSIVE, rule.name, name, evidence=conflicts,
                notes=("the rule can damage required continuations",),
            )
        deps = check_depends_on_rule(rule, shape.outer_graph)
        if not deps:
            return CriterionResult(
                PROVEN_DIRECTLY_SUSTAINING, rule.name, name,
                notes=("no dependency overlap with the scope pattern and no "
                       "conflict overlap with its continuation",),
            )
        # The body of a two-level chain is Not(continuation), and the
        # continuation is Exists(a2, TRUE).
        holds = shape.body.sub._predicate
        if all(holds(ov.graph, ov.pattern_injection.sort_key()) for ov in deps):
            return CriterionResult(
                PROVEN_DIRECTLY_SUSTAINING, rule.name, name, evidence=deps,
                notes=("every dependency overlap already carries the required "
                       "continuation",),
            )
        return CriterionResult(
            INCONCLUSIVE, rule.name, name, evidence=deps,
            notes=("some enabled occurrence may lack its continuation",),
        )

    scope, witness, forbidden = (m.codomain for _, m in shape.chain)
    clear = (
        not check_depends_on_rule(rule, scope)
        and not rule_conflicts_on_check(rule, witness)
        and not check_depends_on_rule(rule, forbidden)
    )
    verdict = CONJECTURED_DIRECTLY_SUSTAINING if clear else CONJECTURED_INCONCLUSIVE
    return CriterionResult(verdict, rule.name, name, conjectured=True, notes=_CONJECTURED)


def criterion_direct_improve(
    rule: Rule,
    constraint: Constraint,
    sustain: CriterionResult | None = None,
    allow_conjecture: bool = False,
) -> CriterionResult:
    """Necessary conditions for the rule to admit improving applications.

    When the verdict is ``necessary_condition_fails`` no application of
    the rule anywhere improves consistency with respect to the
    constraint; that direction is sound unconditionally. The positive
    verdict ``proven_improving`` additionally requires direct
    sustainment (taken from ``sustain`` when supplied, computed
    otherwise) and a plain rule, and only atomic negative constraints
    reach it; elsewhere a holding necessary condition stays just that. A
    ``sustain`` result for another rule or constraint is refused with
    :class:`MismatchError`.
    """
    shape = _fragment(constraint, allow_conjecture)
    name = constraint.name
    if sustain and (sustain.rule_name, sustain.constraint_name) != (rule.name, name):
        raise MismatchError(f"sustain result is for another pair than ({rule.name!r}, {name!r})")

    if shape.level == 1:
        conflicts = rule_conflicts_on_check(rule, shape.outer_graph)
        if not conflicts:
            return CriterionResult(
                NECESSARY_CONDITION_FAILS, rule.name, name,
                notes=("the rule cannot destroy occurrences of the forbidden "
                       "pattern, so no application lowers their count",),
            )
        if sustain is None:
            sustain = criterion_direct_sustain(rule, constraint)
        if sustain.verdict == PROVEN_DIRECTLY_SUSTAINING and rule.is_plain():
            return CriterionResult(
                PROVEN_IMPROVING, rule.name, name, evidence=conflicts,
                notes=("sustaining plus a realizable conflict overlap: some "
                       "application strictly lowers the violation count",),
            )
        return CriterionResult(
            NECESSARY_CONDITION_HOLDS, rule.name, name, evidence=conflicts,
            notes=("destruction is possible in principle; improvement is not "
                   "guaranteed",),
        )

    if shape.level == 2:
        conflicts = rule_conflicts_on_check(rule, shape.outer_graph)
        if conflicts:
            return CriterionResult(
                NECESSARY_CONDITION_HOLDS, rule.name, name, evidence=conflicts,
                notes=("the rule can destroy violating scope occurrences",),
            )
        repairs = _repairs(rule, shape)
        if repairs:
            return CriterionResult(
                NECESSARY_CONDITION_HOLDS, rule.name, name, evidence=repairs,
                notes=("the rule can supply a missing continuation",),
            )
        return CriterionResult(
            NECESSARY_CONDITION_FAILS, rule.name, name,
            notes=("the rule can neither destroy violating occurrences nor "
                   "supply missing continuations",),
        )

    scope, _, forbidden = (m.codomain for _, m in shape.chain)
    possible = (
        rule_conflicts_on_check(rule, scope)
        or _repairs(rule, shape)
        or rule_conflicts_on_check(rule, forbidden)
    )
    verdict = CONJECTURED_NECESSARY_HOLDS if possible else CONJECTURED_NECESSARY_FAILS
    return CriterionResult(verdict, rule.name, name, conjectured=True, notes=_CONJECTURED)


# --- independence tables ------------------------------------------------------

# Column group -> the component pattern of the constraint it overlaps.
# ``seq_`` groups count dependency overlaps and ``par_`` groups conflict
# overlaps; ``_independent`` groups are positive when no overlap exists,
# ``_dependent`` groups when at least one does.
TABLE_GROUPS = {
    "seq_independent": "scope",
    "par_independent": "continuation",
    "par_dependent": "scope",
    "seq_dependent": "continuation",
}


@dataclass(frozen=True)
class IndependenceTable:
    """Overlap counts of rules against the component patterns of
    constraints, organized like a compatibility matrix.

    Keys are ``(rule name, group, constraint name)`` with group one of
    ``seq_independent`` (dependency overlaps on the scope pattern),
    ``par_independent`` (conflict overlaps on the continuation pattern),
    ``par_dependent`` (conflicts on the scope), ``seq_dependent``
    (dependencies on the continuation). Continuation columns exist only
    for constraints of nesting level two or deeper.
    """

    rule_names: tuple[str, ...]
    columns: tuple[tuple[str, str], ...]  # (group, constraint name)
    counts: dict[tuple[str, str, str], int] = field(hash=False)

    def sign(self, rule_name: str, group: str, constraint_name: str) -> str:
        count = self.counts[(rule_name, group, constraint_name)]
        positive = (count == 0) == group.endswith("_independent")
        return "+" if positive else "-"

    def render_text(self) -> str:
        headers = ["rule"]
        for group, cname in self.columns:
            headers.append(f"{group[:3]}:{cname}.{TABLE_GROUPS[group][:4]}")
        widths = [max(len(h), 12) for h in headers]
        widths[0] = max(len(r) for r in ("rule", *self.rule_names))
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for rule_name in self.rule_names:
            row = [rule_name.ljust(widths[0])]
            for (group, cname), w in zip(self.columns, widths[1:]):
                row.append(self.sign(rule_name, group, cname).ljust(w))
            lines.append("  ".join(row).rstrip())
        return "\n".join(lines)


def independence_table(rules, constraints) -> IndependenceTable:
    """Tabulate all four overlap relations for the given rules against the
    component patterns of the given constraints."""
    shapes = {c.name: c.shape for c in constraints}
    columns = [
        (group, c.name)
        for group, component in TABLE_GROUPS.items()
        for c in constraints
        if component == "scope" or shapes[c.name].witness_graph is not None
    ]

    counts: dict[tuple[str, str, str], int] = {}
    for rule in rules:
        for group, cname in columns:
            shape = shapes[cname]
            if TABLE_GROUPS[group] == "scope":
                pattern = shape.outer_graph
            else:
                pattern = shape.witness_graph
            if group.startswith("seq_"):
                overlaps = check_depends_on_rule(rule, pattern)
            else:
                overlaps = rule_conflicts_on_check(rule, pattern)
            counts[(rule.name, group, cname)] = len(overlaps)

    return IndependenceTable(
        rule_names=tuple(r.name for r in rules),
        columns=tuple(columns),
        counts=counts,
    )
