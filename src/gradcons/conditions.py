"""Nested graph conditions, linear constraints, and graduated consistency.

A condition over a graph P is one of: the always-true condition, an
existential extension along an injective morphism ``a: P -> C`` with a
sub-condition over C, a negation, or a conjunction. A constraint is a
condition anchored at the empty graph. Universal quantification is not a
separate node: ``forall(a, d)`` builds its classical encoding, negation
around an existential around the negated body. Reports and renderings
re-sugar the encoding, so users still read the universal form.

Satisfaction follows the standard semantics for injective occurrences: a
total injective ``p: P -> G`` satisfies an existential condition when some
injective ``q: C -> G`` with ``q . a = p`` satisfies the sub-condition.

Graduated consistency refines the yes/no notion. For a universal constraint
over outer pattern C, every occurrence of C in G is relevant and the
violating ones are those whose required continuation is missing; for an
existential constraint there is a single relevant "occurrence" which is
violated when no occurrence of C satisfies the body. The consistency index
is ``1 - ncv/ro`` as an exact rational, with the empty quotient 0/0 read
as 0 (so a graph with no relevant occurrences is fully consistent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import AnfError, MismatchError
from .graphs import (
    GraphMorphism,
    TypedGraph,
    empty_morphism_into,
    enumerate_monomorphisms,
    iter_monomorphisms,
)


class Condition:
    """Abstract base for condition trees. Instances are immutable."""

    __slots__ = ()

    def anchor(self) -> TypedGraph | None:
        """The graph this condition constrains, if it mentions one."""
        raise NotImplementedError


class TrueCondition(Condition):
    __slots__ = ()

    def anchor(self) -> TypedGraph | None:
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TrueCondition)

    def __hash__(self) -> int:
        return hash("TrueCondition")

    def __repr__(self) -> str:
        return "TRUE"


TRUE = TrueCondition()


@dataclass(frozen=True, repr=False)
class Exists(Condition):
    """There is an extension of the anchor occurrence along ``morphism``."""

    morphism: GraphMorphism
    sub: Condition = TRUE

    def __post_init__(self) -> None:
        a = self.morphism
        if not (a.is_total() and a.is_injective()):
            raise MismatchError("condition morphisms must be total and injective")
        if a.check():
            raise MismatchError(f"condition morphism is malformed: {a.check()[0]}")
        inner = self.sub.anchor()
        if inner is not None and inner != a.codomain:
            raise MismatchError("sub-condition is not anchored at the extended graph")

    def anchor(self) -> TypedGraph | None:
        return self.morphism.domain

    def __repr__(self) -> str:
        return f"Exists({self.morphism.codomain!r}, {self.sub!r})"


@dataclass(frozen=True, repr=False)
class Not(Condition):
    sub: Condition

    def anchor(self) -> TypedGraph | None:
        return self.sub.anchor()

    def __repr__(self) -> str:
        return f"Not({self.sub!r})"


@dataclass(frozen=True, repr=False)
class And(Condition):
    left: Condition
    right: Condition

    def __post_init__(self) -> None:
        la, ra = self.left.anchor(), self.right.anchor()
        if la is not None and ra is not None and la != ra:
            raise MismatchError("conjuncts are anchored at different graphs")

    def anchor(self) -> TypedGraph | None:
        return self.left.anchor() or self.right.anchor()

    def __repr__(self) -> str:
        return f"And({self.left!r}, {self.right!r})"


FALSE = Not(TRUE)


def negate(condition: Condition) -> Condition:
    """Negation with double negations collapsed on the way in."""
    if isinstance(condition, Not):
        return condition.sub
    return Not(condition)


def forall(morphism: GraphMorphism, sub: Condition = FALSE) -> Condition:
    """Universal quantification, stored as not-exists-not."""
    return Not(Exists(morphism, negate(sub)))


@dataclass(frozen=True)
class Constraint:
    """A named condition anchored at the empty graph."""

    name: str
    condition: Condition

    def __post_init__(self) -> None:
        root = self.condition.anchor()
        if root is not None and not root.is_empty():
            raise MismatchError(f"constraint {self.name!r} is not anchored at the empty graph")

    @property
    def type_graph(self):
        root = self.condition.anchor()
        return root.type_graph if root is not None else None

    @cached_property
    def shape(self) -> AnfShape:
        """The parsed alternating normal form, computed once per object.

        A constraint outside the fragment raises :class:`AnfError` on
        every access; only successful parses are cached.
        """
        return validate_anf(self)


def _satisfies(p: GraphMorphism, condition: Condition) -> bool:
    if isinstance(condition, TrueCondition):
        return True
    if isinstance(condition, Not):
        return not _satisfies(p, condition.sub)
    if isinstance(condition, And):
        return _satisfies(p, condition.left) and _satisfies(p, condition.right)
    if isinstance(condition, Exists):
        sub = condition.sub
        return any(_satisfies(q, sub) for q in iter_extensions(p, condition.morphism))
    raise TypeError(f"unknown condition node {condition!r}")


def iter_extensions(p: GraphMorphism, a: GraphMorphism) -> Iterator[GraphMorphism]:
    """The injective q with q . a = p, lazily and in no fixed order.

    ``p`` must be a total injective occurrence of the domain of ``a``; the
    results are the occurrences of the extended graph that agree with ``p``
    on the anchor. The search starts from the anchor's image and stops
    when the caller stops iterating.
    """
    node_seed = {a.node_map[x]: p.node_map[x] for x in a.domain.node_ids}
    edge_seed = {a.edge_map[e]: p.edge_map[e] for e in a.domain.edge_ids}
    return iter_monomorphisms(a.codomain, p.codomain, node_seed=node_seed, edge_seed=edge_seed)


def extensions(p: GraphMorphism, a: GraphMorphism) -> list[GraphMorphism]:
    """All injective q with q . a = p, in canonical order: the sorted
    form of :func:`iter_extensions`."""
    return sorted(iter_extensions(p, a), key=GraphMorphism.sort_key)


def satisfies(p: GraphMorphism, condition: Condition) -> bool:
    """Does the total injective occurrence ``p`` satisfy ``condition``?"""
    if not p.is_total() or not p.is_injective():
        raise MismatchError("satisfaction is defined for total injective occurrences")
    anchor = condition.anchor()
    if anchor is not None and anchor != p.domain:
        raise MismatchError("occurrence domain differs from the condition anchor")
    return _satisfies(p, condition)


def graph_satisfies(graph: TypedGraph, constraint: Constraint) -> bool:
    """Does ``graph`` satisfy the constraint (via the empty occurrence)?"""
    tg = constraint.type_graph
    if tg is not None and tg is not graph.type_graph and tg != graph.type_graph:
        raise MismatchError("graph and constraint use different type graphs")
    return _satisfies(empty_morphism_into(graph), constraint.condition)


# --- alternating normal form -------------------------------------------------

EXISTENTIAL = "existential"
UNIVERSAL = "universal"


@dataclass(frozen=True)
class AnfShape:
    """Parsed shape of a linear constraint with alternating quantifiers.

    ``chain`` lists ``(quantifier, morphism)`` pairs outermost first, with
    quantifier one of ``"exists"`` / ``"forall"``. The polarity of the whole
    constraint is decided by the first quantifier, the terminal by the last:
    a universal level ends in false, an existential one in true.

    ``body`` is the condition over the outer pattern that is evaluated per
    occurrence. For a universal constraint it is the negated body: an
    occurrence violates exactly when it satisfies it. For an existential
    constraint it is the body itself: the graph satisfies the constraint
    exactly when some occurrence satisfies it.
    """

    chain: tuple[tuple[str, GraphMorphism], ...]
    body: Condition

    @property
    def ends_with_false(self) -> bool:
        return self.chain[-1][0] == "forall"

    @property
    def polarity(self) -> str:
        return EXISTENTIAL if self.chain[0][0] == "exists" else UNIVERSAL

    @property
    def level(self) -> int:
        return len(self.chain)

    @property
    def outer_graph(self) -> TypedGraph:
        """The outermost quantified pattern."""
        return self.chain[0][1].codomain

    @property
    def witness_graph(self) -> TypedGraph | None:
        """The second-level pattern, when the chain is that deep."""
        return self.chain[1][1].codomain if len(self.chain) >= 2 else None

    def render(self) -> str:
        parts = []
        for i, (quant, morphism) in enumerate(self.chain):
            symbol = "∃" if quant == "exists" else "∀"
            parts.append(f"{symbol}C{i + 1}[{morphism.codomain.node_count}n"
                         f"/{morphism.codomain.edge_count}e]")
        tail = ", false" if self.ends_with_false else ""
        return " . ".join(parts) + tail


def validate_anf(constraint: Constraint) -> AnfShape:
    """Parse a constraint as linear + alternating, or raise :class:`AnfError`.

    A leading negation makes the constraint universal. Every level is then
    an :class:`Exists` whose body is ``TRUE`` (the end of the chain) or
    ``Not(Exists ...)`` (the next level, with the quantifier flipped).
    Rejections name the first offending quantifier position: conjunctions,
    non-alternation, isomorphic chain morphisms, nesting level zero, and the
    degenerate terminals (an existential level ending in false, a universal
    one ending in true).
    """
    node = constraint.condition
    if isinstance(node, And) or (isinstance(node, Not) and isinstance(node.sub, And)):
        raise AnfError(0, "conjunction inside a linear constraint")
    universal = isinstance(node, Not)
    if universal:
        node = node.sub
        if isinstance(node, Not):
            raise AnfError(0, "negation is not at the innermost level")
    if isinstance(node, TrueCondition):
        raise AnfError(0, "nesting level 0")
    if not isinstance(node, Exists):
        name = type(node).__name__
        raise AnfError(0, "malformed chain" if universal else f"unsupported condition node {name}")
    # Chain anchoring is enforced by the Exists constructor; the root anchor
    # being empty is enforced by Constraint.
    body = node.sub
    chain: list[tuple[str, GraphMorphism]] = []
    while True:
        pos, a, sub = len(chain), node.morphism, node.sub
        quant = "forall" if universal else "exists"
        # Exists admits only total injective morphisms: equal sizes mean onto.
        if (a.domain.node_count, a.domain.edge_count) == (
            a.codomain.node_count, a.codomain.edge_count
        ):
            raise AnfError(pos, "chain morphism is an isomorphism")
        chain.append((quant, a))
        if isinstance(sub, TrueCondition):
            return AnfShape(tuple(chain), body)
        if sub == FALSE:
            raise AnfError(pos, "universal level ends with true" if universal
                           else "existential level ends with false")
        if isinstance(sub, Exists):
            raise AnfError(pos + 1, f"quantifiers do not alternate ({quant} under {quant})")
        if not (isinstance(sub, Not) and isinstance(sub.sub, Exists)):
            raise AnfError(pos + 1, "malformed chain body")
        node, universal = sub.sub, not universal


# --- graduated consistency ---------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Occurrence counts and the consistency index for one graph/constraint.

    ``occ`` counts occurrences of the outer pattern, ``ro`` the relevant
    occurrences, ``ncv`` the violating ones among them. ``ci`` is exact;
    render to decimal only at output boundaries.
    """

    constraint_name: str
    polarity: str
    occ: int
    ro: int
    ncv: int
    ci: Fraction
    violating_occurrences: tuple[GraphMorphism, ...] = field(default=())

    @property
    def satisfied(self) -> bool:
        return self.ci == 1


def consistency_report(graph: TypedGraph, constraint: Constraint) -> ConsistencyReport:
    """Measure ``graph`` against an ANF constraint.

    Universal: ro = occurrence count of the outer pattern, ncv = number of
    occurrences violating the remainder of the chain, each violating
    occurrence materialized as evidence in canonical order. Existential:
    ro = 1 and ncv is 0 or 1. ci = 1 - ncv/ro with 0/0 read as 0.
    """
    shape = constraint.shape
    tg = constraint.type_graph
    if tg is not None and tg is not graph.type_graph and tg != graph.type_graph:
        raise MismatchError("graph and constraint use different type graphs")
    occurrences = enumerate_monomorphisms(shape.outer_graph, graph)
    occ = len(occurrences)
    if shape.polarity == UNIVERSAL:
        violating = tuple(p for p in occurrences if _satisfies(p, shape.body))
        ro = occ
        ncv = len(violating)
    else:
        ro = 1
        ncv = 0 if any(_satisfies(p, shape.body) for p in occurrences) else 1
        violating = ()
    ci = Fraction(1) if ro == 0 else Fraction(ro - ncv, ro)
    return ConsistencyReport(
        constraint_name=constraint.name,
        polarity=shape.polarity,
        occ=occ,
        ro=ro,
        ncv=ncv,
        ci=ci,
        violating_occurrences=violating,
    )
