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
Every condition is evaluated by its predicate ``(host, key) -> bool``,
compiled once per node and kept on it, on the flat key of the anchor
occurrence (:meth:`GraphMorphism.sort_key`).

Graduated consistency refines the yes/no notion. For a universal constraint
over outer pattern C, every occurrence of C in G is relevant and the
violating ones are those whose required continuation is missing; for an
existential constraint there is a single relevant "occurrence" which is
violated when no occurrence of C satisfies the body. The consistency index
is ``1 - ncv/ro`` as an exact rational, with the empty quotient 0/0 read
as 0 (so a graph with no relevant occurrences is fully consistent).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Collection, Iterator, Sequence

from .errors import AnfError, MismatchError
from .graphs import GraphMorphism, TypedGraph, _Key, _search, enumerate_monomorphisms


# A condition's compiled predicate: does the occurrence of its anchor with
# this key in the host satisfy it?
_Predicate = Callable[[TypedGraph, _Key], bool]


class Condition:
    """Abstract base for condition trees. Instances are immutable.

    Each node's ``_predicate`` evaluates it on the key of a total
    injective occurrence of its anchor, which is not validated; it is
    composed from the predicates of the sub-conditions on first
    evaluation and kept on the node.
    """

    __slots__ = ()

    def anchor(self) -> TypedGraph | None:
        """The graph this condition constrains, if it mentions one."""
        raise NotImplementedError


def _holds(host: TypedGraph, key: _Key) -> bool:
    return True


class TrueCondition(Condition):
    __slots__ = ()

    _predicate = staticmethod(_holds)

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
        _check_embedding(self.morphism)
        inner = self.sub.anchor()
        if inner is not None and inner != self.morphism.codomain:
            raise MismatchError("sub-condition is not anchored at the extended graph")

    def anchor(self) -> TypedGraph | None:
        return self.morphism.domain

    @cached_property
    def _check(self) -> Callable:
        """This node's compiled search, made on first evaluation: the
        ``"exists"`` form for a ``TRUE`` sub-condition, else ``"search"``."""
        form = "exists" if isinstance(self.sub, TrueCondition) else "search"
        return _search(self.morphism.codomain, form, *_anchor_keys(self.morphism))

    @cached_property
    def _predicate(self) -> _Predicate:
        """The ``exists`` search itself for a ``TRUE`` sub-condition; else
        the sub-condition's predicate on each key the search yields."""
        search = self._check
        if isinstance(self.sub, TrueCondition):
            return search
        sub = self.sub._predicate

        def extends(host: TypedGraph, key: _Key) -> bool:
            for found in search(host, key):
                if sub(host, found):
                    return True
            return False

        return extends

    def __repr__(self) -> str:
        return f"Exists({self.morphism.codomain!r}, {self.sub!r})"


@dataclass(frozen=True, repr=False)
class Not(Condition):
    sub: Condition

    def anchor(self) -> TypedGraph | None:
        return self.sub.anchor()

    @cached_property
    def _predicate(self) -> _Predicate:
        sub = self.sub._predicate

        def fails(host: TypedGraph, key: _Key) -> bool:
            return not sub(host, key)

        return fails

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

    @cached_property
    def _predicate(self) -> _Predicate:
        left, right = self.left._predicate, self.right._predicate

        def both(host: TypedGraph, key: _Key) -> bool:
            return left(host, key) and right(host, key)

        return both

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

    @cached_property
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

    @cached_property
    def _step_searches(self) -> _StepSearches | None:
        """The seeded searches that derive a step's report from the
        host's, or ``None`` when the constraint is existential or deeper
        than two levels (:func:`step_report`)."""
        shape = self.shape
        if shape.polarity != UNIVERSAL or shape.level > 2:
            return None
        return _StepSearches(shape)


def iter_extensions(p: GraphMorphism, a: GraphMorphism) -> Iterator[GraphMorphism]:
    """The injective q with q . a = p, lazily and in no fixed order.

    ``p`` must be a total injective occurrence of the domain of ``a``, and
    ``a`` fit for an :class:`Exists` node; the results are the occurrences
    of the extended graph that agree with ``p`` on the anchor. This is the
    one seeded search: with ``a = inclusion(anchor, pattern)``, the
    occurrences of ``pattern`` that ``p`` fixes on ``anchor``. A wrongly
    typed or absent image in ``p``, or an edge image whose ends are not
    those of its end nodes, leaves none. The search starts from the
    anchor's image and stops when the caller stops iterating; an
    :class:`Exists` node along ``a`` with a sub-condition other than
    ``TRUE`` runs the same search.
    """
    if not p.is_injective():
        raise ValueError("occurrence is not injective")
    _check_embedding(a)
    if p.domain != a.domain or not p.is_total():
        raise MismatchError("extensions are defined for total occurrences of the anchor")
    pattern, host = a.codomain, p.codomain
    search = _search(pattern, "search", *_anchor_keys(a))
    return (GraphMorphism.from_key(pattern, host, key)
            for key in search(host, p.sort_key()))


def extensions(p: GraphMorphism, a: GraphMorphism) -> list[GraphMorphism]:
    """All injective q with q . a = p, in canonical order: the sorted
    form of :func:`iter_extensions`."""
    return sorted(iter_extensions(p, a), key=GraphMorphism.sort_key)


def _check_embedding(a: GraphMorphism) -> None:
    """Refuse ``a`` unless it is total, injective and structure-preserving."""
    if not (a.is_total() and a.is_injective()):
        raise MismatchError("condition morphisms must be total and injective")
    problems = a.check()
    if problems:
        raise MismatchError(f"condition morphism is malformed: {problems[0]}")


def _anchor_keys(a: GraphMorphism) -> tuple[tuple[tuple[int, str], ...], ...]:
    """The seeded nodes and pinned edges along ``a``, each with the
    position of the anchor element it comes from in the key of an anchor
    occurrence."""
    node_ids, edge_ids = a.domain.node_ids, a.domain.edge_ids
    n = len(node_ids)
    return (tuple((i, a.node_map[x]) for i, x in enumerate(node_ids)),
            tuple((n + j, a.edge_map[e]) for j, e in enumerate(edge_ids)))


def satisfies(p: GraphMorphism, condition: Condition) -> bool:
    """Does the total injective occurrence ``p`` satisfy ``condition``?"""
    if not (p.is_injective() and p.is_total()):
        raise MismatchError("satisfaction is defined for total injective occurrences")
    anchor = condition.anchor()
    if anchor is not None and anchor != p.domain:
        raise MismatchError("occurrence domain differs from the condition anchor")
    return condition._predicate(p.codomain, p.sort_key())


def graph_satisfies(graph: TypedGraph, constraint: Constraint) -> bool:
    """Does ``graph`` satisfy the constraint (via the empty occurrence)?"""
    tg = constraint.type_graph
    if tg is not None and tg is not graph.type_graph and tg != graph.type_graph:
        raise MismatchError("graph and constraint use different type graphs")
    return constraint.condition._predicate(graph, ())


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

    A report stores what it measured: ``occ`` occurrences of the outer
    pattern in ``graph``, ``ncv`` violating ones, and ``violating_keys``,
    the :meth:`GraphMorphism.sort_key` of each violating occurrence in
    canonical order. ``constraint`` and ``graph`` take no part in
    equality. ``ro``, the exact ``ci`` (render it to decimal only at
    output boundaries), the ``pattern`` and the violating occurrences as
    morphisms are derived on read.
    """

    constraint_name: str
    polarity: str
    occ: int
    ncv: int
    violating_keys: tuple[_Key, ...] = ()
    constraint: Constraint | None = field(default=None, compare=False, repr=False)
    graph: TypedGraph | None = field(default=None, compare=False, repr=False)

    @property
    def ro(self) -> int:
        return self.occ if self.polarity == UNIVERSAL else 1

    @property
    def ci(self) -> Fraction:
        return Fraction(1) if self.ro == 0 else Fraction(self.ro - self.ncv, self.ro)

    @property
    def satisfied(self) -> bool:
        return self.ncv == 0

    @property
    def pattern(self) -> TypedGraph | None:
        """The outer pattern of the measured constraint."""
        return None if self.constraint is None else self.constraint.shape.outer_graph

    @property
    def violating_occurrences(self) -> tuple[GraphMorphism, ...]:
        """The violating occurrences as morphisms, built on each read."""
        return tuple(GraphMorphism.from_key(self.pattern, self.graph, key)
                     for key in self.violating_keys)


def consistency_report(graph: TypedGraph, constraint: Constraint) -> ConsistencyReport:
    """Measure ``graph`` against an ANF constraint.

    Universal: ro = occurrence count of the outer pattern, ncv = number of
    occurrences violating the remainder of the chain, each kept by its key
    in canonical order, read off the values of its maps, which
    :func:`enumerate_monomorphisms` lists in sorted pattern id order. The
    body's predicate tests each occurrence on that key.
    Existential: ro = 1 and ncv is 0 or 1. ci = 1 - ncv/ro with 0/0 read as 0.
    """
    shape = constraint.shape
    tg = constraint.type_graph
    if tg is not None and tg is not graph.type_graph and tg != graph.type_graph:
        raise MismatchError("graph and constraint use different type graphs")
    occurrences = enumerate_monomorphisms(shape.outer_graph, graph)
    test, polarity = shape.body._predicate, shape.polarity
    found = ((*p.node_map.values(), *p.edge_map.values()) for p in occurrences)
    if polarity == UNIVERSAL:
        keys = tuple([key for key in found if test(graph, key)])
        ncv = len(keys)
    else:
        keys = ()
        ncv = 0 if any(test(graph, key) for key in found) else 1
    return ConsistencyReport(constraint.name, polarity, len(occurrences), ncv, keys,
                             constraint, graph)


# --- step reports ------------------------------------------------------------

class _StepSearches:
    """The seeded searches that find, for a universal constraint of one or
    two levels, the occurrences at the elements a step changes.

    A changed node of type T seeds each node of type T of the outer
    pattern P; a changed edge of type E pins each edge of type E of P,
    together with its ends, that is a loop exactly when the changed edge
    is one (a pattern edge between two nodes cannot land on a loop
    without losing injectivity, nor a pattern loop on a non-loop edge).
    An edge with a changed end seeds nothing: every occurrence through it
    also uses that end, whose searches find it. For ∀(P, ∃C) with chain
    morphism b: P -> C, the same searches run over C, but only at the
    nodes and edges of C outside b(P): an occurrence of C through a
    changed element of b(P) restricts to an occurrence of P through that
    element, which is destroyed or new anyway. ``positions`` restrict a
    key of C to one of P along b: the position in C's key of each entry
    of P's.
    ``seeds`` holds, per pattern, the pattern and the nodes and edges it
    is seeded at; ``at`` keeps, per changed ``(kind, type)``, the compiled
    searches (which :func:`_search` keeps on the patterns), and
    ``counts``, per rule's changed types, how many searches a step runs.
    """

    __slots__ = ("seeds", "positions", "at", "counts")

    def __init__(self, shape: AnfShape):
        outer = shape.outer_graph
        self.seeds = [(outer, outer.node_items(), outer.edge_items())]
        self.positions = None
        if len(shape.chain) == 2:
            b = shape.chain[1][1]
            witness = b.codomain
            inside_nodes, inside_edges = set(b.node_map.values()), set(b.edge_map.values())
            self.seeds.append((
                witness, [item for item in witness.node_items() if item[0] not in inside_nodes],
                [item for item in witness.edge_items() if item[0] not in inside_edges]))
            n = len(witness.node_ids)
            self.positions = (
                *(witness.node_ids.index(b.node_map[v]) for v in b.domain.node_ids),
                *(n + witness.edge_ids.index(b.edge_map[e]) for e in b.domain.edge_ids))
        self.at: dict[tuple[str, str], tuple[tuple[Callable, ...], ...]] = {}
        self.counts: dict[tuple[tuple[str, str], ...], int] = {}

    def _seeded(self, kind: str, element_type: str) -> Iterator[tuple[TypedGraph, list]]:
        """Per pattern, the pattern and the :func:`_search` seeds of each
        search at a changed element of this kind (``"node"``, ``"edge"``
        or ``"loop"``) and type: ``(node,)``, ``(source, target, edge)``,
        or ``(source, edge)`` at a loop."""
        for graph, nodes, edges in self.seeds:
            if kind == "node":
                seeds = [(((0, v),), ()) for v, ntype in nodes if ntype == element_type]
            else:
                loop = kind == "loop"
                seeds = [(((0, src),), ((1, c),)) if loop else (((0, src), (1, tgt)), ((2, c),))
                         for c, etype, src, tgt in edges
                         if etype == element_type and (src == tgt) == loop]
            yield graph, seeds

    def count(self, changed_types: tuple[tuple[str, str], ...]) -> int:
        """The number of searches :meth:`run` makes for a step whose changed
        elements have these ``(kind, type)`` pairs (``Rule._changed_types``),
        worked out once per rule."""
        n = self.counts.get(changed_types)
        if n is None:
            n = self.counts[changed_types] = sum(
                len(seeds) for changed in changed_types for _, seeds in self._seeded(*changed))
        return n

    def _compiled(self, kind: str, element_type: str) -> tuple[tuple[Callable, ...], ...]:
        """Per pattern, the searches at a changed element of this kind and type."""
        found = self.at.get((kind, element_type))
        if found is None:
            found = self.at[kind, element_type] = tuple(
                tuple(_search(graph, "search", *seed) for seed in seeds)
                for graph, seeds in self._seeded(kind, element_type))
        return found

    def run(self, graph: TypedGraph, nodes: Collection[str],
            edges: Collection[str]) -> tuple[set[_Key], set[_Key]]:
        """The keys of the occurrences of P in ``graph`` that use one of
        these elements, and those of the occurrences of P that an
        occurrence of C using one of them outside b(P) restricts to."""
        found: list[set[_Key]] = [set() for _ in self.seeds]
        for x in nodes:
            seed = (x,)
            for keys, searches in zip(found, self._compiled("node", graph.node_type(x))):
                for search in searches:
                    keys.update(search(graph, seed))
        for e in edges:
            etype, src, tgt = graph.edge_info(e)
            if src in nodes or tgt in nodes:
                continue  # the searches at that end find its occurrences
            kind, seed = ("loop", (src, e)) if src == tgt else ("edge", (src, tgt, e))
            for keys, searches in zip(found, self._compiled(kind, etype)):
                for search in searches:
                    keys.update(search(graph, seed))
        positions = self.positions
        if positions is None:
            return found[0], set()
        return found[0], {tuple(map(key.__getitem__, positions)) for key in found[1]}


def _place(keys: list[_Key], key: _Key, member: bool) -> bool:
    """Make ``key`` a member of the sorted ``keys``, or not, and say
    whether that changed them."""
    i = bisect_left(keys, key)
    present = i < len(keys) and keys[i] == key
    if member and not present:
        keys.insert(i, key)
        return True
    if present and not member:
        del keys[i]
        return True
    return False


def _changed_keys(
    before: Sequence[_Key], after: Sequence[_Key], removed_nodes: frozenset[str],
    removed_edges: frozenset[str],
) -> tuple[list[_Key], list[_Key]]:
    """The violating keys of host and result that are not those of
    violating survivors, in one merge of the two sorted tuples.

    A key on one side only is dropped (destroyed or repaired) or added
    (new or invalidated). A key on both sides is a survivor's unless it
    uses a removed id, which a created element then took again: its
    host occurrence was destroyed and its result occurrence is new. Node
    and edge ids of one graph differ, so the whole key is tested against
    each kind.
    """
    dropped: list[_Key] = []
    added: list[_Key] = []
    i = j = 0
    while i < len(before) and j < len(after):
        b, a = before[i], after[j]
        if b < a:
            dropped.append(b)
            i += 1
        elif a < b:
            added.append(a)
            j += 1
        else:
            if not (removed_nodes.isdisjoint(b) and removed_edges.isdisjoint(b)):
                dropped.append(b)
                added.append(a)
            i += 1
            j += 1
    dropped += before[i:]
    added += after[j:]
    return dropped, added


def searches_per_step(constraint: Constraint,
                      changed_types: tuple[tuple[str, str], ...]) -> float:
    """How many seeded searches :func:`step_report` runs for a step whose
    rule changes elements of these ``(kind, type)`` pairs
    (``Rule._changed_types``); infinite for existential constraints and
    deeper chains, which it measures again.

    The count is exact: the searches of P at each changed node and at
    each changed edge without a changed end, and those of C at the
    positions outside b(P) (:class:`_StepSearches`). Deriving a step's
    report pays when the host has more occurrences than this; on tiny
    hosts measuring again is cheaper. The count is worked out once per
    rule and kept with the constraint's compiled searches.
    """
    searches = constraint._step_searches
    return math.inf if searches is None else searches.count(changed_types)


def step_report(
    before: ConsistencyReport,
    result: TypedGraph,
    removed: tuple[Collection[str], Collection[str]],
    created: tuple[Collection[str], Collection[str]],
) -> tuple[ConsistencyReport, list[_Key], list[_Key], set[_Key] | None]:
    """The report of a step's result, derived from ``before``, the host's,
    and the violating keys the step changed.

    ``removed`` holds the ids of the host nodes and edges the step
    removed, ``created`` those of the result nodes and edges it created.
    The track morphism is the identity on the context, so an occurrence
    that avoids the changed elements has one key on both sides. The
    occurrences of the outer pattern P that use a removed element are
    destroyed, and those that use a created one are new
    (:class:`_StepSearches` finds both). For ∀(P, ∃C), a surviving
    occurrence can lose its last witness only if that witness used a
    removed element, and gain one only through a created element, each
    outside b(P). A survivor that an occurrence of C in the result at a
    created element restricts to has gained a witness, so it is placed as
    valid unchecked; the body is re-checked only on the new occurrences
    without such a witness and on the other survivors that an occurrence
    of C in the host at a removed element restricts to. Every other
    survivor keeps its verdict and the host's key object. For ∀(P,
    false) every occurrence violates. Existential constraints and deeper
    chains are measured with :func:`consistency_report`. Either way the
    report equals that of :func:`consistency_report`.

    The keys come in canonical order: ``dropped``, the host's violating
    keys that are not those of violating survivors (destroyed or
    repaired), and ``added``, the result's (new or invalidated). A
    derivation records what it deletes and inserts, and returns last the
    keys of the destroyed and new occurrences, the changed keys outside
    the step's context; a recompute merges the two key tuples
    (:func:`_changed_keys`) and returns ``None`` there.
    """
    constraint = before.constraint
    searches = constraint._step_searches
    if searches is None:
        after = consistency_report(result, constraint)
        return (after, *_changed_keys(before.violating_keys, after.violating_keys,
                                      *map(frozenset, removed)), None)
    destroyed, lost = searches.run(before.graph, *removed)
    new, gained = searches.run(result, *created)
    violates = constraint.shape.body._predicate
    keys = list(before.violating_keys)
    dropped: list[_Key] = []
    added: list[_Key] = []

    def place(key: _Key, member: bool) -> None:
        if _place(keys, key, member):
            (added if member else dropped).append(key)

    # Destroyed keys go first: a created id may equal a removed one, so a
    # new key may equal a destroyed one, and may then be both dropped
    # and added. A survivor's key equals neither, and a gained or lost
    # key equal to one is new or destroyed too.
    for key in destroyed:
        place(key, False)
    for key in gained - new:
        place(key, False)
    for key in lost - destroyed - gained:
        place(key, violates(result, key))
    for key in new:
        place(key, key not in gained and violates(result, key))
    dropped.sort()
    added.sort()
    report = ConsistencyReport(constraint.name, UNIVERSAL, before.occ - len(destroyed) + len(new),
                                len(keys), tuple(keys), constraint, result)
    return report, dropped, added, destroyed | new
