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
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Callable, Iterator, Mapping

from .errors import AnfError, MismatchError
from .graphs import (
    GraphMorphism,
    TypedGraph,
    _plan,
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

    @cached_property
    def _check(self) -> _Check:
        """This node's existence check, compiled on first evaluation."""
        return _compile_check(self)

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


def _satisfies(condition: Condition, host: TypedGraph, node_map: Mapping[str, str],
               edge_map: Mapping[str, str]) -> bool:
    """Does the occurrence with these maps into ``host`` satisfy ``condition``?

    The one evaluator of conditions. The maps are those of a total
    injective occurrence of the condition's anchor; nothing is validated.
    Each existential node runs its compiled check (:func:`_compile_check`),
    which hands the maps of each extension it finds to this function for
    the sub-condition, so no level builds a :class:`GraphMorphism`.
    """
    if isinstance(condition, TrueCondition):
        return True
    if isinstance(condition, Not):
        return not _satisfies(condition.sub, host, node_map, edge_map)
    if isinstance(condition, Exists):
        return condition._check(host, node_map, edge_map)
    if isinstance(condition, And):
        return (_satisfies(condition.left, host, node_map, edge_map)
                and _satisfies(condition.right, host, node_map, edge_map))
    raise TypeError(f"unknown condition node {condition!r}")


def iter_extensions(p: GraphMorphism, a: GraphMorphism) -> Iterator[GraphMorphism]:
    """The injective q with q . a = p, lazily and in no fixed order.

    ``p`` must be a total injective occurrence of the domain of ``a``; the
    results are the occurrences of the extended graph that agree with ``p``
    on the anchor. The search starts from the anchor's image and stops
    when the caller stops iterating. This is the API for the extensions
    themselves; existence checks run the compiled check of an
    :class:`Exists` node instead, which builds no morphism.
    """
    node_seed = {a.node_map[x]: p.node_map[x] for x in a.domain.node_ids}
    edge_seed = {a.edge_map[e]: p.edge_map[e] for e in a.domain.edge_ids}
    return iter_monomorphisms(a.codomain, p.codomain, node_seed=node_seed, edge_seed=edge_seed)


def extensions(p: GraphMorphism, a: GraphMorphism) -> list[GraphMorphism]:
    """All injective q with q . a = p, in canonical order: the sorted
    form of :func:`iter_extensions`."""
    return sorted(iter_extensions(p, a), key=GraphMorphism.sort_key)


# --- compiled existence checks ------------------------------------------------

_Check = Callable[[TypedGraph, Mapping[str, str], Mapping[str, str]], bool]

# The most loops one generated function nests. CPython refuses more than 20
# statically nested blocks, so a longer search goes on in a further function
# that takes the images placed so far.
_LOOPS_PER_FUNCTION = 12


def _compile_check(node: Exists) -> _Check:
    """The existence check of ``node`` as generated code.

    ``check(host, pn, pe)`` takes the node and edge maps of an occurrence
    of the anchor and tells whether it extends along ``node.morphism`` to
    an occurrence that satisfies ``node.sub``. It runs the seeded search
    plan of the extended graph as nested loops, with the same type tests,
    step order, neighbour candidates and early edge probes as
    :func:`iter_monomorphisms` seeded from the anchor. The source comes
    from :func:`_check_source`; same-shaped nodes share its code objects.
    """
    source, constants = _check_source(node)
    return _check_factory(source)(*constants)


@lru_cache(maxsize=256)
def _check_factory(source: str) -> Callable[..., _Check]:
    namespace = {"MismatchError": MismatchError, "permutations": permutations,
                 "SATISFIES": _satisfies}
    exec(compile(source, "<existence check>", "exec"), namespace)
    return namespace["make"]


def _check_source(node: Exists) -> tuple[str, tuple[object, ...]]:
    """The source of ``node``'s check factory and the constants it takes.

    The source holds no type name or element id: each reaches the code as
    an argument ``K<i>`` of the factory, next to the type graph ``TG`` and
    the sub-condition ``SUB``. So the text depends only on the shape of
    the search plan, and user text never becomes code.

    The free nodes are placed in plan order, one loop each; then each
    signature group with free edges gets one loop over its injective
    assignments. The innermost body returns ``True`` for a ``TRUE``
    sub-condition and evaluates the sub-condition on the maps otherwise.
    Every :data:`_LOOPS_PER_FUNCTION` loops the search continues in a new
    function ``s<i>``, so the nesting stays bounded for any pattern size.
    """
    a = node.morphism
    pattern, anchor = a.codomain, a.domain
    plan = _plan(pattern, frozenset(a.node_map.values()))
    # A candidate can only be a host node placed before it if that node has
    # its type. So a step tests its candidates against the set ``used``
    # only where its type was placed before, and ``used`` holds the placed
    # nodes of the types a later step places.
    step_types = [ntype for _, ntype, _, _ in plan.steps]
    seen = {pattern.node_type(a.node_map[x]) for x in anchor.node_ids}
    tested = [t in seen or t in step_types[:level] for level, t in enumerate(step_types)]
    tracked = any(tested)
    keys: dict[tuple[str, str], str] = {}

    def k(role: str, value: str) -> str:
        name = keys.get((role, value))
        if name is None:
            name = keys[role, value] = f"K{len(keys)}"
        return name

    lines: list[str] = []
    depth = 2
    loops = 0
    functions = 0
    # What ends this candidate: outside every loop the check fails.
    fail = "return False"
    # The depth of each node loop's body in the current function, and the
    # node its candidate put into ``used``; the body ends by taking it out.
    taken: list[tuple[int, str]] = []

    def emit(*texts: str) -> None:
        lines.extend("    " * depth + text for text in texts)

    def end_function() -> None:
        for body, n in reversed(taken):
            lines.append("    " * body + f"used.discard({n})")
        taken.clear()
        lines.append("        return False")

    def make_room() -> None:
        # Called before the code of a loop: with the current function full,
        # the search goes on in a new one.
        nonlocal depth, loops, functions, fail
        if loops < _LOOPS_PER_FUNCTION:
            return
        functions += 1
        args = ", ".join(["host", *(["used"] if tracked else []),
                          *node_var.values(), *edge_var.values()])
        emit(f"if s{functions}({args}):", "    return True")
        end_function()
        lines.append(f"    def s{functions}({args}):")
        depth, loops, fail = 2, 0, "return False"
        emit("hn, he, tr = host._nodes, host._edges, host._triples",
             "bt, inc = host._by_type, host._incident")

    def open_loop(header: str) -> None:
        nonlocal depth, loops, fail
        emit(header)
        depth += 1
        loops += 1
        fail = "continue"

    def fails(test: str) -> None:
        emit(f"if {test}:", f"    {fail}")

    emit("tg = host._type_graph",
         "if tg is not TG and tg != TG:",
         "    raise MismatchError('pattern and host are typed over different type graphs')")
    neighbours = any(source for _, _, source, _ in plan.steps)
    if anchor.node_ids or neighbours:
        emit("hn = host._nodes")
    # The pattern node or edge -> the variable holding its host image.
    node_var: dict[str, str] = {}
    for x in anchor.node_ids:
        v = a.node_map[x]
        n = node_var[v] = f"n{len(node_var)}"
        emit(f"{n} = pn[{k('anchor node', x)}]")
        fails(f"hn.get({n}) != {k('node type', pattern.node_type(v))}")
    if anchor.edge_ids or neighbours:
        emit("he = host._edges")
    edge_var: dict[str, str] = {}
    for e in anchor.edge_ids:
        c = a.edge_map[e]
        f = edge_var[c] = f"f{len(edge_var)}"
        emit(f"{f} = pe[{k('anchor edge', e)}]", f"x = he.get({f})")
        fails(f"x is None or x[0] != {k('edge type', pattern.edge_type(c))}")
    pinned = dict(edge_var)
    if pattern.edge_ids:
        emit("tr = host._triples")

    def probe(etype: str, src: str, tgt: str) -> str:
        return f"({k('edge type', etype)}, {node_var[src]}, {node_var[tgt]})"

    for etype, src, tgt in plan.seed_checks:
        fails(f"{probe(etype, src, tgt)} not in tr")
    if plan.scan_types:
        emit("bt = host._by_type")
    for ntype in plan.scan_types:
        fails(f"{k('node type', ntype)} not in bt")
    if neighbours:
        emit("inc = host._incident")
    if tracked:
        held = [n for v, n in node_var.items() if pattern.node_type(v) in step_types]
        emit(f"used = {{{', '.join(held)}}}" if held else "used = set()")

    for level, (v, ntype, source, checks) in enumerate(plan.steps):
        make_room()
        n, ktype = f"n{len(node_var)}", k("node type", ntype)
        if source is None:
            open_loop(f"for {n} in bt[{ktype}]:")
        else:
            u, etype, outgoing = source
            near, anchor_end, other_end = f"near{level}", *(("s", "t") if outgoing else ("t", "s"))
            emit(f"{near} = {{}}",
                 f"for e in inc[{node_var[u]}]:",
                 "    et, s, t = he[e]",
                 f"    if et == {k('edge type', etype)} and {anchor_end} == {node_var[u]}"
                 f" and hn[{other_end}] == {ktype}:",
                 f"        {near}[{other_end}] = None")
            open_loop(f"for {n} in {near}:")
        if tested[level]:
            fails(f"{n} in used")
        node_var[v] = n
        for etype, src, tgt in checks:
            fails(f"{probe(etype, src, tgt)} not in tr")
        if ntype in step_types[level + 1:]:
            emit(f"used.add({n})")
            taken.append((depth, n))

    # Every node is placed, and every pattern edge has at least one host
    # edge under the map. Within a signature group any injective choice of
    # host edges that keeps the pinned anchor edges is an extension. The
    # groups of pinned edges alone come first, as their tests need no loop.
    groups = []
    for i, (signature, p_edges) in enumerate(plan.groups):
        free = [e for e in p_edges if e not in pinned]
        pins = [pinned[e] for e in p_edges if e in pinned]
        groups.append((bool(free), i, signature, pins, free))
    for _, i, (etype, src, tgt), pins, free in sorted(groups):
        if free:
            make_room()
        h = f"h{i}"
        emit(f"{h} = tr[{probe(etype, src, tgt)}]")
        for f in pins:
            fails(f"{f} not in {h}")
        if not free:
            continue
        names = [f"g{len(edge_var) + j}" for j in range(len(free))]
        pool = f"[x for x in {h} if {' and '.join(f'x != {f}' for f in pins)}]" if pins else h
        if len(free) == 1:
            open_loop(f"for {names[0]} in {pool}:")
        else:
            open_loop(f"for {', '.join(names)} in permutations({pool}, {len(free)}):")
        edge_var.update(zip(free, names))
    if isinstance(node.sub, TrueCondition):
        emit("return True")
    else:
        nodes = ", ".join(f"{k('node', v)}: {node_var[v]}" for v in pattern.node_ids)
        edges = ", ".join(f"{k('edge', e)}: {edge_var[e]}" for e in pattern.edge_ids)
        emit(f"if SATISFIES(SUB, host, {{{nodes}}}, {{{edges}}}):", "    return True")
    end_function()
    params = ", ".join(["TG", "SUB", *keys.values()])
    source = "\n".join([f"def make({params}):", "    def check(host, pn, pe):",
                        *lines, "    return check", ""])
    return source, (pattern.type_graph, node.sub, *(value for _, value in keys))


def satisfies(p: GraphMorphism, condition: Condition) -> bool:
    """Does the total injective occurrence ``p`` satisfy ``condition``?"""
    if not p.is_total() or not p.is_injective():
        raise MismatchError("satisfaction is defined for total injective occurrences")
    anchor = condition.anchor()
    if anchor is not None and anchor != p.domain:
        raise MismatchError("occurrence domain differs from the condition anchor")
    return _satisfies(condition, p.codomain, p.node_map, p.edge_map)


def graph_satisfies(graph: TypedGraph, constraint: Constraint) -> bool:
    """Does ``graph`` satisfy the constraint (via the empty occurrence)?"""
    tg = constraint.type_graph
    if tg is not None and tg is not graph.type_graph and tg != graph.type_graph:
        raise MismatchError("graph and constraint use different type graphs")
    return _satisfies(constraint.condition, graph, {}, {})


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

    @cached_property
    def violating_keys(self) -> frozenset[tuple[tuple[str, ...], tuple[str, ...]]]:
        """The :meth:`GraphMorphism.sort_key` of each violating occurrence,
        built on first use. Every step from one host shares its report, so
        they share this set too."""
        return frozenset(p.sort_key() for p in self.violating_occurrences)


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
    body = shape.body
    if shape.polarity == UNIVERSAL:
        violating = tuple(p for p in occurrences
                          if _satisfies(body, graph, p.node_map, p.edge_map))
        ro = occ
        ncv = len(violating)
    else:
        ro = 1
        ncv = 0 if any(_satisfies(body, graph, p.node_map, p.edge_map)
                       for p in occurrences) else 1
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
