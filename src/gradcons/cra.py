"""A worked modeling scenario: classes, features, and assignment hygiene.

The scenario types graphs over two node kinds, Class and Feature, with an
assignment edge from features to classes and a dependency edge between
features. Three constraints express hygiene: no feature is assigned to
two classes (c1), every class has at least one assigned feature (c2), and
every dependency crossing class boundaries has a local fallback, a
dependency on some feature in the dependent feature's own class (c3).
Four edit rules operate on such models: assignFeature, createClass,
moveFeature, and deleteEmptyClass, each guarded by negative application
conditions.

The module ships the scenario as JSON fixture files, loads them on
demand, and reproduces two reference tables: the overlap-based
independence matrix (:func:`reproduce_independence_table`) and the
combined static-plus-search classification of every rule against every
constraint (:func:`reproduce_classification_table`). Expected values are
frozen in :data:`INDEPENDENCE_GOLDEN` and :data:`CLASSIFICATION_GOLDEN`;
the reproduction functions diff against them and flag any drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .analysis import (
    NECESSARY_CONDITION_FAILS,
    PROVEN_DIRECTLY_SUSTAINING,
    TABLE_GROUPS,
    IndependenceTable,
    criterion_direct_improve,
    criterion_direct_sustain,
    independence_table,
)
from .classify import (
    PROVEN_NO,
    WITNESS_FOUND,
    RuleClassification,
    classify_rule_empirical,
)
from .conditions import And, Constraint, Exists, Not, forall
from .errors import ContradictionError, DocumentError
from .formats import (
    emit_constraints_library,
    emit_graph_document,
    emit_rule_document,
    parse_constraints_library,
    parse_graph_document,
    parse_rule_document,
    read_document,
)
from .graphs import TypeGraph, TypedGraph, empty_graph, empty_morphism_into, inclusion
from .rewriting import Rule

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures" / "cra"
RULE_NAMES = ("assignFeature", "createClass", "moveFeature", "deleteEmptyClass")
CONSTRAINT_NAMES = ("c1", "c2", "c3")

_RULE_FILES = {name: f"rule_{name}.json" for name in RULE_NAMES}
_HOST_FILE = "host_graph.json"
_CONSTRAINTS_FILE = "constraints.json"


@dataclass(frozen=True)
class CraFixtures:
    type_graph: TypeGraph
    host: TypedGraph
    rules: dict[str, Rule] = field(hash=False)
    constraints: dict[str, Constraint] = field(hash=False)

    def rule_list(self) -> list[Rule]:
        return [self.rules[n] for n in RULE_NAMES]

    def constraint_list(self) -> list[Constraint]:
        return [self.constraints[n] for n in CONSTRAINT_NAMES]


def build_fixtures() -> CraFixtures:
    """Construct the scenario programmatically.

    This is the source the shipped JSON files were generated from; tests
    hold the two representations equal so they cannot drift apart.
    """
    tg = TypeGraph(
        ["Class", "Feature"],
        [("isAssigned", "Feature", "Class"), ("dependsOn", "Feature", "Feature")],
    )

    host = TypedGraph(
        tg,
        [("c1", "Class"), ("c2", "Class"),
         ("f1", "Feature"), ("f2", "Feature"), ("f3", "Feature")],
        [("asg_f1", "isAssigned", "f1", "c1"),
         ("asg_f2", "isAssigned", "f2", "c1"),
         ("asg_f3", "isAssigned", "f3", "c2"),
         ("dep_13", "dependsOn", "f1", "f3"),
         ("dep_23", "dependsOn", "f2", "f3"),
         ("dep_21", "dependsOn", "f2", "f1")],
    )

    # assignFeature: give an unassigned feature a class. Two forbidden
    # extensions: the feature already sits in some other class, or this
    # very assignment already exists.
    af_lhs = TypedGraph(tg, [("f", "Feature"), ("c", "Class")])
    af_rhs = af_lhs.with_added([], [("a", "isAssigned", "f", "c")])
    af_other = af_lhs.with_added(
        [("c_other", "Class")], [("e_pre", "isAssigned", "f", "c_other")]
    )
    af_same = af_lhs.with_added([], [("e_pre", "isAssigned", "f", "c")])
    assign_feature = Rule(
        "assignFeature", af_lhs, af_lhs, af_rhs,
        And(Not(Exists(inclusion(af_lhs, af_other))),
            Not(Exists(inclusion(af_lhs, af_same)))),
    )

    # createClass: put an unassigned feature into a brand-new class.
    cc_lhs = TypedGraph(tg, [("f", "Feature")])
    cc_rhs = cc_lhs.with_added([("c", "Class")], [("a", "isAssigned", "f", "c")])
    cc_nac = cc_lhs.with_added(
        [("c_pre", "Class")], [("e_pre", "isAssigned", "f", "c_pre")]
    )
    create_class = Rule(
        "createClass", cc_lhs, cc_lhs, cc_rhs, Not(Exists(inclusion(cc_lhs, cc_nac)))
    )

    # moveFeature: reassign a feature to another class, unless it is
    # already assigned there as well.
    mf_interface = TypedGraph(
        tg, [("f", "Feature"), ("c_src", "Class"), ("c_tgt", "Class")]
    )
    mf_lhs = mf_interface.with_added([], [("e_old", "isAssigned", "f", "c_src")])
    mf_rhs = mf_interface.with_added([], [("e_new", "isAssigned", "f", "c_tgt")])
    mf_nac = mf_lhs.with_added([], [("e_pre", "isAssigned", "f", "c_tgt")])
    move_feature = Rule(
        "moveFeature", mf_lhs, mf_interface, mf_rhs,
        Not(Exists(inclusion(mf_lhs, mf_nac))),
    )

    # deleteEmptyClass: remove a class no feature is assigned to.
    dec_lhs = TypedGraph(tg, [("c", "Class")])
    dec_nac = dec_lhs.with_added([("f", "Feature")], [("e", "isAssigned", "f", "c")])
    delete_empty_class = Rule(
        "deleteEmptyClass", dec_lhs, empty_graph(tg), empty_graph(tg),
        Not(Exists(inclusion(dec_lhs, dec_nac))),
    )

    # c1: no feature assigned to two classes.
    p1 = TypedGraph(
        tg,
        [("F", "Feature"), ("C1", "Class"), ("C2", "Class")],
        [("e1", "isAssigned", "F", "C1"), ("e2", "isAssigned", "F", "C2")],
    )
    c1 = Constraint("c1", Not(Exists(empty_morphism_into(p1))))

    # c2: every class has an assigned feature.
    p2 = TypedGraph(tg, [("C", "Class")])
    p2_ext = p2.with_added([("F", "Feature")], [("e", "isAssigned", "F", "C")])
    c2 = Constraint(
        "c2", forall(empty_morphism_into(p2), Exists(inclusion(p2, p2_ext)))
    )

    # c3: a dependency into another class needs a fallback dependency on
    # some feature of the dependent feature's own class.
    p3 = TypedGraph(
        tg,
        [("F1", "Feature"), ("F2", "Feature"), ("C1", "Class"), ("C2", "Class")],
        [("dep", "dependsOn", "F1", "F2"),
         ("as1", "isAssigned", "F1", "C1"),
         ("as2", "isAssigned", "F2", "C2")],
    )
    p3_ext = p3.with_added(
        [("F3", "Feature")],
        [("as3", "isAssigned", "F3", "C1"), ("dep2", "dependsOn", "F1", "F3")],
    )
    c3 = Constraint(
        "c3", forall(empty_morphism_into(p3), Exists(inclusion(p3, p3_ext)))
    )

    return CraFixtures(
        type_graph=tg,
        host=host,
        rules={
            "assignFeature": assign_feature,
            "createClass": create_class,
            "moveFeature": move_feature,
            "deleteEmptyClass": delete_empty_class,
        },
        constraints={"c1": c1, "c2": c2, "c3": c3},
    )


def load_fixtures(directory: str | Path | None = None) -> CraFixtures:
    """Load the scenario from its JSON files; ``directory`` defaults to
    the packaged fixtures."""
    base = Path(directory) if directory is not None else FIXTURES_DIR
    host = parse_graph_document(read_document(base / _HOST_FILE))
    rules = {
        name: parse_rule_document(read_document(base / filename))
        for name, filename in _RULE_FILES.items()
    }
    constraints = {
        c.name: c
        for c in parse_constraints_library(read_document(base / _CONSTRAINTS_FILE))
    }
    tg = host.type_graph
    problems = []
    for name, rule in rules.items():
        if rule.name != name:
            problems.append(f"{_RULE_FILES[name]} holds rule {rule.name!r}, not {name!r}")
        if rule.lhs.type_graph != tg:
            problems.append(f"rule {name!r} uses a different type graph than the host")
    for name, c in constraints.items():
        if c.type_graph != tg:
            problems.append(f"constraint {name!r} uses a different type graph than the host")
    missing = [n for n in CONSTRAINT_NAMES if n not in constraints]
    if missing:
        problems.append(f"constraints missing from library: {missing}")
    for name in CONSTRAINT_NAMES[1:]:
        # The reference table has continuation columns for these two.
        if name in constraints and constraints[name].shape.witness_graph is None:
            problems.append(f"constraint {name!r} has no pattern nested under its scope")
    if problems:
        raise DocumentError(problems)
    return CraFixtures(type_graph=tg, host=host, rules=rules, constraints=constraints)


def write_fixture_files(directory: str | Path) -> list[Path]:
    """Regenerate the JSON fixture files from the programmatic builder."""
    fixtures = build_fixtures()
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    written = []

    def put(name: str, text: str) -> None:
        path = base / name
        path.write_text(text)
        written.append(path)

    put(_HOST_FILE, emit_graph_document(fixtures.host))
    for name, filename in _RULE_FILES.items():
        put(filename, emit_rule_document(fixtures.rules[name]))
    put(_CONSTRAINTS_FILE,
        emit_constraints_library(fixtures.type_graph, fixtures.constraint_list()))
    return written


# --- the independence matrix --------------------------------------------------

# Signs for every rule against every component pattern, keyed by
# (rule name, group, constraint name); see IndependenceTable for the
# group vocabulary. Independence groups are positive when no overlap
# exists, dependence groups when at least one does.
INDEPENDENCE_GOLDEN: dict[tuple[str, str, str], str] = {}


def _fill_independence_golden() -> None:
    rows = {
        "assignFeature": ("-+-", "++", "---", "++"),
        "createClass": ("---", "++", "---", "++"),
        "moveFeature": ("-+-", "--", "+-+", "++"),
        "deleteEmptyClass": ("+++", "++", "-+-", "--"),
    }
    for rule_name, cells in rows.items():
        for group, signs in zip(TABLE_GROUPS, cells):
            cnames = CONSTRAINT_NAMES if len(signs) == 3 else CONSTRAINT_NAMES[1:]
            for cname, sign in zip(cnames, signs):
                INDEPENDENCE_GOLDEN[(rule_name, group, cname)] = sign


_fill_independence_golden()


@dataclass(frozen=True)
class IndependenceReproduction:
    table: IndependenceTable
    diffs: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.diffs

    def render_text(self) -> str:
        lines = [self.table.render_text()]
        if self.diffs:
            lines.append("")
            lines.append("DIFFS against the expected matrix:")
            lines.extend(f"  {d}" for d in self.diffs)
        else:
            lines.append("")
            lines.append("All 40 cells match the expected matrix.")
        return "\n".join(lines)


def reproduce_independence_table(fixtures: CraFixtures | None = None) -> IndependenceReproduction:
    fixtures = fixtures or load_fixtures()
    table = independence_table(fixtures.rule_list(), fixtures.constraint_list())
    diffs = []
    for (rule_name, group, cname), want in sorted(INDEPENDENCE_GOLDEN.items()):
        got = table.sign(rule_name, group, cname)
        if got != want:
            diffs.append(f"{rule_name}/{group}/{cname}: computed {got}, expected {want}")
    return IndependenceReproduction(table=table, diffs=tuple(diffs))


# --- the classification table -------------------------------------------------

# (sustaining, improving) cell pair per rule and constraint. "+" is
# established (statically or by exhausting the bounded universe), "(+)"
# means sustaining held throughout the search but direct sustainment has
# a counterexample, "+*" marks improvement that occurred at every
# application on an inconsistent host, and "-" is refuted.
CLASSIFICATION_GOLDEN: dict[tuple[str, str], tuple[str, str]] = {
    ("assignFeature", "c1"): ("+", "-"),
    ("assignFeature", "c2"): ("+", "+"),
    ("assignFeature", "c3"): ("-", "-"),
    ("createClass", "c1"): ("+", "-"),
    ("createClass", "c2"): ("+", "-"),
    ("createClass", "c3"): ("-", "-"),
    ("moveFeature", "c1"): ("(+)", "-"),
    ("moveFeature", "c2"): ("-", "-"),
    ("moveFeature", "c3"): ("-", "-"),
    ("deleteEmptyClass", "c1"): ("+", "-"),
    ("deleteEmptyClass", "c2"): ("+", "+*"),
    ("deleteEmptyClass", "c3"): ("+", "-"),
}

# Pairs the static criteria alone must certify as directly sustaining.
STATIC_PROOF_GOLDEN = frozenset(
    [
        ("assignFeature", "c2"),
        ("createClass", "c2"),
        ("deleteEmptyClass", "c1"),
        ("deleteEmptyClass", "c2"),
        ("deleteEmptyClass", "c3"),
    ]
)


@dataclass(frozen=True)
class ClassificationReproduction:
    bound: int
    samples: int
    seed: int
    cells: dict[tuple[str, str], tuple[str, str]] = field(hash=False)
    statically_proven: frozenset[tuple[str, str]]
    empirical: dict[tuple[str, str], RuleClassification] = field(hash=False)
    diffs: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.diffs

    def render_text(self) -> str:
        width = max(len(r) for r in RULE_NAMES)
        header = (
            "rule".ljust(width)
            + "  sustaining " + " ".join(f"{c:>4}" for c in CONSTRAINT_NAMES)
            + "   improving " + " ".join(f"{c:>4}" for c in CONSTRAINT_NAMES)
        )
        lines = [header]
        for rule_name in RULE_NAMES:
            pairs = [self.cells[(rule_name, c)] for c in CONSTRAINT_NAMES]
            sus = " ".join(f"{sign:>4}" for sign, _ in pairs)
            imp = " ".join(f"{sign:>4}" for _, sign in pairs)
            lines.append(f"{rule_name.ljust(width)}             {sus}             {imp}")
        lines.append("")
        lines.append(f"search bound {self.bound} nodes, {self.samples} random hosts, seed {self.seed}")
        proven = ", ".join(f"{r}/{c}" for r, c in sorted(self.statically_proven))
        lines.append(f"statically certified sustaining: {proven}")
        if self.diffs:
            lines.append("DIFFS against the expected table:")
            lines.extend(f"  {d}" for d in self.diffs)
        else:
            lines.append("All 24 cells match the expected table.")
        return "\n".join(lines)


def _classify_pair(
    rule: Rule,
    constraint: Constraint,
    bound: int,
    samples: int,
    seed: int,
) -> tuple[tuple[str, str], bool, RuleClassification]:
    """The pair's (sustaining, improving) cell, whether the static
    criterion proves it directly sustaining, and the search result behind
    the cell."""
    static_sustain = criterion_direct_sustain(rule, constraint)
    static_improve = criterion_direct_improve(rule, constraint, sustain=static_sustain)
    empirical = classify_rule_empirical(rule, constraint, bound=bound, samples=samples, seed=seed)
    sustaining = empirical.claim("sustaining")
    direct = empirical.claim("directly_sustaining")
    improving = empirical.claim("improving")
    strong = empirical.claim("strongly_improving")

    proven = static_sustain.verdict == PROVEN_DIRECTLY_SUSTAINING
    if proven and PROVEN_NO in (sustaining.status, direct.status):
        raise ContradictionError(
            f"{rule.name}/{constraint.name}: statically certified sustaining, "
            "but the search produced a counterexample step"
        )
    if static_improve.verdict == NECESSARY_CONDITION_FAILS and improving.status == WITNESS_FOUND:
        raise ContradictionError(
            f"{rule.name}/{constraint.name}: improvement statically impossible, "
            "but the search produced an improving step"
        )
    # A static proof has no counterexample (checked above), so it reads "+".
    if sustaining.status == PROVEN_NO:
        sus = "-"
    elif direct.status == PROVEN_NO:
        sus = "(+)"
    else:
        sus = "+"
    if sus == "-" or improving.status != WITNESS_FOUND:
        imp = "-"
    elif strong.status == PROVEN_NO:
        imp = "+"
    else:
        imp = "+*"
    return (sus, imp), proven, empirical


def reproduce_classification_table(
    fixtures: CraFixtures | None = None,
    bound: int = 4,
    samples: int = 200,
    seed: int = 1,
) -> ClassificationReproduction:
    """Classify every rule against every constraint and diff the result.

    Combines the static criteria with bounded exhaustive search plus
    random sampling; a disagreement between a static proof and a found
    counterexample raises :class:`ContradictionError`.
    """
    fixtures = fixtures or load_fixtures()
    cells: dict[tuple[str, str], tuple[str, str]] = {}
    empirical: dict[tuple[str, str], RuleClassification] = {}
    proven = set()
    for rule_name in RULE_NAMES:
        for cname in CONSTRAINT_NAMES:
            key = (rule_name, cname)
            cells[key], is_proven, empirical[key] = _classify_pair(
                fixtures.rules[rule_name], fixtures.constraints[cname],
                bound, samples, seed,
            )
            if is_proven:
                proven.add(key)

    diffs = []
    for key, (want_sus, want_imp) in sorted(CLASSIFICATION_GOLDEN.items()):
        got_sus, got_imp = cells[key]
        if got_sus != want_sus:
            diffs.append(f"{key[0]}/{key[1]} sustaining: computed {got_sus}, expected {want_sus}")
        if got_imp != want_imp:
            diffs.append(f"{key[0]}/{key[1]} improving: computed {got_imp}, expected {want_imp}")
    if frozenset(proven) != STATIC_PROOF_GOLDEN:
        extra = sorted(set(proven) - STATIC_PROOF_GOLDEN)
        missing = sorted(STATIC_PROOF_GOLDEN - set(proven))
        diffs.append(f"static proof set differs: extra {extra}, missing {missing}")

    return ClassificationReproduction(
        bound=bound,
        samples=samples,
        seed=seed,
        cells=cells,
        statically_proven=frozenset(proven),
        empirical=empirical,
        diffs=tuple(diffs),
    )
