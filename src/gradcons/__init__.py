"""Graduated consistency and rule classification for typed graphs.

The package models typed multigraphs, applies rewrite rules by the
double-pushout construction, and evaluates graphs against linear nested
constraints in alternating normal form. On top of that it measures how
consistent a graph is as an exact fraction, classifies individual rule
applications and whole rules with respect to a constraint, and decides
or bounds those classifications statically through overlap analysis
between a rule and a constraint's patterns.

The usual entry points:

- :class:`TypeGraph`, :class:`TypedGraph`, :func:`enumerate_monomorphisms`
  for the graph model,
- :class:`Exists`, :func:`forall`, :class:`Constraint`, :func:`validate_anf`,
  :func:`graph_satisfies`, :func:`consistency_report` for constraints,
- :class:`Rule`, :func:`find_matches`, :func:`apply` for rewriting,
- :func:`classify_step`, :func:`classify_rule_empirical` for dynamic
  classification,
- :func:`rule_conflicts_on_check`, :func:`check_depends_on_rule`,
  :func:`criterion_direct_sustain`, :func:`criterion_direct_improve`,
  :func:`independence_table` for the static analysis,
- :mod:`gradcons.formats` for the JSON document formats and
  :mod:`gradcons.cra` for the packaged worked example.
"""

from .analysis import (
    CONJECTURED_DIRECTLY_SUSTAINING,
    INCONCLUSIVE,
    NECESSARY_CONDITION_FAILS,
    NECESSARY_CONDITION_HOLDS,
    PROVEN_DIRECTLY_SUSTAINING,
    PROVEN_IMPROVING,
    PROVEN_NOT_DIRECTLY_SUSTAINING,
    CriterionResult,
    IndependenceTable,
    Overlap,
    check_depends_on_rule,
    criterion_direct_improve,
    criterion_direct_sustain,
    independence_table,
    rule_conflicts_on_check,
)
from .classify import (
    ClaimResult,
    RuleClassification,
    StepVerdict,
    bounded_hosts,
    classify_rule_empirical,
    classify_step,
)
from .conditions import (
    EXISTENTIAL,
    FALSE,
    TRUE,
    UNIVERSAL,
    And,
    AnfShape,
    Condition,
    ConsistencyReport,
    Constraint,
    Exists,
    Not,
    TrueCondition,
    consistency_report,
    extensions,
    forall,
    graph_satisfies,
    negate,
    satisfies,
    validate_anf,
)
from .errors import (
    AnfError,
    BoundError,
    ContradictionError,
    DocumentError,
    GradconsError,
    MatchError,
    MismatchError,
    RuleError,
    UnsupportedShapeError,
)
from .graphs import (
    GraphMorphism,
    TypedGraph,
    TypeGraph,
    empty_graph,
    empty_morphism_into,
    enumerate_monomorphisms,
    inclusion,
    validate_graph,
)
from .rewriting import (
    MatchScan,
    Rule,
    Transformation,
    apply,
    find_matches,
    scan_matches,
)

__version__ = "0.1.0"

__all__ = [
    "And",
    "AnfError",
    "AnfShape",
    "BoundError",
    "CONJECTURED_DIRECTLY_SUSTAINING",
    "ClaimResult",
    "Condition",
    "ConsistencyReport",
    "Constraint",
    "ContradictionError",
    "CriterionResult",
    "DocumentError",
    "EXISTENTIAL",
    "Exists",
    "FALSE",
    "GradconsError",
    "GraphMorphism",
    "INCONCLUSIVE",
    "IndependenceTable",
    "MatchError",
    "MatchScan",
    "MismatchError",
    "NECESSARY_CONDITION_FAILS",
    "NECESSARY_CONDITION_HOLDS",
    "Not",
    "Overlap",
    "PROVEN_DIRECTLY_SUSTAINING",
    "PROVEN_IMPROVING",
    "PROVEN_NOT_DIRECTLY_SUSTAINING",
    "Rule",
    "RuleClassification",
    "RuleError",
    "StepVerdict",
    "TRUE",
    "Transformation",
    "TrueCondition",
    "TypeGraph",
    "TypedGraph",
    "UNIVERSAL",
    "UnsupportedShapeError",
    "apply",
    "bounded_hosts",
    "check_depends_on_rule",
    "classify_rule_empirical",
    "classify_step",
    "consistency_report",
    "criterion_direct_improve",
    "criterion_direct_sustain",
    "empty_graph",
    "empty_morphism_into",
    "enumerate_monomorphisms",
    "extensions",
    "find_matches",
    "forall",
    "graph_satisfies",
    "inclusion",
    "independence_table",
    "negate",
    "rule_conflicts_on_check",
    "satisfies",
    "scan_matches",
    "validate_anf",
    "validate_graph",
]
