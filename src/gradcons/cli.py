"""Command line front end.

Commands operate on the JSON document formats and print either a human
readable text report or, with ``--format structured``, canonical JSON
(sorted keys, two-space indent) that is byte-identical across runs for
the same inputs and seed.

Exit codes: 0 success, 1 a reproduction or consistency-of-the-engine
failure, 2 a document that does not parse or validate, 3 a semantic
error such as a missing match or an unsupported constraint shape.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cra
from .analysis import criterion_direct_improve, criterion_direct_sustain
from .classify import UNIVERSAL_CLAIMS, WITNESS_CLAIMS, classify_rule_empirical, classify_step
from .conditions import Constraint, consistency_report, graph_satisfies
from .errors import AnfError, ContradictionError, DocumentError, GradconsError, MatchError
from .formats import (
    CONSTRAINT_FORMAT,
    CONSTRAINTS_FORMAT,
    GRAPH_FORMAT,
    RULE_FORMAT,
    emit_graph_document,
    load_json,
    parse_constraint_document,
    parse_constraints_library,
    parse_graph_document,
    parse_rule_document,
    read_document,
)
from .graphs import GraphMorphism, TypedGraph
from .rewriting import Rule, apply, scan_matches


def _emit_structured(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_graph(path: str) -> TypedGraph:
    return parse_graph_document(read_document(path))


def _load_rule(path: str) -> Rule:
    return parse_rule_document(read_document(path))


def _load_constraints(path: str, only: str | None) -> list[Constraint]:
    doc = load_json(read_document(path))
    if isinstance(doc, dict) and doc.get("format") == CONSTRAINT_FORMAT:
        constraints = [parse_constraint_document(doc)]
    else:
        constraints = parse_constraints_library(doc)
    if only is not None:
        constraints = [c for c in constraints if c.name == only]
        if not constraints:
            raise DocumentError([f"no constraint named {only!r} in {path}"])
    return constraints


def _morphism_payload(m: GraphMorphism) -> dict:
    return {
        "nodes": dict(sorted(m.node_map.items())),
        "edges": dict(sorted(m.edge_map.items())),
    }


def _parse_match_spec(spec: str) -> dict[str, str]:
    pairs = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise DocumentError([f"match binding {chunk!r} is not of the form lhsid=hostid"])
        k, v = (part.strip() for part in chunk.split("=", 1))
        if k in pairs:
            raise DocumentError([f"match spec binds {k!r} more than once"])
        pairs[k] = v
    return pairs


def _select_match(rule: Rule, host: TypedGraph, spec: str | None) -> GraphMorphism:
    scan = scan_matches(rule, host)
    candidates = scan.keys
    # A key lists the node images over the sorted lhs node ids, so bindings
    # are tested by position and only the selected match becomes a morphism.
    node_ids = rule.lhs.node_ids
    if spec is not None:
        wanted = _parse_match_spec(spec)
        edges = [k for k in wanted if rule.lhs.has_edge(k)]
        if edges:
            raise MatchError(f"--match binds lhs nodes only, not the lhs edges {edges}")
        unknown = [k for k in wanted if not rule.lhs.has_node(k)]
        if unknown:
            raise MatchError(f"match spec names ids not in the rule's left side: {unknown}")
        bound = [(node_ids.index(k), v) for k, v in wanted.items()]
        candidates = [key for key in candidates if all(key[0][i] == v for i, v in bound)]
    if len(candidates) == 1:
        return GraphMorphism.from_key(rule.lhs, host, candidates[0])
    if not candidates:
        raise MatchError(
            f"no applicable match of {rule.name!r}"
            + (" under the given bindings" if spec else "")
            + f" ({scan.rejected_by_condition} rejected by the application condition, "
            f"{scan.rejected_by_dangling} by the gluing condition)"
        )
    listing = "; ".join(
        ",".join(f"{k}={v}" for k, v in zip(node_ids, images)) for images, _ in candidates
    )
    raise MatchError(
        f"{len(candidates)} matches of {rule.name!r} apply, disambiguate with --match: {listing}"
    )


# --- commands -----------------------------------------------------------------


def _cmd_validate(args) -> int:
    parsers = {
        GRAPH_FORMAT: ("graph", parse_graph_document),
        RULE_FORMAT: ("rule", parse_rule_document),
        CONSTRAINT_FORMAT: ("constraint", parse_constraint_document),
        CONSTRAINTS_FORMAT: ("constraint library", parse_constraints_library),
    }
    results = []
    failures = []
    for path in args.files:
        try:
            doc = load_json(read_document(path))
        except DocumentError as exc:
            failures.append((path, exc.problems))
            continue
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if not isinstance(fmt, str) or fmt not in parsers:
            failures.append((path, [f"unknown document format {fmt!r}"]))
            continue
        kind, parser = parsers[fmt]
        try:
            value = parser(doc)
        except DocumentError as exc:
            failures.append((path, exc.problems))
            continue
        detail = ""
        if isinstance(value, TypedGraph):
            detail = f"{value.node_count} nodes, {value.edge_count} edges"
        elif isinstance(value, Rule):
            detail = (
                f"{value.name}: deletes {len(value.deleted_nodes)}+{len(value.deleted_edges)}, "
                f"creates {len(value.created_nodes)}+{len(value.created_edges)}"
            )
        elif isinstance(value, (Constraint, list)):
            constraints = value if isinstance(value, list) else [value]
            problems = []
            for c in constraints:
                try:
                    c.shape
                except AnfError as exc:
                    problems.append(f"constraint {c.name!r}: {exc}")
            if problems:
                failures.append((path, problems))
                continue
            if isinstance(value, Constraint):
                detail = f"{value.name}: {value.shape.polarity}, {value.shape.level} levels"
            else:
                detail = ", ".join(f"{c.name} ({c.shape.polarity})" for c in value)
        results.append((path, kind, detail))

    if args.format == "structured":
        _emit_structured({
            "ok": not failures,
            "valid": [{"path": p, "kind": k, "detail": d} for p, k, d in results],
            "invalid": [{"path": p, "problems": pr} for p, pr in failures],
        })
    else:
        for path, kind, detail in results:
            print(f"{path}: {kind} ok" + (f" ({detail})" if detail else ""))
        for path, problems in failures:
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
    return 2 if failures else 0


def _cmd_satisfy(args) -> int:
    graph = _load_graph(args.graph)
    constraints = _load_constraints(args.constraints, args.constraint)
    rows = [(c.name, graph_satisfies(graph, c)) for c in constraints]
    if args.format == "structured":
        _emit_structured({
            "graph": args.graph,
            "results": [{"constraint": n, "satisfied": s} for n, s in rows],
        })
    else:
        for name, sat in rows:
            print(f"{name}: {'satisfied' if sat else 'violated'}")
    return 0


def _cmd_report(args) -> int:
    graph = _load_graph(args.graph)
    constraints = _load_constraints(args.constraints, args.constraint)
    reports = [consistency_report(graph, c) for c in constraints]
    if args.format == "structured":
        _emit_structured({
            "graph": args.graph,
            "reports": [
                {
                    "constraint": r.constraint_name,
                    "polarity": r.polarity,
                    "occurrences": r.occ,
                    "relevant": r.ro,
                    "violations": r.ncv,
                    "consistency": str(r.ci),
                    "satisfied": r.satisfied,
                    "violating_occurrences": [
                        _morphism_payload(v) for v in r.violating_occurrences
                    ],
                }
                for r in reports
            ],
        })
    else:
        for r in reports:
            tag = "satisfied" if r.satisfied else "violated"
            print(
                f"{r.constraint_name}: {r.polarity}, occurrences={r.occ}, "
                f"relevant={r.ro}, violations={r.ncv}, consistency={r.ci} [{tag}]"
            )
            for v in r.violating_occurrences:
                binding = ",".join(f"{k}={w}" for k, w in sorted(v.node_map.items()))
                print(f"  violating occurrence: {binding}")
    return 0


def _cmd_apply(args) -> int:
    rule = _load_rule(args.rule)
    host = _load_graph(args.graph)
    match = _select_match(rule, host, args.match)
    t = apply(rule, host, match, step=args.step)
    document = emit_graph_document(t.result)
    if args.out:
        try:
            Path(args.out).write_text(document)
        except OSError as exc:
            raise DocumentError([f"cannot write {args.out}: {exc}"]) from exc
    else:
        sys.stdout.write(document)
    summary = (
        f"applied {rule.name}: deleted {len(rule.deleted_nodes)} nodes / "
        f"{len(rule.deleted_edges)} edges, created {len(rule.created_nodes)} nodes / "
        f"{len(rule.created_edges)} edges; result has {t.result.node_count} nodes, "
        f"{t.result.edge_count} edges"
    )
    print(summary, file=sys.stderr)
    return 0


def _cmd_classify_step(args) -> int:
    rule = _load_rule(args.rule)
    host = _load_graph(args.graph)
    constraints = _load_constraints(args.constraints, args.constraint)
    match = _select_match(rule, host, args.match)
    t = apply(rule, host, match, step=args.step)
    verdicts = [classify_step(t, c) for c in constraints]
    if args.format == "structured":
        _emit_structured({
            "rule": rule.name,
            "match": _morphism_payload(match),
            "verdicts": [
                {
                    "constraint": v.constraint_name,
                    "preserving": v.preserving,
                    "guaranteeing": v.guaranteeing,
                    "sustaining": v.sustaining,
                    "improving": v.improving,
                    "directly_sustaining": v.directly_sustaining,
                    "directly_improving": v.directly_improving,
                    "consistency_before": str(v.report_before.ci),
                    "consistency_after": str(v.report_after.ci),
                    "evidence": {
                        label: _morphism_payload(m) for label, m in sorted(v.evidence.items())
                    },
                }
                for v in verdicts
            ],
        })
    else:
        binding = ",".join(f"{k}={v}" for k, v in sorted(match.node_map.items()))
        print(f"step: {rule.name} at {binding}")
        for v in verdicts:
            flags = []
            for label in ("preserving", "guaranteeing", "sustaining", "improving",
                          "directly_sustaining", "directly_improving"):
                mark = "+" if getattr(v, label) else "-"
                flags.append(f"{label}{mark}")
            print(
                f"  {v.constraint_name}: consistency {v.report_before.ci} -> "
                f"{v.report_after.ci}; " + " ".join(flags)
            )
    return 0


def _cmd_classify_rule(args) -> int:
    rule = _load_rule(args.rule)
    constraints = _load_constraints(args.constraints, args.constraint)
    payload = []
    for c in constraints:
        result = classify_rule_empirical(
            rule, c, bound=args.bound, samples=args.samples, seed=args.seed
        )
        payload.append(result)
    if args.format == "structured":
        _emit_structured({
            "rule": rule.name,
            "bound": args.bound,
            "samples": args.samples,
            "seed": args.seed,
            "results": [
                {
                    "constraint": r.constraint_name,
                    "hosts_examined": r.hosts_examined,
                    "steps_examined": r.steps_examined,
                    "claims": {name: r.claims[name].status for name in sorted(r.claims)},
                }
                for r in payload
            ],
        })
    else:
        for r in payload:
            print(
                f"{rule.name} vs {r.constraint_name} "
                f"(bound {r.bound}, samples {r.samples}, seed {r.seed}; "
                f"{r.hosts_examined} hosts, {r.steps_examined} steps)"
            )
            for name in UNIVERSAL_CLAIMS + WITNESS_CLAIMS:
                print(f"  {name:<22} {r.claims[name].status}")
    return 0


def _cmd_analyze(args) -> int:
    rule = _load_rule(args.rule)
    constraints = _load_constraints(args.constraints, args.constraint)
    rows = []
    for c in constraints:
        sustain = criterion_direct_sustain(rule, c, allow_conjecture=args.conjecture)
        improve = criterion_direct_improve(
            rule, c, sustain=sustain, allow_conjecture=args.conjecture
        )
        rows.append((c, sustain, improve))
    any_conjectured = any(s.conjectured or i.conjectured for _, s, i in rows)
    if args.format == "structured":
        _emit_structured({
            "rule": rule.name,
            "conjecture_extension": args.conjecture,
            "results": [
                {
                    "constraint": c.name,
                    "direct_sustainment": {
                        "verdict": s.verdict,
                        "conjectured": s.conjectured,
                        "overlaps": len(s.evidence),
                        "notes": list(s.notes),
                    },
                    "improvement_necessity": {
                        "verdict": i.verdict,
                        "conjectured": i.conjectured,
                        "overlaps": len(i.evidence),
                        "notes": list(i.notes),
                    },
                }
                for c, s, i in rows
            ],
        })
    else:
        for c, s, i in rows:
            print(f"{rule.name} vs {c.name}")
            print(f"  direct sustainment:    {s.verdict}" + (" (conjectured)" if s.conjectured else ""))
            for note in s.notes:
                print(f"    - {note}")
            print(f"  improvement necessity: {i.verdict}" + (" (conjectured)" if i.conjectured else ""))
            for note in i.notes:
                print(f"    - {note}")
        if any_conjectured:
            print(
                "note: conjectured verdicts extend the criteria beyond the "
                "two-level shapes they are proven for; treat them as hints"
            )
    return 0


def _cmd_bench(args) -> int:
    fixtures = cra.load_fixtures(args.fixtures)
    ind = cra.reproduce_independence_table(fixtures)
    ok = ind.ok
    cls = None
    if not args.independence_only:
        cls = cra.reproduce_classification_table(
            fixtures, bound=args.bound, samples=args.samples, seed=args.seed
        )
        ok = ok and cls.ok
    if args.format == "structured":
        payload = {
            "ok": ok,
            "independence": {
                "cells": {
                    f"{r}/{g}/{c}": ind.table.sign(r, g, c)
                    for (r, g, c) in sorted(cra.INDEPENDENCE_GOLDEN)
                },
                "diffs": list(ind.diffs),
            },
        }
        if cls is not None:
            payload["classification"] = {
                "bound": cls.bound,
                "samples": cls.samples,
                "seed": cls.seed,
                "cells": {
                    f"{r}/{c}": list(pair) for (r, c), pair in sorted(cls.cells.items())
                },
                "statically_proven": sorted(f"{r}/{c}" for r, c in cls.statically_proven),
                "diffs": list(cls.diffs),
            }
        _emit_structured(payload)
    else:
        print(ind.render_text())
        if cls is not None:
            print()
            print(cls.render_text())
    return 0 if ok else 1


# --- wiring -------------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output style: human text or canonical JSON",
    )


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_search_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", type=_non_negative_int, default=4,
                   help="exhaust all hosts up to this many nodes (default 4)")
    p.add_argument("--samples", type=_non_negative_int, default=200,
                   help="random larger hosts to try after the exhaustive pass (default 200)")
    p.add_argument("--seed", type=int, default=1,
                   help="seed for the random host generator (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcons",
        description="Graduated consistency and rule classification for typed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate documents")
    p.add_argument("files", nargs="+", help="JSON documents of any supported format")
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("satisfy", help="check constraint satisfaction of a graph")
    p.add_argument("graph")
    p.add_argument("constraints", help="constraint or constraint-library document")
    p.add_argument("--constraint", help="restrict to one constraint by name")
    _add_format(p)
    p.set_defaults(func=_cmd_satisfy)

    p = sub.add_parser("report", help="graduated consistency report for a graph")
    p.add_argument("graph")
    p.add_argument("constraints")
    p.add_argument("--constraint")
    _add_format(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("apply", help="apply a rule to a graph and print the result")
    p.add_argument("rule")
    p.add_argument("graph")
    p.add_argument("--match", help="comma-separated lhsid=hostid node bindings")
    p.add_argument("--step", type=int, default=0,
                   help="step counter used in fresh element ids (default 0)")
    p.add_argument("--out", help="write the result document here instead of stdout")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("classify-step", help="classify one application against constraints")
    p.add_argument("rule")
    p.add_argument("graph")
    p.add_argument("constraints")
    p.add_argument("--constraint")
    p.add_argument("--match")
    p.add_argument("--step", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=_cmd_classify_step)

    p = sub.add_parser("classify-rule", help="search-based rule classification")
    p.add_argument("rule")
    p.add_argument("constraints")
    p.add_argument("--constraint")
    _add_search_knobs(p)
    _add_format(p)
    p.set_defaults(func=_cmd_classify_rule)

    p = sub.add_parser("analyze", help="static overlap criteria for a rule")
    p.add_argument("rule")
    p.add_argument("constraints")
    p.add_argument("--constraint")
    p.add_argument("--conjecture", action="store_true",
                   help="extend the criteria past their proven fragment, marking results")
    _add_format(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bench", help="reproduce the reference tables from the fixtures")
    p.add_argument("--fixtures", help="fixture directory (default: packaged scenario)")
    p.add_argument("--independence-only", action="store_true",
                   help="skip the search-based classification table")
    _add_search_knobs(p)
    _add_format(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContradictionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DocumentError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except GradconsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
