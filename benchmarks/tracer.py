"""Per-layer tracing from outside the engine.

The tracer rebinds each layer's public functions, in every loaded
``gradcons`` module that holds them, to a wrapper that records calls,
total time, self time (its own time minus that of traced calls inside
it) and counts read from the results. It keeps one aggregate per
(layer, parent layer), where the parent is the innermost traced call
active when the call began, or ``root``. ``restore`` puts every original
binding back; untraced runs never install it.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


def _count_results(agg, result) -> None:
    agg.add("results", len(result))
    agg.add("empty", not result)


def _count_report(agg, report) -> None:
    agg.add("occurrences", report.occ)
    agg.add("violations", report.ncv)


def _count_scan(agg, scan) -> None:
    agg.add("matches", len(scan.matches))
    agg.add("rejected", scan.rejected_by_condition + scan.rejected_by_dangling)


def _count_hosts(agg, hosts) -> None:
    agg.add("hosts", len(hosts))


def _count_rule(agg, classification) -> None:
    agg.add("hosts", classification.hosts_examined)
    agg.add("steps", classification.steps_examined)


def _count_found(agg, overlaps) -> None:
    agg.add("found", len(overlaps))


def _count_decisive(agg, criterion) -> None:
    agg.add("decisive", criterion.decisive)


# (layer, defining module, public functions, result counter)
LAYERS = (
    ("graphs.enumerate", "gradcons.graphs", ("enumerate_monomorphisms",), _count_results),
    ("conditions.report", "gradcons.conditions", ("consistency_report",), _count_report),
    ("conditions.extensions", "gradcons.conditions", ("extensions",), None),
    ("conditions.satisfies", "gradcons.conditions", ("satisfies", "graph_satisfies"), None),
    ("conditions.anf", "gradcons.conditions", ("validate_anf",), None),
    ("rewriting.scan", "gradcons.rewriting", ("scan_matches",), _count_scan),
    ("rewriting.apply", "gradcons.rewriting", ("apply",), None),
    ("classify.step", "gradcons.classify", ("classify_step",), None),
    ("classify.universe", "gradcons.classify", ("bounded_hosts",), _count_hosts),
    ("classify.rule", "gradcons.classify", ("classify_rule_empirical",), _count_rule),
    ("analysis.overlaps", "gradcons.analysis",
     ("rule_conflicts_on_check", "check_depends_on_rule"), _count_found),
    ("analysis.criteria", "gradcons.analysis",
     ("criterion_direct_sustain", "criterion_direct_improve"), _count_decisive),
    ("formats.parse", "gradcons.formats",
     ("parse_graph_document", "parse_rule_document", "parse_constraint_document",
      "parse_constraints_library"), None),
    ("cli", "gradcons.cli", ("main",), None),
)

# The end-to-end metric each layer's metrics should move, and where;
# written down before any optimisation, for the traced run to print.
MOVES = {
    "graphs.enumerate": "report_s, scan_s, step_p50_s on cra-model; barely cra-table",
    "conditions.report": "report_s, step_p50_s on cra-model; wall_s on rule-search",
    "conditions.extensions": "report_s, step_p50_s on cra-model; wall_s on rule-search",
    "conditions.satisfies": "report_s, step_p50_s on cra-model; wall_s on rule-search",
    "conditions.anf": "wall_s on cra-table; not cra-model",
    "rewriting.scan": "scan_s on cra-model; wall_s on rule-search",
    "rewriting.apply": "wall_s on cra-table; not cra-model, where apply takes milliseconds",
    "classify.step": "step_p50_s on cra-model; wall_s on cra-table",
    "classify.universe": "wall_s on rule-search; not cra-model",
    "classify.rule": "wall_s on cra-table",
    "analysis.overlaps": "recorded only: below 1 % of every workload",
    "analysis.criteria": "recorded only: below 1 % of every workload",
    "formats.parse": "setup_s",
    "cli": "wall_s on cra-table",
}


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)


class Tracer:
    def __init__(self):
        self.aggregates: dict[tuple[str, str], Aggregate] = {}
        self._stack: list[list] = []  # [layer, time spent in traced children]
        self._bindings: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []

    def _wrap(self, layer: str, original, counter):
        stack = self._stack
        aggregates = self.aggregates
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "root"
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = aggregates.get((layer, parent))
                if agg is None:
                    agg = aggregates[(layer, parent)] = Aggregate()
                agg.calls += 1
                agg.total_s += elapsed
                agg.self_s += elapsed - frame[1]
            if counter is not None:
                counter(agg, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gradcons" or name.startswith("gradcons."))]
        for layer, home, names, counter in LAYERS:
            home_module = sys.modules.get(home)
            for name in names:
                original = getattr(home_module, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, original, counter)
                self.wrapped.append(f"{home}.{name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def layer(self, layer: str) -> Aggregate:
        """The aggregate of one layer summed over its parents."""
        total = Aggregate()
        for (name, _), agg in self.aggregates.items():
            if name != layer:
                continue
            total.calls += agg.calls
            total.total_s += agg.total_s
            total.self_s += agg.self_s
            for key, value in agg.counts.items():
                total.add(key, value)
        return total


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def put(layer: str, *keys: str) -> Aggregate:
        agg = tracer.layer(layer)
        for key in keys:
            if key == "calls":
                out[f"{layer}.calls"] = (agg.calls, "count")
            elif key == "self_s":
                out[f"{layer}.self_s"] = (agg.self_s, "s")
            else:
                out[f"{layer}.{key}"] = (agg.counts.get(key, 0), "count")
        return agg

    agg = put("graphs.enumerate", "calls", "self_s", "results")
    out["graphs.enumerate.empty_ratio"] = (_ratio(agg.counts.get("empty", 0), agg.calls), "ratio")
    put("conditions.report", "calls", "self_s", "occurrences", "violations")
    put("conditions.extensions", "calls", "self_s")
    put("conditions.satisfies", "calls", "self_s")
    put("conditions.anf", "calls", "self_s")
    agg = put("rewriting.scan", "calls", "self_s", "matches")
    kept = agg.counts.get("matches", 0)
    rejected = agg.counts.get("rejected", 0)
    out["rewriting.scan.match_ratio"] = (_ratio(kept, kept + rejected), "ratio")
    put("rewriting.apply", "calls", "self_s")
    put("classify.step", "calls", "self_s")
    put("classify.universe", "calls", "self_s", "hosts")
    agg = put("classify.rule", "calls", "self_s", "hosts", "steps")
    out["classify.rule.step_ratio"] = (
        _ratio(agg.counts.get("steps", 0), agg.counts.get("hosts", 0)), "ratio")
    put("analysis.overlaps", "calls", "self_s", "found")
    agg = put("analysis.criteria", "calls", "self_s")
    out["analysis.criteria.decisive_ratio"] = (
        _ratio(agg.counts.get("decisive", 0), agg.calls), "ratio")
    put("formats.parse", "calls", "self_s")
    put("cli", "self_s")
    return out
