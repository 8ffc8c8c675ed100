"""The three benchmark workloads: set-up, one timed pass, and output checks.

Each workload is a closed loop with one client: every call waits for the
previous one. Calls into the engine go through module attributes
(``gradcons.apply``, not a name imported once), so the tracer's
rebinding reaches them.

``setup(seed)`` builds the inputs from the seed alone. ``run_pass`` does
the timed work, reading time from the ``clock`` it is given, and returns
a :class:`PassResult` with its phase times, exact work counts and
whatever the checks need. ``check`` compares the
outputs against the independent references in :mod:`oracles`, and
``traced_counts`` gives independent expectations for counts that only
the traced run observes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import gradcons
from gradcons import cli, cra, formats
from gradcons.analysis import NECESSARY_CONDITION_FAILS, PROVEN_DIRECTLY_SUSTAINING

import inputs
import oracles

HERE = Path(__file__).resolve().parent


class Checks:
    """Counts attempted output checks and keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def equal(self, got, want, what: str) -> None:
        self.expect(got == want, f"{what}: got {got!r}, expected {want!r}")


@dataclass
class PassResult:
    wall_s: float
    report_s: float
    scan_s: float
    step_times: list[float]
    work: dict[str, int]
    outputs: dict = field(default_factory=dict)


# --- shared CRA step checks ----------------------------------------------------


def _check_cra_step(checks: Checks, label: str, t, verdicts, step: int) -> None:
    """A CRA step against the set-arithmetic result and the oracle counts."""
    nodes, edges = oracles.rewrite_by_sets(t.rule, t.host, t.match, step)
    got_nodes, got_edges = oracles.graph_data(t.result)
    checks.equal(got_nodes, nodes, f"{label}: result nodes")
    checks.equal(got_edges, edges, f"{label}: result edges")
    before = oracles.CraFacts(t.host).counts()
    after = oracles.CraFacts(t.result).counts()
    for v in verdicts:
        name = v.constraint_name
        pre = (v.report_before.occ, v.report_before.ncv)
        post = (v.report_after.occ, v.report_after.ncv)
        checks.equal(pre, before[name], f"{label}/{name}: host counts")
        checks.equal(post, after[name], f"{label}/{name}: result counts")
        flags = oracles.aggregate_flags(before[name], after[name])
        for flag, want in flags.items():
            checks.equal(getattr(v, flag), want, f"{label}/{name}: {flag}")
        for premise, conclusion, rule in oracles.implications(v, before[name][1] == 0):
            checks.expect(not premise or conclusion, f"{label}/{name}: {rule}")


def _check_cra_reports(checks: Checks, label: str, graph, reports) -> None:
    want = oracles.CraFacts(graph).counts()
    for r in reports:
        occ, ncv = want[r.constraint_name]
        checks.equal((r.occ, r.ro, r.ncv), (occ, occ, ncv),
                     f"{label}/{r.constraint_name}: occurrences, relevant, violations")


def _check_cra_scans(checks: Checks, label: str, graph, scans) -> None:
    want = oracles.CraFacts(graph).scans()
    for name, scan in scans.items():
        kept, by_condition, by_gluing = want[name]
        checks.expect({oracles.morphism_key(m) for m in scan.matches} == kept
                      and len(scan.matches) == len(kept), f"{label}/{name}: kept matches")
        checks.equal((scan.rejected_by_condition, scan.rejected_by_dangling),
                     (by_condition, by_gluing), f"{label}/{name}: rejections")


def _cra_step(fixtures, rule, host, match, step: int, reports):
    """Apply and classify against c1-c3, given the host's reports."""
    t = gradcons.apply(rule, host, match, step=step)
    return t, [gradcons.classify_step(t, c, report_before=r)
               for c, r in zip(fixtures.constraint_list(), reports)]


# --- cra-table -----------------------------------------------------------------

# The defaults of ``gradcons bench``, which the workload runs unchanged.
TABLE_BOUND = 4
TABLE_SAMPLES = 200


@dataclass
class TableInputs:
    argv: list[str]
    fixtures: cra.CraFixtures
    expected: dict


class CraTable:
    """Both reference tables through the CLI, as ``gradcons bench``.

    ``wall_s`` is the in-process CLI call. The table runs many tiny
    hosts, so the report, scan and step latencies are taken on the small
    packaged example model, each the median of ``PROBE_REPEATS`` rounds.
    """

    name = "cra-table"
    PROBE_REPEATS = 500

    def setup(self, seed: int) -> TableInputs:
        expected = json.loads((HERE / "expected_cra_table.json").read_text())
        argv = ["bench", "--format", "structured", "--seed", str(seed)]
        return TableInputs(argv, cra.load_fixtures(), expected)

    def run_pass(self, inp: TableInputs, clock) -> PassResult:
        out = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out):
            code = cli.main(inp.argv)
        wall = clock() - start

        fx, host = inp.fixtures, inp.fixtures.host
        report_s, scan_s, step_times = [], [], []
        for _ in range(self.PROBE_REPEATS):
            start = clock()
            reports = [gradcons.consistency_report(host, c) for c in fx.constraint_list()]
            report_s.append(clock() - start)
            start = clock()
            scans = {r.name: gradcons.scan_matches(r, host) for r in fx.rule_list()}
            scan_s.append(clock() - start)
            steps = []
            for rule in fx.rule_list():
                for match in scans[rule.name].matches:
                    start = clock()
                    steps.append(_cra_step(fx, rule, host, match, len(steps), reports))
                    step_times.append(clock() - start)
        text = out.getvalue()
        work = {
            "exit_code": code,
            "output_digest": int(hashlib.sha256(text.encode()).hexdigest()[:15], 16),
            "probe_occurrences": sum(r.occ for r in reports),
            "probe_matches": sum(len(s.matches) for s in scans.values()),
            "probe_steps": len(steps),
        }
        return PassResult(
            wall, statistics.median(report_s), statistics.median(scan_s), step_times, work,
            {"code": code, "text": text, "reports": reports, "scans": scans, "steps": steps},
        )

    def traced_counts(self, inp: TableInputs) -> dict[str, int]:
        """Hosts the table's searches examine: each rule's bound-4 universe,
        with at least the node types of its left side, plus the samples,
        for every constraint."""
        hosts = 0
        for rule in inp.fixtures.rule_list():
            need: dict[str, int] = {}
            for _, ntype in rule.lhs.node_items():
                need[ntype] = need.get(ntype, 0) + 1
            size = oracles.universe_size(rule.lhs.type_graph, TABLE_BOUND, need)
            hosts += len(cra.CONSTRAINT_NAMES) * (size + TABLE_SAMPLES)
        return {"classify.rule.hosts": hosts}

    def check(self, inp: TableInputs, res: PassResult, checks: Checks) -> None:
        out = res.outputs
        checks.equal(out["code"], 0, "cra-table: exit code")
        try:
            doc = json.loads(out["text"])
        except json.JSONDecodeError:
            checks.expect(False, "cra-table: structured output is not JSON")
            return
        want = inp.expected
        checks.equal(doc.get("ok"), True, "cra-table: ok flag")
        independence = doc.get("independence", {})
        classification = doc.get("classification", {})
        checks.equal(independence.get("diffs"), [], "cra-table: independence diffs")
        checks.equal(classification.get("diffs"), [], "cra-table: classification diffs")
        for key, sign in want["independence"].items():
            checks.equal(independence.get("cells", {}).get(key), sign, f"independence {key}")
        for key, cell in want["classification"].items():
            got = classification.get("cells", {}).get(key, [None, None])
            checks.equal(got[0], cell[0], f"classification {key} sustaining")
            checks.equal(got[1], cell[1], f"classification {key} improving")
        checks.equal(classification.get("statically_proven"), want["statically_proven"],
                     "cra-table: static proofs")
        checks.equal((classification.get("bound"), classification.get("samples")),
                     (TABLE_BOUND, TABLE_SAMPLES), "cra-table: search bound and samples")
        checks.equal(len(independence.get("cells", {})), len(want["independence"]),
                     "cra-table: independence cell count")
        checks.equal(len(classification.get("cells", {})), len(want["classification"]),
                     "cra-table: classification cell count")

        host = inp.fixtures.host
        _check_cra_reports(checks, "example", host, out["reports"])
        _check_cra_scans(checks, "example", host, out["scans"])
        for step, (t, verdicts) in enumerate(out["steps"]):
            _check_cra_step(checks, f"example step {step}", t, verdicts, step)


# --- cra-model -----------------------------------------------------------------


@dataclass
class ModelInputs:
    fixtures: cra.CraFixtures
    model: gradcons.TypedGraph
    seed: int


class CraModel:
    """One large CRA model: reports, match scans and a seeded set of steps.

    Reads (reports and scans) are timed apart from writes (steps), so a
    gain for one that costs the other shows. ``wall_s`` is one pass:
    the median report and scan times plus every step.
    """

    name = "cra-model"
    STEPS_PER_RULE = 2
    READ_REPEATS = 5  # reads take about a second; their median is steadier

    def setup(self, seed: int) -> ModelInputs:
        fixtures = cra.load_fixtures()
        model = inputs.cra_model(fixtures.type_graph, random.Random(seed))
        # Users load their model from a document; so does the benchmark.
        model = formats.parse_graph_document(formats.emit_graph_document(model))
        return ModelInputs(fixtures, model, seed)

    def run_pass(self, inp: ModelInputs, clock) -> PassResult:
        fx, model = inp.fixtures, inp.model
        report_times, scan_times = [], []
        for _ in range(self.READ_REPEATS):
            start = clock()
            reports = [gradcons.consistency_report(model, c) for c in fx.constraint_list()]
            report_times.append(clock() - start)
            start = clock()
            scans = {r.name: gradcons.scan_matches(r, model) for r in fx.rule_list()}
            scan_times.append(clock() - start)
        report_s = statistics.median(report_times)
        scan_s = statistics.median(scan_times)

        # The steps are drawn by the seed from the matches in a canonical
        # order of their own, so the draw does not depend on engine order.
        rng = random.Random(inp.seed)
        plan = []
        for rule in fx.rule_list():
            ordered = sorted(scans[rule.name].matches, key=oracles.morphism_key)
            plan.extend((rule, m) for m in rng.sample(ordered, self.STEPS_PER_RULE))
        steps, step_times = [], []
        for i, (rule, match) in enumerate(plan):
            start = clock()
            steps.append(_cra_step(fx, rule, model, match, i, reports))
            step_times.append(clock() - start)

        work = {
            "hosts": 1,
            "occurrences": sum(r.occ for r in reports),
            "violations": sum(r.ncv for r in reports),
            "matches": sum(len(s.matches) for s in scans.values()),
            "rejected": sum(s.rejected_by_condition + s.rejected_by_dangling
                            for s in scans.values()),
            "steps": len(steps),
            "step_occurrences": sum(v.report_after.occ for _, vs in steps for v in vs),
        }
        return PassResult(
            report_s + scan_s + sum(step_times), report_s, scan_s, step_times, work,
            {"reports": reports, "scans": scans, "steps": steps},
        )

    def traced_counts(self, inp: ModelInputs) -> dict[str, int]:
        return {}

    def check(self, inp: ModelInputs, res: PassResult, checks: Checks) -> None:
        out = res.outputs
        _check_cra_reports(checks, "model", inp.model, out["reports"])
        _check_cra_scans(checks, "model", inp.model, out["scans"])
        checks.equal(len(out["steps"]), 4 * self.STEPS_PER_RULE, "model: step count")
        for step, (t, verdicts) in enumerate(out["steps"]):
            _check_cra_step(checks, f"model step {step} ({t.rule.name})", t, verdicts, step)


# --- rule-search ------------------------------------------------------------------


@dataclass
class SearchInputs:
    pairs: list


class RuleSearch:
    """Bounded-universe ground truth for seeded (rule, constraint) pairs,
    plus one fixed pair over a large universe (see ``inputs.universe_pair``).

    Per pair: both static criteria, the bound-3 universe, and a scan of
    every host to the end (report, matches, and apply plus classify for
    every match), never stopping at a first witness.
    """

    name = "rule-search"
    BOUND = 3
    RECOUNT_EVERY = 41  # brute-force recount every 41st step

    def __init__(self, pairs: int = 648):
        self.n_pairs = pairs

    def setup(self, seed: int) -> SearchInputs:
        rng = random.Random(seed)
        pairs = [inputs.search_pair(rng, i) for i in range(self.n_pairs)]
        return SearchInputs([inputs.universe_pair(), *pairs])

    def run_pass(self, inp: SearchInputs, clock) -> PassResult:
        report_s = scan_s = 0.0
        step_times: list[float] = []
        verdicts, recounts = [], []
        work = dict.fromkeys(("pairs", "hosts", "occurrences", "matches", "steps", "overlaps"), 0)
        wall_start = clock()
        for rule, constraint in inp.pairs:
            sustain = gradcons.criterion_direct_sustain(rule, constraint)
            improve = gradcons.criterion_direct_improve(rule, constraint, sustain=sustain)
            hosts = gradcons.bounded_hosts(rule.lhs.type_graph, self.BOUND)
            improving = not_direct = False
            for host in hosts:
                start = clock()
                before = gradcons.consistency_report(host, constraint)
                mid = clock()
                matches = gradcons.find_matches(rule, host)
                report_s += mid - start
                scan_s += clock() - mid
                work["occurrences"] += before.occ
                work["matches"] += len(matches)
                for match in matches:
                    start = clock()
                    t = gradcons.apply(rule, host, match)
                    v = gradcons.classify_step(t, constraint, report_before=before)
                    step_times.append(clock() - start)
                    improving = improving or v.improving
                    not_direct = not_direct or not v.directly_sustaining
                    if len(step_times) % self.RECOUNT_EVERY == 0:
                        recounts.append((constraint, t, v))
            work["pairs"] += 1
            work["hosts"] += len(hosts)
            work["overlaps"] += len(sustain.evidence) + len(improve.evidence)
            verdicts.append((rule, constraint, sustain.verdict, improve.verdict,
                             improving, not_direct, len(hosts)))
        wall = clock() - wall_start
        work["steps"] = len(step_times)
        return PassResult(wall, report_s, scan_s, step_times, work,
                          {"verdicts": verdicts, "recounts": recounts})

    def traced_counts(self, inp: SearchInputs) -> dict[str, int]:
        return {}

    def check(self, inp: SearchInputs, res: PassResult, checks: Checks) -> None:
        sizes: dict = {}
        for i, (rule, c, sustain, improve, improving, not_direct, n_hosts) in enumerate(
            res.outputs["verdicts"]
        ):
            label = f"pair {i} ({rule.name}, {c.name})"
            if improve == NECESSARY_CONDITION_FAILS:
                checks.expect(not improving, f"{label}: improving step despite a failed "
                              "necessary condition")
            if sustain == PROVEN_DIRECTLY_SUSTAINING:
                checks.expect(not not_direct, f"{label}: step not directly sustaining "
                              "despite a static proof")
            tg = rule.lhs.type_graph
            if tg not in sizes:
                sizes[tg] = oracles.universe_size(tg, self.BOUND)
            checks.equal(n_hosts, sizes[tg], f"{label}: universe size (Burnside)")
        for j, (constraint, t, v) in enumerate(res.outputs["recounts"]):
            label = f"recount {j} ({t.rule.name}, {constraint.name})"
            counts = {}
            for side, graph, report in (("host", t.host, v.report_before),
                                        ("result", t.result, v.report_after)):
                counts[side] = oracles.constraint_counts(constraint, graph)
                checks.equal((report.occ, report.ro, report.ncv), counts[side],
                             f"{label}: {side} counts")
            flags = oracles.aggregate_flags(counts["host"][1:], counts["result"][1:])
            for flag, want in flags.items():
                checks.equal(getattr(v, flag), want, f"{label}: {flag}")
            checks.equal(oracles.graph_data(t.result),
                         oracles.rewrite_by_sets(t.rule, t.host, t.match, t.step),
                         f"{label}: result")


WORKLOADS = {w.name: w for w in (CraTable(), CraModel(), RuleSearch())}
