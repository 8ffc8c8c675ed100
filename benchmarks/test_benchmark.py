"""Tests of the benchmark itself: oracles, tracer, repeatability, failure modes.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gradcons  # noqa: E402
from gradcons import cra  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402


def _small_cra_host(tg, rng: random.Random):
    classes = [f"C{i}" for i in range(rng.randint(1, 5))]
    features = [f"F{i}" for i in range(rng.randint(1, 6))]
    edges = []
    for f in features:
        for c in classes:
            if rng.random() < 0.3:
                edges.append((f"a{len(edges)}", "isAssigned", f, c))
        for g in features:
            if rng.random() < 0.3:
                edges.append((f"d{len(edges)}", "dependsOn", f, g))
    nodes = [(c, "Class") for c in classes] + [(f, "Feature") for f in features]
    return gradcons.TypedGraph(tg, nodes, edges)


def test_cra_oracles_agree_with_the_engine():
    fx = cra.load_fixtures()
    rng = random.Random(7)
    for case in range(29):
        host = _small_cra_host(fx.type_graph, rng)
        checks = workloads.Checks()
        reports = [gradcons.consistency_report(host, c) for c in fx.constraint_list()]
        scans = {r.name: gradcons.scan_matches(r, host) for r in fx.rule_list()}
        workloads._check_cra_reports(checks, f"host {case}", host, reports)
        workloads._check_cra_scans(checks, f"host {case}", host, scans)
        for step, rule in enumerate(fx.rule_list()):
            for match in scans[rule.name].matches[:2]:
                t, verdicts = workloads._cra_step(fx, rule, host, match, step, reports)
                workloads._check_cra_step(checks, f"host {case} {rule.name}", t, verdicts, step)
        assert checks.failures == [], checks.failures[:5]
        assert checks.attempted > 0


def test_brute_force_counts_agree_with_the_engine():
    rng = random.Random(3)
    for index in range(60):
        rule, constraint = inputs.search_pair(rng, index)
        for host in gradcons.bounded_hosts(rule.lhs.type_graph, 3)[::7]:
            report = gradcons.consistency_report(host, constraint)
            assert (report.occ, report.ro, report.ncv) == oracles.constraint_counts(
                constraint, host
            ), (index, host.edge_items())


def test_universe_sizes_match_burnside():
    graphs = (*inputs.SEARCH_TYPE_GRAPHS, inputs.LOOPS_TYPE_GRAPH, cra.load_fixtures().type_graph)
    for tg in graphs:
        assert len(gradcons.bounded_hosts(tg, 3)) == oracles.universe_size(tg, 3)


def test_static_criteria_accept_every_search_pair():
    rng = random.Random(11)
    for index in range(200):
        rule, constraint = inputs.search_pair(rng, index)
        sustain = gradcons.criterion_direct_sustain(rule, constraint)
        gradcons.criterion_direct_improve(rule, constraint, sustain=sustain)


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "gradcons" or name.startswith("gradcons."))
        for attr, value in vars(module).items()
    }


def test_tracer_restores_every_binding():
    before = _bindings()
    fx = cra.load_fixtures()
    tracer = Tracer()
    with tracer:
        assert _bindings() != before
        for c in fx.constraint_list():
            gradcons.consistency_report(fx.host, c)
    assert _bindings() == before
    wrapped = {name for _, _, names, _ in LAYERS for name in names}
    assert len(tracer.wrapped) == len(wrapped)
    report = tracer.layer("conditions.report")
    assert report.calls == 3 and report.counts["occurrences"] == 4
    enumerate_ = tracer.layer("graphs.enumerate")
    assert enumerate_.calls > 0 and 0 <= enumerate_.self_s <= enumerate_.total_s
    assert set(tracer.aggregates) >= {("conditions.report", "root"),
                                      ("graphs.enumerate", "conditions.report")}
    metrics = layer_metrics(tracer)
    assert metrics["conditions.report.violations"] == (1, "count")


def test_speed_clock_is_monotonic_while_slices_run():
    clock = SpeedClock()
    clock.start()
    try:
        readings = []
        while len(clock.slowdowns) < 6:
            readings.append(clock())
    finally:
        clock.stop()
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    assert readings[-1] > readings[0]
    assert all(s > 0 for s in clock.slowdowns)


_WORK_SNIPPET = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
from speed import SpeedClock
w = workloads.RuleSearch(pairs=40)
res = w.run_pass(w.setup(5), SpeedClock())
print(json.dumps(res.work, sort_keys=True))
"""


def test_work_counts_repeat_for_the_same_seed():
    code = _WORK_SNIPPET.format(src=str(ROOT / "src"), here=str(HERE))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["steps"] > 0 and outputs[0]["pairs"] == 41


def test_run_fails_without_the_engine_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cra-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
