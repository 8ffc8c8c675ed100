"""The benchmark's tracer wraps engine functions by name.

The benchmark's own tests live in ``benchmarks/`` and run apart from this
suite, so a change that drops or renames a traced function would break
only them. This test keeps that contract inside the tier-1 suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for layer, home, names, _ in tracer.LAYERS:
        module = importlib.import_module(home)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}: {home}.{name}"
