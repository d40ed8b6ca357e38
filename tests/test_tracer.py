import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_wraps_existing_attributes(monkeypatch):
    # the benchmark's tracer patches package functions by name; a rename
    # would make its --trace mode fail or silently count nothing
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    missing = [(mod, attr) for mod, attr, _, _ in tracer.WRAPPED
               if not hasattr(importlib.import_module("adaptive_lle." + mod), attr)]
    assert tracer.WRAPPED and not missing
