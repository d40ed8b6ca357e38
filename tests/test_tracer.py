import importlib
import importlib.util
import sys
from pathlib import Path

from adaptive_lle import PipelineConfig, generate_swiss_roll, pipeline

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_existing_attributes(monkeypatch):
    # the benchmark's tracer patches package functions by name; a rename
    # would make its --trace mode fail or silently count nothing
    tracer = load_tracer(monkeypatch)
    missing = [(mod, attr) for mod, attr, _, _ in tracer.WRAPPED
               if not hasattr(importlib.import_module("adaptive_lle." + mod), attr)]
    assert tracer.WRAPPED and not missing


def test_tracer_counts_match_the_fit_loop(monkeypatch):
    # the benchmark's per-layer counts rest on fit_alle calling the wrapped
    # functions once per step (knn once, or once per pass under every_epoch)
    epochs = 4
    roll = generate_swiss_roll(60, 0.05, 2)
    tracer = load_tracer(monkeypatch).Tracer()
    counts = {}
    tracer.install()
    try:
        for mode in ("never", "every_epoch"):
            tracer.counts.clear()
            pipeline.fit_alle(roll, PipelineConfig(
                n_neighbors=6, max_epochs=epochs,
                recompute_neighbors=mode))
            counts[mode] = dict(tracer.counts)
    finally:
        tracer.uninstall()
    for count in counts.values():
        assert count["metric.steps"] == epochs
        assert count["pipeline.epochs"] == epochs
        assert count.get("metric.guard_fired", 0) == 0
    assert (counts["never"]["neighbors.knn_calls"]
            + counts["every_epoch"]["neighbors.knn_calls"]) == 1 + (epochs + 1)
