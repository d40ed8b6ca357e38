import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

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


# factored SGD, direct-M and Adam steps below the guard, then a factored step
# whose eta = 1e9 fires the guard on every epoch
STEPS = {"sgd": {}, "directM": {"update": "directM"},
         "adam": {"update": "adam"}, "guarded": {"eta": 1e9}}


@pytest.mark.parametrize("step", STEPS)
def test_tracer_counts_match_the_fit_loop(monkeypatch, step):
    # the benchmark's per-layer counts rest on fit_alle calling the wrapped
    # functions once per step (knn once, or once per pass under every_epoch,
    # and clamp_eta once per epoch the guard fires)
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
                recompute_neighbors=mode, **STEPS[step]))
            counts[mode] = dict(tracer.counts)
    finally:
        tracer.uninstall()
    fired = epochs if step == "guarded" else 0
    for count in counts.values():
        assert count["metric.steps"] == epochs
        assert count["pipeline.epochs"] == epochs
        assert count.get("metric.guard_fired", 0) == fired
    assert (counts["never"]["neighbors.knn_calls"]
            + counts["every_epoch"]["neighbors.knn_calls"]) == 1 + (epochs + 1)


def test_tracer_times_every_stage_of_a_fit(monkeypatch):
    # a per-layer time reads 0 once the fit loop stops calling the function
    # its span wraps; a factored SGD fit below the guard runs every stage
    # but the stability bound and the clamp
    roll = generate_swiss_roll(60, 0.05, 2)
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        pipeline.fit_alle(roll, PipelineConfig(n_neighbors=6, max_epochs=4))
    finally:
        tracer.uninstall()
    seconds = Counter()
    for span in tracer.spans:
        seconds[span.name] += span.seconds
    stages = ("neighbors.knn", "reconstruction.weights", "reconstruction.residuals",
              "reconstruction.error", "metric.step", "embedding.cost",
              "embedding.eigensolve")
    assert all(seconds[name] > 0 for name in stages), seconds
