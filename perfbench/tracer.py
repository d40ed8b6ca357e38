"""In-memory spans around the package's public functions.

Each wrapper replaces a function in the module that *calls* it (for example
``adaptive_lle.pipeline.knn``), so no file of the package changes and an
untraced run executes exactly the original code.  Counts are taken in the
same wrappers, from the arguments and return values.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str          # "<layer>.<operation>"; the layer is the package module
    start: float
    end: float
    parent: int        # index of the enclosing span in the same rep, -1 at the top
    rep: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _count_knn(tracer, args, result):
    n, k = result.ids.shape
    tracer.counts["neighbors.knn_calls"] += 1
    tracer.counts["neighbors.pair_evals"] += n * n
    prev = tracer.prev_ids
    if prev is not None and prev.shape == result.ids.shape:
        kept = (result.ids[:, :, None] == prev[:, None, :]).any(axis=2)
        tracer.counts["neighbors.changed_ids"] += int(np.count_nonzero(~kept))
        tracer.counts["neighbors.compared_ids"] += n * k
    tracer.prev_ids = result.ids.copy()


def _count_weights(tracer, args, result):
    tracer.counts["reconstruction.weight_solves"] += result.n


def _count_step(tracer, args, result):
    tracer.counts["metric.steps"] += 1


def _count_guard(tracer, args, result):
    tracer.counts["metric.guard_fired"] += 1


def _count_cost(tracer, args, result):
    tracer.counts["embedding.cost_bytes"] += result.nbytes


def _count_epochs(tracer, args, result):
    tracer.counts["pipeline.epochs"] += int(result.error_trace.size)
    tracer.prev_ids = None


def _count_load(tracer, args, result):
    tracer.counts["data.load_bytes"] += sum(
        os.path.getsize(a) for a in args if isinstance(a, (str, os.PathLike)))


# (module, attribute, span name, counter); the module is the caller's
WRAPPED = [
    ("pipeline", "knn", "neighbors.knn", _count_knn),
    ("pipeline", "solve_all_weights", "reconstruction.weights", _count_weights),
    ("pipeline", "compute_residuals", "reconstruction.residuals", None),
    ("pipeline", "reconstruction_error", "reconstruction.error", None),
    ("pipeline", "learning_rate_bound", "metric.bound", None),
    ("pipeline", "clamp_eta", "metric.clamp", _count_guard),
    ("pipeline", "gradient_L", "metric.step", None),
    ("pipeline", "sgd_update_L", "metric.step", _count_step),
    ("pipeline", "sgd_update_M", "metric.step", _count_step),
    ("pipeline", "adam_update_L", "metric.step", _count_step),
    ("pipeline", "embedding_matrix", "embedding.cost", _count_cost),
    ("pipeline", "solve_embedding", "embedding.eigensolve", None),
    ("pipeline", "fit_alle", "pipeline.fit_alle", _count_epochs),
    ("pipeline", "fit_lle", "pipeline.fit_lle", None),
    ("evaluation", "trustworthiness", "evaluation.trust", None),
    ("evaluation", "continuity", "evaluation.continuity", None),
    ("evaluation", "silhouette", "evaluation.silhouette", None),
    ("evaluation", "knn_accuracy", "evaluation.knn", None),
    ("evaluation", "linear_accuracy", "evaluation.linear", None),
    ("evaluation", "evaluate_embedding", "evaluation.evaluate", None),
    ("data", "write_csv", "data.write", None),
    ("cli", "main", "cli.main", None),
    ("cli", "load_csv", "data.load", _count_load),
    ("cli", "load_idx", "data.load", _count_load),
    ("cli", "write_csv", "data.write", None),
    ("cli", "fit_alle", "pipeline.fit_alle", _count_epochs),
    ("cli", "fit_lle", "pipeline.fit_lle", None),
    ("cli", "evaluate_embedding", "evaluation.evaluate", None),
]

# per-layer metric -> span names whose total duration it reports
SPAN_TOTALS = {
    "neighbors.knn_s": ["neighbors.knn"],
    "reconstruction.weights_s": ["reconstruction.weights"],
    "reconstruction.residuals_s": ["reconstruction.residuals"],
    "reconstruction.error_s": ["reconstruction.error"],
    "metric.bound_s": ["metric.bound"],
    "metric.step_s": ["metric.step", "metric.clamp"],
    "embedding.cost_s": ["embedding.cost"],
    "embedding.eigensolve_s": ["embedding.eigensolve"],
    "evaluation.trust_s": ["evaluation.trust"],
    "evaluation.continuity_s": ["evaluation.continuity"],
    "evaluation.silhouette_s": ["evaluation.silhouette"],
    "evaluation.knn_s": ["evaluation.knn"],
    "evaluation.linear_s": ["evaluation.linear"],
    "data.load_s": ["data.load"],
    "data.write_s": ["data.write"],
}

COUNTS = ["neighbors.knn_calls", "neighbors.pair_evals",
          "reconstruction.weight_solves", "metric.steps", "metric.guard_fired",
          "embedding.cost_bytes", "data.load_bytes", "pipeline.epochs"]

# layers that only dispatch to the others; their self time is what the
# named worker layers leave uncovered
DISPATCH_LAYERS = ("bench", "pipeline", "cli")


class Tracer:
    """Spans and counts for one rep at a time; finished reps are kept."""

    def __init__(self):
        self.spans: list[Span] = []
        self.finished: list[Span] = []
        self.counts: Counter = Counter()
        self.prev_ids = None
        self._stack: list[int] = []
        self._rep = 0
        self._patched = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._rep))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, attr, name, counter):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self) -> None:
        for mod_name, attr, name, counter in WRAPPED:
            module = importlib.import_module("adaptive_lle." + mod_name)
            self._wrap(module, attr, name, counter)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def end_rep(self) -> dict:
        """Per-layer metrics of the rep just run; starts the next rep."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_s[s.parent] += s.seconds
        self_s = [s.seconds - c for s, c in zip(spans, child_s)]

        out = {}
        for metric, names in SPAN_TOTALS.items():
            out[metric] = sum(s.seconds for s in spans if s.name in names)
        for key in COUNTS:
            out[key] = self.counts[key]
        compared = self.counts["neighbors.compared_ids"]
        out["neighbors.churn_frac"] = (self.counts["neighbors.changed_ids"] / compared
                                       if compared else 0.0)
        layer_self = {}
        for s, t in zip(spans, self_s):
            layer_self[s.layer] = layer_self.get(s.layer, 0.0) + t
        out["layer_self_s"] = layer_self
        out["pipeline.self_s"] = layer_self.get("pipeline", 0.0)
        out["cli.self_s"] = layer_self.get("cli", 0.0)

        fit = next(i for i, s in enumerate(spans) if s.name == "bench.fit")
        uncovered = 0.0
        for i, s in enumerate(spans):
            if s.layer in DISPATCH_LAYERS and self._within(i, fit):
                uncovered += self_s[i]
        out["trace.fit_coverage"] = 1.0 - uncovered / spans[fit].seconds

        self.finished.extend(spans)
        self.spans = []
        self.counts = Counter()
        self.prev_ids = None
        self._rep += 1
        return out

    def _within(self, index: int, ancestor: int) -> bool:
        while index >= 0:
            if index == ancestor:
                return True
            index = self.spans[index].parent
        return False

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "rep": s.rep} for s in self.finished]
