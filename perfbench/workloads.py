"""The benchmark's workloads: set-up, the two timed operations, output checks.

Every call into the package goes through a module attribute looked up at
call time (``pipeline.fit_alle``, ``cli.main``, ...), so a tracer's wrappers
see it.  ``fit`` and ``evaluate`` are timed by the caller; the ``check_*``
methods run outside the timed region and return a list of violations.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import inputs
from adaptive_lle import cli, data, evaluation, pipeline

EPOCHS = 50          # PipelineConfig / CLI default
COMPONENTS = 2
EVAL_K = 10
ORTHONORMAL_TOL = 1e-6
MEAN_TOL = 1e-9
DESCENT_RTOL = 1e-12


def check_embedding(Y, n: int) -> list[str]:
    """Y is finite, (n, 2), zero-mean and (1/n) Y^T Y = I."""
    Y = np.asarray(Y)
    if Y.shape != (n, COMPONENTS):
        return ["Y has shape %s, expected %s" % (Y.shape, (n, COMPONENTS))]
    if not np.all(np.isfinite(Y)):
        return ["Y holds non-finite values"]
    problems = []
    mean = float(np.max(np.abs(Y.mean(axis=0))))
    if mean > MEAN_TOL:
        problems.append("column mean %.3e exceeds %.0e" % (mean, MEAN_TOL))
    gram = float(np.max(np.abs(Y.T @ Y / n - np.eye(COMPONENTS))))
    if gram > ORTHONORMAL_TOL:
        problems.append("(1/n) Y^T Y deviates from I by %.3e" % gram)
    return problems


def error_rises(trace) -> int:
    """Epochs whose error exceeds the previous epoch's beyond rounding."""
    trace = np.asarray(trace, dtype=float)
    return int(np.count_nonzero(np.diff(trace) > DESCENT_RTOL * np.abs(trace[:-1])))


def check_trace(trace, fixed_neighbors: bool) -> list[str]:
    """ALLE error trace: EPOCHS finite entries; with fixed neighborhoods it
    never rises.  Re-searched neighborhoods change the objective between
    epochs, so there only the overall descent is required."""
    trace = np.asarray(trace, dtype=float)
    if trace.size != EPOCHS:
        return ["ran %d epochs, expected %d" % (trace.size, EPOCHS)]
    if not np.all(np.isfinite(trace)):
        return ["error trace holds non-finite values"]
    if fixed_neighbors and error_rises(trace):
        return ["error trace rises in %d epochs" % error_rises(trace)]
    if not trace[-1] < trace[0]:
        return ["error did not descend: %r -> %r" % (trace[0], trace[-1])]
    return []


def check_quality(quality: dict, keys) -> list[str]:
    problems = []
    for key in keys:
        value = quality.get(key)
        if not (isinstance(value, float) and 0.0 <= value <= 1.0):
            problems.append("%s = %r is not a score in [0, 1]" % (key, value))
    return problems


class SwissRollLibrary:
    """Swiss roll through the library API: fit_alle/fit_lle, then T/C."""

    def __init__(self, n: int, algorithm: str, recompute_neighbors: str):
        self.n = n
        self.algorithm = algorithm
        self.recompute_neighbors = recompute_neighbors
        self.X = None

    def setup(self, seed: int, workdir: Path) -> None:
        self.X = inputs.swiss_roll(self.n, seed)
        inputs.warm_up(seed)

    def fit(self):
        config = pipeline.PipelineConfig(recompute_neighbors=self.recompute_neighbors)
        fit = pipeline.fit_alle if self.algorithm == "alle" else pipeline.fit_lle
        return fit(self.X, config)

    def check_fit(self, result) -> list[str]:
        problems = check_embedding(result.Y, self.n)
        if self.algorithm == "alle":
            problems += check_trace(result.error_trace,
                                    self.recompute_neighbors == "never")
        elif result.error_trace.size:
            problems.append("plain LLE ran %d metric epochs" % result.error_trace.size)
        return problems

    def error_trace(self, result):
        return result.error_trace

    def evaluate(self, result) -> dict:
        return evaluation.evaluate_embedding(self.X, result.Y, EVAL_K).to_dict()

    def check_eval(self, quality) -> list[str]:
        return check_quality(quality, ("trustworthiness", "continuity"))


class DigitsCli:
    """MNIST-shaped labeled images through the CLI: ``fit`` from IDX files,
    then ``evaluate`` against the CSV original, both in process."""

    n = 1000

    def __init__(self):
        self.files = {}

    def setup(self, seed: int, workdir: Path) -> None:
        images, labels = inputs.digit_images(self.n, seed)
        self.files = {name: str(workdir / name) for name in (
            "images.idx", "labels.idx", "original.csv", "embedding.csv",
            "trace.csv", "report.json")}
        inputs.write_idx(images, labels, self.files["images.idx"],
                         self.files["labels.idx"])
        data.write_csv(data.DataMatrix(images / 255.0, labels=labels),
                       self.files["original.csv"])
        inputs.warm_up(seed)

    def _main(self, argv):
        manifest = io.StringIO()
        with redirect_stdout(manifest):
            code = cli.main(argv)
        return code, manifest.getvalue()

    def fit(self):
        f = self.files
        return self._main(["fit", "--input", f["images.idx"], "--input-format", "idx",
                           "--idx-labels", f["labels.idx"], "--output", f["embedding.csv"],
                           "--trace-out", f["trace.csv"]])

    def check_fit(self, out) -> list[str]:
        code, manifest = out
        if code != 0:
            return ["fit exited with code %d" % code]
        epochs = json.loads(manifest)["config"]["epochs_run"]
        if epochs != EPOCHS:
            return ["manifest reports %d epochs, expected %d" % (epochs, EPOCHS)]
        Y = np.loadtxt(self.files["embedding.csv"], delimiter=",", skiprows=1,
                       ndmin=2)[:, :COMPONENTS]
        return check_embedding(Y, self.n) + check_trace(self.error_trace(out), True)

    def error_trace(self, out):
        return np.loadtxt(self.files["trace.csv"], delimiter=",", skiprows=1,
                          ndmin=2)[:, 1]

    def evaluate(self, fitted):
        f = self.files
        code, _ = self._main(["evaluate", "--original", f["original.csv"],
                              "--embedding", f["embedding.csv"], "--has-header",
                              "--k", str(EVAL_K), "--output", f["report.json"]])
        if code != 0:
            return {"exit_code": code}
        with open(f["report.json"], encoding="utf-8") as fh:
            return json.load(fh)

    def check_eval(self, quality) -> list[str]:
        if "exit_code" in quality:
            return ["evaluate exited with code %d" % quality["exit_code"]]
        return check_quality(quality, ("trustworthiness", "continuity",
                                       "knn_accuracy", "linear_accuracy"))


WORKLOADS = {
    "swiss-alle-reknn": lambda: SwissRollLibrary(1500, "alle", "every_epoch"),
    "swiss-lle-4k": lambda: SwissRollLibrary(4000, "lle", "never"),
    "digits-cli": DigitsCli,
}
