"""Benchmark of adaptive_lle: fit and evaluate, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  ``--workload all`` runs every workload, each in a fresh process,
and prints one table.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("swiss-alle-reknn", "swiss-lle-4k", "digits-cli")
SETUP_REPS = 3
# evaluation is deterministic, and where one takes under EVAL_REPEAT_BELOW_S
# it is repeated EVAL_REPS times: the first of several evaluations runs
# slower, and the median drops it
EVAL_REPS = 3
EVAL_REPEAT_BELOW_S = 4.0
CHILD_TIMEOUT_S = 900
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep repeating fit+evaluate until this much time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
           "numpy": np.__version__, "scipy": scipy.__version__,
           "blas": "%s %s" % (blas.get("name"), blas.get("version")),
           "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    # numpy and scipy wheels each bundle their own OpenBLAS; ask both
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / (package.__name__ + ".libs")
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    env[package.__name__ + "_blas_threads"] = getattr(handle, symbol)()
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Attempt/failure bookkeeping plus timing of one operation."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.tracer = tracer

    def timed(self, name, fn, *args):
        """(result, seconds), or (None, seconds) if fn raised; a span when traced."""
        self.attempted += 1
        span = self.tracer.open("bench." + name) if self.tracer else None
        start = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - start
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, time.perf_counter() - start
        finally:
            if span is not None:
                self.tracer.close(span)

    def check(self, name, problems) -> bool:
        if problems:
            self.failed += 1
            print("%s check failed: %s" % (name, "; ".join(problems)), file=sys.stderr)
        return not problems

    def rep(self, workload, eval_reps=1):
        """Fit once, then evaluate the fit up to eval_reps times (once if
        the first takes EVAL_REPEAT_BELOW_S or more);
        (fit_s, median eval_s, fitted, quality) or None."""
        fitted, fit_s = self.timed("fit", workload.fit)
        if fitted is None or not self.check("fit", workload.check_fit(fitted)):
            return None
        evals = []
        while len(evals) < eval_reps:
            quality, eval_s = self.timed("eval", workload.evaluate, fitted)
            if quality is None or not self.check("evaluate", workload.check_eval(quality)):
                return None
            evals.append(eval_s)
            if evals[0] >= EVAL_REPEAT_BELOW_S:
                break
        return fit_s, statistics.median(evals), fitted, quality


def measure(workload, args, workdir, import_s) -> tuple[Run, dict]:
    """End-to-end metrics, untraced: set-up SETUP_REPS times, then fit and
    evaluate (see Run.rep) until --seconds are spent; medians over
    repetitions."""
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup(args.seed, workdir)
        setups.append(time.perf_counter() - start)
    run = Run()
    reps = []
    start = time.perf_counter()
    while True:
        done = run.rep(workload, EVAL_REPS)
        if done is not None:
            reps.append(done)
        if time.perf_counter() - start >= args.seconds:
            break
    if not reps:
        return run, {}
    values = {
        "setup_s": import_s + statistics.median(setups),
        "fit_s": statistics.median(r[0] for r in reps),
        "eval_s": statistics.median(r[1] for r in reps),
        "peak_rss_mb": peak_rss_mb(),
        "trustworthiness": statistics.median(r[3]["trustworthiness"] for r in reps),
        "continuity": statistics.median(r[3]["continuity"] for r in reps),
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units("end_to_end").items()}
    for key in ("knn_accuracy", "linear_accuracy", "silhouette"):
        if key in reps[0][3]:
            print("%-16s %.6f (labeled path only; not a benchmark metric)"
                  % (key, statistics.median(r[3][key] for r in reps)))
    return run, metrics


def measure_layers(workload, args, workdir, env) -> tuple[Run, dict]:
    """Per-layer metrics: one untraced repetition (set-up, fit, one evaluate)
    as the overhead reference, then traced repetitions until --seconds are
    spent; medians over the traced repetitions."""
    import tracer as tracing
    from workloads import error_rises

    run = Run()
    workload.setup(args.seed, workdir)
    reference = run.rep(workload)
    if reference is None:
        return run, {}

    tracer = run.tracer = tracing.Tracer()
    per_rep = []
    tracer.install()
    try:
        start = time.perf_counter()
        while True:
            setup = tracer.open("bench.setup")
            workload.setup(args.seed, workdir)
            tracer.close(setup)
            done = run.rep(workload)
            layers = tracer.end_rep()
            if done is not None:
                fit_s, eval_s, fitted, _ = done
                layers["pipeline.error_rises"] = error_rises(workload.error_trace(fitted))
                layers["trace.fit_overhead_frac"] = fit_s / reference[0] - 1.0
                layers["trace.eval_overhead_frac"] = eval_s / reference[1] - 1.0
                per_rep.append(layers)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        tracer.uninstall()
    if not per_rep:
        return run, {}

    values = {k: statistics.median(r[k] for r in per_rep) for k in metric_units("per_layer")}
    metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units("per_layer").items()}

    self_s = {}
    for r in per_rep:
        for layer, s in r["layer_self_s"].items():
            self_s.setdefault(layer, []).append(s)
    print("layer self time, median s: " + ", ".join(
        "%s %.4f" % (layer, statistics.median(v)) for layer, v in sorted(self_s.items())))
    print("tracing overhead: fit %+.2f%%, eval %+.2f%% (traced minus untraced, "
          "one untraced reference repetition)"
          % (100 * values["trace.fit_overhead_frac"], 100 * values["trace.eval_overhead_frac"]))
    if values["trace.fit_coverage"] < 0.9:
        print("warning: named layer spans cover only %.1f%% of fit_s"
              % (100 * values["trace.fit_coverage"]), file=sys.stderr)

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                               "reference_fit_s": reference[0],
                               "reference_eval_s": reference[1],
                               "reps": per_rep, "spans": tracer.dump()}))
    print("spans written to %s" % out.relative_to(ROOT))
    return run, metrics


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (the benchmark's own imports stay out of setup_s)
    import scipy.linalg  # noqa: F401

    start = time.perf_counter()
    import adaptive_lle.cli  # noqa: F401
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS

    env = environment()
    print("env: " + json.dumps(env))
    workload = WORKLOADS[args.workload]()
    workdir = HERE / "_work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            run, metrics = measure_layers(workload, args, workdir, env)
        else:
            run, metrics = measure(workload, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        print("%-32s %.6g %s" % (name, m["value"], m["unit"]))
    print("failed_frac %d/%d" % (run.failed, run.attempted))
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.strip().splitlines()
        print("== %s (exit %d)" % (name, child.returncode))
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    metrics = {"%s/%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adaptive_lle" / "__init__.py").is_file():
        print("error: no adaptive_lle package under %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = nproc
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
