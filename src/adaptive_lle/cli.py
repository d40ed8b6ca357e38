"""Command-line frontend: dataset generation, fitting, and evaluation.

Every command prints a JSON run manifest to stdout (resolved configuration,
input checksums, output paths, wall time).  Outputs are plot-ready CSV/JSON;
nothing is rendered.

fit and evaluate read every CSV through :func:`load_csv`: with
``--has-header`` the columns named ``label`` and ``color`` are the labels
and the color, never features; ``--label-column`` names the label column
of a headerless file.  Both are usage errors with ``--input-format idx``,
as ``--idx-labels`` is with CSV input.

Any flag can also be supplied through ``--config file.json`` whose keys
mirror the flag names (dashes or underscores); its entries are parsed as
flags placed before the command line's own (see :func:`_parse_args`).  Each
fit flag in ``FIT_FIELDS`` sets one field of :class:`PipelineConfig` and
takes that field's default.

Exit codes: 0 success, 1 output I/O failure, 2 usage or configuration
error (including unreadable inputs), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
import time

import numpy as np

from . import __version__
from .data import (DataMatrix, builtin_iris, generate_swiss_roll, load_csv,
                   load_idx, scale_features, write_csv)
from .errors import NumericalError
from .evaluation import evaluate_embedding
from .metric import load_metric, save_metric
from .pipeline import PipelineConfig, fit_alle, fit_lle

# fit flag -> (PipelineConfig field it sets, argparse options).  Each flag's
# default is the field's dataclass default.
FIT_FIELDS = {
    "neighbors": ("n_neighbors", {"type": int}),
    "components": ("n_components", {"type": int}),
    "epochs": ("max_epochs", {"type": int}),
    "optimizer": ("optimizer", {"choices": ["sgd", "adam"]}),
    "lr": ("eta", {"type": float}),
    "metric_mode": ("metric_mode", {"choices": ["factorL", "directM"]}),
    "recompute_neighbors": ("recompute_neighbors",
                            {"type": lambda s: s.replace("-", "_"),
                             "choices": ["never", "every_epoch"]}),
    "gram_reg": ("gram_reg", {"type": float}),
}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command, config, inputs, outputs, started) -> None:
    payload = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    print(json.dumps(payload, indent=2))


def _default(func, name):
    """Default of ``func``'s parameter ``name``, so the CLI repeats none."""
    return inspect.signature(func).parameters[name].default


def _build_parser():
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="adaptive-lle",
        description="Locally linear embedding with a learned neighborhood metric")
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="generate a benchmark dataset CSV")
    ds.add_argument("kind", choices=["swiss-roll", "scaled-swiss-roll", "iris"])
    ds.add_argument("--n", type=int, default=1000)
    ds.add_argument("--noise", type=float,
                    default=_default(generate_swiss_roll, "noise"))
    ds.add_argument("--seed", type=int,
                    default=_default(generate_swiss_roll, "seed"))
    ds.add_argument("--factors", default="1,1,10",
                    help="per-column scale factors for scaled-swiss-roll")
    ds.add_argument("--output")
    ds.add_argument("--config", help="JSON file with defaults for any flag")

    # argument order is the order of the manifest's config keys
    fit = sub.add_parser("fit", help="fit an embedding")
    fit.add_argument("--input")
    fit.add_argument("--output")
    fit.add_argument("--algorithm", choices=["lle", "alle"], default="alle")
    fit.add_argument("--input-format", choices=["csv", "idx"], default="csv")
    fit.add_argument("--idx-labels", help="IDX label file (input-format=idx)")
    fit.add_argument("--has-header", action="store_true")
    fit.add_argument("--label-column", type=int)
    for flag, (name, options) in FIT_FIELDS.items():
        # a dataclass keeps each field's default as a class attribute
        fit.add_argument("--" + flag.replace("_", "-"),
                         default=getattr(PipelineConfig, name), **options)
    fit.add_argument("--metric-in", help="CSV of a factor L to start from")
    fit.add_argument("--metric-out", help="write the final factor L as CSV")
    fit.add_argument("--trace-out", help="write the per-epoch error trace as CSV")
    fit.add_argument("--config", help="JSON file with defaults for any flag")

    ev = sub.add_parser("evaluate", help="score an embedding against its source")
    ev.add_argument("--original")
    ev.add_argument("--embedding")
    ev.add_argument("--label-column", type=int,
                    help="label column inside --original (headerless files)")
    ev.add_argument("--has-header", action="store_true",
                    help="both CSVs carry a header row")
    ev.add_argument("--k", type=int)
    ev.add_argument("--knn-k", type=int,
                    default=_default(evaluate_embedding, "k_classify"))
    ev.add_argument("--test-fraction", type=float,
                    default=_default(evaluate_embedding, "test_fraction"))
    ev.add_argument("--split-seed", type=int,
                    default=_default(evaluate_embedding, "seed"))
    ev.add_argument("--output")
    ev.add_argument("--config", help="JSON file with defaults for any flag")
    return parser, sub.choices


def _config_tokens(raw, args) -> list:
    """The --config object ``raw`` as flag tokens for ``args.command``."""
    if not isinstance(raw, dict):
        raise ValueError("--config must hold a JSON object")
    tokens = []
    for key, value in raw.items():
        dest = str(key).replace("-", "_")
        # every dest of the command but the subcommand, the file itself and
        # the positional dataset kind
        if dest in ("command", "config", "kind") or not hasattr(args, dest):
            raise ValueError("--config key %r names no option of %s"
                             % (key, args.command))
        flag = "--" + dest.replace("_", "-")
        switch = isinstance(getattr(args, dest), bool)  # a store_true flag
        if (switch != isinstance(value, bool)
                or not isinstance(value, (str, int, float))):
            raise ValueError("--config key %r takes %s" % (
                key, "true or false" if switch else "a string or a number"))
        if switch:
            tokens += [flag] if value else []
        else:
            tokens.append("%s=%s" % (flag, value))
    return tokens


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv``; a --config file's entries are parsed as flags placed
    before the command line's own, so a flag beats the file, the file beats
    a default, and each value meets its flag's type and choices.  A switch
    such as has_header takes true or false, and a key that names no option
    of the command is a usage error."""
    parser, _ = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    with open(args.config, "r", encoding="utf-8") as f:
        tokens = _config_tokens(json.load(f), args)
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError("missing required option --%s" % name.replace("_", "-"))


def _cmd_dataset(args) -> int:
    started = time.perf_counter()
    _require(args, "output")
    if args.kind == "iris":
        data = builtin_iris()
        config = {"kind": args.kind, "output": args.output}
    else:
        data = generate_swiss_roll(args.n, args.noise, args.seed)
        config = {"kind": args.kind, "n": args.n, "noise": args.noise,
                  "seed": args.seed, "output": args.output}
        if args.kind == "scaled-swiss-roll":
            factors = [float(v) for v in args.factors.split(",")]
            data = scale_features(data, factors)
            config["factors"] = factors
    try:
        write_csv(data, args.output)
    except OSError as exc:
        print("error: cannot write %s: %s" % (args.output, exc), file=sys.stderr)
        return 1
    _manifest("dataset", config, [], [args.output], started)
    return 0


def _cmd_fit(args) -> int:
    started = time.perf_counter()
    _require(args, "input", "output")
    if args.metric_in and args.algorithm == "lle":
        raise ValueError("--metric-in sets the start of an adaptive fit; "
                         "--algorithm lle keeps the Euclidean metric")
    if args.input_format == "idx":
        if args.has_header or args.label_column is not None:
            raise ValueError("--has-header and --label-column read CSV input; "
                             "IDX labels come from --idx-labels")
        data = load_idx(args.input, args.idx_labels)
    else:
        if args.idx_labels is not None:
            raise ValueError("--idx-labels reads labels for --input-format idx")
        data = load_csv(args.input, has_header=args.has_header,
                        label_column=args.label_column)
    config = PipelineConfig(**{name: getattr(args, flag)
                               for flag, (name, _) in FIT_FIELDS.items()})

    initial_state = load_metric(args.metric_in) if args.metric_in else None
    if args.algorithm == "lle":
        result = fit_lle(data, config)
    else:
        result = fit_alle(data, config, initial_state=initial_state)

    embedding = DataMatrix(result.Y, labels=data.labels,
                           feature_names=["y%d" % j for j in range(result.dim)])
    outputs = []
    try:
        write_csv(embedding, args.output)
        outputs.append(args.output)
        if args.metric_out:
            save_metric(result.metric, args.metric_out)
            outputs.append(args.metric_out)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8", newline="\n") as f:
                f.write("epoch,E\n")
                for epoch, err in enumerate(result.error_trace, start=1):
                    f.write("%d,%s\n" % (epoch, repr(float(err))))
            outputs.append(args.trace_out)
    except OSError as exc:
        print("error: cannot write output: %s" % exc, file=sys.stderr)
        return 1

    manifest_config = {k: v for k, v in vars(args).items()
                       if k not in ("command", "config")}
    manifest_config.update({
        "epochs_run": int(result.error_trace.size),
        "eta_guard": bool(result.eta_guard),
    })
    inputs = [args.input] + ([args.idx_labels] if args.idx_labels else [])
    if args.metric_in:
        inputs.append(args.metric_in)
    _manifest("fit", manifest_config, inputs, outputs, started)
    return 0


def _cmd_evaluate(args) -> int:
    started = time.perf_counter()
    _require(args, "original", "embedding", "k", "output")
    original = load_csv(args.original, has_header=args.has_header,
                        label_column=args.label_column)
    embedded = load_csv(args.embedding, has_header=args.has_header)
    if original.n != embedded.n:
        raise ValueError("row count mismatch: original has %d rows, embedding %d"
                         % (original.n, embedded.n))

    labels = original.labels if original.labels is not None else embedded.labels

    report = evaluate_embedding(
        original.values, embedded.values, args.k, labels=labels,
        k_classify=args.knn_k, test_fraction=args.test_fraction,
        seed=args.split_seed,
        config_echo={"original": args.original, "embedding": args.embedding,
                     "k": args.k, "knn_k": args.knn_k,
                     "test_fraction": args.test_fraction,
                     "split_seed": args.split_seed})
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(report.to_json() + "\n")
    except OSError as exc:
        print("error: cannot write %s: %s" % (args.output, exc), file=sys.stderr)
        return 1
    _manifest("evaluate", report.config_echo, [args.original, args.embedding],
              [args.output], started)
    return 0


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        if args.command == "dataset":
            return _cmd_dataset(args)
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_evaluate(args)
    except SystemExit as exc:  # argparse reports a usage error and exits 2
        return int(exc.code or 0)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
