import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adaptive_lle import (DataMatrix, PipelineConfig, generate_swiss_roll,
                          load_csv, write_csv)
from adaptive_lle import cli, data
from adaptive_lle.cli import main
from adaptive_lle.pipeline import CHOICES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def make_roll(capsys, tmp_path, name="roll.csv", n=200, seed=7):
    path = tmp_path / name
    code, out, _ = run(capsys, "dataset", "swiss-roll", "--n", str(n),
                       "--noise", "0", "--seed", str(seed),
                       "--output", str(path))
    assert code == 0
    return path, json.loads(out)


# ------------------------------------------------------------------ dataset

def test_dataset_swiss_roll(capsys, tmp_path):
    path, manifest = make_roll(capsys, tmp_path, n=150)
    data = load_csv(path, has_header=True)
    assert data.values.shape == (150, 3)
    assert data.color.shape == (150,)
    assert manifest["command"] == "dataset"
    assert str(path) in manifest["outputs"]


def test_dataset_determinism(capsys, tmp_path):
    a, _ = make_roll(capsys, tmp_path, "a.csv", n=80, seed=3)
    b, _ = make_roll(capsys, tmp_path, "b.csv", n=80, seed=3)
    assert a.read_bytes() == b.read_bytes()


def test_dataset_scaled_roll(capsys, tmp_path):
    plain = tmp_path / "p.csv"
    scaled = tmp_path / "s.csv"
    assert run(capsys, "dataset", "swiss-roll", "--n", "50", "--seed", "1",
               "--output", str(plain))[0] == 0
    assert run(capsys, "dataset", "scaled-swiss-roll", "--n", "50", "--seed",
               "1", "--factors", "1,1,10", "--output", str(scaled))[0] == 0
    a = load_csv(plain, has_header=True)
    b = load_csv(scaled, has_header=True)
    assert np.allclose(b.values, a.values * [1.0, 1.0, 10.0], atol=1e-12)


def test_dataset_iris(capsys, tmp_path):
    path = tmp_path / "iris.csv"
    code, out, _ = run(capsys, "dataset", "iris", "--output", str(path))
    assert code == 0
    data = load_csv(path, has_header=True, label_column=4)
    assert data.values.shape == (150, 4)
    assert np.array_equal(np.bincount(data.labels), [50, 50, 50])


def test_dataset_bad_flag_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "dataset", "moebius", "--output",
                     str(tmp_path / "x.csv"))
    assert code == 2


# ---------------------------------------------------------------------- fit

def test_fit_lle_writes_embedding(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path)
    emb = tmp_path / "emb.csv"
    code, out, _ = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--algorithm", "lle",
                       "--neighbors", "10", "--components", "2",
                       "--output", str(emb))
    assert code == 0
    Y = load_csv(emb, has_header=True)
    assert Y.values.shape == (200, 2)
    assert Y.feature_names == ["y0", "y1"]
    manifest = json.loads(out)
    assert manifest["config"]["algorithm"] == "lle"
    assert str(emb) in manifest["outputs"]
    assert str(roll) in manifest["inputs"]


def test_fit_alle_epochs0_equals_lle_bytes(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["--input", str(roll), "--has-header",
            "--neighbors", "8", "--components", "2"]
    assert run(capsys, "fit", *base, "--algorithm", "alle", "--epochs", "0",
               "--output", str(a))[0] == 0
    assert run(capsys, "fit", *base, "--algorithm", "lle",
               "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_config_file_optimizer_keys_equal_flags_bytes(capsys, tmp_path):
    # the step's two keys reach the fit as their flags do
    roll, _ = make_roll(capsys, tmp_path, n=100)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"update": "adam", "lr": 0.01}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["--input", str(roll), "--has-header", "--epochs", "5"]
    code, out, _ = run(capsys, "fit", *base, "--config", str(cfg),
                       "--output", str(a))
    assert code == 0 and json.loads(out)["config"]["update"] == "adam"
    assert run(capsys, "fit", *base, "--update", "adam", "--lr", "0.01",
               "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    default = tmp_path / "default.csv"
    assert run(capsys, "fit", *base, "--output", str(default))[0] == 0
    assert a.read_bytes() != default.read_bytes()


@pytest.mark.parametrize("scale", [1e12, 1e-12])
def test_fit_scaled_roll_exit_0(capsys, tmp_path, scale):
    # large and small scales fit, to the unscaled embedding
    roll = generate_swiss_roll(300, 0.0, 0).values
    embeddings = []
    for factor in (1.0, scale):
        path, emb = tmp_path / ("in%g.csv" % factor), tmp_path / ("out%g.csv" % factor)
        write_csv(DataMatrix(factor * roll), path)
        assert run(capsys, "fit", "--input", str(path), "--has-header",
                   "--algorithm", "lle", "--output", str(emb))[0] == 0
        embeddings.append(load_csv(emb, has_header=True).values)
    assert np.allclose(embeddings[1], embeddings[0], rtol=0, atol=1e-9)


@pytest.mark.parametrize("scale", [1e78, 1e152])
def test_adaptive_fit_of_a_scaled_roll_fires_the_guard(capsys, tmp_path, scale):
    # ||S||_F overflows at these scales; the guard still decides from
    # lambda_max, and nothing is printed to stderr
    path = tmp_path / "in.csv"
    write_csv(DataMatrix(scale * generate_swiss_roll(200, 0.05, 0).values), path)
    code, out, err = run(capsys, "fit", "--input", str(path), "--has-header",
                         "--epochs", "3", "--output", str(tmp_path / "out.csv"))
    assert code == 0 and err == ""
    assert json.loads(out)["config"]["eta_guard"] is True


@pytest.mark.parametrize("case", ["lle", "metric_in", "evaluate"])
def test_overflowing_distances_exit_2(capsys, tmp_path, case):
    # squared distances past float64's range, from the data or from a
    # starting factor, are a usage error instead of a traceback
    roll = generate_swiss_roll(150, 0.0, 0).values
    path, metric, out = tmp_path / "in.csv", tmp_path / "L.csv", tmp_path / "out"
    write_csv(DataMatrix(roll * (1.0 if case == "metric_in" else 1e155)), path)
    write_csv(DataMatrix(1e154 * np.eye(3)), metric, include_header=False)
    argv = {"lle": ["fit", "--input", str(path), "--algorithm", "lle"],
            "metric_in": ["fit", "--input", str(path), "--metric-in", str(metric)],
            "evaluate": ["evaluate", "--original", str(path), "--embedding",
                         str(path), "--k", "5"]}[case]
    code, _, err = run(capsys, *argv, "--has-header", "--output", str(out))
    assert code == 2
    assert "squared distances overflow" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_trace_out_non_increasing(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path, n=250)
    emb, trace = tmp_path / "e.csv", tmp_path / "trace.csv"
    code, out, _ = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--algorithm", "alle",
                       "--epochs", "12", "--output", str(emb),
                       "--trace-out", str(trace))
    assert code == 0
    rows = trace.read_text().strip().splitlines()
    assert rows[0] == "epoch,E"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(values) == json.loads(out)["config"]["epochs_run"]
    assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))


def strict_json(text):
    """JSON as the standard has it: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError("not JSON: %s" % name)
    return json.loads(text, parse_constant=refuse)


def test_fit_manifest_reports_the_eigen_gap(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path, n=200)
    code, out, _ = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--algorithm", "lle", "--output", str(tmp_path / "e.csv"))
    assert code == 0
    config = strict_json(out)["config"]
    expected = cli.fit_lle(load_csv(roll, has_header=True), PipelineConfig())
    assert config["eigenvalues"] == expected.eigenvalues.tolist()
    assert config["null_eigenvalue"] == expected.null_eigenvalue
    assert config["null_eigenvalue"] < config["eigenvalues"][0] < config["eigenvalues"][1]


def test_fit_manifest_without_a_null_eigenvalue_writes_json_null(capsys, tmp_path,
                                                                 monkeypatch):
    # nothing treated as null is NaN on the result, which JSON cannot carry
    fit_lle = cli.fit_lle

    def no_null(*args, **kwargs):
        result = fit_lle(*args, **kwargs)
        result.null_eigenvalue = float("nan")
        return result

    monkeypatch.setattr(cli, "fit_lle", no_null)
    roll, _ = make_roll(capsys, tmp_path, n=100)
    code, out, _ = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--algorithm", "lle", "--output", str(tmp_path / "e.csv"))
    assert code == 0
    config = strict_json(out)["config"]
    assert config["null_eigenvalue"] is None
    assert len(config["eigenvalues"]) == 2


def test_fit_metric_out_and_in(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path, n=120)
    emb1, emb2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    metric = tmp_path / "metric.csv"
    code, _, _ = run(capsys, "fit", "--input", str(roll), "--has-header",
                     "--epochs", "5",
                     "--output", str(emb1), "--metric-out", str(metric))
    assert code == 0
    L = np.loadtxt(metric, delimiter=",")
    assert L.shape == (3, 3)
    # restarting from the checkpoint with zero epochs reproduces the metric
    code, _, _ = run(capsys, "fit", "--input", str(roll), "--has-header",
                     "--epochs", "0",
                     "--metric-in", str(metric), "--output", str(emb2))
    assert code == 0


def test_fit_labels_carried_to_embedding(capsys, tmp_path):
    # the iris file's "label" column is taken by its name, as by
    # --label-column 4: the fit sees the four measurements and the
    # embedding carries the labels
    iris = tmp_path / "iris.csv"
    run(capsys, "dataset", "iris", "--output", str(iris))
    by_name, by_index = tmp_path / "name.csv", tmp_path / "index.csv"
    base = ["fit", "--input", str(iris), "--has-header", "--algorithm", "lle",
            "--neighbors", "10"]
    assert run(capsys, *base, "--output", str(by_name))[0] == 0
    assert run(capsys, *base, "--label-column", "4",
               "--output", str(by_index))[0] == 0
    assert by_name.read_bytes() == by_index.read_bytes()
    Y = load_csv(by_name, has_header=True)
    assert Y.feature_names == ["y0", "y1"]
    assert np.array_equal(np.bincount(Y.labels), [50, 50, 50])


def test_fit_missing_input_exit_2_no_outputs(capsys, tmp_path):
    emb = tmp_path / "emb.csv"
    code, _, err = run(capsys, "fit", "--input", str(tmp_path / "nope.csv"),
                       "--output", str(emb))
    assert code == 2
    assert not emb.exists()


@pytest.mark.parametrize("case", ["input", "config", "metric-in", "original"])
def test_input_under_a_regular_file_exit_2(capsys, tmp_path, case):
    # roll.csv/x raises NotADirectoryError, an OSError like any unreadable input
    roll, _ = make_roll(capsys, tmp_path, n=60)
    under = str(roll / "x")
    fit = ["fit", "--input", str(roll), "--has-header", "--epochs", "1",
           "--output", str(tmp_path / "emb.csv")]
    argv = {"input": ["fit", "--input", under, "--output", str(tmp_path / "e.csv")],
            "config": fit + ["--config", under],
            "metric-in": fit + ["--metric-in", under],
            "original": ["evaluate", "--original", under, "--embedding", str(roll),
                         "--has-header", "--k", "3",
                         "--output", str(tmp_path / "r.json")]}[case]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err


def test_unreadable_input_exit_2(capsys, tmp_path, monkeypatch):
    roll, _ = make_roll(capsys, tmp_path, n=60)

    def forbidden(path, *args, **kwargs):
        if str(path) == str(roll):
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, *args, **kwargs)
    monkeypatch.setattr(data, "open", forbidden, raising=False)
    emb = tmp_path / "emb.csv"
    code, _, err = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--output", str(emb))
    assert code == 2
    assert "Permission denied" in err
    assert not emb.exists()


def test_fit_disconnected_graph_exit_2(capsys, tmp_path):
    # three far-apart pairs with one neighbor each: three components leave
    # three non-null directions, so four components cannot be embedded
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,0\n0.01,0\n50,0\n50.01,0\n100,0\n100.01,0\n")
    emb = tmp_path / "emb.csv"
    code, _, err = run(capsys, "fit", "--input", str(pairs), "--neighbors", "1",
                       "--components", "4", "--output", str(emb))
    assert code == 2
    assert "disconnected" in err
    assert "Traceback" not in err
    assert not emb.exists()


@pytest.mark.parametrize("algorithm", ["lle", "alle"])
def test_fit_coincident_points_exit_2(capsys, tmp_path, algorithm):
    # 30 copies of one point: every neighbor is an index tie, so the
    # embedding would carry no information
    same = tmp_path / "same.csv"
    write_csv(DataMatrix(np.tile([1.0, 2.0, 3.0], (30, 1))), same)
    emb = tmp_path / "emb.csv"
    code, _, err = run(capsys, "fit", "--input", str(same), "--has-header",
                       "--algorithm", algorithm, "--output", str(emb))
    assert code == 2
    assert "all points coincide" in err
    assert not emb.exists()


@pytest.mark.parametrize("algorithm", ["lle", "alle"])
@pytest.mark.parametrize("case", ["n_is_k_plus_1", "constant_column"])
def test_fit_degenerate_inputs_exit_0(capsys, tmp_path, algorithm, case):
    # n = K+1 (every other point is a neighbor) and a constant column both
    # fit to a zero-mean embedding with (1/n) Y^T Y = I
    if case == "n_is_k_plus_1":
        values = generate_swiss_roll(11, 0.0, 0).values
    else:
        values = generate_swiss_roll(200, 0.0, 0).values
        values[:, 1] = 5.0
    path, emb = tmp_path / "in.csv", tmp_path / "emb.csv"
    write_csv(DataMatrix(values), path)
    code, _, _ = run(capsys, "fit", "--input", str(path), "--has-header",
                     "--algorithm", algorithm, "--neighbors", "10",
                     "--output", str(emb))
    assert code == 0
    Y = load_csv(emb, has_header=True).values
    n = values.shape[0]
    assert Y.shape == (n, 2) and np.all(np.isfinite(Y))
    assert np.allclose(Y.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(Y.T @ Y / n, np.eye(2), atol=1e-6)


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_short_header_exit_2(capsys, tmp_path, command):
    # a header with fewer names than the rows have cells is a usage error
    table = tmp_path / "short.csv"
    table.write_text("a,b\n" + "".join("%d,%d,%d\n" % (i, i * i, -i)
                                       for i in range(12)))
    out = tmp_path / "out"
    if command == "fit":
        argv = ["fit", "--input", str(table), "--neighbors", "3"]
    else:
        argv = ["evaluate", "--original", str(table), "--embedding", str(table),
                "--k", "2"]
    code, _, err = run(capsys, *argv, "--has-header", "--output", str(out))
    assert code == 2
    assert "2 names but its rows have 3 cells" in err
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_fit_null_tol_is_not_an_option(capsys, tmp_path, how):
    # removed fit options are usage errors, as flags and as --config keys;
    # update replaced optimizer and metric_mode
    roll, _ = make_roll(capsys, tmp_path, n=60)
    emb = tmp_path / "emb.csv"
    removed = {"null_tol": 1e-8, "metric_init": "random", "init_sigma": 0.5,
               "seed": 3, "no_early_stop": True, "no_eta_clamp": True,
               "color_column": 3, "optimizer": "adam", "metric_mode": "directM"}
    for name, value in removed.items():
        argv = ["fit", "--input", str(roll), "--has-header", "--output", str(emb)]
        if how == "flag":
            argv += ["--" + name.replace("_", "-")]
            argv += [] if value is True else [str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({name: value}))
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 2, name
        assert "Traceback" not in err
        assert out == "" and not emb.exists()


def test_fit_metric_in_with_lle_exit_2(capsys, tmp_path):
    # plain LLE keeps the Euclidean metric, so a starting factor is refused
    roll, _ = make_roll(capsys, tmp_path, n=60)
    metric = tmp_path / "metric.csv"
    metric.write_text("2,0,0\n0,1,0\n0,0,1\n")
    emb = tmp_path / "emb.csv"
    code, _, err = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--algorithm", "lle",
                       "--metric-in", str(metric), "--output", str(emb))
    assert code == 2
    assert "--metric-in" in err and "--algorithm lle" in err
    assert not emb.exists()


@pytest.mark.parametrize("flags, named", [
    (["--has-header", "--idx-labels", "LABELS"], "--idx-labels"),
    (["--input-format", "idx", "--has-header"], "--has-header"),
    (["--input-format", "idx", "--label-column", "0"], "--label-column"),
], ids=["idx-labels-on-csv", "has-header-on-idx", "label-column-on-idx"])
def test_fit_flag_the_input_format_ignores_exit_2(capsys, tmp_path, flags, named):
    # each input would fit without the flag, which its format would drop:
    # a usage error, not a silently unlabeled embedding
    roll, _ = make_roll(capsys, tmp_path, n=60)
    img, lab = make_idx(tmp_path)
    emb = tmp_path / "emb.csv"
    source = img if "idx" in flags else roll
    flags = [str(lab) if f == "LABELS" else f for f in flags]
    code, out, err = run(capsys, "fit", "--input", str(source), *flags,
                         "--neighbors", "5", "--output", str(emb))
    assert code == 2
    assert named in err and "Traceback" not in err
    assert out == ""
    assert not emb.exists()


def test_fit_metric_in_whose_mapping_overflows_exit_2(capsys, tmp_path):
    # a finite factor that maps the roll past float64's range
    roll, _ = make_roll(capsys, tmp_path, n=60)
    metric = tmp_path / "metric.csv"
    metric.write_text("1e308,0,0\n0,1e308,0\n0,0,1e308\n")
    emb = tmp_path / "emb.csv"
    code, _, err = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--metric-in", str(metric), "--output", str(emb))
    assert code == 2
    assert "overflow float64" in err and "Traceback" not in err
    assert not emb.exists()


def test_fit_config_file_merging(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path, n=100)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"neighbors": 6, "epochs": 3,
                               "has_header": True}))
    emb = tmp_path / "e.csv"
    code, out, _ = run(capsys, "fit", "--input", str(roll), "--config",
                       str(cfg), "--neighbors", "9", "--output", str(emb))
    assert code == 0
    resolved = json.loads(out)["config"]
    assert resolved["neighbors"] == 9      # flag wins
    assert resolved["epochs"] == 3         # config file fills the gap
    assert resolved["has_header"] is True


BAD_CONFIG_VALUES = {
    "neighbors-null": {"neighbors": None}, "neighbors-float": {"neighbors": 9.5},
    "epochs-float": {"epochs": 2.5}, "lr-list": {"lr": [1]},
    "gram_reg-null": {"gram_reg": None}, "has_header-string": {"has_header": "yes"},
    "gram_reg-nan": {"gram_reg": float("nan")},
    "gram_reg-inf": {"gram_reg": float("inf")},
    "lr-nan": {"lr": float("nan")}, "lr-inf": {"lr": float("inf")},
    "recompute-choice": {"recompute_neighbors": "sometimes"},
    "output-bool": {"output": True},
    "not-an-object": [{"neighbors": 9}],
}


@pytest.mark.parametrize("case", BAD_CONFIG_VALUES)
def test_fit_config_values_are_checked_exit_2(capsys, tmp_path, case):
    # a --config value meets its flag's type and choices; the null, float
    # and list values used to raise a TypeError traceback (exit 1),
    # has_header "yes" passed as true, and a NaN or inf rate reached the
    # fit, whose manifest then held NaN or Infinity, which is not JSON
    entry = BAD_CONFIG_VALUES[case]
    roll, _ = make_roll(capsys, tmp_path, n=60)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    emb = tmp_path / "e.csv"
    header = [] if "has_header" in entry else ["--has-header"]
    code, out, err = run(capsys, "fit", "--input", str(roll), *header,
                         "--config", str(cfg), "--output", str(emb))
    assert code == 2
    assert "Traceback" not in err
    assert out == "" and not emb.exists()


@pytest.mark.parametrize("spelling", ["every-epoch", "every_epoch"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_fit_recompute_neighbors_spellings(capsys, tmp_path, how, spelling):
    roll, _ = make_roll(capsys, tmp_path, n=60)
    argv = ["fit", "--input", str(roll), "--has-header", "--epochs", "2",
            "--output", str(tmp_path / "e.csv")]
    if how == "flag":
        argv += ["--recompute-neighbors", spelling]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"recompute_neighbors": spelling}))
        argv += ["--config", str(cfg)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"]["recompute_neighbors"] == "every_epoch"


def test_fit_config_file_rejects_unknown_key(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path, n=60)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"neighbours": 6, "has_header": True}))
    emb = tmp_path / "e.csv"
    code, _, err = run(capsys, "fit", "--input", str(roll), "--config",
                       str(cfg), "--output", str(emb))
    assert code == 2
    assert "neighbours" in err
    assert not emb.exists()


def test_fit_defaults_are_the_config_defaults(capsys, tmp_path):
    roll = tmp_path / "roll.csv"
    write_csv(DataMatrix(generate_swiss_roll(80, seed=2).values), roll,
              include_header=False)
    code, out, _ = run(capsys, "fit", "--input", str(roll),
                       "--output", str(tmp_path / "e.csv"))
    assert code == 0
    echoed = json.loads(out)["config"]
    pipeline = PipelineConfig()
    assert echoed["neighbors"] == pipeline.n_neighbors
    assert echoed["components"] == pipeline.n_components
    assert echoed["epochs"] == pipeline.max_epochs
    assert echoed["recompute_neighbors"] == pipeline.recompute_neighbors
    assert echoed["gram_reg"] == pipeline.gram_reg
    assert echoed["update"] == pipeline.update
    assert echoed["lr"] == pipeline.eta


def make_idx(tmp_path):
    """40 random 3x3 images and their labels in 0..2, as IDX files."""
    import struct
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(40, 3, 3), dtype=np.uint8)
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 40, 3, 3))
        f.write(images.tobytes())
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 40))
        f.write(rng.integers(0, 3, 40, dtype=np.uint8).tobytes())
    return img, lab


def test_fit_idx_input(capsys, tmp_path):
    img, lab = make_idx(tmp_path)
    emb = tmp_path / "e.csv"
    code, _, _ = run(capsys, "fit", "--input", str(img), "--input-format",
                     "idx", "--idx-labels", str(lab), "--neighbors", "5",
                     "--epochs", "2", "--output", str(emb))
    assert code == 0
    assert load_csv(emb, has_header=True, label_column=2).values.shape == (40, 2)


@pytest.mark.parametrize("case", ["overflow", "tebibyte", "labels", "trailing"])
def test_fit_idx_payload_beyond_file_exit_2(capsys, tmp_path, case):
    # a header declaring more bytes than the file holds is refused before
    # anything is allocated for them, and one declaring fewer (the rest of
    # the file would be ignored, the data silently misread) is refused too
    import struct
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    shape = {"overflow": (2**32 - 1,) * 3, "tebibyte": (2**20, 2**10, 2**10),
             "labels": (2, 2, 2), "trailing": (2, 2, 1)}[case]
    img.write_bytes(struct.pack(">IIII", 0x00000803, *shape) + bytes(8))
    lab.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(1))
    emb = tmp_path / "e.csv"
    code, _, err = run(capsys, "fit", "--input", str(img), "--input-format",
                       "idx", "--idx-labels", str(lab), "--output", str(emb))
    assert code == 2
    assert ("overlong" if case == "trailing" else "truncated") + " IDX payload" in err
    assert str(lab if case == "labels" else img) in err
    assert "Traceback" not in err
    assert not emb.exists()


def test_fit_eigensolver_failure_exit_3(capsys, tmp_path, monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                  np.zeros(0), np.zeros((0, 0)))

    roll, _ = make_roll(capsys, tmp_path, n=300)
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_convergence)
    code, _, err = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--algorithm", "lle",
                       "--output", str(tmp_path / "e.csv"))
    assert code == 3
    assert "numerical failure" in err and "No convergence" in err
    assert "Traceback" not in err


def test_fit_singular_local_system_exit_3(capsys, tmp_path):
    # a cluster 1e-162 across beside a unit point (see test_reconstruction)
    rng = np.random.default_rng(0)
    path = tmp_path / "singular.csv"
    write_csv(DataMatrix(np.vstack([rng.standard_normal((30, 2)) * 1e-162,
                                    [[1.0, 0.0]]])), path)
    code, _, err = run(capsys, "fit", "--input", str(path), "--has-header",
                       "--neighbors", "6", "--output", str(tmp_path / "e.csv"))
    assert code == 3
    assert "numerical failure: local D x D system" in err and "is singular" in err
    assert "Traceback" not in err


def test_fit_out_of_memory_exit_4(capsys, tmp_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.00 GiB")

    roll, _ = make_roll(capsys, tmp_path, n=300)
    monkeypatch.setattr(cli, "fit_alle", exhausted)
    code, _, err = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--output", str(tmp_path / "e.csv"))
    assert code == 4
    # the innermost package function is the command's, which called the
    # patched fit; n is the input's row count
    assert err == ("out of memory in fit (n=300) at cli._cmd_fit: "
                   "Unable to allocate 4.00 GiB\n")
    assert "Traceback" not in err


def test_fit_out_of_memory_without_a_message_names_its_type(capsys, tmp_path,
                                                          monkeypatch):
    # SuperLU's MemoryError carries no text: the line ends with its type
    def exhausted(*args, **kwargs):
        raise MemoryError()

    roll, _ = make_roll(capsys, tmp_path, n=300)
    monkeypatch.setattr("scipy.sparse.linalg.splu", exhausted)
    code, _, err = run(capsys, "fit", "--input", str(roll), "--has-header",
                       "--algorithm", "lle", "--output", str(tmp_path / "e.csv"))
    assert code == 4
    assert err.endswith(" at embedding._sparse_bottom: MemoryError\n"), err


# the child loads every lazy import and allocates its BLAS buffers in a
# small fit, then caps its own address space (RLIMIT_AS, this process only)
# at that footprint plus 32 MiB, which a 20 000-point fit outgrows
CAPPED_FIT = """
import resource, sys
from adaptive_lle import cli, fit_lle, generate_swiss_roll
fit_lle(generate_swiss_roll(100, 0.0, 0), cli.PipelineConfig())
with open("/proc/self/statm") as f:
    cap = int(f.read().split()[0]) * resource.getpagesize() + (32 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(cli.main(sys.argv[1:]))
"""


def test_fit_under_memory_cap_names_stage_and_n(tmp_path):
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("no /proc/self/statm to size the cap from")
    roll = tmp_path / "roll.csv"
    write_csv(generate_swiss_roll(20000, 0.0, 0), roll)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", CAPPED_FIT, "fit", "--input", str(roll),
         "--has-header", "--algorithm", "lle", "--output", str(tmp_path / "e.csv")],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 4, child.stderr
    # a stage of the fit, after the input loaded
    assert re.search(r"out of memory in fit \(n=20000\) at "
                     r"(neighbors|reconstruction|embedding|pipeline)\.\w+: ",
                     child.stderr), child.stderr
    assert "Traceback" not in child.stderr


# ----------------------------------------------------------------- evaluate

def test_evaluate_self_embedding(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path, n=100)
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "evaluate", "--original", str(roll),
                       "--embedding", str(roll), "--has-header",
                       "--k", "5", "--output", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["trustworthiness"] == 1.0
    assert report["continuity"] == 1.0
    assert "silhouette" not in report  # unlabeled input


def test_evaluate_four_point_fixture(capsys, tmp_path):
    orig, emb = tmp_path / "x.csv", tmp_path / "y.csv"
    orig.write_text("0\n1\n3\n7\n")
    emb.write_text("0\n1\n7\n3\n")
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "evaluate", "--original", str(orig),
                     "--embedding", str(emb), "--k", "1",
                     "--output", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["trustworthiness"] == pytest.approx(0.625)
    assert report["continuity"] == pytest.approx(0.625)


def test_evaluate_with_labels(capsys, tmp_path):
    iris = tmp_path / "iris.csv"
    run(capsys, "dataset", "iris", "--output", str(iris))
    emb = tmp_path / "emb.csv"
    run(capsys, "fit", "--input", str(iris), "--has-header",
        "--label-column", "4", "--algorithm", "lle", "--neighbors", "10",
        "--output", str(emb))
    # labels from the original's label column, or from the embedding's
    # when the original has none
    unlabeled = tmp_path / "unlabeled.csv"
    write_csv(DataMatrix(load_csv(iris, has_header=True).values), unlabeled)
    reports = []
    for original in (iris, unlabeled):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "evaluate", "--original", str(original),
                         "--embedding", str(emb), "--has-header", "--k", "10",
                         "--output", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        for key in ("silhouette", "knn_accuracy", "linear_accuracy"):
            assert key in report
        reports.append({key: value for key, value in report.items()
                        if key != "config_echo"})
    assert reports[0] == reports[1]


def test_evaluate_far_apart_label_values_exit_0(capsys, tmp_path):
    # labels 0 and 10^9 are two classes; the vote table used to have a
    # column per integer up to the largest label and run out of memory
    rng = np.random.default_rng(0)
    points = np.vstack([rng.standard_normal((50, 3)),
                        rng.standard_normal((50, 3)) + 8.0])
    path = tmp_path / "far.csv"
    write_csv(DataMatrix(points, labels=np.repeat([0, 10 ** 9], 50)), path)
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "evaluate", "--original", str(path),
                     "--embedding", str(path), "--has-header", "--k", "10",
                     "--output", str(report_path))
    assert code == 0
    assert json.loads(report_path.read_text())["knn_accuracy"] == 1.0


def test_evaluate_row_mismatch_exit_2(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("0\n1\n2\n")
    b.write_text("0\n1\n")
    code, _, err = run(capsys, "evaluate", "--original", str(a),
                       "--embedding", str(b), "--k", "1",
                       "--output", str(tmp_path / "r.json"))
    assert code == 2
    assert "mismatch" in err


def test_manifest_lists_only_existing_files(capsys, tmp_path):
    roll, manifest = make_roll(capsys, tmp_path, n=60)
    import os
    for path in manifest["outputs"]:
        assert os.path.exists(path)
    assert "wall_time_s" in manifest and "version" in manifest


def test_dataset_write_failure_exit_1(capsys, tmp_path):
    # output path is a directory: I/O failure, not a usage error
    code, _, err = run(capsys, "dataset", "iris", "--output", str(tmp_path))
    assert code == 1


def test_fit_write_failure_exit_1(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path, n=60)
    code, _, _ = run(capsys, "fit", "--input", str(roll), "--has-header",
                     "--epochs", "0",
                     "--output", str(tmp_path))
    assert code == 1


def test_evaluate_write_failure_exit_1(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path, n=60)
    code, _, err = run(capsys, "evaluate", "--original", str(roll), "--embedding",
                       str(roll), "--has-header", "--k", "3", "--output", str(tmp_path))
    assert code == 1
    assert "cannot write" in err


def test_evaluate_config_file(capsys, tmp_path):
    roll, _ = make_roll(capsys, tmp_path, n=60)
    cfg = tmp_path / "eval.json"
    report_path = tmp_path / "r.json"
    cfg.write_text(json.dumps({"original": str(roll), "embedding": str(roll),
                               "has-header": True, "k": 3,
                               "output": str(report_path)}))
    code, _, _ = run(capsys, "evaluate", "--config", str(cfg))
    assert code == 0
    assert json.loads(report_path.read_text())["trustworthiness"] == 1.0


def test_evaluate_missing_required_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "evaluate", "--original", "x.csv",
                       "--embedding", "y.csv", "--k", "3")
    assert code == 2
    assert "--output" in err


def test_dataset_config_file(capsys, tmp_path):
    cfg = tmp_path / "ds.json"
    out = tmp_path / "roll.csv"
    cfg.write_text(json.dumps({"n": 40, "seed": 9, "output": str(out)}))
    code, stdout, _ = run(capsys, "dataset", "swiss-roll", "--config",
                          str(cfg), "--n", "25")
    assert code == 0
    assert json.loads(stdout)["config"]["n"] == 25  # flag beats config
    assert load_csv(out, has_header=True).n == 25


# --------------------------------------------------------------- README sync

def test_readme_flags_match_the_cli():
    # every --flag the README names is an option of some subcommand, and
    # every fit tuning flag is documented there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    _, commands = cli._build_parser()
    options = {flag for command in commands.values()
               for action in command._actions for flag in action.option_strings}
    assert named - options == set()
    fit_flags = {"--" + flag.replace("_", "-"): name
                 for flag, name in cli.FIT_FIELDS.items()}
    assert set(fit_flags) - named == set()
    # every "--flag a|b" value list is the flag's CHOICES, dashes read as
    # underscores
    lists = re.findall(r"(--[a-z][a-z0-9-]*) ([\w-]+(?:\|[\w-]+)+)", readme)
    assert lists
    for flag, values in lists:
        assert tuple(values.replace("-", "_").split("|")) == CHOICES[fit_flags[flag]]


def test_fit_flags_take_their_field_default_and_values():
    # each fit flag takes its field's default, and the field's CHOICES or
    # the type of that default
    _, commands = cli._build_parser()
    actions = {action.dest: action for action in commands["fit"]._actions}
    for flag, name in cli.FIT_FIELDS.items():
        default = getattr(PipelineConfig, name)
        action = actions[flag]
        assert action.default == default
        if name in CHOICES:
            assert action.choices == CHOICES[name]
        else:
            assert action.choices is None and action.type is type(default)


@pytest.mark.parametrize("flag", [f for f, name in cli.FIT_FIELDS.items()
                                  if name in CHOICES])
def test_fit_choice_flags_read_dashes_as_underscores(flag):
    for value in CHOICES[cli.FIT_FIELDS[flag]]:
        for spelling in (value, value.replace("_", "-")):
            args = cli._parse_args(["fit", "--" + flag.replace("_", "-"), spelling])
            assert getattr(args, flag) == value
