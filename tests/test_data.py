import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaptive_lle import (DataMatrix, MetricState, builtin_iris,
                          generate_swiss_roll, load_csv, load_idx, load_metric,
                          save_metric, scale_features, write_csv)

from conftest import subsample

# -0.0, the smallest subnormal, a subnormal, the smallest normal and +-max
EDGE_FLOATS = [-0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
finite_floats = (st.sampled_from(EDGE_FLOATS)
                 | st.floats(allow_nan=False, allow_infinity=False))


# ---------------------------------------------------------------- swiss roll

def test_swiss_roll_single_point():
    roll = generate_swiss_roll(1, noise=0.0, seed=0)
    assert roll.values.shape == (1, 3)
    assert np.all(np.isfinite(roll.values))
    assert roll.color.shape == (1,)


def test_swiss_roll_seeded_determinism():
    a = generate_swiss_roll(1000, noise=0.0, seed=7)
    b = generate_swiss_roll(1000, noise=0.0, seed=7)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.color.tobytes() == b.color.tobytes()


def test_swiss_roll_closed_form():
    # with zero noise each point satisfies x^2 + z^2 = t^2 exactly (up to fp)
    roll = generate_swiss_roll(1000, noise=0.0, seed=7)
    t = roll.color
    assert np.all(t >= 1.5 * np.pi) and np.all(t <= 4.5 * np.pi)
    radius_sq = roll.values[:, 0] ** 2 + roll.values[:, 2] ** 2
    assert np.allclose(radius_sq, t ** 2, rtol=1e-12, atol=0)
    assert np.all(roll.values[:, 1] >= 0) and np.all(roll.values[:, 1] <= 21)


def test_swiss_roll_noise_changes_points():
    clean = generate_swiss_roll(100, noise=0.0, seed=3)
    noisy = generate_swiss_roll(100, noise=0.5, seed=3)
    assert not np.allclose(clean.values, noisy.values)


def test_swiss_roll_validation():
    with pytest.raises(ValueError):
        generate_swiss_roll(0, 0.0, 0)
    with pytest.raises(ValueError):
        generate_swiss_roll(10, -0.1, 0)


# ------------------------------------------------------------ scale_features

def test_scale_identity():
    X = generate_swiss_roll(50, 0.0, 1)
    out = scale_features(X, [1.0, 1.0, 1.0])
    assert np.array_equal(out.values, X.values)


def test_scale_direct():
    X = DataMatrix(np.array([[1.0, 2.0]]))
    out = scale_features(X, [2.0, 0.5])
    assert np.array_equal(out.values, [[2.0, 1.0]])


def test_scale_inverse_round_trip():
    X = generate_swiss_roll(100, 0.1, 2)
    factors = np.array([2.0, 3.0, 0.25])
    back = scale_features(scale_features(X, factors), 1.0 / factors)
    assert np.max(np.abs(back.values - X.values)) < 1e-12


def test_scale_preserves_labels():
    X = DataMatrix(np.eye(3), labels=[0, 1, 2])
    out = scale_features(X, [2.0, 2.0, 2.0])
    assert np.array_equal(out.labels, [0, 1, 2])


def test_scale_errors():
    X = DataMatrix(np.eye(3))
    with pytest.raises(ValueError):
        scale_features(X, [1.0, 2.0])
    with pytest.raises(ValueError):
        scale_features(X, [1.0, -1.0, 1.0])


def test_scale_commutes_with_subsample():
    X = generate_swiss_roll(100, 0.0, 5)
    factors = [2.0, 0.5, 3.0]
    a = subsample(scale_features(X, factors), 40, seed=9)
    b = scale_features(subsample(X, 40, seed=9), factors)
    assert np.array_equal(a.values, b.values)


# -------------------------------------------------------------------- csv io

def test_load_csv_plain(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,0\n1,1,1\n")
    X = load_csv(path)
    assert X.values.shape == (2, 3)
    assert X.labels is None


def test_load_csv_label_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,0\n1,1,1\n")
    X = load_csv(path, label_column=2)
    assert X.values.shape == (2, 2)
    assert np.array_equal(X.labels, [0, 1])


def test_load_csv_crlf_and_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\r\n1.5,2.5\r\n3.5,4.5\r\n")
    X = load_csv(path, has_header=True)
    assert X.feature_names == ["a", "b"]
    assert np.array_equal(X.values, [[1.5, 2.5], [3.5, 4.5]])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = DataMatrix(rng.standard_normal((20, 4)) * 1e3,
                   labels=rng.integers(0, 3, 20), color=rng.random(20))
    path = tmp_path / "rt.csv"
    write_csv(X, path)
    back = load_csv(path, has_header=True)
    assert np.max(np.abs(back.values - X.values)) < 1e-12
    assert np.array_equal(back.labels, X.labels)
    assert np.max(np.abs(back.color - X.color)) < 1e-12


def test_load_csv_routes_label_and_color_by_header_name(tmp_path):
    # the header's names, not their positions, take the columns out of the
    # features; label_column may repeat the named column
    path = tmp_path / "t.csv"
    path.write_text("label,a,color,b\n2,1.5,0.25,3\n0,2.5,0.75,4\n")
    for label_column in (None, 0):
        X = load_csv(path, has_header=True, label_column=label_column)
        assert X.feature_names == ["a", "b"]
        assert np.array_equal(X.values, [[1.5, 3.0], [2.5, 4.0]])
        assert np.array_equal(X.labels, [2, 0])
        assert np.array_equal(X.color, [0.25, 0.75])


@pytest.mark.parametrize("header, label_column, match", [
    ("label,a,label", None, "twice"), ("color,a,color", None, "twice"),
    ("a,label,b", 0, "column 1 'label', not label_column 0"),
    ("a,color,b", 1, "label_column 1 'color'")])
def test_load_csv_rejects_ambiguous_header_names(tmp_path, header,
                                                 label_column, match):
    path = tmp_path / "t.csv"
    path.write_text(header + "\n1,2,3\n")
    with pytest.raises(ValueError, match=match):
        load_csv(path, has_header=True, label_column=label_column)


@pytest.mark.parametrize("name", ["label", "color"])
def test_write_csv_rejects_reserved_feature_names(tmp_path, name):
    # such a column would read back as labels or color, not as a feature
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="feature named 'label' or 'color'"):
        write_csv(DataMatrix(np.ones((2, 2)), feature_names=["a", name]), path)
    assert not path.exists()


def test_load_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3\n1,2\n")
    with pytest.raises(ValueError, match="ragged"):
        load_csv(ragged)
    bad = tmp_path / "bad.csv"
    bad.write_text("1,x,3\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(empty)


def test_load_csv_header_width_must_match_rows(tmp_path):
    # a header narrower or wider than the rows names the wrong columns
    for text, widths in (("a,b\n1,2,3\n", "2 names .* 3 cells"),
                         ("a,b,c,d\n1,2,3\n", "4 names .* 3 cells")):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="header of .*h.csv has " + widths):
            load_csv(path, has_header=True)


def test_load_csv_error_names_the_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,4\n5,y\n")
    with pytest.raises(ValueError, match="bad.csv.*'y'.*column 2"):
        load_csv(bad)


def test_load_csv_skips_blank_lines_and_keeps_hash(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\n  \r\na,b\r\n\r\n1,2\n \t\n3,4")
    X = load_csv(path, has_header=True)
    assert X.feature_names == ["a", "b"]
    assert np.array_equal(X.values, [[1.0, 2.0], [3.0, 4.0]])
    comment = tmp_path / "c.csv"
    comment.write_text("# not a comment\n1,2\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(comment)


@st.composite
def labeled_tables(draw):
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = draw(arrays(np.float64, (n, dim), elements=finite_floats))
    labels = draw(st.none() | arrays(np.int64, n,
                                     elements=st.integers(0, 2 ** 53)))
    color = draw(st.none() | arrays(np.float64, n, elements=finite_floats))
    names = draw(st.none() | st.lists(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
            lambda name: name not in ("label", "color")),
        min_size=dim, max_size=dim))
    return DataMatrix(values, labels=labels, color=color, feature_names=names)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(X=DataMatrix(np.array([EDGE_FLOATS]), labels=[2 ** 53],
                      color=[-0.0], feature_names=list("abcdef")))
@given(X=labeled_tables())
def test_csv_round_trip_is_bitwise(tmp_path_factory, X):
    # write_csv writes repr digits, so load_csv returns every bit
    path = tmp_path_factory.mktemp("csv") / "rt.csv"
    write_csv(X, path)
    back = load_csv(path, has_header=True)
    assert np.array_equal(back.values.view(np.uint64), X.values.view(np.uint64))
    if X.color is None:
        assert back.color is None
    else:
        assert np.array_equal(back.color.view(np.uint64), X.color.view(np.uint64))
    if X.labels is None:
        assert back.labels is None
    else:
        assert np.array_equal(back.labels, X.labels)
    assert back.feature_names == (X.feature_names
                                  or ["x%d" % j for j in range(X.dim)])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(L=st.integers(1, 5).flatmap(
    lambda dim: arrays(np.float64, (dim, dim), elements=finite_floats)))
def test_metric_checkpoint_round_trip_is_bitwise(tmp_path_factory, L):
    path = tmp_path_factory.mktemp("metric") / "L.csv"
    save_metric(MetricState(L), path)
    assert np.array_equal(load_metric(path).L.view(np.uint64), L.view(np.uint64))


# -------------------------------------------------------------------- idx io

def _write_idx_images(path, images):
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        f.write(images.tobytes())


def _write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, labels.size))
        f.write(labels.tobytes())


def test_load_idx_rescales(tmp_path):
    img = tmp_path / "img.idx"
    _write_idx_images(img, [[[0, 255], [0, 255]]])
    X = load_idx(img)
    assert X.values.shape == (1, 4)
    assert np.array_equal(X.values[0], [0.0, 1.0, 0.0, 1.0])


def test_load_idx_with_labels(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    _write_idx_images(img, np.arange(24, dtype=np.uint8).reshape(3, 2, 4))
    _write_idx_labels(lab, [5, 0, 9])
    X = load_idx(img, lab)
    assert X.values.shape == (3, 8)
    assert np.array_equal(X.labels, [5, 0, 9])


def test_load_idx_wrong_magic(tmp_path):
    path = tmp_path / "bad.idx"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000000, 1, 2, 2))
        f.write(bytes(4))
    with pytest.raises(ValueError, match="magic"):
        load_idx(path)


def test_load_idx_truncated(tmp_path):
    path = tmp_path / "short.idx"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
        f.write(bytes(5))  # needs 8
    with pytest.raises(ValueError, match="truncated"):
        load_idx(path)


def test_load_idx_magic_checked_before_length(tmp_path):
    path = tmp_path / "head.idx"
    for head, match in ((struct.pack(">I", 0x00000801), "bad image magic"),
                        (struct.pack(">II", 0x00000803, 1), "truncated IDX file"),
                        (b"\x00\x00", "truncated IDX file"), (b"", "truncated")):
        path.write_bytes(head)
        with pytest.raises(ValueError, match=match):
            load_idx(path)


def test_load_idx_count_mismatch(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    _write_idx_images(img, np.zeros((2, 2, 2), dtype=np.uint8))
    _write_idx_labels(lab, [1, 2, 3])
    with pytest.raises(ValueError, match="mismatch"):
        load_idx(img, lab)


MNIST_DIR = os.environ.get("ALLE_MNIST_DIR", "")
_MNIST_TEST = os.path.join(MNIST_DIR, "t10k-images-idx3-ubyte")


@pytest.mark.skipif(not os.path.isfile(_MNIST_TEST),
                    reason="real MNIST IDX files not available "
                           "(set ALLE_MNIST_DIR)")
def test_load_idx_real_mnist_test_split():
    X = load_idx(_MNIST_TEST,
                 os.path.join(MNIST_DIR, "t10k-labels-idx1-ubyte"))
    assert X.values.shape == (10000, 784)
    assert X.values.min() >= 0.0 and X.values.max() <= 1.0


# ---------------------------------------------------------------------- iris

def test_iris_shape_and_histogram():
    iris = builtin_iris()
    assert iris.values.shape == (150, 4)
    assert np.array_equal(np.bincount(iris.labels), [50, 50, 50])


def test_iris_first_canonical_row():
    iris = builtin_iris()
    assert np.array_equal(iris.values[0], [5.1, 3.5, 1.4, 0.2])
    assert iris.labels[0] == 0


# ----------------------------------------------------------------- datamatrix

def test_datamatrix_invariants():
    with pytest.raises(ValueError):
        DataMatrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        DataMatrix(np.eye(3), labels=[0, 1])
    with pytest.raises(ValueError):
        DataMatrix(np.eye(3), labels=[0, -1, 2])
    with pytest.raises(ValueError):
        DataMatrix(np.zeros((0, 3)))
