"""Dataset generation and file loading.

Every loader and generator returns a :class:`DataMatrix`: an n x D array of
finite sample values with optional integer class labels and an optional
real-valued color column (used by the synthetic roll to carry its manifold
parameter for plotting).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from ._iris_data import IRIS_FEATURE_NAMES, IRIS_ROWS

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _finite(values) -> np.ndarray:
    """values as a float array; ValueError if any entry is NaN or Inf."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("values contain NaN or Inf")
    return values


@dataclass
class DataMatrix:
    """A table of n samples in D ambient dimensions.

    Attributes
    ----------
    values : ndarray of shape (n, D)
        Sample coordinates; every entry must be finite.
    labels : ndarray of shape (n,), optional
        Non-negative integer class ids.
    color : ndarray of shape (n,), optional
        Real-valued per-sample scalar (e.g. a manifold parameter) for
        plot export; not a class label.
    feature_names : list of str, optional
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    color: np.ndarray | None = None
    feature_names: list[str] | None = field(default=None)

    def __post_init__(self):
        self.values = _finite(self.values)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        n, D = self.values.shape
        if n < 1 or D < 1:
            raise ValueError("need at least one sample and one feature")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise ValueError("labels length %d does not match n=%d"
                                 % (self.labels.size, n))
            if np.any(self.labels < 0):
                raise ValueError("labels must be non-negative integers")
        if self.color is not None:
            self.color = np.asarray(self.color, dtype=float)
            if self.color.shape != (n,):
                raise ValueError("color length does not match n")
            if not np.all(np.isfinite(self.color)):
                raise ValueError("color contains NaN or Inf")
        if self.feature_names is not None and len(self.feature_names) != D:
            raise ValueError("feature_names length does not match D")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def generate_swiss_roll(n: int, noise: float = 0.0, seed: int = 0) -> DataMatrix:
    """Sample n points from a rolled 2-D sheet embedded in 3-D.

    The roll parameter t is drawn uniformly from [1.5*pi, 4.5*pi] and the
    sheet height h uniformly from [0, 21]; each point is
    (t*cos(t), h, t*sin(t)) plus isotropic Gaussian noise of the given
    standard deviation.  t is stored in the ``color`` column.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, n)
    h = rng.uniform(0.0, 21.0, n)
    points = np.column_stack([t * np.cos(t), h, t * np.sin(t)])
    if noise > 0:
        points = points + noise * rng.standard_normal((n, 3))
    return DataMatrix(points, color=t, feature_names=["x0", "x1", "x2"])


def scale_features(X: DataMatrix, factors) -> DataMatrix:
    """Multiply each feature column by a positive per-column factor."""
    factors = np.asarray(factors, dtype=float)
    if factors.shape != (X.dim,):
        raise ValueError("expected %d factors, got %d" % (X.dim, factors.size))
    if np.any(factors <= 0):
        raise ValueError("all scale factors must be positive")
    return DataMatrix(
        X.values * factors[None, :],
        labels=None if X.labels is None else X.labels.copy(),
        color=None if X.color is None else X.color.copy(),
        feature_names=None if X.feature_names is None else list(X.feature_names),
    )


def load_csv(path, has_header: bool = False,
             label_column: int | None = None) -> DataMatrix:
    """Read a rectangular numeric CSV into a DataMatrix.

    Parameters
    ----------
    path : str or Path
    has_header : bool
        Read a single header row, one name per column.  A column named
        ``label`` becomes the integer labels and one named ``color`` the
        color, as :func:`write_csv` names them; the names of the remaining
        feature columns become ``feature_names``.
    label_column : int, optional
        Zero-based column extracted as integer class labels; where the
        header names a ``label`` column, it may only repeat that column.

    Accepts LF or CRLF line endings and '.' decimal points.
    """
    with open(path, "r", encoding="utf-8", newline="") as f:
        lines = (ln for ln in f if ln.strip() != "")
        header = next(lines, None) if has_header else None
        first = next(lines, None)
        if first is None:
            if header is not None:
                raise ValueError("CSV has a header but no data rows: %s" % path)
            raise ValueError("empty CSV file: %s" % path)
        try:  # rows stream from the file, so its text is never held whole
            table = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                               ndmin=2, comments=None)
        except ValueError as exc:  # numpy's message names the data row and column
            raise ValueError("ragged or non-numeric data row in %s: %s"
                             % (path, exc)) from None
    width = table.shape[1]
    color_index = None
    if header is not None:
        header = [c.strip() for c in header.split(",")]
        if len(header) != width:
            raise ValueError("header of %s has %d names but its rows have %d cells"
                             % (path, len(header), width))
        if header.count("label") > 1 or header.count("color") > 1:
            raise ValueError("header of %s names 'label' or 'color' twice" % path)
        if "label" in header:
            if label_column not in (None, header.index("label")):
                raise ValueError("header of %s names column %d 'label', not "
                                 "label_column %d" % (path, header.index("label"),
                                                      label_column))
            label_column = header.index("label")
        if "color" in header:
            color_index = header.index("color")
            if color_index == label_column:
                raise ValueError("header of %s names label_column %d 'color'"
                                 % (path, label_column))

    labels = None
    if label_column is not None:
        if not 0 <= label_column < width:
            raise ValueError("label_column %d out of range" % label_column)
        raw = table[:, label_column]
        if np.any(raw != np.round(raw)) or np.any(raw < 0):
            raise ValueError("label column must hold non-negative integers")
        labels = raw.astype(np.int64)
    color = table[:, color_index] if color_index is not None else None

    feature_cols = [j for j in range(width) if j not in (label_column, color_index)]
    if not feature_cols:
        raise ValueError("no feature columns remain after extraction")
    names = [header[j] for j in feature_cols] if header is not None else None
    return DataMatrix(table[:, feature_cols], labels=labels, color=color,
                      feature_names=names)


def write_csv(X: DataMatrix, path, include_header: bool = True) -> None:
    """Write a DataMatrix as CSV; inverse of :func:`load_csv`.

    Feature columns come first (named x0..x{D-1} unless the matrix carries
    names, which may not be ``label`` or ``color``), then an optional
    ``color`` column, then an optional ``label`` column.  Values are written
    with enough digits to round-trip float64.
    """
    header = list(X.feature_names or ["x%d" % j for j in range(X.dim)])
    if "label" in header or "color" in header:
        raise ValueError("a feature named 'label' or 'color' would read back "
                         "as labels or color")
    tails = []
    if X.color is not None:
        header.append("color")
        tails.append(map(repr, X.color.tolist()))
    if X.labels is not None:
        header.append("label")
        tails.append(map(str, X.labels.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if include_header:
            f.write(",".join(header) + "\n")
        for row, *tail in zip(X.values, *tails):
            f.write(",".join([*map(repr, row.tolist()), *tail]) + "\n")


def _idx_header(f, path, magic: int, words: int, kind: str) -> list[int]:
    """The u32 fields after the magic of an IDX header of ``words`` words."""
    header = np.fromfile(f, ">u4", count=words)
    if header.size and header[0] != magic:
        raise ValueError("bad %s magic 0x%08x in %s (expected 0x%08x)"
                         % (kind, header[0], path, magic))
    if header.size != words:
        raise ValueError("truncated IDX file %s while reading its header" % path)
    return header[1:].tolist()  # Python ints: their product cannot wrap


def _idx_payload(f, path, size: int) -> np.ndarray:
    """The ``size`` bytes after an IDX header, which must be exactly the bytes
    left in the file; checked before anything is allocated for them."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size != left:
        raise ValueError("%s IDX payload in %s: expected %d bytes, got %d"
                         % ("truncated" if size > left else "overlong", path,
                            size, left))
    return np.fromfile(f, np.uint8, count=size)


def load_idx(images_path, labels_path=None) -> DataMatrix:
    """Load big-endian IDX image (and optional label) files.

    The image file must carry magic 0x00000803 followed by u32 count, rows,
    cols and one unsigned byte per pixel; pixels are rescaled to [0, 1] by
    dividing by 255.  The label file must carry magic 0x00000801 followed by
    u32 count and one byte per label, and its count must match the images.
    """
    with open(images_path, "rb") as f:
        count, rows, cols = _idx_header(f, images_path, IDX_IMAGE_MAGIC, 4, "image")
        pixels = _idx_payload(f, images_path, count * rows * cols)
    values = pixels.reshape(count, rows * cols).astype(float) / 255.0

    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as f:
            lcount, = _idx_header(f, labels_path, IDX_LABEL_MAGIC, 2, "label")
            if lcount != count:
                raise ValueError("image/label count mismatch: %d images, %d labels"
                                 % (count, lcount))
            labels = _idx_payload(f, labels_path, lcount).astype(np.int64)
    return DataMatrix(values, labels=labels)


def builtin_iris() -> DataMatrix:
    """The classic 150x4 iris measurements with class labels 0..2."""
    table = np.asarray(IRIS_ROWS, dtype=float)
    return DataMatrix(table[:, :4], labels=table[:, 4].astype(np.int64),
                      feature_names=list(IRIS_FEATURE_NAMES))

