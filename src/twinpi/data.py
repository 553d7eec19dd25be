"""Datasets for regression with a privileged feature channel.

Covers CSV ingestion, min-max normalization, the regular/privileged feature
split, train/test splitting, synthetic benchmark generation and lag embedding
of univariate series. Every operation is pure and deterministic given its
seeds, so concurrent use on distinct data is safe.

:func:`load_csv` and :func:`load_series` parse a file's data rows with one
``np.loadtxt`` call, whose C parser gives the floats ``float`` gives cell by
cell. A file it rejects is walked cell by cell: the walk reads the cells
``float`` accepts and numpy does not (``1_0``, non-ASCII digits), or names
the file's first ragged row or non-numeric cell. :func:`save_csv` writes
text in blocks of rows, so the per-cell work runs inside the interpreter's
C loops rather than in Python statements: it turns each block into Python
floats with one ``tolist``, formats each with ``float.__repr__`` and writes
the block's text to the open file before it formats the next, so the whole
table's text is never held at once. Its bytes are those a per-cell loop
writes.

Files are written by :func:`write_atomically`: into a sibling temporary
file that is renamed onto the target, so a failed or interrupted write
leaves the old file (or none) and never a truncated one. Every whole-file
output of the package goes through it, most of them as text through
:func:`write_text_atomically`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


#: Rows the CSV writer formats at a time. Turning a whole 20000-row table
#: into Python floats at once left the process 1.5 MB larger for the rest of
#: the run (grown allocator arenas); 64 rows kept it flat and ran fastest.
_CSV_BLOCK_ROWS = 64


class DataError(ValueError):
    """Raised for malformed input data or an invalid data operation."""


def _checked_array(values, name: str, ndim: int) -> np.ndarray:
    """``values`` as a float64 array of ``ndim`` dimensions with finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise DataError(f"{name} must be {ndim}-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (rows = samples) with an aligned target vector."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _checked_array(self.features, "features", 2))
        object.__setattr__(self, "targets", _checked_array(self.targets, "targets", 1))
        if self.features.shape[0] != self.targets.shape[0]:
            raise DataError(
                f"features have {self.features.shape[0]} rows but targets have "
                f"{self.targets.shape[0]} entries"
            )
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != self.features.shape[1]:
                raise DataError("feature_names length does not match feature count")
            object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class PIDataset:
    """Training data split into regular features, privileged features and targets.

    Privileged features are available while fitting only; prediction-time
    interfaces never accept them.
    """

    regular: np.ndarray
    privileged: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "regular", _checked_array(self.regular, "regular", 2))
        object.__setattr__(self, "privileged", _checked_array(self.privileged, "privileged", 2))
        object.__setattr__(self, "targets", _checked_array(self.targets, "targets", 1))
        m = self.targets.shape[0]
        if self.regular.shape[0] != m or self.privileged.shape[0] != m:
            raise DataError("regular, privileged and targets must all have the same row count")
        if self.regular.shape[1] < 1 or self.privileged.shape[1] < 1:
            raise DataError("regular and privileged must each have at least one column")

    @property
    def n_samples(self) -> int:
        return self.targets.shape[0]

    def subset(self, indices: np.ndarray) -> "PIDataset":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=int)
        return PIDataset(self.regular[idx], self.privileged[idx], self.targets[idx])


@dataclass(frozen=True)
class NormStats:
    """Per-column min/max of a training split, feature columns first, target last.

    ``col_min`` and ``col_max`` have length d + 1 for a dataset with d
    features; the final entry holds the target column statistics.
    """

    col_min: np.ndarray
    col_max: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "col_min", _checked_array(self.col_min, "col_min", 1))
        object.__setattr__(self, "col_max", _checked_array(self.col_max, "col_max", 1))
        if self.col_min.shape != self.col_max.shape:
            raise DataError("col_min and col_max must have equal length")
        if np.any(self.col_min > self.col_max):
            raise DataError("col_min must be <= col_max in every column")

    @property
    def n_feature_columns(self) -> int:
        return self.col_min.shape[0] - 1

    def transform_features(self, x: np.ndarray) -> np.ndarray:
        """Scale feature columns; ``x`` may be a prefix of the file column order."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k = x.shape[1]
        if k > self.n_feature_columns:
            raise DataError(
                f"{k} feature columns given but stats cover {self.n_feature_columns}"
            )
        lo = self.col_min[:k]
        span = self.col_max[:k] - lo
        span = np.where(span == 0.0, 1.0, span)
        return (x - lo) / span

    def transform_targets(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        lo = self.col_min[-1]
        span = self.col_max[-1] - lo
        if span == 0.0:
            span = 1.0
        return (y - lo) / span


@dataclass(frozen=True)
class NoiseSpec:
    """One of the three target-noise regimes, with its own draw seed."""

    kind: str
    seed: int = 0

    KINDS = ("uniform_pm02", "gaussian_005", "gaussian_02")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise DataError(f"unknown noise kind {self.kind!r}; expected one of {self.KINDS}")

    def draw(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.kind == "uniform_pm02":
            return rng.uniform(-0.2, 0.2, n)
        if self.kind == "gaussian_005":
            return rng.normal(0.0, 0.05, n)
        return rng.normal(0.0, 0.2, n)


@dataclass(frozen=True)
class RatioSplit:
    """Shuffle rows with ``seed`` and put the first ``ratio`` share into train."""

    ratio: float
    seed: int = 0


@dataclass(frozen=True)
class HeadSplit:
    """Take the first ``count`` rows as train, in order (time-series safe)."""

    count: int


def _parse_rows(path: str | Path) -> tuple[list[str] | None, np.ndarray]:
    """Read a comma-separated numeric file, auto-detecting a single header line.

    Returns the header (or None) and the float64 data matrix. The stripped,
    non-blank data lines are parsed by one ``np.loadtxt``; when it rejects
    them, :func:`_checked_cells` reads them or raises their first error.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise DataError(f"{path}: file is empty")

    first_cells = [c.strip() for c in lines[0].split(",")]
    header: list[str] | None
    try:
        [float(c) for c in first_cells]
        header = None
        data_lines = lines
    except ValueError:
        header = first_cells
        data_lines = lines[1:]
    if not data_lines:
        raise DataError(f"{path}: no data rows")

    n_cols = data_lines[0].count(",") + 1
    # comments=None: numpy's default "#" would read the cell 3#x as 3, which
    # float() rejects.
    try:
        matrix = np.loadtxt(data_lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        matrix = _checked_cells(path, data_lines, n_cols)
    if header is not None and len(header) != n_cols:
        raise DataError(f"{path}: header has {len(header)} columns, data rows have {n_cols}")
    return header, matrix


def _checked_cells(path: str | Path, data_lines: list[str], n_cols: int) -> np.ndarray:
    """The cells as a float64 matrix, each read by ``float`` in file order;
    the first ragged row or non-numeric cell raises its :class:`DataError`."""
    values: list[float] = []
    for i, line in enumerate(data_lines, start=1):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != n_cols:
            raise DataError(f"{path}: row {i} has {len(cells)} columns, expected {n_cols}")
        for j, cell in enumerate(cells, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {cell!r} at row {i}, column {j}"
                ) from None
    return np.array(values).reshape(len(data_lines), n_cols)


def _resolve_target(header: list[str] | None, n_cols: int, target_column) -> int:
    if target_column is None:
        return n_cols - 1
    if isinstance(target_column, str):
        if header is None:
            raise DataError(f"target column {target_column!r} requested but file has no header")
        if target_column not in header:
            raise DataError(f"target column {target_column!r} not found in header {header}")
        return header.index(target_column)
    idx = int(target_column)
    if idx < 0:
        idx += n_cols
    if not 0 <= idx < n_cols:
        raise DataError(f"target column index {target_column} out of range for {n_cols} columns")
    return idx


def load_csv(path: str | Path, target_column: str | int | None = None) -> Dataset:
    """Load a comma-separated numeric file into a :class:`Dataset`.

    A single header line is auto-detected by a non-numeric first row. The
    target column defaults to the last one; it may be selected by header
    name or by (0-based) index. Row order is preserved.

    The data rows are parsed by numpy's C parser, which gives the values
    ``float`` gives cell by cell. A ragged row or a cell ``float`` rejects
    raises a :class:`DataError` naming the first one in file order.
    """
    header, matrix = _parse_rows(path)
    t = _resolve_target(header, matrix.shape[1], target_column)
    if matrix.shape[1] < 2:
        raise DataError(f"{path}: need at least one feature column besides the target")
    if not np.all(np.isfinite(matrix)):
        raise DataError(f"{path}: file contains non-finite values")
    features = np.delete(matrix, t, axis=1)
    names = None
    if header is not None:
        names = tuple(h for k, h in enumerate(header) if k != t)
    return Dataset(features, matrix[:, t], names)


def load_series(path: str | Path, column: str | int | None = None) -> np.ndarray:
    """Load one column of a CSV as a univariate series (default: last column)."""
    header, matrix = _parse_rows(path)
    t = _resolve_target(header, matrix.shape[1], column)
    series = matrix[:, t]
    if not np.all(np.isfinite(series)):
        raise DataError(f"{path}: series contains non-finite values")
    return series


def write_atomically(path: str | Path, write: Callable[[Path], None]) -> None:
    """Replace ``path`` with the file ``write(tmp)`` writes at a sibling path ``tmp``.

    ``tmp`` is renamed onto ``path`` with ``os.replace`` once ``write``
    returns, so readers see the old file or the new one. If ``write`` or the
    rename raises, ``tmp`` is removed and the exception propagates, so a
    location that cannot be written raises ``OSError``. An error that names
    ``tmp`` alone names ``path`` instead, the file the caller asked for.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and (exc.filename, exc.filename2) == (str(tmp), None):
            exc.filename = str(path)
        raise


def write_text_atomically(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``, as ``Path.write_text(text, encoding="utf-8")`` writes it."""
    write_atomically(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the same CSV schema that :func:`load_csv` reads.

    Floats are written with shortest round-trip precision, so reading the
    file back reproduces the values exactly. Each block of
    ``_CSV_BLOCK_ROWS`` rows becomes Python floats with one ``tolist``, and
    each row is joined from ``map(repr, row)``: ``tolist`` keeps every
    float64 bit (-0.0 and subnormals too), so the bytes are those of
    ``repr(float(v))`` per cell. Every line, the last included, ends in a
    newline, and the text is encoded as ``Path.write_text`` encodes it
    (UTF-8, the platform's line separator).

    Each block's text is written before the next block is formatted, so
    past the stacked float64 table the writer holds one block's text, not
    the file's. The file is replaced atomically (:func:`write_atomically`).
    """
    names = dataset.feature_names or tuple(
        f"x{j + 1}" for j in range(dataset.n_features)
    )
    table = np.column_stack([dataset.features, dataset.targets])

    def write(tmp: Path) -> None:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(",".join(list(names) + ["y"]) + "\n")
            for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
                block = table[start:start + _CSV_BLOCK_ROWS].tolist()
                out.write("".join([",".join(map(repr, row)) + "\n" for row in block]))

    write_atomically(path, write)


def min_max_normalize(data: Dataset) -> tuple[Dataset, NormStats]:
    """Map every column (features and target) onto [0, 1] column-wise.

    Constant columns map to all zeros. The returned stats hold the training
    min/max so the identical affine map can be applied to test rows later.
    """
    if data.n_samples == 0:
        raise DataError("cannot normalize an empty dataset")
    full = np.column_stack([data.features, data.targets])
    col_min = full.min(axis=0)
    col_max = full.max(axis=0)
    stats = NormStats(col_min, col_max)
    scaled_features = stats.transform_features(data.features)
    scaled_targets = stats.transform_targets(data.targets)
    return Dataset(scaled_features, scaled_targets, data.feature_names), stats


def split_privileged(data: Dataset) -> PIDataset:
    """Split features into a regular and a privileged block.

    The first ceil(d / 2) columns, in file order, become the regular
    features; the remaining floor(d / 2) become the privileged ones.
    """
    d = data.n_features
    if d < 2:
        raise DataError(f"insufficient features for PI split: need d >= 2, got d = {d}")
    d_regular = (d + 1) // 2
    return PIDataset(
        data.features[:, :d_regular],
        data.features[:, d_regular:],
        data.targets,
    )


def train_test_split(
    data: Dataset, scheme: RatioSplit | HeadSplit
) -> tuple[Dataset, Dataset]:
    """Split into train and test per the scheme; both parts must be non-empty."""
    m = data.n_samples
    if isinstance(scheme, RatioSplit):
        if not 0.0 < scheme.ratio < 1.0:
            raise DataError(f"split ratio must lie in (0, 1), got {scheme.ratio}")
        n_train = int(round(scheme.ratio * m))
        if not 1 <= n_train <= m - 1:
            raise DataError(f"degenerate ratio split: {n_train} train rows out of {m}")
        perm = np.random.default_rng(scheme.seed).permutation(m)
        train_idx, test_idx = perm[:n_train], perm[n_train:]
    elif isinstance(scheme, HeadSplit):
        if not 1 <= scheme.count <= m - 1:
            raise DataError(
                f"head split count must lie in [1, {m - 1}] for {m} rows, got {scheme.count}"
            )
        train_idx = np.arange(scheme.count)
        test_idx = np.arange(scheme.count, m)
    else:
        raise DataError(f"unknown split scheme {scheme!r}")
    make = lambda idx: Dataset(data.features[idx], data.targets[idx], data.feature_names)
    return make(train_idx), make(test_idx)


def _f1(x: np.ndarray) -> np.ndarray:
    # sin(r)/r with the removable singularity at r = 0 resolved to 1.
    r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
    return np.sinc(r / np.pi)


def _f2(x: np.ndarray) -> np.ndarray:
    return (
        10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
    )


def _f3(x: np.ndarray) -> np.ndarray:
    return np.exp(x[:, 0] * np.sin(np.pi * x[:, 1]))


def _f4(x: np.ndarray) -> np.ndarray:
    return 1.9 * (
        1.35
        + np.exp(x[:, 0]) * np.sin(13.0 * (x[:, 0] - 0.6) ** 2)
        + np.exp(3.0 * (x[:, 1] - 0.5)) * np.sin(4.0 * np.pi * (x[:, 1] - 0.9) ** 2)
    )


@dataclass(frozen=True)
class SyntheticFunction:
    """A benchmark target function with its uniform input domain."""

    name: str
    n_inputs: int
    low: float
    high: float
    evaluate: Callable[[np.ndarray], np.ndarray]


SYNTHETIC_FUNCTIONS: dict[str, SyntheticFunction] = {
    "f1": SyntheticFunction("f1", 2, -4.0 * math.pi, 4.0 * math.pi, _f1),
    "f2": SyntheticFunction("f2", 5, 0.0, 1.0, _f2),
    "f3": SyntheticFunction("f3", 2, -1.0, 1.0, _f3),
    "f4": SyntheticFunction("f4", 2, 0.0, 1.0, _f4),
}


def gen_synthetic(
    fn_id: str,
    n_train: int,
    n_test: int,
    noise: NoiseSpec,
    seed: int,
) -> tuple[Dataset, Dataset]:
    """Generate a train/test pair from one of the benchmark functions.

    Inputs are drawn uniformly on the function's domain with ``seed``. Train
    targets are the function values plus one noise draw per row (targets
    only; inputs stay clean); test targets are noise-free.
    """
    if fn_id not in SYNTHETIC_FUNCTIONS:
        raise DataError(f"unknown synthetic function {fn_id!r}")
    if n_train < 1 or n_test < 1:
        raise DataError("n_train and n_test must both be at least 1")
    fn = SYNTHETIC_FUNCTIONS[fn_id]
    rng = np.random.default_rng(seed)
    x_train = rng.uniform(fn.low, fn.high, size=(n_train, fn.n_inputs))
    x_test = rng.uniform(fn.low, fn.high, size=(n_test, fn.n_inputs))
    y_train = fn.evaluate(x_train) + noise.draw(n_train)
    y_test = fn.evaluate(x_test)
    names = tuple(f"x{j + 1}" for j in range(fn.n_inputs))
    return Dataset(x_train, y_train, names), Dataset(x_test, y_test, names)


def lag_embed(series: np.ndarray, lags: int) -> Dataset:
    """Embed a univariate series: row t predicts s_t from the previous ``lags`` values."""
    s = _checked_array(series, "series", 1)
    if lags < 1:
        raise DataError(f"lags must be at least 1, got {lags}")
    if s.shape[0] <= lags:
        raise DataError(
            f"series of length {s.shape[0]} is too short for lag embedding with lags={lags}"
        )
    m = s.shape[0] - lags
    features = np.column_stack([s[k : k + m] for k in range(lags)])
    targets = s[lags:]
    names = tuple(f"lag{lags - k}" for k in range(lags))
    return Dataset(features, targets, names)
