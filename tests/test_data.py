import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from support import csv_files

from twinpi import data as data_module
from twinpi.data import (
    DataError,
    Dataset,
    HeadSplit,
    NoiseSpec,
    RatioSplit,
    SYNTHETIC_FUNCTIONS,
    gen_synthetic,
    lag_embed,
    load_csv,
    load_series,
    min_max_normalize,
    save_csv,
    split_privileged,
    train_test_split,
)


# ---------------------------------------------------------------- load_csv


def test_load_csv_with_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n")
    ds = load_csv(path, target_column="y")
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])
    np.testing.assert_array_equal(ds.targets, [3.0, 6.0])
    assert ds.feature_names == ("a", "b")


def test_load_csv_default_target_is_last_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2,3\n4,5,6\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.targets, [3.0, 6.0])
    assert ds.feature_names is None


def test_load_csv_non_numeric_cell_names_row_and_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,y\nabc,2,3\n4,5,6\n")
    with pytest.raises(DataError, match="row 1, column 1"):
        load_csv(path, target_column="y")


@given(csv_files())
@settings(max_examples=300, deadline=None)
def test_load_csv_raises_data_error_or_returns_finite_arrays(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(content)
    try:
        ds = load_csv(path)
    except DataError:
        return
    assert ds.n_samples >= 1 and ds.n_features >= 1
    assert np.all(np.isfinite(ds.features)) and np.all(np.isfinite(ds.targets))


def test_load_csv_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xff\xfe1,2\n3,4\n")
    with pytest.raises(DataError, match="not UTF-8 text"):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(path)


def test_load_csv_missing_target_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    with pytest.raises(DataError, match="not found"):
        load_csv(path, target_column="y")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_csv(tmp_path / "absent.csv")


def test_load_csv_servo_shaped_file(tmp_path):
    # 167 rows, 2 feature columns + target
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(167, 3))
    path = tmp_path / "servo_like.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    ds = load_csv(path)
    assert ds.n_samples == 167
    assert ds.n_features == 2


def reference_parse_rows(path):
    """The cell-by-cell reader ``_parse_rows`` ran before it parsed in bulk."""
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
    try:
        [float(c) for c in first_cells]
        header = None
        data_lines = lines
    except ValueError:
        header = first_cells
        data_lines = lines[1:]
    if not data_lines:
        raise DataError(f"{path}: no data rows")

    n_cols = len(data_lines[0].split(","))
    rows = []
    for i, line in enumerate(data_lines, start=1):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != n_cols:
            raise DataError(f"{path}: row {i} has {len(cells)} columns, expected {n_cols}")
        row = []
        for j, cell in enumerate(cells, start=1):
            try:
                row.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {cell!r} at row {i}, column {j}"
                ) from None
        rows.append(row)
    if header is not None and len(header) != n_cols:
        raise DataError(f"{path}: header has {len(header)} columns, data rows have {n_cols}")
    return header, np.asarray(rows, dtype=float)


def bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


def read_outcome(load, path):
    """What ``load(path)`` gives, compared bit for bit: arrays, header or error."""
    try:
        got = load(path)
    except DataError as exc:
        return "DataError", str(exc)
    if isinstance(got, Dataset):
        return bits(got.features), bits(got.targets), got.feature_names
    return bits(got)


def assert_reads_like_the_reference(path):
    for load in (load_csv, load_series):
        got = read_outcome(load, path)
        with mock.patch.object(data_module, "_parse_rows", reference_parse_rows):
            want = read_outcome(load, path)
        assert got == want


@given(csv_files())
@settings(max_examples=300, deadline=None)
def test_csv_readers_match_the_cell_by_cell_reference(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(content)
    assert_reads_like_the_reference(path)


#: Digit runs with the digit separator and non-ASCII digits among them.
_DIGITS = st.text(st.sampled_from("0123456789_\u0663\uff11"), min_size=1, max_size=4)
#: Number-like cells built from signs, mantissas and exponents, many malformed.
_SYNTAX_NUMBERS = st.tuples(
    st.sampled_from(["", "+", "-", "--", "+-"]),
    st.one_of(
        _DIGITS,
        st.tuples(_DIGITS, st.just("."), _DIGITS).map("".join),
        _DIGITS.map("{}.".format),
        _DIGITS.map(".{}".format),
    ),
    st.one_of(
        st.just(""),
        st.tuples(st.sampled_from(["e", "E"]), st.sampled_from(["", "+", "-"]),
                  st.one_of(st.just(""), _DIGITS)).map("".join),
    ),
).map("".join)
#: Spellings of nan and inf, comment and quote characters, empty cells,
#: signed zeros and the edges of the float range.
_SYNTAX_SPECIALS = st.sampled_from([
    "nan", "NaN", "-nan", "+NAN", "nan(1)", "inf", "-Inf", "+INF", "infinity", "-Infinity",
    "iNfInItY", "infinit", "in f", "", "#", "3#x", "#3", "1 #", "'1'", '"1"', '"1', "0x10",
    "1e", "e5", ".", "-", "1.2.3", "-0.0", "-0", "0e0", "-0e-5", "5e-324", "-5e-324",
    "4e-324", "2.225073858507201e-308", "1e-400", "1e400", "-1e308",
])
#: Zeros of either sign and subnormals, as ``repr`` writes them.
_TINY_FLOATS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308).map(repr)
#: Padding that ``str.strip`` removes around a cell.
_CELL_PADDING = st.text(st.sampled_from([" ", "\t", "\x1f", "\xa0", "\u3000"]), max_size=2)
_SYNTAX_CELLS = st.tuples(
    _CELL_PADDING, st.one_of(_SYNTAX_NUMBERS, _SYNTAX_SPECIALS, _TINY_FLOATS), _CELL_PADDING
).map("".join)


@st.composite
def float_syntax_files(draw):
    """Bytes of a rectangular CSV file, under an optional header, whose cells
    are drawn from a pool of one to three float-syntax cells; a small pool
    makes files whose every cell parses common."""
    pool = draw(st.lists(_SYNTAX_CELLS, min_size=1, max_size=3))
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lines = [",".join(f"c{j}" for j in range(n_cols))] if draw(st.booleans()) else []
    for _ in range(n_rows):
        lines.append(",".join(draw(st.sampled_from(pool)) for _ in range(n_cols)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return (newline.join(lines) + newline).encode("utf-8")


@given(float_syntax_files())
@settings(max_examples=500, deadline=None)
def test_csv_readers_match_the_reference_on_float_syntax(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(content)
    assert_reads_like_the_reference(path)


@pytest.mark.parametrize(
    "text, error",
    [
        ("a,b,y\n1,x,3\n4,5\n", "non-numeric value 'x' at row 1, column 2"),
        ("a,b,y\n1,2,3\n4,5\n7,x,9\n", "row 2 has 2 columns, expected 3"),
        ("a,b,y\n1,2,3\n4,5,6,\n7,x,9\n", "row 2 has 4 columns, expected 3"),
        ("a,b,y\n1,2,3\n4, x ,6\n7,8\n", "non-numeric value 'x' at row 2, column 2"),
        ("a,b,y\n", "no data rows"),
        ("a,b\n1,2,3\n", "header has 2 columns, data rows have 3"),
        (" 1 , 2\t,3 \n\t4,  5,6\n", None),
        ("a , b,y\r\n1,2,3\r\n4,5,6\r\n", None),
        ("1,2,3\n\n   \n4,5,6\n\t\n", None),
        ("1,-0.0,3\n1e-320,5e-324,6e16\n", None),
        ("1\x1f,2,3\n4,5,\x1f6\n", None),
    ],
    ids=["non-numeric-then-ragged", "ragged-then-non-numeric", "trailing-comma",
         "padded-non-numeric", "header-only", "header-width", "padded-cells", "crlf",
         "blank-lines", "signed-zero-and-subnormals", "unit-separator-padding"],
)
def test_csv_readers_match_the_reference_on_edge_files(tmp_path, text, error):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_like_the_reference(path)
    if error is None:
        load_csv(path)
    else:
        with pytest.raises(DataError, match=error):
            load_csv(path)


def reference_csv_bytes(dataset):
    """The file ``save_csv`` wrote when it formatted one ``repr(float(v))`` per cell."""
    names = dataset.feature_names or tuple(
        f"x{j + 1}" for j in range(dataset.n_features)
    )
    lines = [",".join(list(names) + ["y"])]
    for row, y in zip(dataset.features, dataset.targets):
        lines.append(",".join(repr(float(v)) for v in row) + "," + repr(float(y)))
    return ("\n".join(lines) + "\n").encode("utf-8")


#: Float64 cells for the writer: any finite float, plus -0.0, subnormals,
#: integral values and the points where ``repr`` switches to exponent form.
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
        1e-05, 9.999999999999999e-06, 1.0000000000000001e-05, -1e-05, 0.0001,
        1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16, 1e15, 1e17,
    ]),
    st.integers(-(2**53), 2**53).map(float),
)


@st.composite
def csv_datasets(draw):
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    features = draw(hnp.arrays(np.float64, (m, d), elements=_CELLS))
    targets = draw(hnp.arrays(np.float64, m, elements=_CELLS))
    names = tuple(f"c{j}" for j in range(d)) if draw(st.booleans()) else None
    return Dataset(features, targets, names)


@given(csv_datasets(), st.sampled_from([1, 5, data_module._CSV_BLOCK_ROWS]))
@settings(max_examples=200, deadline=None)
def test_save_csv_writes_the_bytes_of_a_per_cell_repr(tmp_path_factory, dataset, block_rows):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    with mock.patch.object(data_module, "_CSV_BLOCK_ROWS", block_rows):
        save_csv(dataset, path)
    assert path.read_bytes() == reference_csv_bytes(dataset)


def test_csv_bytes_and_values_across_row_blocks(tmp_path):
    rng = np.random.default_rng(2)
    m = 2 * data_module._CSV_BLOCK_ROWS + 3
    features = rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-8, 18, size=(m, 3))
    features[::7, 1] = -0.0
    dataset = Dataset(features, rng.normal(size=m), ("a", "b", "c"))
    path = tmp_path / "out.csv"
    save_csv(dataset, path)
    assert path.read_bytes() == reference_csv_bytes(dataset)
    assert_reads_like_the_reference(path)
    back = load_csv(path)
    assert bits(back.features) == bits(dataset.features)
    assert bits(back.targets) == bits(dataset.targets)


def test_failed_csv_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    rng = np.random.default_rng(4)
    m = 3 * data_module._CSV_BLOCK_ROWS
    save_csv(Dataset(rng.normal(size=(m, 2)), rng.normal(size=m)), path)
    before = path.read_bytes()
    writes = []

    def open_failing_at_the_third_write(*args, **kwargs):
        # the header and the first block are written, then the disk fills up
        handle = open(*args, **kwargs)
        write = handle.write

        def write_or_fail(text):
            writes.append(len(text))
            if len(writes) == 3:
                raise OSError("no space left on device")
            return write(text)

        handle.write = write_or_fail
        return handle

    monkeypatch.setattr(data_module, "open", open_failing_at_the_third_write, raising=False)
    with pytest.raises(OSError, match="no space"):
        save_csv(Dataset(rng.normal(size=(m, 2)), rng.normal(size=m)), path)
    monkeypatch.undo()
    assert len(writes) == 3
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_save_csv_into_a_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError) as info:
        save_csv(Dataset(np.ones((2, 2)), np.ones(2)), path)
    assert info.value.filename == str(path)
    assert str(path) in str(info.value)
    assert list(tmp_path.iterdir()) == []


def test_save_csv_holds_one_block_of_text_at_a_time(tmp_path):
    # 20000 rows of 5 features and a target: the stacked float64 table is
    # 960 KB, the file's text about 2.4 MB
    rng = np.random.default_rng(6)
    dataset = Dataset(rng.uniform(size=(20000, 5)), rng.uniform(size=20000))
    table_bytes = 20000 * 6 * 8
    tracemalloc.start()
    try:
        save_csv(dataset, tmp_path / "big.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").read_bytes() == reference_csv_bytes(dataset)
    assert peak < table_bytes + 256 * 1024


@given(csv_datasets())
@settings(max_examples=200, deadline=None)
def test_csv_round_trip_exact(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("csv") / "rt.csv"
    save_csv(dataset, path)
    back = load_csv(path)
    assert bits(back.features) == bits(dataset.features)
    assert bits(back.targets) == bits(dataset.targets)
    assert back.feature_names == (dataset.feature_names or
                                  tuple(f"x{j + 1}" for j in range(dataset.n_features)))


def test_load_series_single_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1\n2\n3\n")
    np.testing.assert_array_equal(load_series(path), [1.0, 2.0, 3.0])


# ---------------------------------------------------- min-max normalization


def test_normalize_single_column_endpoints():
    ds = Dataset([[1.0], [3.0], [5.0]], [0.0, 0.0, 1.0])
    out, _ = min_max_normalize(ds)
    np.testing.assert_allclose(out.features[:, 0], [0.0, 0.5, 1.0])


def test_normalize_constant_column_maps_to_zero():
    ds = Dataset([[7.0], [7.0], [7.0]], [1.0, 2.0, 3.0])
    out, _ = min_max_normalize(ds)
    np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0, 0.0])


def test_normalize_two_columns_hand_values():
    # per-column map (x - min) / (max - min)
    ds = Dataset([[0.0, 10.0], [2.0, 20.0], [4.0, 40.0]], [0.0, 1.0, 2.0])
    out, _ = min_max_normalize(ds)
    np.testing.assert_allclose(out.features[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(out.features[:, 1], [0.0, 1.0 / 3.0, 1.0])


def test_normalize_covers_targets_too():
    ds = Dataset([[1.0], [2.0], [3.0]], [10.0, 20.0, 30.0])
    out, stats = min_max_normalize(ds)
    np.testing.assert_allclose(out.targets, [0.0, 0.5, 1.0])
    assert stats.col_min[-1] == 10.0 and stats.col_max[-1] == 30.0


def test_apply_norm_matches_training_map_and_does_not_clip():
    train = Dataset([[1.0], [3.0], [5.0]], [1.0, 3.0, 5.0])
    _, stats = min_max_normalize(train)
    np.testing.assert_allclose(stats.transform_features([[3.0], [7.0]])[:, 0], [0.5, 1.5])
    np.testing.assert_allclose(stats.transform_targets([3.0, 7.0]), [0.5, 1.5])


def test_apply_norm_idempotent_on_training_data():
    train = Dataset([[1.0], [3.0], [5.0]], [0.0, 1.0, 2.0])
    normalized, stats = min_max_normalize(train)
    np.testing.assert_allclose(stats.transform_features(train.features), normalized.features)
    np.testing.assert_allclose(stats.transform_targets(train.targets), normalized.targets)


def test_apply_norm_dimension_mismatch():
    train = Dataset([[1.0, 2.0]], [0.0])
    _, stats = min_max_normalize(train)
    with pytest.raises(DataError, match="3 feature columns given but stats cover 2"):
        stats.transform_features([[1.0, 2.0, 3.0]])


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_normalized_nonconstant_columns_attain_zero_and_one(m, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(m, 3)), rng.normal(size=m))
    out, _ = min_max_normalize(ds)
    full = np.column_stack([out.features, out.targets])
    for col in full.T:
        assert col.min() >= 0.0 and col.max() <= 1.0
        if col.max() > col.min():
            assert col.min() == 0.0 and col.max() == 1.0


# ------------------------------------------------------- privileged split


def test_split_privileged_even_and_odd():
    for d, expected_regular in ((8, 4), (7, 4)):
        ds = Dataset(np.arange(2.0 * d).reshape(2, d), [0.0, 1.0])
        pi = split_privileged(ds)
        assert pi.regular.shape[1] == expected_regular
        assert pi.privileged.shape[1] == d - expected_regular


def test_split_privileged_single_feature_errors():
    with pytest.raises(DataError, match="insufficient features for PI split"):
        split_privileged(Dataset([[1.0], [2.0]], [0.0, 1.0]))


def test_split_privileged_takes_leading_columns():
    ds = Dataset([[1.0, 2.0, 3.0]], [0.0])
    pi = split_privileged(ds)
    np.testing.assert_array_equal(pi.regular, [[1.0, 2.0]])
    np.testing.assert_array_equal(pi.privileged, [[3.0]])


@given(st.integers(min_value=2, max_value=30))
@settings(max_examples=29, deadline=None)
def test_split_privileged_column_counts(d):
    ds = Dataset(np.zeros((2, d)) + np.arange(d), [0.0, 1.0])
    pi = split_privileged(ds)
    d_r, d_p = pi.regular.shape[1], pi.privileged.shape[1]
    assert d_r + d_p == d
    assert d_r - d_p in (0, 1)


# ------------------------------------------------------- train/test split


def test_ratio_split_cardinality_and_partition():
    ds = Dataset(np.arange(10.0).reshape(10, 1), np.arange(10.0))
    train, test = train_test_split(ds, RatioSplit(0.7, seed=5))
    assert train.n_samples == 7 and test.n_samples == 3
    together = sorted(np.concatenate([train.targets, test.targets]).tolist())
    assert together == list(np.arange(10.0))


def test_head_split_preserves_order():
    m = 750
    ds = Dataset(np.arange(float(m)).reshape(m, 1), np.arange(float(m)))
    train, test = train_test_split(ds, HeadSplit(200))
    np.testing.assert_array_equal(train.targets, np.arange(200.0))
    np.testing.assert_array_equal(test.targets, np.arange(200.0, 750.0))


def test_ratio_split_deterministic():
    ds = Dataset(np.arange(20.0).reshape(20, 1), np.arange(20.0))
    a = train_test_split(ds, RatioSplit(0.7, seed=9))
    b = train_test_split(ds, RatioSplit(0.7, seed=9))
    np.testing.assert_array_equal(a[0].targets, b[0].targets)
    np.testing.assert_array_equal(a[1].targets, b[1].targets)


def test_split_errors():
    ds = Dataset(np.arange(5.0).reshape(5, 1), np.arange(5.0))
    with pytest.raises(DataError, match="head split count"):
        train_test_split(ds, HeadSplit(5))
    with pytest.raises(DataError, match="ratio"):
        train_test_split(ds, RatioSplit(0.01, seed=0))


# ------------------------------------------------------- synthetic datasets


def test_f1_limit_value_at_origin():
    f1 = SYNTHETIC_FUNCTIONS["f1"]
    assert f1.evaluate(np.array([[0.0, 0.0]]))[0] == 1.0


def test_f1_vanishes_on_the_unit_circle_of_radius_pi():
    f1 = SYNTHETIC_FUNCTIONS["f1"]
    assert abs(f1.evaluate(np.array([[math.pi, 0.0]]))[0]) <= 1e-15


def test_f2_hand_value():
    # 10 sin(pi/4) + 0 + 5 + 2.5
    f2 = SYNTHETIC_FUNCTIONS["f2"]
    value = f2.evaluate(np.array([[0.5] * 5]))[0]
    assert value == pytest.approx(10.0 * math.sin(math.pi / 4.0) + 7.5, abs=1e-12)
    assert value == pytest.approx(14.5711, abs=5e-5)


def test_f3_identity_case():
    f3 = SYNTHETIC_FUNCTIONS["f3"]
    assert f3.evaluate(np.array([[0.0, 0.0]]))[0] == 1.0


def test_gen_synthetic_shapes_and_domain():
    train, test = gen_synthetic("f2", 100, 200, NoiseSpec("gaussian_005", seed=1), seed=0)
    assert train.features.shape == (100, 5) and test.features.shape == (200, 5)
    assert train.features.min() >= 0.0 and train.features.max() <= 1.0


def test_gen_synthetic_test_targets_noise_free_and_train_residuals_bounded():
    noise = NoiseSpec("uniform_pm02", seed=7)
    train, test = gen_synthetic("f3", 50, 60, noise, seed=3)
    f3 = SYNTHETIC_FUNCTIONS["f3"]
    np.testing.assert_array_equal(test.targets, f3.evaluate(test.features))
    residuals = train.targets - f3.evaluate(train.features)
    assert np.all(np.abs(residuals) <= 0.2)
    assert np.any(residuals != 0.0)


def test_gen_synthetic_deterministic():
    a = gen_synthetic("f4", 10, 10, NoiseSpec("gaussian_02", seed=2), seed=5)
    b = gen_synthetic("f4", 10, 10, NoiseSpec("gaussian_02", seed=2), seed=5)
    np.testing.assert_array_equal(a[0].targets, b[0].targets)
    np.testing.assert_array_equal(a[1].features, b[1].features)


def test_gen_synthetic_validation():
    with pytest.raises(DataError, match="unknown synthetic function"):
        gen_synthetic("f9", 5, 5, NoiseSpec("uniform_pm02"), seed=0)
    with pytest.raises(DataError, match="at least 1"):
        gen_synthetic("f1", 0, 5, NoiseSpec("uniform_pm02"), seed=0)
    with pytest.raises(DataError, match="unknown noise kind"):
        NoiseSpec("salt_and_pepper")


# ----------------------------------------------------------- lag embedding


def test_lag_embed_construction():
    ds = lag_embed(np.array([1.0, 2.0, 3.0, 4.0]), lags=2)
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [2.0, 3.0]])
    np.testing.assert_array_equal(ds.targets, [3.0, 4.0])


def test_lag_embed_row_count():
    series = np.arange(755.0)
    assert lag_embed(series, lags=5).n_samples == 750


def test_lag_embed_too_short():
    with pytest.raises(DataError, match="too short"):
        lag_embed(np.arange(5.0), lags=5)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_lag_embed_shift_consistency(lags, seed):
    rng = np.random.default_rng(seed)
    series = rng.normal(size=lags + rng.integers(2, 30))
    ds = lag_embed(series, lags)
    # last feature of row t is the target of row t-1
    np.testing.assert_array_equal(ds.features[1:, lags - 1], ds.targets[:-1])
