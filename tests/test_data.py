import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import csv_files

from twinpi.data import (
    DataError,
    Dataset,
    HeadSplit,
    NoiseSpec,
    RatioSplit,
    SYNTHETIC_FUNCTIONS,
    apply_norm,
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


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(size=(9, 3)), rng.normal(size=9))
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.targets, ds.targets)


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
    test = Dataset([[3.0], [7.0]], [3.0, 7.0])
    out = apply_norm(test, stats)
    np.testing.assert_allclose(out.features[:, 0], [0.5, 1.5])
    np.testing.assert_allclose(out.targets, [0.5, 1.5])


def test_apply_norm_idempotent_on_training_data():
    train = Dataset([[1.0], [3.0], [5.0]], [0.0, 1.0, 2.0])
    normalized, stats = min_max_normalize(train)
    again = apply_norm(train, stats)
    np.testing.assert_allclose(again.features, normalized.features)


def test_apply_norm_dimension_mismatch():
    train = Dataset([[1.0, 2.0]], [0.0])
    _, stats = min_max_normalize(train)
    with pytest.raises(DataError, match="feature columns"):
        apply_norm(Dataset([[1.0]], [0.0]), stats)


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
