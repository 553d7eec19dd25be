import json
import math

import numpy as np
import pytest

from support import draw_well_posed, rel_err

from twinpi.data import (
    DataError,
    Dataset,
    NormStats,
    PIDataset,
    min_max_normalize,
    split_privileged,
)
from twinpi.kernels import KernelSpec
from twinpi.linalg import NumericalError
from twinpi.model import (
    Hyperparams,
    bound_functions,
    build_workspace,
    correcting_values,
    fit,
    fit_krr_comparator,
    kkt_residuals,
    load_model,
    predict,
    save_model,
    solve_alpha,
    solve_beta,
)
from twinpi.oracle import solve_stacked_kkt

# Small reference instance with collinear privileged data: the constraint
# multipliers are determined only up to the common null direction [1, -2, 1]
# of the two augmented designs, while the weight blocks stay unique.
REF_DATA = PIDataset(
    regular=[[0.0], [1.0], [2.0]],
    privileged=[[0.0], [2.0], [4.0]],
    targets=[0.0, 1.0, 2.0],
)
REF_HP = Hyperparams(eps1=0.01, eps2=0.01)  # all c = 1, linear variant
REF_NULL_DIR = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)

# Frozen from solve_stacked_kkt on REF_DATA/REF_HP; the weight solution was
# additionally confirmed by an exact null-space minimization of the primal.
REF_V1 = np.array([0.5042696629102367, -0.3005617977527262])
REF_V1_STAR = np.array([-0.2478651685368832, -0.3105617976150413])
REF_V2 = np.array([1.0462921348079666, 0.5702247190936823])
REF_V2_STAR = np.array([-0.023146067379612445, -0.5802247190041512])
REF_TOL = 1e-8 * (1.0 + 2.0)  # scaled by 1 + ||y||_inf


def _perp_to_null(v: np.ndarray) -> np.ndarray:
    return v - (v @ REF_NULL_DIR) * REF_NULL_DIR


# ------------------------------------------------------------ workspaces


def test_workspace_linear_appends_ones_column():
    data = PIDataset([[1.0], [2.0]], [[3.0], [4.0]], [0.0, 1.0])
    ws = build_workspace(data, Hyperparams())
    np.testing.assert_array_equal(ws.G, [[1.0, 1.0], [2.0, 1.0]])
    np.testing.assert_array_equal(ws.G_star, [[3.0, 1.0], [4.0, 1.0]])


def test_workspace_kernel_shapes_and_diagonal():
    rng = np.random.default_rng(0)
    data = PIDataset(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=3))
    ws = build_workspace(data, Hyperparams(kernel=KernelSpec("rbf", mu=0.9)))
    assert ws.G.shape == (3, 4)
    np.testing.assert_array_equal(np.diag(ws.G[:, :3]), np.ones(3))
    np.testing.assert_array_equal(ws.G[:, 3], np.ones(3))


def test_workspace_identical_channels_give_identical_designs():
    rows = [[1.0, 2.0], [0.5, -1.0]]
    data = PIDataset(rows, rows, [0.0, 1.0])
    ws = build_workspace(data, Hyperparams())
    np.testing.assert_array_equal(ws.G, ws.G_star)


def test_workspace_products_match_their_definitions():
    rng = np.random.default_rng(1)
    data = PIDataset(rng.normal(size=(5, 2)), rng.normal(size=(5, 3)), rng.normal(size=5))
    ws = build_workspace(data, Hyperparams(kernel=KernelSpec("rbf", mu=0.7)))
    s = ws.G @ ws.G.T
    h = ws.G_star @ ws.G_star.T
    np.testing.assert_array_equal(ws.S, s)
    np.testing.assert_array_equal(ws.H, h)
    np.testing.assert_array_equal(ws.SH, s @ h)
    np.testing.assert_array_equal(ws.Se, s @ ws.ones)
    np.testing.assert_array_equal(ws.He, h @ ws.ones)
    np.testing.assert_array_equal(ws.SHe, s @ (h @ ws.ones))
    np.testing.assert_array_equal(ws.GtG, ws.G.T @ ws.G)
    assert ws.SH is ws.SH  # computed once, then kept


def test_fits_sharing_one_workspace_equal_plain_fits_bitwise():
    rng = np.random.default_rng(21)
    data, hp = draw_well_posed(rng, "rbf")
    ws = build_workspace(data, hp)
    fitted = 0
    for scale in (1.0, 0.5, 2.0, 4.0):
        candidate = Hyperparams(
            c1=hp.c1 * scale, c2=hp.c2, c3=hp.c3 / scale,
            c4=hp.c4, c5=hp.c5 * scale, c6=hp.c6,
            eps1=hp.eps1, eps2=hp.eps2 * scale, kernel=hp.kernel,
        )
        try:
            plain = fit(data, candidate)
        except NumericalError:
            with pytest.raises(NumericalError):
                fit(data, candidate, ws=ws)
            continue
        shared = fit(data, candidate, ws=ws)
        fitted += 1
        for name in ("v1", "v2", "v1_star", "v2_star"):
            assert np.array_equal(getattr(shared, name), getattr(plain, name)), name
        assert np.array_equal(shared.duals.alpha, plain.duals.alpha)
        assert np.array_equal(shared.duals.beta, plain.duals.beta)
    assert fitted >= 2


# ------------------------------------------------------- multiplier solves


def test_multiplier_solves_match_oracle_on_reference_instance():
    ws = build_workspace(REF_DATA, REF_HP)
    alpha = solve_alpha(ws, REF_DATA.targets, REF_HP)
    beta = solve_beta(ws, REF_DATA.targets, REF_HP)
    _, _, alpha_oracle = solve_stacked_kkt(ws, REF_DATA.targets, REF_HP, "down")
    _, _, beta_oracle = solve_stacked_kkt(ws, REF_DATA.targets, REF_HP, "up")
    # identifiable part (orthogonal to the shared null direction) must agree
    assert np.max(np.abs(_perp_to_null(alpha - alpha_oracle))) <= 1e-8
    assert np.max(np.abs(_perp_to_null(beta - beta_oracle))) <= 1e-8


def test_multiplier_residual_contract_on_well_posed_instance():
    rng = np.random.default_rng(5)
    data, hp = draw_well_posed(rng, "rbf")
    ws = build_workspace(data, hp)
    s = ws.G @ ws.G.T
    h = ws.G_star @ ws.G_star.T
    e = ws.ones
    y = data.targets
    alpha = solve_alpha(ws, y, hp)
    a = s + (hp.c1 / hp.c2) * h + (1.0 / hp.c2) * (s @ h)
    rhs = (
        hp.c1 * y + hp.c1 * hp.eps1 * e - (hp.c1 * hp.c3 / hp.c2) * (h @ e)
        + hp.eps1 * (s @ e) - (hp.c3 / hp.c2) * (s @ (h @ e))
    )
    assert np.max(np.abs(a @ alpha - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))

    beta = solve_beta(ws, y, hp)
    a_up = s + (hp.c4 / hp.c5) * h + (1.0 / hp.c5) * (s @ h)
    rhs_up = (
        -hp.c4 * y + hp.c4 * hp.eps2 * e - (hp.c4 * hp.c6 / hp.c5) * (h @ e)
        + hp.eps2 * (s @ e) - (hp.c6 / hp.c5) * (s @ (h @ e))
    )
    assert np.max(np.abs(a_up @ beta - rhs_up)) <= 1e-10 * (1 + np.max(np.abs(rhs_up)))


def test_zero_targets_with_symmetric_parameters_give_equal_multipliers():
    rng = np.random.default_rng(6)
    data, hp = draw_well_posed(rng, "rbf")
    hp = Hyperparams(
        c1=hp.c1, c2=hp.c2, c3=hp.c3, c4=hp.c1, c5=hp.c2, c6=hp.c3,
        eps1=0.01, eps2=0.01, kernel=hp.kernel,
    )
    zero = np.zeros(data.n_samples)
    ws = build_workspace(data, hp)
    np.testing.assert_allclose(
        solve_alpha(ws, zero, hp), solve_beta(ws, zero, hp), atol=1e-10
    )


# ------------------------------------------------------------------- fit


def test_fit_matches_oracle_weights_on_reference_instance():
    model = fit(REF_DATA, REF_HP)
    assert rel_err(model.v1, REF_V1) <= 1e-8
    assert rel_err(model.v1_star, REF_V1_STAR) <= 1e-8
    assert rel_err(model.v2, REF_V2) <= 1e-8
    assert rel_err(model.v2_star, REF_V2_STAR) <= 1e-8


def test_fit_zero_targets_symmetric_parameters_negates_weights():
    rng = np.random.default_rng(7)
    for kind in ("rbf", None):
        data, hp = draw_well_posed(rng, kind)
        hp = Hyperparams(
            c1=hp.c1, c2=hp.c2, c3=hp.c3, c4=hp.c1, c5=hp.c2, c6=hp.c3,
            eps1=0.01, eps2=0.01, kernel=hp.kernel,
        )
        data = PIDataset(data.regular, data.privileged, np.zeros(data.n_samples))
        model = fit(data, hp)
        assert np.max(np.abs(model.v1 + model.v2)) <= 1e-10
        probe = rng.normal(size=(20, data.regular.shape[1]))
        assert np.max(np.abs(predict(model, probe))) <= 1e-10


def test_fit_satisfies_primal_equality():
    model = fit(REF_DATA, REF_HP)
    ws = build_workspace(REF_DATA, REF_HP)
    residual = (
        REF_DATA.targets - ws.G @ model.v1 + REF_HP.eps1 * ws.ones + ws.G_star @ model.v1_star
    )
    assert np.max(np.abs(residual)) <= 1e-8 * (1 + np.max(np.abs(REF_DATA.targets)))


def test_fit_rejects_hopelessly_conditioned_hyperparameters():
    rng = np.random.default_rng(8)
    # a wide Gaussian on many clustered points drives the multiplier system
    # past the optimality gate
    regular = rng.uniform(0, 1, size=(120, 3))
    privileged = rng.uniform(0, 1, size=(120, 2))
    targets = rng.uniform(0, 1, size=120)
    data = PIDataset(regular, privileged, targets)
    with pytest.raises(NumericalError, match="fit rejected|residual"):
        fit(data, Hyperparams(kernel=KernelSpec("rbf", mu=4.0)))


# ----------------------------------------------------------- predictions


def test_predict_is_mean_of_bound_functions():
    rng = np.random.default_rng(9)
    data, hp = draw_well_posed(rng, "rbf")
    model = fit(data, hp)
    x = rng.normal(size=(8, data.regular.shape[1]))
    r1, r2 = bound_functions(model, x)
    np.testing.assert_allclose(r1 + r2, 2.0 * predict(model, x), atol=1e-12)


def test_bound_functions_negate_for_zero_targets():
    rng = np.random.default_rng(10)
    data, hp = draw_well_posed(rng, "rbf")
    hp = Hyperparams(
        c1=hp.c1, c2=hp.c2, c3=hp.c3, c4=hp.c1, c5=hp.c2, c6=hp.c3,
        eps1=0.01, eps2=0.01, kernel=hp.kernel,
    )
    data = PIDataset(data.regular, data.privileged, np.zeros(data.n_samples))
    model = fit(data, hp)
    x = rng.normal(size=(5, data.regular.shape[1]))
    r1, r2 = bound_functions(model, x)
    np.testing.assert_allclose(r2, -r1, atol=1e-10)


def test_bound_function_at_training_points_matches_design_product():
    model = fit(REF_DATA, REF_HP)
    ws = build_workspace(REF_DATA, REF_HP)
    r1, _ = bound_functions(model, REF_DATA.regular)
    np.testing.assert_allclose(r1, ws.G @ model.v1, atol=1e-12)


def test_predict_dimension_check():
    model = fit(REF_DATA, REF_HP)
    with pytest.raises(ValueError, match="regular feature columns"):
        predict(model, np.ones((2, 3)))


def test_predict_applies_stored_normalization():
    raw = Dataset([[0.0, 10.0], [2.0, 20.0], [4.0, 40.0]], [1.0, 2.0, 3.0])
    normalized, stats = min_max_normalize(raw)
    pi = split_privileged(normalized)
    model = fit(pi, REF_HP, norm=stats)
    raw_regular = raw.features[:, :1]
    bare = fit(pi, REF_HP)
    np.testing.assert_allclose(
        predict(model, raw_regular), predict(bare, pi.regular), atol=1e-12
    )


def test_row_permutation_leaves_predictions_unchanged():
    rng = np.random.default_rng(11)
    data, hp = draw_well_posed(rng, "rbf")
    model = fit(data, hp)
    probe = rng.normal(size=(10, data.regular.shape[1]))
    baseline = predict(model, probe)
    for _ in range(10):
        perm = rng.permutation(data.n_samples)
        permuted = PIDataset(
            data.regular[perm], data.privileged[perm], data.targets[perm]
        )
        np.testing.assert_allclose(predict(fit(permuted, hp), probe), baseline, atol=1e-8)


# ---------------------------------------------------- correcting functions


def test_correcting_function_equals_negated_constraint_residual():
    model = fit(REF_DATA, REF_HP)
    ws = build_workspace(REF_DATA, REF_HP)
    p1, _ = correcting_values(model, REF_DATA.privileged)
    expected = -(REF_DATA.targets - ws.G @ model.v1 + REF_HP.eps1 * ws.ones)
    np.testing.assert_allclose(p1, expected, atol=1e-8)


def test_growing_correcting_regularizer_shrinks_correcting_weights():
    norms = []
    for c_corr in (1.0, 10.0, 100.0):
        hp = Hyperparams(c2=c_corr, c5=c_corr, eps1=0.01, eps2=0.01)
        norms.append(np.linalg.norm(fit(REF_DATA, hp).v1_star))
    assert norms[0] > norms[1] > norms[2]


def test_correcting_values_shape_and_dimension_check():
    rows = [[1.0, 2.0], [0.5, -1.0], [0.0, 0.3]]
    data = PIDataset(rows, rows, [0.0, 1.0, 0.5])
    model = fit(data, Hyperparams())
    p1, p2 = correcting_values(model, data.privileged)
    assert p1.shape == p2.shape == (3,)
    with pytest.raises(ValueError, match="privileged feature columns"):
        correcting_values(model, np.ones((2, 3)))


# -------------------------------------------------------------- residuals


def test_kkt_residuals_small_after_fit():
    rng = np.random.default_rng(12)
    for kind in ("rbf", "linear", None):
        data, hp = draw_well_posed(rng, kind)
        model = fit(data, hp)
        res = kkt_residuals(model, data)
        assert res.max_residual() <= 1e-8 * (1 + np.max(np.abs(data.targets)))


def test_kkt_residuals_detect_corruption():
    model = fit(REF_DATA, REF_HP)
    corrupted_v1 = model.v1.copy()
    corrupted_v1[0] += 1.0
    from dataclasses import replace

    bad = replace(model, v1=corrupted_v1)
    res = kkt_residuals(bad, REF_DATA)
    assert res.down_stationarity > 0.1


def test_kkt_residuals_on_reference_instance():
    model = fit(REF_DATA, REF_HP)
    res = kkt_residuals(model, REF_DATA)
    assert res.max_residual() <= REF_TOL


# ------------------------------------------------------- ridge comparator


def test_krr_huge_ridge_flattens_predictions():
    rng = np.random.default_rng(13)
    data = Dataset(rng.normal(size=(20, 2)), rng.normal(size=20))
    model = fit_krr_comparator(data, ridge=1e8, kernel=KernelSpec("rbf", mu=1.0))
    preds = model.predict(data.features)
    assert np.max(np.abs(preds)) <= 1e-4 * np.max(np.abs(data.targets))


def test_krr_near_interpolation_at_tiny_ridge():
    rng = np.random.default_rng(14)
    features = rng.uniform(-2, 2, size=(12, 2))
    targets = rng.normal(size=12)
    model = fit_krr_comparator(
        Dataset(features, targets), ridge=1e-10, kernel=KernelSpec("rbf", mu=1.0)
    )
    rmse = np.sqrt(np.mean((model.predict(features) - targets) ** 2))
    assert rmse <= 1e-5


def test_krr_linear_kernel_recovers_slope():
    x = np.linspace(-1.0, 1.0, 15).reshape(-1, 1)
    y = 2.0 * x[:, 0]
    model = fit_krr_comparator(Dataset(x, y), ridge=1e-8, kernel=KernelSpec("linear"))
    slope = float(x[:, 0] @ model.coef)  # effective weight of the linear expansion
    assert slope == pytest.approx(2.0, abs=1e-3)


def test_krr_validation():
    with pytest.raises(ValueError, match="ridge"):
        fit_krr_comparator(Dataset([[1.0]], [1.0]), ridge=0.0, kernel=KernelSpec("linear"))


# ----------------------------------------------------------- serialization


def test_model_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(15)
    data, hp = draw_well_posed(rng, "rbf")
    stats = NormStats(
        np.concatenate([data.regular.min(axis=0), data.privileged.min(axis=0), [-1.0]]),
        np.concatenate([data.regular.max(axis=0), data.privileged.max(axis=0), [1.0]]),
    )
    model = fit(data, hp, norm=stats)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.v1, model.v1)
    np.testing.assert_array_equal(back.v2, model.v2)
    np.testing.assert_array_equal(back.v1_star, model.v1_star)
    np.testing.assert_array_equal(back.v2_star, model.v2_star)
    np.testing.assert_array_equal(back.duals.alpha, model.duals.alpha)
    np.testing.assert_array_equal(back.duals.beta, model.duals.beta)
    np.testing.assert_array_equal(back.train_regular, model.train_regular)
    np.testing.assert_array_equal(back.train_privileged, model.train_privileged)
    np.testing.assert_array_equal(back.norm.col_min, stats.col_min)
    assert back.hp == model.hp
    probe = rng.normal(size=(4, data.regular.shape[1]))
    # loaded model carries normalization; compare through the same raw inputs
    np.testing.assert_array_equal(predict(back, probe), predict(model, probe))


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="c2 must be positive"):
        Hyperparams(c2=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        Hyperparams(eps1=-0.1)
    with pytest.raises(ValueError, match="c1 must be positive and finite"):
        Hyperparams(c1=math.inf)
    with pytest.raises(ValueError, match="eps1 must be finite"):
        Hyperparams(eps1=math.nan)
    with pytest.raises(ValueError, match="eps2 must be finite"):
        Hyperparams(eps2=math.inf)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda p: p.update(v1=p["v1"][:-1]), "v1 has length"),
        (lambda p: p.update(beta=p["beta"] + [0.0]), "beta has length"),
        (lambda p: p.update(train_privileged=p["train_privileged"][:-1]), "rows"),
        (lambda p: p.update(train_regular=p["train_regular"][0]), "2-dimensional"),
        (lambda p: p["hyperparams"].update(c2=-1.0), "c2 must be positive"),
        (lambda p: p.update(v2_star="oops"), "malformed"),
    ],
)
def test_load_model_rejects_inconsistent_payload(tmp_path, corrupt, message):
    data, hp = draw_well_posed(np.random.default_rng(16), "rbf")
    path = tmp_path / "model.json"
    save_model(fit(data, hp), path)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=message):
        load_model(path)
