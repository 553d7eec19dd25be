import contextlib
import itertools
import json
import math
import pathlib
import sys
import tracemalloc
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings

from support import (
    BLAS_THREADS,
    at_blas_threads,
    draw_well_posed,
    fit_chains,
    rel_err,
    single_blas_thread,
)

from twinpi.data import (
    DataError,
    Dataset,
    NoiseSpec,
    NormStats,
    PIDataset,
    gen_synthetic,
    min_max_normalize,
    split_privileged,
)
import twinpi.kernels
from twinpi.kernels import KernelSpec, gram
import twinpi.linalg
from twinpi.linalg import NumericalError, _plus_diagonal, solve_checked
import twinpi.model
from twinpi.model import (
    KKT_TOL_SCALE,
    DualSolution,
    Hyperparams,
    KRRModel,
    TrainedModel,
    bound_functions,
    build_workspace,
    correcting_values,
    cross_gram,
    fit,
    fit_krr_comparator,
    kkt_residuals,
    krr_gram,
    load_model,
    predict,
    save_model,
    solve_alpha,
    solve_beta,
)
from twinpi.model import _multiplier_matrix, _row_blocks
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


@pytest.mark.parametrize("kernel", [KernelSpec("rbf", mu=0.7), KernelSpec("linear")])
def test_systems_assembled_in_place_equal_their_expressions_bitwise(kernel):
    rng = np.random.default_rng(4)
    data = PIDataset(rng.normal(size=(9, 2)), rng.normal(size=(9, 3)), rng.normal(size=9))
    ws = build_workspace(data, Hyperparams(kernel=kernel))
    eye = np.eye(ws.GtG.shape[0])
    for c_reg, c_corr in [(1.0, 1.0), (0.3, 7.0), (2.0**-5, 2.0**4), (5.0, 1.0 / 3.0)]:
        a = _multiplier_matrix(ws, c_reg, c_corr)
        assert np.array_equal(a, ws.S + (c_reg / c_corr) * ws.H + (1.0 / c_corr) * ws.SH)
        assert np.array_equal(_plus_diagonal(ws.GtG, c_reg), ws.GtG + c_reg * eye)


def _sharing_candidates(hp):
    """Untied candidates, then tied ones whose kept factors hit and miss in turn."""
    for scale in (1.0, 0.5, 2.0, 4.0):
        yield Hyperparams(
            c1=hp.c1 * scale, c2=hp.c2, c3=hp.c3 / scale,
            c4=hp.c4, c5=hp.c5 * scale, c6=hp.c6,
            eps1=hp.eps1, eps2=hp.eps2 * scale, kernel=hp.kernel,
        )
    tied = Hyperparams(
        c1=hp.c1, c2=hp.c2, c3=hp.c3, c4=hp.c1, c5=hp.c2, c6=hp.c3,
        eps1=hp.eps1, eps2=hp.eps2, kernel=hp.kernel,
    )
    yield tied
    yield replace(tied, c3=tied.c3 * 2, c6=tied.c6 * 2)  # both hit
    yield replace(tied, c2=tied.c2 * 2, c5=tied.c5 * 2)  # recovery hits
    yield replace(tied, c4=tied.c4 * 2)  # the up side misses both
    yield tied


def test_fits_sharing_one_workspace_equal_plain_fits_bitwise():
    rng = np.random.default_rng(21)
    data, hp = draw_well_posed(rng, "rbf")
    ws = build_workspace(data, hp)
    fitted = 0
    for candidate in _sharing_candidates(hp):
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
    assert fitted >= 6


def _counting(monkeypatch, name):
    calls = []
    original = getattr(twinpi.model, name)

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(twinpi.model, name, counted)
    return calls


def test_kept_factors_follow_the_scalars_of_each_system(monkeypatch):
    rng = np.random.default_rng(22)
    data, _ = draw_well_posed(rng, "rbf")
    assemblies = _counting(monkeypatch, "_multiplier_matrix")
    recoveries = _counting(monkeypatch, "_plus_diagonal")
    ws_kernel = KernelSpec("rbf", mu=0.7)
    ws = build_workspace(data, Hyperparams(kernel=ws_kernel))
    tied = Hyperparams(c1=0.5, c2=2.0, c3=1.0, c4=0.5, c5=2.0, c6=1.0, kernel=ws_kernel)
    untied = replace(tied, c4=0.25)
    steps = [
        (tied, [(0.5, 2.0)], [(0.5,)]),  # the up side reuses both factorizations
        (replace(tied, c3=3.0, c6=3.0), [], []),
        (untied, [(0.25, 2.0)], [(0.25,)]),  # c4 != c1: the up side takes no down-side entry
        (replace(untied, c5=1.0), [(0.5, 2.0), (0.25, 1.0)],
         [(0.5,), (0.25,)]),
    ]
    for hp, want_assembled, want_recovered in steps:
        del assemblies[:], recoveries[:]
        shared = fit(data, hp, ws=ws)
        assert assemblies == want_assembled and recoveries == want_recovered, hp
        del assemblies[:], recoveries[:]
        plain = fit(data, hp)
        for name in ("v1", "v2", "v1_star", "v2_star"):
            assert np.array_equal(getattr(shared, name), getattr(plain, name)), name
        assert np.array_equal(shared.duals.beta, plain.duals.beta)
    assert sorted(ws._factors) == ["multiplier", "recovery"]  # one entry per kind


def test_fit_local_workspace_drops_the_products_it_no_longer_needs(monkeypatch):
    built = []
    original = twinpi.model.build_workspace

    def keep(data, hp):
        built.append(original(data, hp))
        return built[-1]

    monkeypatch.setattr(twinpi.model, "build_workspace", keep)
    rng = np.random.default_rng(23)
    data, _ = draw_well_posed(rng, "rbf")
    hp = Hyperparams(c4=2.0, kernel=KernelSpec("rbf", mu=0.7))  # untied
    fitted = fit(data, hp)
    (ws,) = built
    kept = set(ws.__dict__)
    assert not kept & {"S", "H", "SH", "GtG"}
    assert {"Se", "He", "SHe"} <= kept
    assert not ws._factors
    plain = fit(data, hp, ws=original(data, hp))
    assert np.array_equal(fitted.v1, plain.v1) and np.array_equal(fitted.v2, plain.v2)


# ------------------------------------------------- workspaces moved between widths


def _rbf(mu, **cs):
    return Hyperparams(kernel=KernelSpec("rbf", mu=mu), **cs)


def _uniform_data(rng, m, duplicated=0):
    """Random rows on the unit cube; ``duplicated`` rows repeat rows 1.. exactly.

    Repeated rows make S, H and so every multiplier matrix singular (but its
    system consistent), so multiplier solves need the jitter retry.
    """
    x, x_star, y = rng.uniform(size=(m, 3)), rng.uniform(size=(m, 2)), 0.3 * rng.normal(size=m)
    for a in (x, x_star, y):
        a[1 + duplicated:1 + 2 * duplicated] = a[1:1 + duplicated]
    return PIDataset(x, x_star, y)


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("m", [24, 130, 240])
def test_products_written_into_kept_arrays_equal_fresh_products_bitwise(threads, m):
    data = _uniform_data(np.random.default_rng(m), m)
    with at_blas_threads(threads):
        ws = build_workspace(data, _rbf(0.5))
        kept = {name: getattr(ws, name) for name in ("G", "G_star", "S", "H", "SH", "GtG")}
        moved = build_workspace(data, _rbf(0.125), reuse=ws)
        fresh = build_workspace(data, _rbf(0.125))
        for name, array in kept.items():
            assert getattr(moved, name) is array, name
            assert np.array_equal(getattr(moved, name), getattr(fresh, name)), name
        assert np.array_equal(moved.S, moved.G @ moved.G.T)
        assert np.array_equal(moved.H, moved.G_star @ moved.G_star.T)
        assert np.array_equal(moved.SH, moved.S @ moved.H)
        assert np.array_equal(moved.GtG, moved.G.T @ moved.G)
    assert not {"S", "H", "SH", "GtG"} & set(ws.__dict__)  # handed over, not shared


def _fit_outcomes(data, candidates, ws):
    """Each candidate's weights, multipliers and gate residuals, or its error message."""
    outcomes = []
    for hp in candidates:
        try:
            model = fit(data, hp, ws=ws)
        except NumericalError as exc:
            outcomes.append(str(exc))
            continue
        outcomes.append([model.v1, model.v2, model.v1_star, model.v2_star,
                         model.duals.alpha, model.duals.beta, np.array(astuple(model.kkt))])
    return outcomes


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, str):
            assert g == w
        else:
            assert not isinstance(g, str), g
            assert all(np.array_equal(a, b) for a, b in zip(g, w))


@pytest.mark.parametrize("threads", BLAS_THREADS)
def test_workspace_moved_through_widths_fits_like_a_fresh_one_bitwise(threads, monkeypatch):
    rng = np.random.default_rng(31)
    plain, repeated = _uniform_data(rng, 40), _uniform_data(rng, 40, duplicated=4)
    shorter = PIDataset(plain.regular[1:], plain.privileged[1:], plain.targets[1:])
    jitters = []
    jittered = twinpi.linalg._plus_diagonal
    monkeypatch.setattr(
        twinpi.linalg, "_plus_diagonal",
        lambda a, c, out=None: jitters.append(c) or jittered(a, c, out=out),
    )
    cs = dict(c1=0.5, c2=2.0, c3=1.0)
    tied = dict(cs, c4=0.5, c5=2.0, c6=1.0)
    untied = dict(cs, c4=0.25, c5=1.0, c6=1.0)
    steps = [  # mu1 -> mu2 -> mu1, then a fold whose rows repeat, then one row fewer
        (plain, 0.1), (plain, 0.5), (plain, 0.1), (repeated, 0.1), (repeated, 0.05),
        (shorter, 0.1),
    ]
    fitted = failed = 0
    ws = None
    with at_blas_threads(threads):
        for data, mu in steps:
            # Tied sides hit their own entries; every other system misses and
            # recycles the dropped entry. The last candidate's systems are the
            # next step's first, so entries kept across a move would hit.
            candidates = [
                _rbf(mu, **tied), _rbf(mu, **dict(tied, c1=2.0, c4=2.0)), _rbf(mu, **untied),
                _rbf(mu, **dict(untied, c5=4.0)), _rbf(mu, **dict(tied, c3=3.0, c6=3.0)),
            ]
            before = None if ws is None else ws.G
            del jitters[:]
            ws = build_workspace(data, candidates[0], reuse=ws)
            assert (ws.G is before) == (before is not None and data is not shorter)
            moved = _fit_outcomes(data, candidates, ws)
            assert bool(jitters) == (data is repeated)
            fresh = _fit_outcomes(data, candidates, build_workspace(data, candidates[0]))
            _assert_same_outcomes(moved, fresh)
            fitted += sum(not isinstance(o, str) for o in moved)
            failed += sum(isinstance(o, str) for o in moved)
    assert fitted >= 15 and failed >= 1


@pytest.mark.parametrize("threads", BLAS_THREADS)
@given(chain=fit_chains())
@settings(max_examples=200, deadline=None)
def test_reused_shared_and_one_off_fits_agree_bitwise(threads, chain):
    """A fit on a workspace moved along a chain of steps equals a fresh one.

    Each candidate is fitted three ways: on the step's workspace, built with
    ``reuse=`` from the previous step's and shared by the step's candidates;
    one-off (``fit`` runs in steps); and on a fresh workspace of its own that
    ``fit`` shares. All three return the same bits or raise the same message.
    """
    ws = None
    with at_blas_threads(threads):
        for data, candidates in chain:
            ws = build_workspace(data, candidates[0], reuse=ws)
            moved = _fit_outcomes(data, candidates, ws)
            for hp, outcome in zip(candidates, moved):
                for fresh in (None, build_workspace(data, hp)):  # one-off, then shared
                    _assert_same_outcomes([outcome], _fit_outcomes(data, [hp], fresh))


def test_moving_a_workspace_to_a_new_width_allocates_no_square_array(monkeypatch):
    """Past the KKT gate's own temporaries, less than one m x m array is allocated."""
    m = 300
    data = _uniform_data(np.random.default_rng(32), m)
    untied = dict(c1=0.5, c2=2.0, c3=1.0, c4=0.25, c5=1.0, c6=1.0)
    ws = build_workspace(data, _rbf(0.05))
    fit(data, _rbf(0.05, **untied), ws=ws)

    outside_gate = []

    def excluded(gate):
        def run(*args):
            outside_gate.append(tracemalloc.get_traced_memory()[1])
            residuals = gate(*args)
            tracemalloc.reset_peak()
            return residuals
        return run

    for name in ("_down_residuals", "_up_residuals"):
        monkeypatch.setattr(twinpi.model, name, excluded(getattr(twinpi.model, name)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        moved = build_workspace(data, _rbf(0.1), reuse=ws)
        fit(data, _rbf(0.1, **untied), ws=moved)
        outside_gate.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(outside_gate) == 3  # both gates ran
    assert max(outside_gate) - start < m * m * 8


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


def _clustered_data() -> PIDataset:
    # a wide Gaussian on many clustered points drives the multiplier system
    # past the optimality gate
    rng = np.random.default_rng(8)
    regular = rng.uniform(0, 1, size=(120, 3))
    privileged = rng.uniform(0, 1, size=(120, 2))
    targets = rng.uniform(0, 1, size=120)
    return PIDataset(regular, privileged, targets)


def test_fit_rejects_hopelessly_conditioned_hyperparameters():
    # [G, G*] of a wide Gaussian on clustered points does not numerically span R^m.
    infeasible = "fit rejected: down-bound feasibility optimality residual"
    with pytest.raises(NumericalError, match=infeasible):
        fit(_clustered_data(), Hyperparams(kernel=KernelSpec("rbf", mu=4.0)))


@pytest.mark.parametrize("kernel", [KernelSpec("linear"), None], ids=["identity", "linear"])
def test_a_fit_past_the_row_limit_names_it(kernel):
    # [G, G*] has rank at most 2 + 1 + 1 = 4 whether G is [X X' | 1] or [X | 1],
    # and the equality constraint needs rank m = 20; rbf has no such limit.
    rng = np.random.default_rng(43)
    data = PIDataset(rng.normal(size=(20, 2)), rng.normal(size=(20, 1)), rng.normal(size=20))
    hp = Hyperparams(kernel=kernel)
    limit = "; the 20 training rows exceed rank[G, G*] <= d_regular + d_privileged + 1 = 4"
    for ws in (None, build_workspace(data, hp)):
        with pytest.raises(NumericalError) as info:
            fit(data, hp, ws=ws)
        assert str(info.value).endswith(limit)
    with pytest.raises(NumericalError) as info:
        fit(data, Hyperparams(kernel=KernelSpec("rbf", mu=4.0)))
    assert "training rows exceed" not in str(info.value)


def _reference_fit(data, hp):
    """Both multiplier solves, all four recoveries, then the six-residual gate.

    ``fit`` checks the same gate one side at a time; this keeps the
    all-at-once order as the reference it must agree with.
    """
    ws = build_workspace(data, hp)
    y = np.asarray(data.targets, dtype=float)
    alpha = solve_alpha(ws, y, hp)
    beta = solve_beta(ws, y, hp)

    g, gs, e = ws.G, ws.G_star, ws.ones
    eye = np.eye(ws.GtG.shape[0])
    v1 = solve_checked(ws.GtG + hp.c1 * eye, g.T @ (y + alpha))
    v2 = solve_checked(ws.GtG + hp.c4 * eye, g.T @ (y - beta))
    v1_star = -(gs.T @ (hp.c3 * e + alpha)) / hp.c2
    v2_star = -(gs.T @ (hp.c6 * e + beta)) / hp.c5

    residuals = [
        hp.c1 * v1 - g.T @ (y - g @ v1) - g.T @ alpha,
        hp.c2 * v1_star + hp.c3 * gs.T @ e + gs.T @ alpha,
        y - g @ v1 + hp.eps1 * e + gs @ v1_star,
        hp.c4 * v2 + g.T @ (g @ v2 - y) + g.T @ beta,
        hp.c5 * v2_star + hp.c6 * gs.T @ e + gs.T @ beta,
        g @ v2 - y + hp.eps2 * e + gs @ v2_star,
    ]
    worst = max(float(np.max(np.abs(r))) for r in residuals)
    if worst > KKT_TOL_SCALE * (1.0 + float(np.max(np.abs(y)))):
        raise NumericalError(f"fit rejected: optimality residual {worst:.3e}")
    return {"v1": v1, "v2": v2, "v1_star": v1_star, "v2_star": v2_star,
            "alpha": alpha, "beta": beta}


def test_side_by_side_gate_agrees_with_six_residual_gate():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(64, 3))
    y = np.sin(x[:, 0]) + x[:, 1] * x[:, 2] + 0.1 * rng.normal(size=64)
    data = PIDataset(x[:, :2], x[:, 2:], y)
    outcomes = {"accepted": 0, "down-bound": 0, "up-bound": 0}
    for k, exps in itertools.product((-3, -1, 0, 2), itertools.product((-2, 0, 2), repeat=3)):
        c = [2.0**p for p in exps]
        hp = Hyperparams(
            c1=c[0], c2=c[1], c3=c[2], c4=c[1], c5=c[2], c6=c[0],
            kernel=KernelSpec("rbf", mu=2.0**k),
        )
        try:
            want = _reference_fit(data, hp)
        except NumericalError:
            with pytest.raises(NumericalError) as info:
                fit(data, hp)
            message = str(info.value)
            if message.startswith("fit rejected: "):  # the gate, not a failed solve
                outcomes[message.split()[2]] += 1
            continue
        got = fit(data, hp)
        outcomes["accepted"] += 1
        for name in ("v1", "v2", "v1_star", "v2_star"):
            assert np.array_equal(getattr(got, name), want[name]), (hp, name)
        assert np.array_equal(got.duals.alpha, want["alpha"]), hp
        assert np.array_equal(got.duals.beta, want["beta"]), hp
    # the grid covers acceptance and a gate rejection on each side
    assert min(outcomes.values()) >= 1, outcomes


def _counting_factorizations(monkeypatch):
    """Shapes of the matrices factored by LUFactors (first solves, retries included)."""
    factored = []
    original = twinpi.linalg.LUFactors.solve

    def solve(self, b):
        if self._lu is None:
            factored.append(self.matrix.shape)
        return original(self, b)

    monkeypatch.setattr(twinpi.linalg.LUFactors, "solve", solve)
    return factored


def test_down_side_rejection_skips_up_side_solve(monkeypatch):
    calls = _counting(monkeypatch, "solve_beta")
    recoveries = _counting(monkeypatch, "_recover")
    factored = _counting_factorizations(monkeypatch)
    rejected = r"fit rejected: down-bound \w+ optimality residual"
    data = _clustered_data()
    # Untied on a shared workspace, the up side has a system of its own: a
    # down-side rejection never solves it. A one-off fit solves it first, and
    # is rejected with the same message.
    untied = Hyperparams(c4=2.0, kernel=KernelSpec("rbf", mu=4.0))
    with pytest.raises(NumericalError, match=rejected) as shared:
        fit(data, untied, ws=build_workspace(data, untied))
    assert calls == []
    with pytest.raises(NumericalError, match=rejected) as own:
        fit(data, untied)
    assert str(own.value) == str(shared.value)
    del calls[:]
    # Tied, beta and v2 are solved on the kept multiplier and recovery factors
    # before the down-side gate, but the up side factors nothing.
    del recoveries[:], factored[:]
    with pytest.raises(NumericalError, match=rejected):
        fit(data, Hyperparams(kernel=KernelSpec("rbf", mu=4.0)))
    m = data.n_samples
    assert factored == [(m, m), (m + 1, m + 1)]  # one multiplier, one recovery
    assert [context for *_, context in recoveries] == ["down-bound recovery",
                                                       "up-bound recovery"]
    assert len(calls) == 1
    del calls[:]
    fit(REF_DATA, REF_HP)
    assert len(calls) == 1  # the counter sees the up side of an accepted fit


def test_held_up_side_error_waits_for_the_down_side_gate(monkeypatch):
    forced = NumericalError("up-bound multiplier system: forced failure")
    calls = []

    def failing_solve_beta(*args, **kwargs):
        calls.append(args)
        raise forced

    monkeypatch.setattr(twinpi.model, "solve_beta", failing_solve_beta)
    recoveries = _counting(monkeypatch, "_recover")
    # The down side is rejected too: its gate speaks first.
    with pytest.raises(NumericalError, match=r"fit rejected: down-bound \w+ optimality residual"):
        fit(_clustered_data(), Hyperparams(kernel=KernelSpec("rbf", mu=4.0)))
    assert len(calls) == 1
    # The down side passes: beta's error surfaces unchanged, and nothing is recovered for it.
    del calls[:], recoveries[:]
    data, hp = draw_well_posed(np.random.default_rng(24), "rbf")
    tied = replace(hp, c4=hp.c1, c5=hp.c2, c6=hp.c3)
    with pytest.raises(NumericalError) as info:
        fit(data, tied)
    assert info.value is forced and len(calls) == 1
    assert [context for *_, context in recoveries] == ["down-bound recovery"]


def test_tied_fit_on_its_own_workspace_peaks_at_three_square_arrays():
    m = 300
    train, _ = gen_synthetic("f2", m, 10, NoiseSpec("uniform_pm02", seed=1), seed=0)
    data = split_privileged(min_max_normalize(train)[0])
    # Tied: G, G* and H; S, H and S H; G, the recovery matrix and its LU; or
    # G, G* and the gate's G*^T copy. Untied, five: S, H, S H, alpha's own
    # multiplier matrix and its LU.
    for c4, bound in [(0.5, 3.2), (0.25, 5.2)]:
        hp = Hyperparams(c1=0.5, c2=4.0, c3=2.0, c4=c4, c5=4.0, c6=2.0,
                         kernel=KernelSpec("rbf", mu=0.0625))
        tracemalloc.start()
        try:
            own = fit(data, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * m * (m + 1) * 8, c4
        shared = fit(data, hp, ws=build_workspace(data, hp))
        for name in ("v1", "v2", "v1_star", "v2_star"):
            assert np.array_equal(getattr(own, name), getattr(shared, name)), name
        assert np.array_equal(own.duals.alpha, shared.duals.alpha)
        assert np.array_equal(own.duals.beta, shared.duals.beta)


def _tied_grid(kernel):
    for c1, c2, c3 in itertools.product((2.0**-3, 1.0, 8.0), (0.25, 4.0), (0.5, 2.0)):
        yield Hyperparams(c1=c1, c2=c2, c3=c3, c4=c1, c5=c2, c6=2.0 * c3, eps2=0.02,
                          kernel=kernel)


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("duplicated", [0, 2])
@pytest.mark.parametrize("kernel", [KernelSpec("rbf", mu=0.1), None], ids=["rbf", "linear"])
def test_tied_one_off_fit_equals_a_shared_workspace_fit_bitwise(
    kernel, duplicated, threads, monkeypatch
):
    # The linear variant needs m <= d_regular + d_privileged + 1 = 6 to fit at all.
    data = _uniform_data(np.random.default_rng(41), 40 if kernel else 6, duplicated)
    jitters = []
    jittered = twinpi.linalg._plus_diagonal
    monkeypatch.setattr(
        twinpi.linalg, "_plus_diagonal",
        lambda a, c, out=None: jitters.append(c) or jittered(a, c, out=out),
    )
    with at_blas_threads(threads):
        own, shared = [], []
        for hp in _tied_grid(kernel):
            own += _fit_outcomes(data, [hp], None)
            shared += _fit_outcomes(data, [hp], build_workspace(data, hp))
    _assert_same_outcomes(own, shared)
    assert bool(jitters) == bool(duplicated)  # repeated rows force the jitter retry
    assert any(not isinstance(o, str) for o in own)


def test_down_side_rejection_outranks_a_failed_tied_up_side_recovery(monkeypatch):
    recover = twinpi.model._recover

    def failing_up_side(ws, c, rhs, context):
        if context == "up-bound recovery":
            raise NumericalError("up-bound recovery: forced failure")
        return recover(ws, c, rhs, context)

    monkeypatch.setattr(twinpi.model, "_recover", failing_up_side)
    data, hp = _clustered_data(), Hyperparams(kernel=KernelSpec("rbf", mu=4.0))
    (own,) = _fit_outcomes(data, [hp], None)
    (shared,) = _fit_outcomes(data, [hp], build_workspace(data, hp))
    assert own.startswith("fit rejected: down-bound feasibility optimality residual")
    assert own == shared
    # When the down side passes, the held up-side error surfaces.
    data, hp = REF_DATA, REF_HP
    assert (hp.c4, hp.c5) == (hp.c1, hp.c2)
    assert _fit_outcomes(data, [hp], None) == ["up-bound recovery: forced failure"]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf", mu=0.9)])
def test_predict_rejects_non_finite_inputs(bad, kernel):
    hp = Hyperparams(kernel=kernel)
    model = fit(REF_DATA, hp)
    x = np.array(REF_DATA.regular[:3], dtype=float)
    x[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        predict(model, x)
    with pytest.raises(ValueError, match="finite"):
        bound_functions(model, x)


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


def _kernel_model(rng, kind, m):
    """A kernel-mode model with random weights; evaluation needs no fit."""
    return TrainedModel(
        v1=rng.normal(size=m + 1),
        v2=rng.normal(size=m + 1),
        v1_star=rng.normal(size=m + 1),
        v2_star=rng.normal(size=m + 1),
        duals=DualSolution(alpha=np.zeros(m), beta=np.zeros(m)),
        hp=Hyperparams(kernel=KernelSpec(kind, mu=0.8)),
        train_regular=rng.normal(size=(m, 2)),
        train_privileged=rng.normal(size=(m, 3)),
    )


@pytest.mark.parametrize("m", [7, 241])
@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize("n", [0, 1, 3, 63, 64, 65, 128, 129, 1025])
def test_kernel_evaluation_equals_full_cross_gram_bitwise(n, kind, m):
    rng = np.random.default_rng(n + m)
    model = _kernel_model(rng, kind, m)
    krr = KRRModel(model.train_regular, rng.normal(size=m), 0.5, model.hp.kernel)
    x, x_star = rng.normal(size=(n, 2)), rng.normal(size=(n, 3))
    with single_blas_thread():
        # reference: the whole n x m cross-Gram, then one product per weight vector
        k = gram(x, model.train_regular, model.hp.kernel)
        k_star = gram(x_star, model.train_privileged, model.hp.kernel)
        v1, v2, v1s, v2s = model.v1, model.v2, model.v1_star, model.v2_star
        want_predict = 0.5 * (k @ (v1[:-1] + v2[:-1]) + (v1[-1] + v2[-1]))
        want_bounds = (k @ v1[:-1] + v1[-1], k @ v2[:-1] + v2[-1])
        want_correcting = (k_star @ v1s[:-1] + v1s[-1], k_star @ v2s[:-1] + v2s[-1])
        want_krr = k @ krr.coef

        assert np.array_equal(predict(model, x), want_predict)
        for got, want in zip(bound_functions(model, x), want_bounds):
            assert np.array_equal(got, want)
        for got, want in zip(correcting_values(model, x_star), want_correcting):
            assert np.array_equal(got, want)
        assert np.array_equal(krr.predict(x), want_krr)


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("normed", [False, True])
@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize("n", [1, 60, 63, 64, 65, 129, 1025])
def test_shared_cross_gram_predicts_bitwise(n, kind, normed, threads):
    m = 241
    rng = np.random.default_rng(n + m)
    model = _kernel_model(rng, kind, m)
    krr = KRRModel(model.train_regular, rng.normal(size=m), 0.5, model.hp.kernel)
    if normed:
        norm = NormStats([-1.0, 0.5, 0.0], [2.0, 3.0, 1.0])
        model, krr = replace(model, norm=norm), replace(krr, norm=norm)
    x = rng.normal(size=(n, 2))
    with at_blas_threads(threads):
        rows = x if model.norm is None else model.norm.transform_features(x)
        k = gram(rows, model.train_regular, model.hp.kernel)
        assert np.array_equal(cross_gram(model, x), k)
        assert np.array_equal(cross_gram(krr, x), k)
        assert np.array_equal(predict(model, x, k=k), predict(model, x))
        assert np.array_equal(krr.predict(x, k=k), krr.predict(x))


def test_predict_rejects_a_cross_gram_it_cannot_read():
    rng = np.random.default_rng(40)
    model = _kernel_model(rng, "rbf", 9)
    krr = KRRModel(model.train_regular, rng.normal(size=9), 0.5, model.hp.kernel)
    x = rng.normal(size=(5, 2))
    for bad in (np.zeros((4, 9)), np.zeros((5, 8)), np.zeros(45), np.zeros((9, 5))):
        with pytest.raises(ValueError, match="cross-Gram"):
            predict(model, x, k=bad)
        with pytest.raises(ValueError, match="cross-Gram"):
            krr.predict(x, k=bad)
    with pytest.raises(ValueError, match="finite"):  # the input checks still run
        predict(model, np.full((5, 2), np.nan), k=cross_gram(model, x))

    linear = replace(model, v1=model.v1[:3], v2=model.v2[:3], hp=Hyperparams())
    for k in (x @ linear.train_regular.T, np.zeros((5, 2)), x):
        with pytest.raises(ValueError, match="linear-variant"):
            predict(linear, x, k=k)
    with pytest.raises(ValueError, match="linear-variant"):
        cross_gram(linear, x)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 63, 64, 65, 66, 67, 69, 127, 129, 193, 1025])
def test_row_blocks_give_the_full_matrix_vector_product_bitwise(n):
    """Guards the BLAS behaviour streamed evaluation relies on.

    Single-threaded OpenBLAS gives each row of ``a @ w`` the same rounding
    in a row block as in the whole product only when the block starts at a
    multiple of 4 and is not a lone row; a numpy or OpenBLAS upgrade that
    changes this fails here, not only in the benchmark's recorded outputs.
    """
    blocks = _row_blocks(n)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
    assert all(start % 4 == 0 for start, _ in blocks)
    assert n == 1 or all(stop - start > 1 for start, stop in blocks)

    rng = np.random.default_rng(n)
    a, w = rng.normal(size=(n, 1200)), rng.normal(size=1200)
    with single_blas_thread():
        full = a @ w
        blocked = np.empty(n)
        for start, stop in blocks:
            np.matmul(a[start:stop], w, out=blocked[start:stop])
    assert np.array_equal(blocked, full)


def test_kernel_predict_holds_one_row_block():
    rng = np.random.default_rng(8)
    n, m = 5000, 1000
    model = _kernel_model(rng, "rbf", m)
    x = rng.normal(size=(n, 2))
    tracemalloc.start()
    try:
        predict(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n * m * 8  # a tenth of the full 40 MB cross-Gram


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_correcting_values_rejects_non_finite_inputs(bad):
    model = fit(REF_DATA, REF_HP)
    x_star = np.array(REF_DATA.privileged, dtype=float)
    x_star[2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        correcting_values(model, x_star)


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


@pytest.mark.parametrize("threads", BLAS_THREADS)
def test_fit_carries_the_residuals_its_gate_checked(threads, tmp_path):
    # the gate's residuals are kkt_residuals' bit for bit, on either schedule
    rng = np.random.default_rng(16)
    with at_blas_threads(threads):
        for kind in ("rbf", "linear", None):
            data, hp = draw_well_posed(rng, kind)
            for candidate in (hp, replace(hp, c4=hp.c1 * 2)):
                for ws in (None, build_workspace(data, candidate)):
                    model = fit(data, candidate, ws=ws)
                    assert model.kkt == kkt_residuals(model, data)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kkt is None and "kkt" not in path.read_text(encoding="utf-8")


def _unflushed_gram(rows_a, rows_b, spec, out=None):
    """``gram`` with plain ``np.exp`` everywhere: entries below DBL_MIN stay subnormal."""
    with mock.patch.object(twinpi.kernels, "_LN_DBL_MIN", -math.inf):
        return gram(rows_a, rows_b, spec, out=out)


@pytest.mark.parametrize("mu", [2.0**-8, 2.0**-6])
def test_flushing_subnormal_gram_entries_changes_no_fit_bit(mu, monkeypatch):
    # each S and H entry adds the ones column's +1 (G'G's Gram block has no
    # ones term, yet every fit output keeps its bits) and each prediction
    # the bias, so a subnormal kernel value is below half an ulp of every
    # sum it enters; the ridge system adds the ridge to the diagonal
    train, test = gen_synthetic("f2", 240, 100, NoiseSpec("uniform_pm02", seed=1), seed=0)
    train, stats = min_max_normalize(train)
    data = split_privileged(train)
    x = stats.transform_features(test.features[:, : data.regular.shape[1]])
    kernel = KernelSpec("rbf", mu=mu)
    untied = Hyperparams(c1=1.0, c2=4.0, c3=2.0, c4=0.5, c5=4.0, c6=2.0, kernel=kernel)
    candidates = [replace(untied, c4=1.0), untied]

    def outcomes():
        got = []
        for hp in candidates:
            for ws in (None, build_workspace(data, hp)):
                model = fit(data, hp, ws=ws)
                got += [model.v1, model.v2, np.array(astuple(model.kkt)), predict(model, x)]
        krr = fit_krr_comparator(Dataset(data.regular, data.targets), 1.0, kernel)
        return got + [krr.coef]

    flushed = outcomes()
    monkeypatch.setattr(twinpi.model, "gram", _unflushed_gram)
    for rows in (data.regular, data.privileged):
        k = _unflushed_gram(rows, rows, kernel)
        assert ((0.0 < k) & (k < sys.float_info.min)).any()
    unflushed = outcomes()
    assert len(flushed) == len(unflushed)
    for got, want in zip(flushed, unflushed):
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------ subnormal results flushed in fit


def _f2_rows(m):
    train, _ = gen_synthetic("f2", m, 10, NoiseSpec("uniform_pm02", seed=1), seed=0)
    return split_privileged(min_max_normalize(train)[0])


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "own"])
def test_flushed_fits_equal_ieee_fits_bitwise(threads, shared, monkeypatch):
    # Narrow widths, where the fit's products make subnormal partial results.
    data = _f2_rows(200)
    candidates = [
        Hyperparams(c1=c1, c2=c2, c3=c3, c4=c1, c5=c2, c6=c3,
                    kernel=KernelSpec("rbf", mu=2.0**k))
        for k in (-8, -7, -6, -4)
        for c1, c2, c3 in ((2.0**-8, 2.0**-8, 0.5), (2.0**-3, 1.0, 0.5), (8.0, 0.25, 2.0))
    ]

    def outcomes():
        if shared:
            return [o for hp in candidates
                    for o in _fit_outcomes(data, [hp], build_workspace(data, hp))]
        return _fit_outcomes(data, candidates, None)

    with at_blas_threads(threads):
        flushed = outcomes()
        monkeypatch.setattr(twinpi.model, "flush_subnormals",
                            lambda on=True: contextlib.nullcontext())
        ieee = outcomes()
    _assert_same_outcomes(flushed, ieee)
    assert any(isinstance(o, str) for o in ieee) and any(not isinstance(o, str) for o in ieee)


#: Two normal floats whose product, 1e-320, is subnormal.
_TINY = (np.float64(1e-160), np.float64(1e-160))


@pytest.mark.skipif(twinpi.linalg._fenv_access() is None,
                    reason="the flush needs glibc on x86-64 Linux")
def test_fit_flushes_subnormals_and_restores_ieee_after_return_and_raise(monkeypatch):
    a, b = _TINY
    products = {"gram": [], "solve": []}
    gram_ = twinpi.model.gram
    solve = twinpi.model.solve_alpha

    def probed_gram(*args, **kwargs):
        products["gram"].append(a * b)
        return gram_(*args, **kwargs)

    def probed_solve(*args):
        products["solve"].append(a * b)
        return solve(*args)

    monkeypatch.setattr(twinpi.model, "gram", probed_gram)
    monkeypatch.setattr(twinpi.model, "solve_alpha", probed_solve)
    data = _f2_rows(60)
    hp = Hyperparams(c1=1.0, c2=4.0, c3=2.0, c4=1.0, c5=4.0, c6=2.0,
                     kernel=KernelSpec("rbf", mu=0.0625))
    for ws in (None, build_workspace(data, hp)):
        fit(data, hp, ws=ws)
        assert a * b == 1e-320
    # Flushed in the solves; the Gram builds, also those inside a one-off fit, stay IEEE.
    assert products["solve"] == [0.0, 0.0]
    assert products["gram"] and set(products["gram"]) == {1e-320}

    def failing_solve(*args):
        assert a * b == 0.0
        raise NumericalError("down-bound multiplier system: forced failure")

    monkeypatch.setattr(twinpi.model, "solve_alpha", failing_solve)
    for ws in (None, build_workspace(data, hp)):
        with pytest.raises(NumericalError, match="forced failure"):
            fit(data, hp, ws=ws)
        assert a * b == 1e-320


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


def test_krr_shared_gram_gives_the_same_model_bitwise():
    rng = np.random.default_rng(24)
    data = Dataset(rng.uniform(size=(50, 3)), rng.uniform(size=50))
    kernel = KernelSpec("rbf", mu=0.5)
    k = krr_gram(data, kernel)
    before = k.copy()
    for ridge in (2.0**-6, 1.0, 2.0**5):
        shared = fit_krr_comparator(data, ridge, kernel, k=k)
        assert np.array_equal(shared.coef, fit_krr_comparator(data, ridge, kernel).coef)
    assert np.array_equal(k, before)


def test_krr_validation():
    with pytest.raises(ValueError, match="ridge"):
        fit_krr_comparator(Dataset([[1.0]], [1.0]), ridge=0.0, kernel=KernelSpec("linear"))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_krr_predict_rejects_non_finite_inputs(bad):
    model = fit_krr_comparator(
        Dataset([[0.0], [1.0]], [0.0, 1.0]), ridge=1.0, kernel=KernelSpec("rbf", mu=1.0)
    )
    with pytest.raises(ValueError, match="finite"):
        model.predict([[0.5], [bad]])


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
    np.testing.assert_array_equal(back.train_regular, model.train_regular)
    np.testing.assert_array_equal(back.norm.col_min, stats.col_min)
    np.testing.assert_array_equal(back.norm.col_max, stats.col_max)
    assert back.hp == model.hp
    # the privileged channel and the gate's residuals are not saved
    assert (back.v1_star, back.v2_star, back.duals, back.train_privileged, back.kkt) == (
        None, None, None, None, None
    )
    probe = rng.normal(size=(4, data.regular.shape[1]))
    # loaded model carries normalization; compare through the same raw inputs
    np.testing.assert_array_equal(predict(back, probe), predict(model, probe))


def test_failed_save_keeps_the_previous_model_file(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(fit(REF_DATA, REF_HP), path)
    before = path.read_bytes()
    other = fit(REF_DATA, Hyperparams(c1=2.0, eps1=0.02, eps2=0.02))

    def write_half_then_fail(self, text, *args, **kwargs):
        with open(self, "w", encoding="utf-8") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(pathlib.Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="no space"):
        save_model(other, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


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
        (lambda p: p.update(v2=p["v2"] + [0.0]), "v2 has length"),
        (lambda p: p.update(train_regular=p["train_regular"][:-1]), "expected"),
        (lambda p: p.update(train_regular=p["train_regular"][0]), "2-dimensional"),
        (lambda p: p["hyperparams"].update(c2=-1.0), "c2 must be positive"),
        (lambda p: p.update(v2="oops"), "malformed"),
        (lambda p: p["v1"].__setitem__(0, math.nan), "v1 contains non-finite entries"),
        (lambda p: p.update(v1=[p["v1"]]), "v1 must be 1-dimensional, got ndim=2"),
        (lambda p: p.pop("v2"), "lacks key 'v2'"),
        (lambda p: p["hyperparams"].pop("eps2"), "lacks key 'eps2'"),
        # the kernel key is read before the weights
        (lambda p: [p["hyperparams"].pop(k) for k in ("c1", "kernel")], "lacks key 'kernel'"),
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


@pytest.mark.parametrize("kernel, kernel_text", [
    (None, "null"),
    (KernelSpec("rbf", mu=0.375), '{\n   "kind": "rbf",\n   "mu": 0.375\n  }'),
    (KernelSpec("linear"), '{\n   "kind": "linear",\n   "mu": 1.0\n  }'),
], ids=["no-kernel", "rbf", "linear-kernel"])
def test_model_file_hyperparams_layout(tmp_path, kernel, kernel_text):
    hp = Hyperparams(c1=2.0, c2=0.5, c3=0.25, c4=4.0, c5=1.5, c6=3.0,
                     eps1=0.02, eps2=0.0, kernel=kernel)
    # save_model writes the hyperparameters it is given; no fit is needed to lay them out
    m, d_regular = REF_DATA.regular.shape
    v = np.zeros((m if kernel is not None else d_regular) + 1)
    model = replace(fit(REF_DATA, REF_HP), hp=hp, v1=v, v2=v)
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    assert (
        ' "hyperparams": {\n'
        '  "c1": 2.0,\n  "c2": 0.5,\n  "c3": 0.25,\n'
        '  "c4": 4.0,\n  "c5": 1.5,\n  "c6": 3.0,\n'
        '  "eps1": 0.02,\n  "eps2": 0.0,\n'
        f'  "kernel": {kernel_text}\n }},\n'
    ) in text
    assert load_model(path).hp == hp


def _v1_payload(model):
    """The model file the v1 format wrote: the lean keys plus the privileged channel."""
    return {
        "format": "twinpi-model-v1",
        "hyperparams": {
            "c1": model.hp.c1, "c2": model.hp.c2, "c3": model.hp.c3,
            "c4": model.hp.c4, "c5": model.hp.c5, "c6": model.hp.c6,
            "eps1": model.hp.eps1, "eps2": model.hp.eps2,
            "kernel": None if model.hp.kernel is None
            else {"kind": model.hp.kernel.kind, "mu": model.hp.kernel.mu},
        },
        "v1": model.v1.tolist(),
        "v2": model.v2.tolist(),
        "v1_star": model.v1_star.tolist(),
        "v2_star": model.v2_star.tolist(),
        "alpha": model.duals.alpha.tolist(),
        "beta": model.duals.beta.tolist(),
        "train_regular": model.train_regular.tolist(),
        "train_privileged": model.train_privileged.tolist(),
        "norm": None if model.norm is None
        else {"col_min": model.norm.col_min.tolist(), "col_max": model.norm.col_max.tolist()},
    }


@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_v1_and_v2_model_files_predict_what_the_fitted_model_predicts(tmp_path, kind):
    rng = np.random.default_rng(23)
    data, hp = draw_well_posed(rng, kind)
    _, stats = min_max_normalize(Dataset(np.column_stack([data.regular, data.privileged]),
                                         data.targets))
    model = fit(data, hp, norm=stats)
    lean = tmp_path / "v2.json"
    save_model(model, lean)
    payload = _v1_payload(model)
    assert set(payload) - set(json.loads(lean.read_text())) == {
        "v1_star", "v2_star", "alpha", "beta", "train_privileged"
    }
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(payload, indent=1))
    probe = rng.normal(size=(70, data.regular.shape[1]))
    want = predict(model, probe)
    for path in (lean, old):
        back = load_model(path)
        assert back.duals is None and back.train_privileged is None
        assert np.array_equal(predict(back, probe), want)
        for got, expected in zip(bound_functions(back, probe), bound_functions(model, probe)):
            assert np.array_equal(got, expected)


def test_a_loaded_model_has_no_privileged_channel_to_check(tmp_path):
    model = fit(REF_DATA, REF_HP)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    with pytest.raises(ValueError, match="holds no privileged channel"):
        correcting_values(back, REF_DATA.privileged)
    with pytest.raises(ValueError, match="holds no privileged channel"):
        kkt_residuals(back, REF_DATA)
    # the fitted model still has it
    assert kkt_residuals(model, REF_DATA) == model.kkt
