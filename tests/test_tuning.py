import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import BLAS_THREADS, at_blas_threads

from twinpi.data import Dataset, NoiseSpec, PIDataset, gen_synthetic, min_max_normalize, split_privileged
import twinpi.tuning as tuning
from twinpi.kernels import KernelSpec
from twinpi.linalg import NumericalError
from twinpi.metrics import evaluate
from twinpi.model import fit, fit_krr_comparator, predict
from twinpi.tuning import (
    GridSpec,
    TuningError,
    cross_validate,
    kfold_indices,
    tune_krr,
)


def small_pi_dataset(seed=0, m=30):
    train, _ = gen_synthetic("f2", m, 10, NoiseSpec("gaussian_005", seed=seed), seed=seed)
    normalized, _ = min_max_normalize(train)
    return split_privileged(normalized)


# -------------------------------------------------------------------- grid


def test_axis_has_17_values_and_tied_kernel_grid_is_17_to_the_4():
    spec = GridSpec(kernel="rbf")
    grid = tuning._grid_candidates(spec)
    assert len(grid) == 17**4
    exps = {hp.c1 for hp in grid}
    assert len(exps) == 17


def test_zero_range_gives_single_unit_candidate():
    spec = GridSpec(c_lo=0, c_hi=0, mu_lo=0, mu_hi=0, kernel="rbf")
    grid = tuning._grid_candidates(spec)
    assert len(grid) == 1
    hp = grid[0]
    assert hp.c1 == hp.c2 == hp.c3 == 1.0
    assert hp.kernel.mu == 1.0


def test_linear_grid_has_no_width_axis():
    spec = GridSpec(c_lo=-1, c_hi=1, kernel=None)
    assert len(tuning._grid_candidates(spec)) == 27


def test_pinned_width_removes_the_axis():
    spec = GridSpec(c_lo=-1, c_hi=1, kernel="rbf", pin_mu=0.5)
    grid = tuning._grid_candidates(spec)
    assert len(grid) == 27
    assert all(hp.kernel.mu == 0.5 for hp in grid)


def test_grid_is_lexicographically_ordered_and_tied():
    spec = GridSpec(c_lo=-1, c_hi=0, mu_lo=-1, mu_hi=0, kernel="rbf")
    grid = tuning._grid_candidates(spec)
    assert len(grid) == 16
    assert grid[0].c1 == 0.5 and grid[0].kernel.mu == 0.5
    assert grid[-1].c1 == 1.0 and grid[-1].kernel.mu == 1.0
    for hp in grid:
        assert (hp.c1, hp.c2, hp.c3) == (hp.c4, hp.c5, hp.c6)


def test_subsampling_strides_the_grid_deterministically():
    spec = GridSpec(kernel="rbf", max_candidates=64)
    grid = tuning._grid_candidates(spec)
    assert 1 <= len(grid) <= 64
    again = tuning._grid_candidates(spec)
    assert [repr(hp) for hp in grid] == [repr(hp) for hp in again]


def test_full_grid_past_the_cap_requires_subsampling():
    # 31**4 candidates, past MAX_MATERIALIZED
    wide = dict(c_lo=-15, c_hi=15, mu_lo=-15, mu_hi=15, kernel="rbf")
    with pytest.raises(TuningError, match="max_candidates"):
        tuning._grid_candidates(GridSpec(**wide))
    grid = tuning._grid_candidates(GridSpec(**wide, max_candidates=10))
    assert 1 <= len(grid) <= 10


def test_a_subsample_past_the_cap_is_refused_before_it_is_built(monkeypatch):
    # 31**4 = 923521 candidates: a max_candidates at or above the grid size
    # keeps them all, which is past MAX_MATERIALIZED too
    axes = tuning._grid_axes(GridSpec(c_lo=-15, c_hi=15, mu_lo=-15, mu_hi=15), 3)
    monkeypatch.setattr(tuning.np, "unravel_index", None)  # nothing may be built
    with pytest.raises(TuningError, match="keeps 923521 of its 923521 candidates.*max_candidates"):
        tuning._grid_points(axes, 10**6)
    # a stride of 2 keeps 461761
    with pytest.raises(TuningError, match="keeps 461761 .*max_candidates to at most 200000"):
        tuning._grid_points(axes, 500_000)
    monkeypatch.undo()
    # a stride of 5 keeps 184705
    assert len(tuning._grid_points(axes, tuning.MAX_MATERIALIZED + 1)) == 184705


# ------------------------------------------------------------------- folds


def test_kfold_even_partition():
    folds = kfold_indices(10, 5, seed=0)
    assert [len(f) for f in folds] == [2] * 5
    merged = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(merged, np.arange(10))


def test_kfold_remainder_distribution():
    folds = kfold_indices(11, 5, seed=1)
    assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]


def test_kfold_deterministic():
    a = kfold_indices(23, 4, seed=9)
    b = kfold_indices(23, 4, seed=9)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)


def test_kfold_validation():
    with pytest.raises(ValueError, match="folds"):
        kfold_indices(10, 1, seed=0)
    with pytest.raises(ValueError, match="cannot make"):
        kfold_indices(3, 4, seed=0)


# --------------------------------------------------------- cross-validation


def test_single_candidate_grid_returns_it():
    pi = small_pi_dataset()
    spec = GridSpec(c_lo=0, c_hi=0, mu_lo=-2, mu_hi=-2, kernel="rbf", folds=3, seed=0)
    result = cross_validate(pi, spec)
    assert len(result.table) == 1
    assert result.best_index == 0
    assert result.best.kernel.mu == 0.25


def test_best_candidate_attains_minimum_mean_rmse():
    pi = small_pi_dataset(seed=1, m=40)
    spec = GridSpec(c_lo=-2, c_hi=2, mu_lo=-3, mu_hi=0, kernel="rbf",
                    folds=3, seed=2, max_candidates=12)
    result = cross_validate(pi, spec)
    scored = [r.mean_rmse for r in result.table if r.failed_folds == 0]
    assert result.table[result.best_index].mean_rmse == min(scored)


def test_failing_candidates_are_excluded_and_logged():
    rng = np.random.default_rng(3)
    # clustered points + wide kernels make large-width candidates fail the fit gate
    data = PIDataset(
        rng.uniform(0, 1, (60, 2)), rng.uniform(0, 1, (60, 2)), rng.uniform(0, 1, 60)
    )
    spec = GridSpec(c_lo=0, c_hi=0, mu_lo=-3, mu_hi=3, kernel="rbf", folds=3, seed=3)
    result = cross_validate(data, spec)
    failed = [r for r in result.table if r.mean_rmse is None]
    assert failed, "expected at least one excluded candidate"
    assert all(r.failed_folds == spec.folds for r in failed)
    assert result.table[result.best_index].mean_rmse is not None


def test_cross_validation_deterministic():
    pi = small_pi_dataset(seed=4)
    spec = GridSpec(c_lo=-1, c_hi=1, mu_lo=-2, mu_hi=-1, kernel="rbf", folds=3, seed=5)
    a = cross_validate(pi, spec)
    b = cross_validate(pi, spec)
    assert a.best == b.best
    assert [r.mean_rmse for r in a.table] == [r.mean_rmse for r in b.table]


def test_validation_never_reads_validation_privileged_features():
    # poking the privileged rows of one fold may change the other folds'
    # scores (those rows train their models) but never that fold's own score
    pi = small_pi_dataset(seed=6)
    spec = GridSpec(c_lo=0, c_hi=0, mu_lo=-2, mu_hi=-2, kernel="rbf", folds=3, seed=7)
    baseline = cross_validate(pi, spec)
    for k, fold in enumerate(baseline.folds):
        poked = np.array(pi.privileged)
        poked[fold] = 123.456
        result = cross_validate(PIDataset(pi.regular, poked, pi.targets), spec)
        assert result.table[0].fold_rmses[k] == baseline.table[0].fold_rmses[k]


def _naive_fold_rmses(data, spec):
    # Reference: every candidate fitted anew on every fold, no shared workspace.
    folds = kfold_indices(data.n_samples, spec.folds, spec.seed)
    out = []
    for hp in tuning._grid_candidates(spec):
        rmses = []
        for val_idx in folds:
            train_idx = np.setdiff1d(np.arange(data.n_samples), val_idx)
            try:
                model = fit(data.subset(train_idx), hp)
            except NumericalError:
                rmses.append(None)
                continue
            y_hat = predict(model, data.regular[val_idx])
            rmses.append(evaluate(data.targets[val_idx], y_hat).rmse)
        out.append(tuple(rmses))
    return out


WIDTH_GRID = GridSpec(c_lo=-2, c_hi=2, mu_lo=-3, mu_hi=1, kernel="rbf",
                      folds=3, seed=14, max_candidates=40)


def test_cross_validation_matches_per_candidate_fits():
    pi = small_pi_dataset(seed=13, m=36)
    result = cross_validate(pi, WIDTH_GRID)
    naive = _naive_fold_rmses(pi, WIDTH_GRID)
    assert len({hp.kernel for hp in tuning._grid_candidates(WIDTH_GRID)}) > 1
    assert [r.fold_rmses for r in result.table] == naive
    means = []
    for rmses in naive:
        scored = [r for r in rmses if r is not None]
        means.append(float(np.mean(scored)) if scored else None)
    assert [r.mean_rmse for r in result.table] == means
    best = min((m, i) for i, m in enumerate(means) if None not in naive[i])[1]
    assert result.best_index == best
    eligible = [i for i, rmses in enumerate(naive) if None not in rmses]
    assert list(result.ranking) == sorted(eligible, key=lambda i: (means[i], i))


def _bits(rmse):
    return None if rmse is None else float(rmse).hex()


@st.composite
def _small_searches(draw):
    """A small dataset and a small grid: rbf (free or pinned width) or linear
    variant, the whole grid or a stride of it."""
    pi = small_pi_dataset(seed=draw(st.integers(0, 2**16)), m=draw(st.integers(6, 20)))
    kernel = draw(st.sampled_from(["rbf", "rbf", None]))
    c_lo, mu_lo = draw(st.integers(-3, 2)), draw(st.integers(-5, 1))
    spec = GridSpec(
        c_lo=c_lo, c_hi=c_lo + draw(st.integers(0, 1)),
        mu_lo=mu_lo, mu_hi=mu_lo + draw(st.integers(0, 2)),
        eps=draw(st.sampled_from([0.0, 0.01])),
        folds=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 99)),
        kernel=kernel,
        pin_mu=draw(st.sampled_from([None, None, 0.125])) if kernel == "rbf" else None,
        max_candidates=draw(st.one_of(st.none(), st.integers(1, 8))),
    )
    return pi, spec


@pytest.mark.parametrize("threads", BLAS_THREADS)
@given(search=_small_searches())
@settings(max_examples=100, deadline=None)
def test_cross_validation_table_equals_fresh_fits_bitwise(threads, search):
    # every table entry is what one fresh fit and predict per candidate and
    # fold gives, None where that fit raises, whatever the grid shares
    pi, spec = search
    with at_blas_threads(threads):
        naive = _naive_fold_rmses(pi, spec)
        try:
            result = cross_validate(pi, spec)
        except TuningError:
            assert all(None in rmses for rmses in naive)
            return
    assert [r.hp for r in result.table] == tuning._grid_candidates(spec)
    assert [tuple(map(_bits, r.fold_rmses)) for r in result.table] == [
        tuple(map(_bits, rmses)) for rmses in naive
    ]
    for r, rmses in zip(result.table, naive):
        scored = [x for x in rmses if x is not None]
        assert r.failed_folds == len(rmses) - len(scored)
        assert _bits(r.mean_rmse) == (_bits(float(np.mean(scored))) if scored else None)


def test_cross_validation_builds_one_workspace_per_fold_and_width(monkeypatch):
    calls = []
    original = tuning.build_workspace

    def counting(data, hp, reuse=None):
        calls.append(hp.kernel)
        return original(data, hp, reuse=reuse)

    monkeypatch.setattr(tuning, "build_workspace", counting)
    result = cross_validate(small_pi_dataset(seed=15), WIDTH_GRID)
    widths = {r.hp.kernel for r in result.table}
    assert len(widths) > 1 and len(result.table) > len(widths)
    assert len(calls) == WIDTH_GRID.folds * len(widths)
    assert set(calls) == widths


def test_cross_validation_forms_one_validation_cross_gram_per_fitted_fold_and_width(monkeypatch):
    # mu up to 2**1 on 24 training rows: the wide widths fail every candidate.
    spec = GridSpec(c_lo=-1, c_hi=1, mu_lo=-3, mu_hi=1, kernel="rbf", folds=3, seed=14)
    pi = small_pi_dataset(seed=13, m=36)
    trains, fitted, formed, shared = [], set(), [], []
    original_fit, original_gram, original_predict = tuning.fit, tuning.cross_gram, tuning.predict

    def recording_fit(train, hp, ws=None):
        if not trains or trains[-1] is not train:
            trains.append(train)
        model = original_fit(train, hp, ws=ws)
        fitted.add((len(trains) - 1, hp.kernel))
        return model

    def counting_gram(model, x):
        formed.append((len(trains) - 1, model.hp.kernel))
        return original_gram(model, x)

    def recording_predict(model, x, k=None):
        shared.append(k is not None)
        return original_predict(model, x, k=k)

    monkeypatch.setattr(tuning, "fit", recording_fit)
    monkeypatch.setattr(tuning, "cross_gram", counting_gram)
    monkeypatch.setattr(tuning, "predict", recording_predict)
    result = cross_validate(pi, spec)
    groups = {(fold, hp.kernel) for fold in range(spec.folds)
              for hp in tuning._grid_candidates(spec)}
    assert len(trains) == spec.folds
    assert sorted(formed, key=repr) == sorted(fitted, key=repr)  # once per fitted group
    assert groups - fitted  # ... and none where every candidate failed
    assert all(shared)  # every fitted candidate's predict read the shared one
    assert len(shared) == sum(r is not None for row in result.table for r in row.fold_rmses)
    assert [r.fold_rmses for r in result.table] == _naive_fold_rmses(pi, spec)


def test_cross_validation_of_the_linear_variant_forms_no_cross_gram(monkeypatch):
    # 6 training rows, within rank[G, G*] <= 4 + 4 + 1.
    rng = np.random.default_rng(16)
    pi = PIDataset(rng.uniform(size=(9, 4)), rng.uniform(size=(9, 4)), rng.uniform(size=9))
    spec = GridSpec(c_lo=-1, c_hi=1, kernel=None, folds=3, seed=14)
    calls = []
    monkeypatch.setattr(tuning, "cross_gram", lambda *args: calls.append(args))
    result = cross_validate(pi, spec)
    assert not calls
    assert [r.fold_rmses for r in result.table] == _naive_fold_rmses(pi, spec)


def test_candidate_that_failed_a_fold_is_never_selected(monkeypatch):
    pi = small_pi_dataset(seed=13, m=36)
    clean = cross_validate(pi, WIDTH_GRID)
    winner = clean.table[clean.best_index].hp
    original = tuning.fit

    def fail_winner_once(train, hp, ws=None):
        # The winner's last fold fails; its other folds keep their low RMSE.
        calls.append(hp)
        if hp == winner and calls.count(hp) == WIDTH_GRID.folds:
            raise NumericalError("forced failure")
        return original(train, hp, ws=ws)

    calls = []
    monkeypatch.setattr(tuning, "fit", fail_winner_once)
    result = cross_validate(pi, WIDTH_GRID)
    row = result.table[clean.best_index]
    assert row.failed_folds == 1
    assert row.mean_rmse < min(  # still the lowest mean over the folds it fitted ...
        r.mean_rmse for r in result.table if r.failed_folds == 0
    )
    assert result.best_index != clean.best_index  # ... but not eligible
    assert clean.best_index not in result.ranking
    full = [(r.mean_rmse, i) for i, r in enumerate(result.table) if r.failed_folds == 0]
    assert result.best_index == min(full)[1]


def test_no_candidate_fitting_every_fold_raises(monkeypatch):
    pi = small_pi_dataset(seed=13, m=36)
    original = tuning.fit
    seen = set()

    def fail_first_fold(train, hp, ws=None):
        # Every candidate fails its first fold and fits the others.
        if hp not in seen:
            seen.add(hp)
            raise NumericalError("forced failure")
        return original(train, hp, ws=ws)

    monkeypatch.setattr(tuning, "fit", fail_first_fold)
    with pytest.raises(TuningError, match="fitted on every fold"):
        cross_validate(pi, WIDTH_GRID)


def test_linear_tuning_past_the_row_limit_fails_before_any_fit(monkeypatch):
    # f2 has 3 regular and 2 privileged columns, so rank[G, G*] <= 6. Ten rows
    # in 3 folds train on 6, 7 and 7 rows: the second fold dooms every candidate.
    pi = small_pi_dataset(seed=3, m=10)
    spec = GridSpec(c_lo=-2, c_hi=2, kernel=None, folds=3, seed=5, max_candidates=8)
    assert sorted(len(fold) for fold in kfold_indices(10, 3, 5)) == [3, 3, 4]
    calls = []
    monkeypatch.setattr(tuning, "fit", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(TuningError) as info:
        cross_validate(pi, spec)
    assert calls == []
    first_large = next(i for i, fold in enumerate(kfold_indices(10, 3, 5)) if len(fold) == 3)
    assert str(info.value) == (
        f"none of the {len(tuning._grid_candidates(spec))} candidates can fit "
        f"fold {first_large + 1}: "
        "the 7 training rows exceed rank[G, G*] <= d_regular + d_privileged + 1 = 6"
    )


def test_all_candidates_failing_raises_with_log():
    rng = np.random.default_rng(8)
    data = PIDataset(
        rng.uniform(0, 1, (80, 2)), rng.uniform(0, 1, (80, 2)), rng.uniform(0, 1, 80)
    )
    spec = GridSpec(c_lo=0, c_hi=0, mu_lo=3, mu_hi=4, kernel="rbf", folds=3, seed=9)
    with pytest.raises(TuningError, match="failed"):
        cross_validate(data, spec)


KRR_GRID = GridSpec(c_lo=-4, c_hi=4, mu_lo=-3, mu_hi=0, kernel="rbf",
                    folds=3, seed=13, max_candidates=16)


def _krr_data():
    train, _ = gen_synthetic("f2", 40, 10, NoiseSpec("gaussian_005", seed=12), seed=12)
    normalized, _ = min_max_normalize(train)
    return Dataset(normalized.features[:, :3], normalized.targets)


def _naive_krr_rmses(data, spec):
    """Validation RMSE per fold of each (ridge, width) candidate, fitted afresh.

    None where that fit raises.
    """
    rmses = {}
    for exponents in tuning._grid_points(tuning._grid_axes(spec, 1), spec.max_candidates):
        ridge = 2.0 ** exponents[0]
        kernel = tuning._candidate_kernel(spec, exponents[1:]) or KernelSpec("linear")
        rmses[(ridge, kernel)] = []
        for val_idx in kfold_indices(data.n_samples, spec.folds, spec.seed):
            mask = np.ones(data.n_samples, dtype=bool)
            mask[val_idx] = False
            try:
                model = fit_krr_comparator(
                    Dataset(data.features[mask], data.targets[mask]), ridge, kernel
                )
            except NumericalError:
                rmses[(ridge, kernel)].append(None)
                continue
            y_hat = model.predict(data.features[val_idx])
            rmses[(ridge, kernel)].append(evaluate(data.targets[val_idx], y_hat).rmse)
    return rmses


def test_tune_krr_builds_one_gram_per_fold_and_width(monkeypatch):
    grams, fits = [], []
    original_gram, original_fit = tuning.krr_gram, tuning.fit_krr_comparator

    def counting_gram(data, kernel):
        grams.append(kernel)
        return original_gram(data, kernel)

    def counting_fit(data, ridge, kernel, norm=None, k=None):
        fits.append((ridge, kernel))
        return original_fit(data, ridge, kernel, norm=norm, k=k)

    original_cross_gram = tuning.cross_gram
    cross_grams = []

    def counting_cross_gram(model, x):
        cross_grams.append(model.kernel)
        return original_cross_gram(model, x)

    monkeypatch.setattr(tuning, "krr_gram", counting_gram)
    monkeypatch.setattr(tuning, "fit_krr_comparator", counting_fit)
    monkeypatch.setattr(tuning, "cross_gram", counting_cross_gram)
    data = _krr_data()
    choice = tune_krr(data, KRR_GRID)
    candidates = set(fits)
    widths = {kernel for _, kernel in candidates}
    assert len(widths) > 1 and len(candidates) > len(widths)
    assert len(fits) == KRR_GRID.folds * len(candidates)
    assert len(grams) == KRR_GRID.folds * len(widths)
    assert cross_grams == grams  # one validation cross-Gram per (fold, width)
    means = {c: float(np.mean(r)) for c, r in _naive_krr_rmses(data, KRR_GRID).items()}
    assert choice == min(means, key=lambda c: (means[c], list(means).index(c)))


def test_tune_krr_skips_a_candidate_that_failed_a_fold(monkeypatch):
    data = _krr_data()
    winner = tune_krr(data, KRR_GRID)
    # Failing the winner's worst fold lowers its mean over the folds it fitted.
    rmses = _naive_krr_rmses(data, KRR_GRID)[winner]
    worst = rmses.index(max(rmses))
    original = tuning.fit_krr_comparator
    calls = []

    def fail_worst_fold(train, ridge, kernel, norm=None, k=None):
        calls.append((ridge, kernel))
        if (ridge, kernel) == winner and calls.count(winner) == worst + 1:
            raise NumericalError("forced failure")
        return original(train, ridge, kernel, norm=norm, k=k)

    monkeypatch.setattr(tuning, "fit_krr_comparator", fail_worst_fold)
    assert tune_krr(data, KRR_GRID) != winner


def test_tune_krr_on_a_linear_grid_searches_the_ridge_only(monkeypatch):
    spec = GridSpec(c_lo=-4, c_hi=4, kernel=None, folds=3, seed=13)
    data = _krr_data()
    means = {c: float(np.mean(r)) for c, r in _naive_krr_rmses(data, spec).items()}
    assert list(means) == [(2.0**e, KernelSpec("linear")) for e in range(-4, 5)]
    grams, fits = [], []
    original_gram, original_fit = tuning.krr_gram, tuning.fit_krr_comparator

    def counting_gram(train, kernel):
        grams.append(kernel)
        return original_gram(train, kernel)

    def failing_fit(train, ridge, kernel, norm=None, k=None):
        fits.append((ridge, kernel))
        if (ridge, kernel) in failing and fits.count((ridge, kernel)) == spec.folds:
            raise NumericalError("forced failure")
        return original_fit(train, ridge, kernel, norm=norm, k=k)

    monkeypatch.setattr(tuning, "krr_gram", counting_gram)
    monkeypatch.setattr(tuning, "fit_krr_comparator", failing_fit)
    failing = set()
    choice = tune_krr(data, spec)
    assert grams == [KernelSpec("linear")] * spec.folds
    assert fits == [c for _ in range(spec.folds) for c in means]
    assert choice == min(means, key=means.get)

    # The best candidate fails its last fold: the runner-up is selected.
    failing = {choice}
    fits.clear()
    rest = {c: v for c, v in means.items() if c != choice}
    assert tune_krr(data, spec) == min(rest, key=rest.get)


def test_tune_krr_returns_fittable_choice():
    train, _ = gen_synthetic("f2", 40, 10, NoiseSpec("gaussian_005", seed=12), seed=12)
    normalized, _ = min_max_normalize(train)
    regular = Dataset(normalized.features[:, :3], normalized.targets)
    spec = GridSpec(c_lo=-4, c_hi=4, mu_lo=-3, mu_hi=0, kernel="rbf",
                    folds=3, seed=13, max_candidates=16)
    ridge, kernel = tune_krr(regular, spec)
    assert ridge > 0
    assert kernel.kind == "rbf"


@st.composite
def _small_krr_searches(draw):
    """A small regular-feature dataset and a comparator grid: rbf with a free
    or pinned width, or the linear kernel (``kernel=None``), over 2-3 folds."""
    pi = small_pi_dataset(seed=draw(st.integers(0, 2**16)), m=draw(st.integers(6, 20)))
    kernel = draw(st.sampled_from(["rbf", "rbf", None]))
    c_lo, mu_lo = draw(st.integers(-6, 2)), draw(st.integers(-5, 1))
    spec = GridSpec(
        c_lo=c_lo, c_hi=c_lo + draw(st.integers(0, 3)),
        mu_lo=mu_lo, mu_hi=mu_lo + draw(st.integers(0, 2)),
        folds=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 99)),
        kernel=kernel,
        pin_mu=draw(st.sampled_from([None, None, 0.125])) if kernel == "rbf" else None,
        max_candidates=draw(st.one_of(st.none(), st.integers(1, 8))),
    )
    return Dataset(pi.regular, pi.targets), spec


@pytest.mark.parametrize("threads", BLAS_THREADS)
@given(search=_small_krr_searches())
@settings(max_examples=100, deadline=None)
def test_tune_krr_picks_what_fresh_fits_pick(threads, search):
    # a (fold, width) group shares one Gram and one validation cross-Gram;
    # the pick must be the one that one fresh fit and predict per candidate
    # and fold gives
    data, spec = search
    with at_blas_threads(threads):
        naive = _naive_krr_rmses(data, spec)
        eligible = {c: float(np.mean(r)) for c, r in naive.items() if None not in r}
        if not eligible:
            with pytest.raises(TuningError):
                tune_krr(data, spec)
            return
        assert tune_krr(data, spec) == min(eligible, key=eligible.get)


def test_both_searches_score_the_same_folds_and_break_ties_toward_the_earliest(monkeypatch):
    pi = small_pi_dataset(seed=17, m=33)
    spec = GridSpec(c_lo=-2, c_hi=2, mu_lo=-3, mu_hi=-1, kernel="rbf",
                    folds=3, seed=6, max_candidates=12)
    scored = []

    def zero_prediction_evaluate(y, y_hat):
        # Every candidate of a fold gets the same RMSE, so every mean ties.
        scored[-1].append(np.array(y))
        return evaluate(y, np.zeros_like(y_hat))

    def folds_in_order(arrays):
        return [a for i, a in enumerate(arrays) if i == 0 or not np.array_equal(a, arrays[i - 1])]

    monkeypatch.setattr(tuning, "evaluate", zero_prediction_evaluate)
    scored.append([])
    result = cross_validate(pi, spec)
    scored.append([])
    choice = tune_krr(Dataset(pi.regular, pi.targets), spec)

    folds = kfold_indices(pi.n_samples, spec.folds, spec.seed)
    expected = [pi.targets[val_idx] for val_idx in folds]
    for calls in scored:  # the twin model's, then the comparator's
        assert len(folds_in_order(calls)) == spec.folds
        for got, want in zip(folds_in_order(calls), expected):
            np.testing.assert_array_equal(got, want)
    eligible = [r for r in result.table if r.failed_folds == 0]
    assert result.table[0] in eligible and len(eligible) > 1
    assert len({r.mean_rmse for r in eligible}) == 1
    assert result.best_index == 0
    assert choice == (2.0**-2, KernelSpec("rbf", mu=2.0**-3))


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="lo <= hi"):
        GridSpec(c_lo=2, c_hi=1)
    with pytest.raises(ValueError, match="folds"):
        GridSpec(folds=1)
    for kernel in ("poly", "linear"):
        with pytest.raises(ValueError, match=f"kernel must be None or 'rbf', got {kernel!r}"):
            GridSpec(kernel=kernel)
    with pytest.raises(TypeError, match="tie_params"):
        GridSpec(tie_params=False)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="pin_mu must be positive and finite"):
            GridSpec(pin_mu=bad)
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps must be finite and non-negative"):
            GridSpec(eps=bad)
    with pytest.raises(ValueError, match="pin_mu needs kernel 'rbf', got None"):
        GridSpec(kernel=None, pin_mu=0.5)
    assert GridSpec(eps=0.0, pin_mu=0.5).pin_mu == 0.5


def test_grid_spec_rejects_exponents_and_widths_outside_the_float_range():
    # 2.0**1024 raises OverflowError and 2.0**-1075 is 0.0
    for lo, hi in ((-1075, 0), (0, 1024), (1020, 1100)):
        with pytest.raises(ValueError, match=r"2\*\*e positive and finite: -1074 <= e <= 1023"):
            GridSpec(c_lo=lo, c_hi=hi, mu_lo=0, mu_hi=0)
        with pytest.raises(ValueError, match=r"2\*\*e positive and finite"):
            GridSpec(mu_lo=lo, mu_hi=hi, kernel=None)
    # a width axis needs 2 mu**2 finite and positive: 2**-537 <= mu <= 2**511
    for lo, hi, bad in ((-538, 0, -538), (0, 512, 512)):
        with pytest.raises(ValueError, match=rf"width 2\*\*{bad} = .* is out of range"):
            GridSpec(mu_lo=lo, mu_hi=hi)
        GridSpec(mu_lo=lo, mu_hi=hi, pin_mu=1.0)  # no width axis to check
        GridSpec(mu_lo=lo, mu_hi=hi, kernel=None)
    for bad in (1e300, 1e-200, 2.0**512, 2.0**-538):
        with pytest.raises(ValueError, match=r"pin_mu = .* is out of range: 2 mu\*\*2"):
            GridSpec(pin_mu=bad)
    edge = GridSpec(c_lo=-1074, c_hi=1023, mu_lo=-537, mu_hi=511)
    assert (edge.c_lo, edge.c_hi, edge.mu_lo, edge.mu_hi) == (-1074, 1023, -537, 511)
    assert GridSpec(pin_mu=2.0**-537).pin_mu == 2.0**-537
