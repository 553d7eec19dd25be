import numpy as np
import pytest

from support import BLAS_THREADS, at_blas_threads, single_blas_thread
from twinpi import linalg
from twinpi.linalg import LUFactors, NumericalError, solve_checked


def test_residual_contract_on_well_conditioned_systems():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve_checked(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * (1 + np.max(np.abs(b)))


def test_consistent_singular_system_is_resolved_by_jitter():
    rng = np.random.default_rng(1)
    basis = rng.normal(size=(6, 3))
    a = basis @ basis.T  # rank 3, exactly singular
    b = a @ rng.normal(size=6)  # rhs in the range
    x = solve_checked(a, b)
    assert np.max(np.abs(a @ x - b)) <= 1e-6 * (1 + np.max(np.abs(b)))


def test_inconsistent_singular_system_fails_with_residual_and_jitter():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    b = np.array([1.0, 1.0, 1.0])  # unreachable: rows 2..3 are zero
    message = r"^probe: residual 1\.000e\+00 exceeds tolerance 2\.000e-06 after jitter 3\.333e-11$"
    with pytest.raises(NumericalError, match=message):
        solve_checked(a, b, context="probe")


def test_shape_validation():
    with pytest.raises(ValueError, match="square"):
        solve_checked(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="rhs"):
        solve_checked(np.eye(3), np.ones(4))
    with pytest.raises(ValueError, match="another matrix"):
        solve_checked(np.eye(3), np.ones(3), factors=LUFactors(np.eye(3)))


def test_exact_solution_of_integer_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = solve_checked(a, np.array([3.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


# ------------------------------------------------------------ kept factors


def _reuse_matches_numpy(sizes, seed):
    rng = np.random.default_rng(seed)
    for m in sizes:
        a = rng.normal(size=(m, m))
        factors = LUFactors(a)
        for k in range(3):  # dgesv on the first right-hand side, dgetrs after
            b = rng.normal(size=m)
            assert np.array_equal(factors.solve(b), np.linalg.solve(a, b)), (m, k)


# 100..134 is where a standalone dgetrf rounds differently from dgesv's own.
_BITWISE_SIZES = [20, *range(100, 135), 240, 241, 1201]


def test_reused_factors_equal_numpy_solve_bitwise_on_one_thread():
    with single_blas_thread():
        _reuse_matches_numpy(_BITWISE_SIZES, seed=5)


def test_reused_factors_equal_numpy_solve_bitwise_at_default_threads():
    _reuse_matches_numpy(_BITWISE_SIZES, seed=6)


@pytest.mark.parametrize("threads", BLAS_THREADS)
def test_recycled_lu_array_gives_fresh_factors_bitwise(threads):
    rng = np.random.default_rng(7)
    previous = None
    with at_blas_threads(threads):
        for m in (20, 20, 130, 130, 241, 240, 240):
            a = rng.normal(size=(m, m))
            kept = None if previous is None else previous._store
            factors = LUFactors(a, recycle=previous)
            for _ in range(2):
                b = rng.normal(size=m)
                assert np.array_equal(factors.solve(b), np.linalg.solve(a, b)), m
            if linalg._lapack() is not None:
                assert (factors._store is kept) == (kept is not None and kept.shape == a.shape)
            previous = factors


def test_later_right_hand_sides_do_not_factor_again(monkeypatch):
    if linalg._lapack() is None:
        pytest.skip("numpy's bundled OpenBLAS was not found; every solve falls back")
    rng = np.random.default_rng(2)
    a = rng.normal(size=(30, 30))
    factors = LUFactors(a)
    factors.solve(rng.normal(size=30))

    def refuse(*args):
        raise AssertionError("the kept factors were not used")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    gesv, getrs = linalg._lapack()
    monkeypatch.setattr(linalg, "_lapack", lambda: (refuse, getrs))
    solve_checked(a, rng.normal(size=30), factors=factors)


def test_fallback_without_lapack_solves_with_numpy(monkeypatch):
    monkeypatch.setattr(linalg, "_lapack", lambda: None)
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(12, 12)), rng.normal(size=12)
    assert np.array_equal(solve_checked(a, b, factors=LUFactors(a)), np.linalg.solve(a, b))


def test_kept_factors_give_uncached_bits_on_the_jitter_path():
    # Exactly singular but consistent: dgesv meets a zero pivot, the jittered
    # retry solves it.
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, np.ones(3))
    factors = LUFactors(a)
    for b in ([3.0, 4.0, 0.0], [1.0, -2.0, 0.0], [0.5, 0.25, 0.0]):
        b = np.array(b)
        cached = solve_checked(a, b, factors=factors)
        assert np.array_equal(cached, solve_checked(a, b))
        assert np.max(np.abs(a @ cached - b)) <= 1e-9
    assert factors.jittered is not None


def _singular_consistent(rng, n):
    """An n x n matrix whose last row and column are zero, and a rhs in its range.

    dgesv meets an exactly zero pivot, so solve_checked takes the jittered retry.
    """
    a = np.zeros((n, n))
    a[:-1, :-1] = rng.normal(size=(n - 1, n - 1)) + n * np.eye(n - 1)
    b = a @ rng.normal(size=n)
    return a, b


@pytest.mark.parametrize("threads", BLAS_THREADS)
def test_recycled_entries_retry_in_the_dropped_retry_arrays_bitwise(threads):
    rng = np.random.default_rng(9)
    previous = None
    with at_blas_threads(threads):
        # Two retries in a row, a system that needs none, a retry after it, a new size.
        for n, retries in ((30, True), (30, True), (30, True), (30, False), (30, True),
                           (31, True)):
            if retries:
                a, b = _singular_consistent(rng, n)
            else:
                a = rng.normal(size=(n, n)) + n * np.eye(n)
                b = rng.normal(size=n)
            factors = LUFactors(a, recycle=previous)
            for rhs in (b, 2.0 * b):
                assert np.array_equal(solve_checked(a, rhs, factors=factors),
                                      solve_checked(a, rhs))
            assert (factors.jittered is not None) == retries
            previous = factors


def test_recycled_retry_fails_with_the_same_message():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    b = np.array([1.0, 1.0, 1.0])
    dropped = LUFactors(a)
    with pytest.raises(NumericalError):
        solve_checked(a, b, factors=dropped)
    a2 = 2.0 * a
    with pytest.raises(NumericalError) as plain:
        solve_checked(a2, b, context="probe")
    with pytest.raises(NumericalError) as recycled:
        solve_checked(a2, b, context="probe", factors=LUFactors(a2, recycle=dropped))
    assert str(recycled.value) == str(plain.value)


def test_kept_factors_give_uncached_results_when_only_some_rhs_fail_first():
    # 1e10 / 1e-300 overflows, 1e-10 / 1e-300 does not: the second rhs alone
    # takes the jitter retry (and fails it); the others are solved at once.
    a = np.diag([1e-300, 1.0])
    factors = LUFactors(a)
    outcomes = []
    for b in ([1e-10, 1.0], [1e10, 1.0], [0.5, 2.0]):
        b = np.array(b)
        try:
            plain = solve_checked(a, b)
        except NumericalError as exc:
            with pytest.raises(NumericalError) as cached:
                solve_checked(a, b, factors=factors)
            assert str(cached.value) == str(exc)
            outcomes.append("failed")
            continue
        assert np.array_equal(solve_checked(a, b, factors=factors), plain)
        outcomes.append("solved")
    assert outcomes == ["solved", "failed", "solved"]
    assert factors.jittered is not None


def test_singular_matrix_raises_the_same_error_for_every_rhs():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    factors = LUFactors(a)
    for b in ([1.0, 1.0, 1.0], [0.0, 2.0, 5.0], [3.0, 0.0, 1.0]):
        b = np.array(b)
        with pytest.raises(NumericalError) as plain:
            solve_checked(a, b, context="probe")
        with pytest.raises(NumericalError) as cached:
            solve_checked(a, b, context="probe", factors=factors)
        assert str(cached.value) == str(plain.value)


def test_nan_matrix_fails_the_same_way_with_kept_factors():
    a = np.eye(4)
    a[1, 2] = np.nan
    factors = LUFactors(a)
    for b in (np.ones(4), np.arange(4.0)):
        with pytest.raises(NumericalError, match="non-finite") as plain:
            solve_checked(a, b)
        with pytest.raises(NumericalError) as cached:
            solve_checked(a, b, factors=factors)
        assert str(cached.value) == str(plain.value)
