import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twinpi.kernels import KernelSpec, gram, kernel_eval


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown kernel kind"):
        KernelSpec("poly")
    with pytest.raises(ValueError, match="mu must be positive"):
        KernelSpec("rbf", mu=0.0)
    with pytest.raises(ValueError, match="mu must be positive and finite"):
        KernelSpec("rbf", mu=math.inf)
    KernelSpec("linear", mu=-5.0)  # mu irrelevant for the linear kind


def test_rbf_at_zero_distance_is_exactly_one():
    x = np.array([0.3, -1.2, 7.0])
    for mu in (0.1, 1.0, 42.0):
        assert kernel_eval(x, x, KernelSpec("rbf", mu=mu)) == 1.0


def test_rbf_hand_value():
    # squared distance 2 at width 1 gives exp(-1)
    x, z = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    value = kernel_eval(x, z, KernelSpec("rbf", mu=1.0))
    assert value == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_linear_dot_product():
    assert kernel_eval([1.0, 2.0], [3.0, 4.0], KernelSpec("linear")) == 11.0


def test_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        kernel_eval([1.0], [1.0, 2.0], KernelSpec("linear"))
    with pytest.raises(ValueError, match="column counts"):
        gram(np.ones((2, 2)), np.ones((2, 3)), KernelSpec("rbf"))


def test_rbf_self_gram_diagonal_and_symmetry():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(3, 4))
    k = gram(rows, rows, KernelSpec("rbf", mu=0.8))
    assert k.shape == (3, 3)
    np.testing.assert_array_equal(np.diag(k), np.ones(3))
    assert np.max(np.abs(k - k.T)) <= 1e-12
    assert np.all(k > 0) and np.all(k <= 1)


def test_linear_self_gram_matches_matmul():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(5, 3))
    np.testing.assert_allclose(
        gram(rows, rows, KernelSpec("linear")), rows @ rows.T, rtol=1e-13, atol=1e-13
    )


def test_gram_entries_match_kernel_eval():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", mu=0.5)):
        k = gram(a, b, spec)
        for i in range(4):
            for j in range(6):
                assert k[i, j] == pytest.approx(kernel_eval(a[i], b[j], spec), abs=1e-12)


def test_rbf_gram_positive_semidefinite():
    # eigen-decomposition oracle on random rows
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(5, 2))
    k = gram(rows, rows, KernelSpec("rbf", mu=1.3))
    eigenvalues = np.linalg.eigvalsh((k + k.T) / 2)
    assert eigenvalues.min() >= -1e-10


def test_gram_transpose_exactness():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(7, 4)), rng.normal(size=(5, 4))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", mu=0.7)):
        np.testing.assert_array_equal(gram(a, b, spec).T, gram(b, a, spec))


@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    mu=st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=50, deadline=None)
def test_rbf_monotone_decreasing_in_distance(scale, mu):
    # keep the exponent away from exp() underflow so strictness is observable
    assume(2.0 * scale**2 / mu**2 < 300.0)
    spec = KernelSpec("rbf", mu=mu)
    x = np.zeros(3)
    near = np.array([scale, 0.0, 0.0])
    far = np.array([2.0 * scale, 0.0, 0.0])
    assert kernel_eval(x, far, spec) < kernel_eval(x, near, spec)
