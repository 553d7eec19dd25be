import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from support import BLAS_THREADS, at_blas_threads
from twinpi import kernels
from twinpi.kernels import KernelSpec, gram, kernel_eval


def broadcast_gram(a, b, spec):
    """Reference: the pairwise n_a x n_b x d broadcast, reduced over d."""
    if spec.kind == "linear":
        return np.sum(a[:, None, :] * b[None, :, :], axis=-1)
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return np.exp(-d2 / (2.0 * spec.mu**2))


def sequential_gram(a, b, spec):
    """Reference: each entry a zero-started left-to-right sum over feature columns."""
    acc = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        if spec.kind == "linear":
            acc += np.multiply(a[:, k:k + 1], b[:, k])
        else:
            acc += np.square(np.subtract(a[:, k:k + 1], b[:, k]))
    if spec.kind == "rbf":
        acc /= -(2.0 * spec.mu**2)
        np.exp(acc, out=acc)
    return acc


def bitwise_equal(x, y):
    """Equal bit for bit, so -0.0 differs from +0.0."""
    return x.shape == y.shape and np.ascontiguousarray(x).tobytes() == y.tobytes()


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown kernel kind"):
        KernelSpec("poly")
    with pytest.raises(ValueError, match="mu must be positive"):
        KernelSpec("rbf", mu=0.0)
    with pytest.raises(ValueError, match="mu must be positive and finite"):
        KernelSpec("rbf", mu=math.inf)
    KernelSpec("linear", mu=-5.0)  # mu irrelevant for the linear kind


def test_spec_rejects_widths_whose_scale_is_not_a_positive_finite_float():
    # 1e300**2 raises OverflowError; 2 * 1e-200**2 is 0.0, a NaN diagonal
    for mu in (1e300, 2.0**512, 1e-200, 2.0**-538):
        with pytest.raises(ValueError, match=r"is out of range: 2 mu\*\*2 must be a positive"):
            KernelSpec("rbf", mu=mu)
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(9, 2))
    # the widest: entries round to one, the narrowest: the scaled exponent
    # overflows to -inf off the diagonal, silently, and exp gives 0
    assert np.array_equal(gram(rows, rows, KernelSpec("rbf", mu=2.0**511)), np.ones((9, 9)))
    assert np.array_equal(gram(rows, rows, KernelSpec("rbf", mu=2.0**-537)), np.eye(9))
    assert kernel_eval(rows[0], rows[1], KernelSpec("rbf", mu=2.0**-537)) == 0.0


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
    np.testing.assert_array_equal(k, k.T)
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


@pytest.mark.parametrize("d", range(1, 8))
def test_gram_equals_broadcast_bitwise_for_short_rows(d, monkeypatch):
    # 4 rows per block against 77 columns: 84 blocks, the last one ragged
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 4 * 77)
    rng = np.random.default_rng(10 + d)
    a, b = rng.normal(size=(333, d)), rng.normal(size=(77, d))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", mu=0.9)):
        assert np.array_equal(gram(a, b, spec), broadcast_gram(a, b, spec))


@pytest.mark.parametrize("d", [8, 12])
def test_gram_matches_broadcast_to_rounding_for_long_rows(d, monkeypatch):
    # numpy sums an axis of 8 or more pairwise, so only rounding may differ
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 4 * 77)
    rng = np.random.default_rng(20 + d)
    a, b = rng.normal(size=(333, d)), rng.normal(size=(77, d))
    linear = KernelSpec("linear")
    scale = np.abs(a) @ np.abs(b).T  # bounds the rounding of a cancelling sum
    assert np.all(np.abs(gram(a, b, linear) - broadcast_gram(a, b, linear)) <= 1e-14 * scale)
    rbf = KernelSpec("rbf", mu=math.sqrt(d))  # exponents of order one
    np.testing.assert_allclose(gram(a, b, rbf), broadcast_gram(a, b, rbf), rtol=1e-14, atol=0)
    for spec in (linear, rbf):
        np.testing.assert_array_equal(gram(a, b, spec).T, gram(b, a, spec))
    np.testing.assert_array_equal(np.diag(gram(a, a, rbf)), np.ones(333))


@pytest.mark.parametrize("d", range(13))
def test_gram_equals_the_zero_started_sum_bitwise(d, monkeypatch):
    # 4 rows per block against 77 columns, the last block ragged; zeros in
    # the rows give -0.0 linear terms and +0.0 rbf terms
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 4 * 77)
    rng = np.random.default_rng(40 + d)
    a, b = rng.normal(size=(333, d)), rng.normal(size=(77, d))
    a[::5, : d // 2] = 0.0
    b[::3, d // 2:] = -0.0
    for spec in (KernelSpec("linear"), KernelSpec("rbf", mu=0.9)):
        assert bitwise_equal(gram(a, b, spec), sequential_gram(a, b, spec))


@pytest.mark.parametrize("d", [1, 2])
def test_linear_gram_keeps_positive_zero_when_every_product_is_negative_zero(d):
    # 0.0 * -x is -0.0, and the zero-started sum turns it into +0.0
    zeros = np.zeros((3, d))
    negative = -np.arange(1.0, 5.0 * d + 1.0).reshape(5, d)
    linear = KernelSpec("linear")
    for a, b in ((zeros, negative), (negative, zeros)):
        k = gram(a, b, linear)
        assert not np.signbit(k).any()
        assert bitwise_equal(k, sequential_gram(a, b, linear))


#: Feature values, often signed zeros: a linear term 0.0 * -x is -0.0, so
#: an entry whose every term is -0.0 shows whether its sum started from zeros.
_FEATURE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(-100.0, 100.0, allow_subnormal=False)
)


@st.composite
def _gram_inputs(draw):
    d = draw(st.integers(0, 6))
    a, b = (
        draw(hnp.arrays(float, (n, d), elements=_FEATURE_VALUES))
        for n in (draw(st.integers(0, 70)), draw(st.integers(0, 70)))
    )
    kind = draw(st.sampled_from(["linear", "rbf"]))
    return a, b, KernelSpec(kind, mu=draw(st.floats(0.1, 10.0)))


@given(
    inputs=_gram_inputs(),
    block_entries=st.sampled_from([1, 7, 64, 4 * 77, 2**15]),
    into_design=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_gram_equals_the_zero_started_sum_bitwise_for_any_blocking(
    inputs, block_entries, into_design
):
    # any block size, a ragged last block, empty rows or columns, and a fresh
    # output or a design's first-m-columns view all give the same bits
    a, b, spec = inputs
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", block_entries):
        if into_design:
            design = np.full((len(a), len(b) + 1), np.nan)
            got = gram(a, b, spec, out=design[:, :len(b)])
            assert np.isnan(design[:, len(b)]).all()
        else:
            got = gram(a, b, spec)
    assert bitwise_equal(got, sequential_gram(a, b, spec))


def test_gram_without_feature_columns():
    a, b = np.empty((4, 0)), np.empty((3, 0))
    np.testing.assert_array_equal(gram(a, b, KernelSpec("rbf", mu=0.5)), np.ones((4, 3)))
    np.testing.assert_array_equal(gram(a, b, KernelSpec("linear")), np.zeros((4, 3)))


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize("m", [1, 7, 130, 241])
def test_gram_into_a_design_view_equals_a_fresh_gram_bitwise(threads, kind, m):
    rng = np.random.default_rng(m)
    rows = rng.normal(size=(m, 3))
    spec = KernelSpec(kind, mu=0.6)
    with at_blas_threads(threads):
        g = np.full((m, m + 1), np.nan)
        got = gram(rows, rows, spec, out=g[:, :m])
        assert np.shares_memory(got, g)
        assert np.array_equal(g[:, :m], gram(rows, rows, spec))
        assert bitwise_equal(g[:, :m], sequential_gram(rows, rows, spec))
        assert np.isnan(g[:, m]).all()
        cross = np.empty((2 * m, m))
        gram(np.vstack([rows, rows * 0.5]), rows, spec, out=cross)
        assert np.array_equal(cross, gram(np.vstack([rows, rows * 0.5]), rows, spec))


def test_gram_rejects_an_output_of_the_wrong_shape_or_type():
    rows = np.ones((3, 2))
    for out in (np.empty((3, 4)), np.empty((3, 3), dtype=np.float32)):
        with pytest.raises(ValueError, match="gram output must be float64 of shape"):
            gram(rows, rows, KernelSpec("rbf"), out=out)


def test_gram_peak_memory_is_about_the_output():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(4000, 3)), rng.normal(size=(500, 3))
    tracemalloc.start()
    try:
        k = gram(a, b, KernelSpec("rbf", mu=0.7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * k.nbytes


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
