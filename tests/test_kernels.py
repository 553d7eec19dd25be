import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from support import BLAS_THREADS, at_blas_threads, kernel_eval
from twinpi import kernels
from twinpi.kernels import KernelSpec, gram

DBL_MIN = sys.float_info.min


def without_subnormals(k):
    """``k`` with every entry below DBL_MIN, as plain ``np.exp`` gives it, set to +0.0."""
    k[k < DBL_MIN] = 0.0
    return k


def broadcast_gram(a, b, spec):
    """Reference: the pairwise n_a x n_b x d broadcast, reduced over d."""
    if spec.kind == "linear":
        return np.sum(a[:, None, :] * b[None, :, :], axis=-1)
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return without_subnormals(np.exp(-d2 / (2.0 * spec.mu**2)))


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
        without_subnormals(acc)
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


def test_rbf_at_zero_distance_is_exactly_one():
    x = np.array([[0.3, -1.2, 7.0]])
    for mu in (0.1, 1.0, 42.0):
        assert gram(x, x, KernelSpec("rbf", mu=mu))[0, 0] == 1.0


def _rows_at_squared_distance(d2):
    """Rows 0 and (x, y) whose squared distance, summed as ``gram`` sums it, is d2."""
    for k in range(8):
        y = k * 2.0**-26  # y * y is exact
        x = math.sqrt(d2 - y * y)
        for x in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)):
            if x * x + y * y == d2:
                return np.zeros((1, 2)), np.array([[x, y]])
    raise AssertionError(f"no two-column rows at squared distance {d2!r}")


@pytest.mark.parametrize("below", [False, True])
def test_an_rbf_exponent_below_ln_dbl_min_gives_zero(below):
    # at mu = 2**-5 the exponent is exactly -512 d2; ln(DBL_MIN) itself gives
    # a normal entry, the next float below it +0.0 where exp is subnormal.
    # A far row puts the entry in a block that is masked either way; alone,
    # a normal entry's block calls plain exp.
    exponent = math.log(DBL_MIN)
    if below:
        exponent = math.nextafter(exponent, -math.inf)
        assert 0.0 < math.exp(exponent) < DBL_MIN
    a, b = _rows_at_squared_distance(exponent / -512.0)
    spec = KernelSpec("rbf", mu=2.0**-5)
    want = 0.0 if below else float(np.exp(exponent))
    assert below or want >= DBL_MIN
    with_far = np.vstack([b, [[3.0, 3.0]]])
    values = [gram(a, rows, spec)[0, 0] for rows in (b, with_far)]
    values += [gram(rows, a, spec)[0, 0] for rows in (b, with_far)]
    for value in values:
        assert value == want and not math.copysign(1.0, value) < 0


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_each_row_block_masks_only_if_its_own_exponents_need_it(strided, monkeypatch):
    # at mu = 2**-5 the exponent is -512 d2: near rows stay above ln(DBL_MIN)
    # (-708.4), far rows go below it, and the row at x = 1.2 does both: -737
    # against the first column, where plain exp would be subnormal
    spec = KernelSpec("rbf", mu=2.0**-5)
    b = np.array([[0.0, 0.0], [0.1, 0.2], [0.3, 0.1]])
    a = np.array([[0.1, 0.1], [0.2, 0.3], [1.2, 0.0], [0.0, 0.4], [1.5, 0.5],
                  [2.0, 1.0], [0.3, 0.3], [0.4, 0.2]])
    exponents = -np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1) / (2.0 * spec.mu**2)
    # two rows per block, one with a strided out (half the step)
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 2 * len(b))
    rows_per_block = 1 if strided else 2
    block_least = [exponents[i:i + rows_per_block].min() for i in range(0, len(a), rows_per_block)]
    assert min(block_least) < kernels._LN_DBL_MIN <= max(block_least)
    want = np.array([[kernel_eval(x, z, spec) for z in b] for x in a])
    assert ((exponents < kernels._LN_DBL_MIN) & (np.exp(exponents) > 0.0)).any()

    def gram_of(rows):
        if not strided:
            return gram(rows, b, spec)
        design = np.full((len(rows), len(b) + 1), np.nan)
        gram(rows, b, spec, out=design[:, :len(b)])
        assert np.isnan(design[:, len(b)]).all()
        return design[:, :len(b)]

    assert bitwise_equal(gram_of(a), want)
    # a NaN exponent gives +0.0 and leaves the block's other rows as they were
    with_nan = np.vstack([a[:1], [[np.nan, 0.2]]])
    got = gram_of(with_nan)
    assert bitwise_equal(got[1], np.zeros(len(b))) and bitwise_equal(got[0], want[0])


def test_rbf_hand_value():
    # squared distance 2 at width 1 gives exp(-1)
    x, z = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    value = gram(x, z, KernelSpec("rbf", mu=1.0))[0, 0]
    assert value == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_linear_dot_product():
    assert gram([[1.0, 2.0]], [[3.0, 4.0]], KernelSpec("linear"))[0, 0] == 11.0


def test_length_mismatch():
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
    assert spec.kind == "linear" or not ((0.0 < got) & (got < DBL_MIN)).any()


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


@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_gram_into_a_design_view_peaks_within_one_block(kind):
    # a strided m x (m+1) view is summed in a buffer: buffer and term scratch
    # share one _BLOCK_ENTRIES block. Besides them gram copies b's columns
    # once, and numpy's ufunc buffer serves the broadcast feature column.
    m = 1000
    rows = np.random.default_rng(9).normal(size=(m, 3))
    design = np.empty((m, m + 1))
    tracemalloc.start()
    try:
        gram(rows, rows, KernelSpec(kind, mu=0.5), out=design[:, :m])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= kernels._BLOCK_ENTRIES * 8 + rows.nbytes + np.getbufsize() * 8 + 4096


@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    mu=st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=50, deadline=None)
def test_rbf_monotone_decreasing_in_distance(scale, mu):
    # keep the exponent away from exp() underflow so strictness is observable
    assume(2.0 * scale**2 / mu**2 < 300.0)
    spec = KernelSpec("rbf", mu=mu)
    x = np.zeros((1, 3))
    near_far = np.array([[scale, 0.0, 0.0], [2.0 * scale, 0.0, 0.0]])
    near, far = gram(x, near_far, spec)[0]
    assert far < near
