"""Shared test helpers: random well-posed training instances for cross-checks,
and a scalar kernel reference."""

import contextlib
import ctypes
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from twinpi.data import PIDataset
from twinpi.kernels import KernelSpec
from twinpi.model import Hyperparams, build_workspace
from twinpi.oracle import build_stacked_system

#: Condition cap for accepting a random instance into an agreement suite.
COND_CAP = 1e7


def multiplier_matrix(ws, c_reg, c_corr):
    s = ws.G @ ws.G.T
    h = ws.G_star @ ws.G_star.T
    return s + (c_reg / c_corr) * h + (1.0 / c_corr) * (s @ h)


def draw_instance(rng, kernel_kind):
    """One random (data, hyperparams) pair.

    ``kernel_kind`` is "rbf", "linear" (identity-kernel variant) or None for
    the linear feature-space variant. The rank-limited variants keep
    m <= min(d_r, d_p) + 1 so the equality constraint is feasible with
    margin; rbf instances are unrestricted in m.
    """
    if kernel_kind == "rbf":
        d_r, d_p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m = int(rng.integers(3, 13))
        kernel = KernelSpec("rbf", mu=float(2.0 ** rng.uniform(-1, 1)))
    else:
        d_r, d_p = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        m = int(rng.integers(3, min(d_r, d_p) + 2))
        kernel = KernelSpec("linear") if kernel_kind == "linear" else None
    cs = [float(v) for v in 2.0 ** rng.uniform(-4, 4, 6)]
    hp = Hyperparams(
        c1=cs[0], c2=cs[1], c3=cs[2], c4=cs[3], c5=cs[4], c6=cs[5],
        eps1=0.01, eps2=0.01, kernel=kernel,
    )
    data = PIDataset(
        rng.normal(size=(m, d_r)), rng.normal(size=(m, d_p)), rng.normal(size=m)
    )
    return data, hp


def well_posed(data, hp, cap=COND_CAP):
    """Screen out numerically degenerate draws on both solve paths."""
    ws = build_workspace(data, hp)
    if np.linalg.cond(multiplier_matrix(ws, hp.c1, hp.c2)) > cap:
        return False
    if np.linalg.cond(multiplier_matrix(ws, hp.c4, hp.c5)) > cap:
        return False
    for side in ("down", "up"):
        if np.linalg.cond(build_stacked_system(ws, data.targets, hp, side).matrix) > cap:
            return False
    return True


def draw_well_posed(rng, kernel_kind):
    while True:
        data, hp = draw_instance(rng, kernel_kind)
        if well_posed(data, hp):
            return data, hp


def rel_err(a, b):
    """Infinity-norm difference scaled by 1 + the reference magnitude."""
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


#: ln(DBL_MIN): an rbf exponent below it has a subnormal ``exp``.
_LN_DBL_MIN = math.log(sys.float_info.min)


def kernel_eval(x, z, spec):
    """Scalar reference for one ``gram`` entry: dot(x, z) or exp(-||x - z||^2 / (2 mu^2)).

    As in ``gram``, an rbf exponent below ln(DBL_MIN) gives +0.0, not a
    subnormal float.
    """
    x = np.asarray(x, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if spec.kind == "linear":
        return float(np.dot(x, z))
    exponent = -float(np.sum((x - z) ** 2)) / (2.0 * spec.mu**2)
    return 0.0 if exponent < _LN_DBL_MIN else float(np.exp(exponent))


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread.

    Multi-threaded OpenBLAS splits a matrix-vector product's rows between
    threads at points that depend on the row count, so products over
    different row ranges agree bit for bit only single-threaded, which is
    also how the benchmark's recorded outputs were produced. Without a
    bundled OpenBLAS the body runs at the library's own thread count.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    handles = [ctypes.CDLL(str(lib)) for lib in sorted(libs.glob("libscipy_openblas*"))]
    handles = [h for h in handles if hasattr(h, "scipy_openblas_set_num_threads64_")]
    if not handles:
        yield
        return
    lib = handles[0]
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


#: BLAS thread settings a bitwise test runs at: one thread, and the default.
BLAS_THREADS = ("one", "default")


def at_blas_threads(which):
    """:func:`single_blas_thread` for "one"; the library's own count for "default"."""
    return single_blas_thread() if which == "one" else contextlib.nullcontext()


#: Finite numeric CSV cells.
_CSV_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
#: Numeric CSV cells, finite or not.
_CSV_FLOATS = st.one_of(
    _CSV_NUMBERS, st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
)
#: Any CSV cell: numbers, non-finite spellings, non-numeric words and any text.
_CSV_CELLS = st.one_of(
    _CSV_FLOATS,
    st.sampled_from(["", " ", "x", "y", "1.2.3"]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=3),
)


@st.composite
def csv_files(draw):
    """Bytes of a CSV file, often malformed.

    Mostly rectangular rows under an optional header, with ragged rows,
    non-numeric and non-finite cells, blank lines, header-only and empty
    files among them; sometimes arbitrary bytes, not always UTF-8.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    n_cols = draw(st.integers(1, 4))
    cells = draw(st.sampled_from([_CSV_NUMBERS, _CSV_FLOATS, _CSV_CELLS]))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(st.sampled_from(["a", "b", "y", "x1"]),
                                            min_size=n_cols, max_size=n_cols))))
    for _ in range(draw(st.integers(0, 6))):
        width = n_cols if draw(st.integers(0, 5)) else draw(st.integers(1, 5))
        lines.append(",".join(draw(st.lists(cells, min_size=width, max_size=width))))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode("utf-8")


#: Kernels of a drawn fit step: rbf widths 2^-6 .. 2^6, the linear kernel,
#: or None for the linear variant.
_STEP_KERNELS = st.one_of(
    st.integers(-6, 6).map(lambda k: KernelSpec("rbf", mu=2.0**k)),
    st.just(KernelSpec("linear")),
    st.none(),
)


def _drawn_rows(draw):
    """Training rows drawn freely: 3-24 rows, 1-3 columns per channel, some rows repeated.

    Repeated rows make every multiplier matrix singular, so its solve needs
    the jitter retry.
    """
    m = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(m, draw(st.integers(1, 3))))
    x_star = rng.normal(size=(m, draw(st.integers(1, 3))))
    y = rng.normal(size=m)
    repeated = draw(st.integers(0, (m - 1) // 2)) if draw(st.booleans()) else 0
    for a in (x, x_star, y):
        a[1 + repeated:1 + 2 * repeated] = a[1:1 + repeated]
    return PIDataset(x, x_star, y)


def _drawn_candidate(draw, hp):
    """``hp`` with each c halved, kept or doubled, and tied or untied."""
    cs = {f"c{i}": getattr(hp, f"c{i}") * 2.0 ** draw(st.integers(-1, 1)) for i in range(1, 7)}
    if draw(st.booleans()):
        cs.update(c4=cs["c1"], c5=cs["c2"])
    return replace(hp, **cs)


@st.composite
def fit_chains(draw):
    """Steps of a workspace chain: (training rows, 1-4 candidates of one kernel) each.

    Most steps start from a :func:`draw_well_posed` instance, so many fits
    pass the KKT gate. The rest draw rows (:func:`_drawn_rows`), kernel and
    c1..c6 freely, and keep the previous step's rows under a new kernel now
    and then, as cross-validation does for each kernel width; most of those
    fits fail at a solve or at the gate.
    """
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 2)):
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            data, hp = draw_well_posed(rng, draw(st.sampled_from(["rbf", "linear", None])))
        else:
            if steps and draw(st.booleans()):
                data = steps[-1][0]
            else:
                data = _drawn_rows(draw)
            cs = {f"c{i}": 2.0 ** draw(st.integers(-4, 4)) for i in range(1, 7)}
            hp = Hyperparams(**cs, kernel=draw(_STEP_KERNELS))
        candidates = [_drawn_candidate(draw, hp) for _ in range(draw(st.integers(1, 4)))]
        steps.append((data, candidates))
    return steps
