"""Shared test helpers: random well-posed training instances for cross-checks."""

import contextlib
import ctypes
from pathlib import Path

import numpy as np

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
