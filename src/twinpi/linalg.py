"""Checked dense linear solves, with LU factors kept for reuse.

Every square system in this package goes through :func:`solve_checked`:
LU factorization with partial pivoting followed by an explicit
infinity-norm residual check. The training systems contain Gram-matrix
products and are generally nonsymmetric, so no symmetric or
positive-definite shortcut is taken anywhere.

Training solves the same matrix for several right-hand sides: both bound
sides share their multiplier matrix when their parameters are tied, and
both recovery matrices ``G^T G + c I`` depend only on the training rows and
``c``. An :class:`LUFactors` keeps one matrix's factors so each such matrix
is factored once. Its first solve runs LAPACK ``dgesv`` from the OpenBLAS
bundled with numpy, the routine ``np.linalg.solve`` itself runs, and keeps
the LU factors and pivots; later right-hand sides are solved from them with
``dgetrs``. ``dgesv`` is ``dgetrf`` followed by ``dgetrs`` (LAPACK Users'
Guide), so a reused solve returns the same bits as a fresh
``np.linalg.solve``. Where that library is not found, every solve falls
back to ``np.linalg.solve``.

The factors overwrite a Fortran-ordered copy of the matrix. An
:class:`LUFactors` built to replace one that is no longer used takes over
that copy's array (``recycle=``). Only the twin model's workspace does
that, because it factors one new system after another for every candidate
of a fold, so each LU is written into the array of the one before.
``np.copyto`` writes the same values ``np.array(matrix, order="F")`` would,
so the factors are unchanged. A jittered retry is rare (a few dozen per
grid search) and is built in new arrays.

:func:`flush_subnormals` sets or clears the flush-to-zero bit of the x86
SSE control register (MXCSR) on the calling thread for the length of a
``with`` block. With it set, a floating-point result below DBL_MIN becomes
a signed zero instead of a subnormal number, which x86 computes on a slow
microcode path; normal results and subnormal inputs are left as they are.
The twin fit runs under it (see :func:`twinpi.model.fit`). It reaches the
register through glibc libm's ``fegetenv``/``fesetenv`` on x86-64 Linux and
does nothing on any other platform: a fit there keeps IEEE subnormals and
runs slower where they arise.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

#: Accept a solution when ||A x - b||_inf <= RESIDUAL_TOL * (1 + ||b||_inf).
RESIDUAL_TOL = 1e-6

#: Scale of the single diagonal-jitter retry applied after a failed solve.
JITTER_SCALE = 1e-10

#: MXCSR's flush-to-zero bit (FTZ, bit 15). The denormals-are-zero bit
#: (DAZ, bit 6), which would read subnormal inputs such as data as zero, is
#: never set.
_FTZ = 0x8000

#: glibc's x86-64 ``fenv_t``: 32 bytes, the last four of which hold MXCSR.
_Fenv = ctypes.c_uint32 * 8
_MXCSR = 7


class NumericalError(RuntimeError):
    """A linear system could not be solved to the required residual."""


@functools.cache
def _fenv_access() -> tuple | None:
    """``(fegetenv, fesetenv)`` of glibc's libm on x86-64 Linux, or None elsewhere."""
    if sys.platform != "linux" or os.uname().machine != "x86_64":
        return None
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return None
        libm = ctypes.CDLL("libm.so.6")
        get, set_ = libm.fegetenv, libm.fesetenv
    except (AttributeError, OSError, ValueError):  # confstr None or unknown, no libm
        return None
    get.argtypes = set_.argtypes = [ctypes.POINTER(_Fenv)]
    get.restype = set_.restype = ctypes.c_int
    return get, set_


@contextlib.contextmanager
def flush_subnormals(on: bool = True) -> Iterator[None]:
    """Run the body with the calling thread's flush-to-zero bit set (``on``) or clear.

    Only that bit is changed, and its previous value is restored when the
    body ends or raises. MXCSR is per thread, so other threads, BLAS worker
    threads among them, keep their own setting. Without glibc on x86-64
    Linux this does nothing.
    """
    access = _fenv_access()
    if access is None:
        yield
        return
    get, set_ = access
    env = _Fenv()
    get(env)
    before = env[_MXCSR] & _FTZ
    env[_MXCSR] = (env[_MXCSR] & ~_FTZ) | (_FTZ if on else 0)
    set_(env)
    try:
        yield
    finally:
        get(env)  # the body may have changed other fields, such as exception flags
        env[_MXCSR] = (env[_MXCSR] & ~_FTZ) | before
        set_(env)


@functools.cache
def _lapack() -> tuple | None:
    """``(dgesv, dgetrs)`` of numpy's bundled 64-bit-integer OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            gesv, getrs = lib.scipy_dgesv_64_, lib.scipy_dgetrs_64_
        except (OSError, AttributeError):
            continue
        int_p, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
        # (n, nrhs, a, lda, ipiv, b, ldb, info)
        gesv.argtypes = [int_p, int_p, ptr, int_p, ptr, ptr, int_p, int_p]
        gesv.restype = None
        # (trans, n, nrhs, a, lda, ipiv, b, ldb, info, length of trans)
        getrs.argtypes = [ctypes.c_char_p, int_p, int_p, ptr, int_p, ptr, ptr, int_p, int_p,
                          ctypes.c_size_t]
        getrs.restype = None
        return gesv, getrs
    return None


class LUFactors:
    """One square matrix and, once it has been solved, its LU factors.

    ``solve`` returns what ``np.linalg.solve(matrix, b)`` returns, bit for
    bit, and raises ``np.linalg.LinAlgError`` where it raises (an exactly
    zero pivot); only the first call factors the matrix. ``jittered`` holds
    the factors of :func:`solve_checked`'s jittered retry once one ran.

    ``recycle``, a system of the same size that will not be solved again,
    hands over the array its factors were written into; this system's
    factors overwrite it.
    """

    def __init__(self, matrix: np.ndarray, recycle: LUFactors | None = None) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        self.jittered: LUFactors | None = None
        # (LU in Fortran order, pivots) after the first solve; False if it hit a zero pivot.
        self._lu: tuple[np.ndarray, np.ndarray] | bool | None = None
        # The Fortran-ordered array the first solve copies the matrix into and factors.
        self._store: np.ndarray | None = None
        if recycle is not None and recycle.matrix.shape == self.matrix.shape:
            self._store, recycle._store, recycle._lu = recycle._store, None, None

    def with_jitter(self, jitter: float) -> LUFactors:
        """``jittered``, the system ``matrix + jitter * I``, built on the first call."""
        if self.jittered is None:
            self.jittered = LUFactors(_plus_diagonal(self.matrix, jitter))
        return self.jittered

    def solve(self, b: np.ndarray) -> np.ndarray:
        lapack = _lapack()
        if lapack is None:
            return np.linalg.solve(self.matrix, b)
        if self._lu is False:
            raise np.linalg.LinAlgError("Singular matrix")
        gesv, getrs = lapack
        n = ctypes.c_int64(self.matrix.shape[0])
        lda, one, info = ctypes.c_int64(max(1, n.value)), ctypes.c_int64(1), ctypes.c_int64(0)
        x = np.array(b, dtype=float)
        if self._lu is None:
            if self._store is None:
                self._store = np.empty(self.matrix.shape, order="F")
            lu = self._store
            np.copyto(lu, self.matrix)
            piv = np.empty(n.value, dtype=np.int64)
            gesv(n, one, lu.ctypes.data, lda, piv.ctypes.data, x.ctypes.data, lda, info)
            self._lu = (lu, piv) if info.value == 0 else False
        else:
            lu, piv = self._lu
            getrs(b"N", n, one, lu.ctypes.data, lda, piv.ctypes.data, x.ctypes.data, lda, info, 1)
        if info.value < 0:
            raise ValueError(f"LAPACK rejected argument {-info.value}")
        if info.value > 0:
            raise np.linalg.LinAlgError("Singular matrix")
        return x


def _plus_diagonal(a: np.ndarray, c: float, out: np.ndarray | None = None) -> np.ndarray:
    """``a + c * I`` bit for bit (off the diagonal ``a + 0.0``), without the identity.

    ``out``, an array of ``a``'s shape, receives the result instead of a new one.
    """
    out = np.add(a, 0.0, out=out)
    out.flat[:: a.shape[0] + 1] += c
    return out


def _residual_inf(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a @ x - b)))


def solve_checked(
    a: np.ndarray,
    b: np.ndarray,
    context: str = "linear system",
    factors: LUFactors | None = None,
) -> np.ndarray:
    """Solve ``a @ x = b`` with a verified backward error.

    The first LU solve is accepted if its residual passes the check.
    Otherwise the solve is retried once on ``a + jitter * I`` with
    ``jitter = JITTER_SCALE * trace(a) / n``. The retry resolves systems
    that are rank-deficient but consistent (a degenerate training instance
    defines its multiplier only up to the common null space of the two
    design matrices; the jittered solve picks the minimum-norm
    representative). A second failure raises :class:`NumericalError`
    naming the jitter and, when a solution came out, its residual and the
    tolerance.

    ``factors``, an :class:`LUFactors` whose ``matrix`` is ``a`` itself,
    keeps the factors of ``a`` (and of its jittered retry) for the next
    right-hand side. The result and any error are the same with or
    without it.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{context}: matrix must be square, got shape {a.shape}")
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise ValueError(
            f"{context}: rhs of shape {b.shape} does not match matrix of size {a.shape[0]}"
        )
    if factors is None:
        factors = LUFactors(a)
    elif factors.matrix is not a:
        raise ValueError(f"{context}: the factors belong to another matrix")
    n = a.shape[0]
    tol = RESIDUAL_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))

    try:
        x = factors.solve(b)
        if np.all(np.isfinite(x)) and _residual_inf(a, x, b) <= tol:
            return x
    except np.linalg.LinAlgError:
        pass

    jitter = JITTER_SCALE * float(np.trace(a)) / n
    if not jitter > 0.0:
        jitter = JITTER_SCALE
    try:
        x = factors.with_jitter(jitter).solve(b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{context}: singular even after jitter {jitter:.3e}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{context}: non-finite solution after jitter {jitter:.3e}")
    res = _residual_inf(a, x, b)
    if res > tol:
        raise NumericalError(
            f"{context}: residual {res:.3e} exceeds tolerance {tol:.3e} after "
            f"jitter {jitter:.3e}"
        )
    return x
