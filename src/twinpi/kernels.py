"""Kernel evaluation and Gram-matrix construction."""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

VALID_KERNEL_KINDS = ("linear", "rbf")

#: Output entries ``gram`` fills per row block. It bounds the one temporary
#: (256 KB); timings were flat within 15% from 2**15 to 2**18 entries and
#: slower with larger blocks.
_BLOCK_ENTRIES = 2**15

#: ln(DBL_MIN), about -708.3964: the smallest rbf exponent whose ``exp`` is a
#: normal float. Below it ``gram`` gives +0.0.
_LN_DBL_MIN = math.log(sys.float_info.min)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: plain dot product, or a Gaussian with width ``mu``."""

    kind: str
    mu: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in VALID_KERNEL_KINDS:
            raise ValueError(
                f"unknown kernel kind {self.kind!r}; expected one of {VALID_KERNEL_KINDS}"
            )
        error = rbf_width_error(self.mu, "rbf width mu") if self.kind == "rbf" else None
        if error is not None:
            raise ValueError(error)


def rbf_width_error(mu: float, name: str) -> str | None:
    """Why ``mu``, called ``name`` in the message, cannot be an rbf width; None if it can.

    ``gram`` divides by ``2 mu**2``, so that must be a positive finite float:
    it overflows to inf or underflows to 0 (a NaN diagonal) for extreme widths.
    """
    if not (mu > 0 and math.isfinite(mu)):
        return f"{name} must be positive and finite, got {mu}"
    mu = float(mu)
    if not 0.0 < 2.0 * (mu * mu) < math.inf:  # mu * mu gives inf where mu**2 would raise
        return f"{name} = {mu} is out of range: 2 mu**2 must be a positive finite float"
    return None


def gram(
    rows_a: np.ndarray, rows_b: np.ndarray, spec: KernelSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise kernel matrix with entry (i, j) = K(rows_a[i], rows_b[j]).

    The output is allocated once and filled one block of ``rows_a`` at a
    time. Each block adds one feature column's term per step,
    ``(a_ik - b_jk)**2`` (rbf) or ``a_ik * b_jk`` (linear), so every entry is
    a left-to-right sum over columns: bitwise the sum started from zeros.
    A term is formed by copying the block's column ``a_k`` across the row,
    then subtracting (or multiplying by) the row-broadcast ``b_k`` in place.
    Each entry gets the same IEEE operation on the same two operands as
    ``a_k - b_k`` broadcast in one call, so the bits are the same; the two
    calls are faster because numpy broadcasts a (rows, 1) operand against a
    row slowly, about 1 us per row.
    An rbf block starts from its first column's term, which equals
    ``0.0 + term`` because every rbf term is >= 0; a linear block starts
    from zeros, because a linear term may be -0.0 and ``0.0 + -0.0`` is
    +0.0. A block with no feature columns is zero-filled. The column-order
    sum makes ``gram(a, b).T`` bitwise equal to ``gram(b, a)`` and gives
    the rbf self-Gram an exact unit diagonal. An rbf block is then scaled
    by ``-1 / (2 mu^2)`` and exponentiated in place. Where that overflows,
    for a width near the smallest ``KernelSpec`` accepts, the entry is
    ``exp(-inf) = 0``, the kernel's limit, and no warning is raised.

    No entry is subnormal: where the scaled exponent is below
    ``ln(DBL_MIN)`` (about -708.3964) the entry is +0.0 and ``exp`` is not
    called; every other entry is ``exp`` of its exponent, bit for bit.
    Narrow widths put many exponents of normalized rows between -745 and
    -708. On an x86 host a subnormal ``exp`` result cost about fifty times
    a normal one, and each product that reads a subnormal entry runs on
    the processor's slow path: at m = 240 (f2 rows, one BLAS thread) the
    four workspace products took 21 ms at ``mu = 2**-6`` with subnormal
    entries and 7 ms without, against 1.8 ms at ``2**-4``. Twin outputs
    keep their bits: every entry of S, H and G'G also gets the ones
    column's +1, and every twin prediction adds the bias, so a subnormal
    term is below half an ulp of any sum it enters. Kernel ridge has no
    bias: at ``mu = 2**-8`` its prediction for a row whose every kernel
    value was subnormal is now 0.0 instead of a value below 1e-300. The
    check is decided per row block from the block's own exponents: a block
    whose least exponent is at or above ``ln(DBL_MIN)``, as every block of
    normalized rows at ``mu = 0.0625`` and d = 3 (exponents above -384),
    calls ``exp`` on every entry; any other block, also one holding a NaN
    exponent, masks its normal entries, and a NaN exponent gives +0.0.

    ``out``, an n_a x n_b float64 array, receives the result instead of a
    new one. It may be a strided view, such as the first m columns of a
    design G = [Phi | 1]. Such a view is not summed in place: numpy runs
    elementwise loops over a strided 2-D block about 1.6 times slower than
    over a contiguous one, so each row block is summed in a contiguous
    buffer and then copied into ``out``. Every step is elementwise, and
    elementwise operations round each entry the same whatever the layout,
    so the values are bitwise those of a fresh output.

    Memory: the n_a x n_b float64 output (none with ``out``), a copy of
    ``rows_b``'s columns and one block of ``_BLOCK_ENTRIES`` entries (or one
    row of n_b): the term scratch, or with a strided ``out`` the scratch and
    the buffer at half a block each (or one row each). That holds whatever
    the feature count d; no n_a x n_b x d array is formed. A masked rbf
    block's boolean mask costs one eighth of the block while it lives.
    """
    a = np.atleast_2d(np.asarray(rows_a, dtype=float))
    b = np.atleast_2d(np.asarray(rows_b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"gram column counts differ: {a.shape[1]} vs {b.shape[1]}")
    n_a, n_b = a.shape[0], b.shape[0]
    if out is None:
        out = np.empty((n_a, n_b))
    elif out.shape != (n_a, n_b) or out.dtype != np.float64:
        raise ValueError(
            f"gram output must be float64 of shape {(n_a, n_b)}, got {out.dtype} {out.shape}"
        )
    b_cols = np.ascontiguousarray(b.T)
    step = max(1, _BLOCK_ENTRIES // max(n_b, 1))
    # A strided output is summed in a contiguous buffer and copied over, with
    # half the row step, so buffer and scratch fill one block between them.
    contiguous = out.flags.c_contiguous
    if not contiguous:
        step = max(1, step // 2)
    scratch = np.empty((min(step, n_a), n_b))
    buffer = None if contiguous else np.empty_like(scratch)
    zero_start = spec.kind == "linear" or not len(b_cols)
    rbf_limit = np.errstate(over="ignore") if spec.kind == "rbf" else contextlib.nullcontext()
    with rbf_limit:
        for start in range(0, n_a, step):
            rows = out[start:start + step]
            acc = rows if buffer is None else buffer[: rows.shape[0]]
            if zero_start:
                acc.fill(0.0)
            for k, b_k in enumerate(b_cols):
                into_acc = k == 0 and not zero_start
                term = acc if into_acc else scratch[: acc.shape[0]]
                np.copyto(term, a[start:start + step, k:k + 1])
                if spec.kind == "linear":
                    np.multiply(term, b_k, out=term)
                else:
                    np.subtract(term, b_k, out=term)
                    np.square(term, out=term)
                if not into_acc:
                    acc += term
            if spec.kind == "rbf":
                acc /= -(2.0 * spec.mu**2)
                # Written so that a NaN exponent takes the masked path too.
                if not acc.min(initial=0.0) >= _LN_DBL_MIN:
                    normal = acc >= _LN_DBL_MIN
                    np.exp(acc, out=acc, where=normal)
                    np.copyto(acc, 0.0, where=np.logical_not(normal, out=normal))
                else:
                    np.exp(acc, out=acc)
            if buffer is not None:
                np.copyto(rows, acc)
    return out
