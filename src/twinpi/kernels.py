"""Kernel evaluation and Gram-matrix construction."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

VALID_KERNEL_KINDS = ("linear", "rbf")

#: Output entries ``gram`` fills per row block. It bounds the one temporary
#: (256 KB); timings were flat within 15% from 2**15 to 2**18 entries and
#: slower with larger blocks.
_BLOCK_ENTRIES = 2**15


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


def kernel_eval(x: np.ndarray, z: np.ndarray, spec: KernelSpec) -> float:
    """Evaluate K(x, z): dot(x, z) or exp(-||x - z||^2 / (2 mu^2))."""
    x = np.asarray(x, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if x.shape != z.shape:
        raise ValueError(f"kernel arguments differ in length: {x.shape[0]} vs {z.shape[0]}")
    if spec.kind == "linear":
        return float(np.dot(x, z))
    d2 = float(np.sum((x - z) ** 2))
    return float(np.exp(-d2 / (2.0 * spec.mu**2)))


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

    ``out``, an n_a x n_b float64 array, receives the result instead of a
    new one. It may be a strided view, such as the first m columns of a
    design G = [Phi | 1]. Every step is elementwise, and elementwise
    operations round each entry the same whatever the layout, so the values
    are bitwise those of a fresh output.

    Memory: the n_a x n_b float64 output (none with ``out``) plus one
    temporary of at most ``_BLOCK_ENTRIES`` entries (or one row of n_b),
    whatever the feature count d; no n_a x n_b x d array is formed.
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
    scratch = np.empty((min(step, n_a), n_b))
    zero_start = spec.kind == "linear" or not len(b_cols)
    rbf_limit = np.errstate(over="ignore") if spec.kind == "rbf" else contextlib.nullcontext()
    with rbf_limit:
        for start in range(0, n_a, step):
            acc = out[start:start + step]
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
                np.exp(acc, out=acc)
    return out
