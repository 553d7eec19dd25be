"""Kernel evaluation and Gram-matrix construction."""

from __future__ import annotations

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
        if self.kind == "rbf" and not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"rbf width mu must be positive and finite, got {self.mu}")


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
    An rbf block starts from its first column's term, which equals
    ``0.0 + term`` because every rbf term is >= 0; a linear block starts
    from zeros, because a linear term may be -0.0 and ``0.0 + -0.0`` is
    +0.0. A block with no feature columns is zero-filled. The column-order
    sum makes ``gram(a, b).T`` bitwise equal to ``gram(b, a)`` and gives
    the rbf self-Gram an exact unit diagonal. An rbf block is then scaled
    by ``-1 / (2 mu^2)`` and exponentiated in place.

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
    for start in range(0, n_a, step):
        acc = out[start:start + step]
        if zero_start:
            acc.fill(0.0)
        for k, b_k in enumerate(b_cols):
            a_k = a[start:start + step, k:k + 1]
            into_acc = k == 0 and not zero_start
            term = acc if into_acc else scratch[: acc.shape[0]]
            if spec.kind == "linear":
                np.multiply(a_k, b_k, out=term)
            else:
                np.subtract(a_k, b_k, out=term)
                np.square(term, out=term)
            if not into_acc:
                acc += term
        if spec.kind == "rbf":
            acc /= -(2.0 * spec.mu**2)
            np.exp(acc, out=acc)
    return out
