"""Kernel evaluation and Gram-matrix construction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALID_KERNEL_KINDS = ("linear", "rbf")


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


def gram(rows_a: np.ndarray, rows_b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel matrix with entry (i, j) = K(rows_a[i], rows_b[j]).

    Entries are accumulated over an explicit pairwise broadcast, which makes
    ``gram(a, b).T`` bitwise equal to ``gram(b, a)`` and gives the rbf
    self-Gram an exact unit diagonal. Intended for desk-scale row counts;
    the intermediate is n_a * n_b * d.
    """
    a = np.atleast_2d(np.asarray(rows_a, dtype=float))
    b = np.atleast_2d(np.asarray(rows_b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"gram column counts differ: {a.shape[1]} vs {b.shape[1]}")
    if spec.kind == "linear":
        return np.sum(a[:, None, :] * b[None, :, :], axis=-1)
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return np.exp(-d2 / (2.0 * spec.mu**2))
