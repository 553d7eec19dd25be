"""Twin least-squares regression trained with a privileged feature channel.

Training solves two coupled equality-constrained least-squares problems, one
per epsilon-insensitive bound regressor. Each couples a regressor over the
regular features with a correcting function over the privileged features
through an equality constraint; for the down-bound side:

    minimize  c1/2 ||v1||^2 + c2/2 ||v1*||^2
              + 1/2 ||y - G v1||^2 + c3 <1, G* v1*>
    subject   y - G v1 + eps1 * 1 + G* v1* = 0

where G = [Phi | 1] and G* = [Phi* | 1] are the augmented designs of the
regular and privileged channels (raw features in linear mode, self-Gram
columns in kernel mode). Eliminating the stationarity conditions reduces
training to one dense m x m solve for the constraint multiplier,

    [S + (c1/c2) H + (1/c2) S H] alpha
        = c1 y + c1 eps1 1 - (c1 c3/c2) H 1 + eps1 S 1 - (c3/c2) S H 1,

with S = G G^T and H = G* G*^T, followed by two small recovery solves.
The up-bound side mirrors this with (c4, c5, c6, eps2) and y negated in the
right-hand side. The prediction is the average of the two bound regressors
and never reads privileged features.

The products S, H, S H, S 1, H 1, S H 1 and G^T G depend only on the
training rows and the kernel, so a :class:`FitWorkspace` computes each once,
on first use, and reuses it for both sides of a fit and for every candidate
(c1..c6, eps) fitted on the same rows and kernel width.

The workspace also keeps the LU factors of the last multiplier matrix,
keyed by (c_reg, c_corr), and of the last recovery matrix G^T G + c I, keyed
by c (see :class:`~twinpi.linalg.LUFactors`). With tied parameters
(c4, c5) = (c1, c2) the up-bound side solves the down-bound side's matrix, so
it neither assembles nor factors it again; both recovery solves share one
factorization when c4 = c1; and consecutive candidates with equal c1 (the
grid is in lexicographic order) share the recovery factors. A reused solve
returns the bits a fresh one would, so every fit is unchanged by the reuse.

The arrays themselves outlive a workspace. ``build_workspace`` writes the
Gram matrices straight into G and G*, and ``build_workspace(..., reuse=old)``
(which cross-validation calls for each new kernel width, and each new fold
of the same row count) refills ``old``'s G and G* in place and writes S, H,
S H and G^T G into ``old``'s arrays with ``np.matmul(..., out=)``. A
factor-cache miss assembles the new matrix in the dropped system's array and
factors it in that system's LU array. Each entry comes from the same
floating-point operations as in a new array (elementwise operations round
the same in any layout, and a product into ``out=`` makes the same BLAS
call), so the reuse changes memory traffic, never a bit. A warm fold fit
allocates no m x m array but the KKT gate's own temporaries and, rarely, a
jitter retry's matrix and LU array.

This workspace chain is the only place that recycles arrays, because it is
where they pay: it holds up to seven m x m arrays and a grid search fits
several candidates on each. The kernel ridge comparator
(:func:`fit_krr_comparator`) may share one Gram across ridge candidates, but
builds each ``K + ridge I`` in a new array.

Each owner of a workspace has one schedule. A fit on a shared workspace
keeps every product and factor entry for the fits after it. A fit that
builds its own workspace runs in steps and holds each design only while a
step reads it, and builds each system in the array of a product it
replaces: H is formed and G* dropped, S is formed and G dropped; with
untied parameters alpha is solved first on a multiplier matrix of its own,
which is dropped; the (c4, c5) multiplier matrix is summed in S H's array
(after Se, He and SHe are kept) and S and H are dropped before its LU;
alpha (when tied) and beta are solved and the multiplier system dropped; G
is rebuilt and G^T G + c1 I built in G^T G's array for v1 and, when
c4 = c1, v2; G* is rebuilt for v1*, v2* and the gate. A rebuilt design
repeats the same floating-point operations, so it holds the same bits. At
most three m x m arrays are then live at once with tied parameters and
five untied (a jitter retry adds its own two).

Kernel-mode evaluation (``predict``, ``bound_functions``,
``correcting_values`` and ``KRRModel.predict``) forms the cross-Gram between
the inputs and the training rows one block of rows at a time and keeps only
each block's products with the weight vectors, so no n x m array exists.
The prediction reads the regular channel only, so on a cross-validation
fold that cross-Gram depends on the fold and the kernel width, not on the
candidate: ``cross_gram`` forms it once, and ``predict(..., k=)`` and
``KRRModel.predict(..., k=)`` read each row block as a slice of it. A
gram entry does not depend on the rows formed with it, and each slice is
multiplied in the same blocks, so the predictions keep every bit.

A fit runs with subnormal results flushed to zero on its thread
(:func:`~twinpi.linalg.flush_subnormals`): at narrow kernel widths, tiny but
normal Gram entries make subnormal partial results throughout the products,
solves and recoveries, and x86 computes those on a slow path. The flush
changes no normal result, and every recorded output keeps its bits. The
Gram builds, the correcting weights v1*, v2* and the KKT gate inside a fit,
and everything outside ``fit`` (``predict``, the kernel ridge comparator,
``kkt_residuals`` and the stacked oracle) keep IEEE subnormals.

A fit is accepted only when its six optimality residuals pass the KKT gate.
The gate is checked side by side: the down-bound side is solved, recovered
and checked first, and a down-side rejection raises before any up-bound
error. On a shared workspace it raises before the up-bound side factors or
recovers anything; a fit on its own workspace has solved beta and v2 by
then, and holds their errors until the down-side gate has passed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, NormStats, PIDataset, _checked_array, write_text_atomically
from .kernels import _BLOCK_ENTRIES, KernelSpec, gram
from .linalg import LUFactors, NumericalError, _plus_diagonal, flush_subnormals, solve_checked

#: A fit is accepted only if all six optimality residuals are at most
#: KKT_TOL_SCALE * (1 + ||y||_inf).
KKT_TOL_SCALE = 1e-8


def kkt_tolerance(y: np.ndarray) -> float:
    """The KKT gate's bound on each residual for targets ``y``."""
    return KKT_TOL_SCALE * (1.0 + float(np.max(np.abs(y))))


@dataclass(frozen=True)
class Hyperparams:
    """Regularization weights, insensitivity margins and the kernel choice.

    ``kernel`` None selects the linear (raw feature space) variant; a
    :class:`KernelSpec` selects the kernelized variant.
    """

    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    c4: float = 1.0
    c5: float = 1.0
    c6: float = 1.0
    eps1: float = 0.01
    eps2: float = 0.01
    kernel: KernelSpec | None = None

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "c4", "c5", "c6"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("eps1", "eps2"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


#: The workspace products, each a cached property.
_PRODUCTS = ("S", "H", "SH", "Se", "He", "SHe", "GtG")


@dataclass
class FitWorkspace:
    """Augmented design matrices shared by the two training problems.

    The products below depend only on the designs, not on c1..c6 or eps;
    each is computed on first access and then kept until :meth:`release`.
    :meth:`factors` keeps one factored system per kind.

    A workspace built with ``build_workspace(..., reuse=old)`` holds ``old``'s
    arrays as spare storage: each matrix product, and each kind's first
    system, is written into the spare array of its name.
    """

    G: np.ndarray
    G_star: np.ndarray
    ones: np.ndarray
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _spare: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def factors(
        self, kind: str, key: object, assemble: Callable[[np.ndarray | None], np.ndarray]
    ) -> LUFactors:
        """The kept ``kind`` system built from the scalars ``key``.

        On a miss the kept entry of that kind is dropped, and
        ``assemble(out)`` builds the new matrix into ``out``: the dropped
        system's matrix, or a spare one of that kind, or None (a new array).
        The new system's factors overwrite the dropped system's LU array. So
        at most one entry per kind is alive, and a miss allocates no matrix
        once the workspace has held a system of that kind.
        """
        entry = self._factors.get(kind)
        if entry is not None and entry[0] == key:
            return entry[1]
        old = self._factors.pop(kind)[1] if entry is not None else self._spare.pop(kind, None)
        system = LUFactors(assemble(None if old is None else old.matrix), recycle=old)
        self._factors[kind] = (key, system)
        return system

    def release(self, *names: str) -> None:
        """Drop the named products or factor entries; a later read builds them again."""
        for name in names:
            self.__dict__.pop(name, None)
            self._factors.pop(name, None)
            self._spare.pop(name, None)

    def _recycle(self) -> dict[str, object]:
        """Empty this workspace; return its matrices and factored systems by name."""
        spare = dict(self._spare, G=self.G, G_star=self.G_star)
        for name in _PRODUCTS:
            product = self.__dict__.pop(name, None)
            if product is not None and product.ndim == 2:
                spare[name] = product
        spare.update((kind, system) for kind, (_, system) in self._factors.items())
        self._factors.clear()
        self._spare.clear()
        return spare

    @cached_property
    def S(self) -> np.ndarray:
        return np.matmul(self.G, self.G.T, out=self._spare.pop("S", None))

    @cached_property
    def H(self) -> np.ndarray:
        return np.matmul(self.G_star, self.G_star.T, out=self._spare.pop("H", None))

    @cached_property
    def SH(self) -> np.ndarray:
        return np.matmul(self.S, self.H, out=self._spare.pop("SH", None))

    @cached_property
    def Se(self) -> np.ndarray:
        return self.S @ self.ones

    @cached_property
    def He(self) -> np.ndarray:
        return self.H @ self.ones

    @cached_property
    def SHe(self) -> np.ndarray:
        return self.S @ self.He

    @cached_property
    def GtG(self) -> np.ndarray:
        return np.matmul(self.G.T, self.G, out=self._spare.pop("GtG", None))


@dataclass(frozen=True)
class DualSolution:
    """Constraint multipliers of the down- and up-bound problems."""

    alpha: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class KKTResiduals:
    """Infinity norms of the six optimality equations at a fitted solution."""

    down_stationarity: float
    down_correcting: float
    down_feasibility: float
    up_stationarity: float
    up_correcting: float
    up_feasibility: float

    def max_residual(self) -> float:
        return max(self.as_dict().values())

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class TrainedModel:
    """Fitted twin regressor: weight vectors packed as [u; bias].

    The required fields and ``norm`` are what prediction reads and all a model
    file holds; ``norm`` is the training normalization, which makes prediction
    inputs raw. The privileged channel (``v1_star``, ``v2_star``, ``duals``,
    ``train_privileged``), which ``correcting_values`` and ``kkt_residuals``
    read, and ``kkt``, the residuals the fit's gate checked, are set by
    ``fit`` and None in a loaded model. ``dataclasses.replace`` copies
    ``kkt`` unchanged, so it describes the fitted weights only.
    """

    v1: np.ndarray
    v2: np.ndarray
    hp: Hyperparams
    train_regular: np.ndarray
    norm: NormStats | None = None
    v1_star: np.ndarray | None = None
    v2_star: np.ndarray | None = None
    duals: DualSolution | None = None
    train_privileged: np.ndarray | None = None
    kkt: KKTResiduals | None = field(default=None, compare=False)

    @property
    def n_regular_features(self) -> int:
        return self.train_regular.shape[1]


def _design_shape(rows: np.ndarray, kernel: KernelSpec | None) -> tuple[int, int]:
    """Shape of the design [Phi | 1] of ``rows``."""
    return rows.shape[0], (rows.shape[0] if kernel is not None else rows.shape[1]) + 1


def _design(
    rows: np.ndarray, kernel: KernelSpec | None, out: np.ndarray | None = None
) -> np.ndarray:
    """Write [Phi | 1] into ``out``, or a new array: Phi is ``rows`` (linear) or their self-Gram."""
    if out is None:
        out = np.empty(_design_shape(rows, kernel))
    width = out.shape[1] - 1
    if kernel is None:
        out[:, :width] = rows
    else:
        with flush_subnormals(False):  # the Gram keeps IEEE arithmetic inside a fit too
            gram(rows, rows, kernel, out=out[:, :width])
    out[:, width] = 1.0
    return out


def build_workspace(
    data: PIDataset, hp: Hyperparams, reuse: FitWorkspace | None = None
) -> FitWorkspace:
    """Assemble G = [Phi | 1] and G* = [Phi* | 1] for the chosen variant.

    Phi and Phi* are written straight into G and G*. ``reuse``, a workspace
    that will not be used again, gives up its arrays: when its G and G* have
    the shapes this one needs, they are refilled in place, and its matrix
    products and factored systems become the spare storage this workspace
    writes its own into. Every entry comes from the same floating-point
    operations as in new arrays, so fits on either workspace are bitwise
    equal.
    """
    shapes = [_design_shape(rows, hp.kernel) for rows in (data.regular, data.privileged)]
    spare = {} if reuse is None else reuse._recycle()
    if not spare or [spare["G"].shape, spare["G_star"].shape] != shapes:
        spare = {"G": np.empty(shapes[0]), "G_star": np.empty(shapes[1])}
    g = _design(data.regular, hp.kernel, spare.pop("G"))
    g_star = _design(data.privileged, hp.kernel, spare.pop("G_star"))
    ws = FitWorkspace(G=g, G_star=g_star, ones=np.ones(data.n_samples))
    ws._spare.update(spare)
    return ws


def _add_scaled(a: np.ndarray, b: np.ndarray, scale: float) -> None:
    """``a += b * scale`` bit for bit, one row block at a time (no temporary of a's size)."""
    step = max(1, _BLOCK_ENTRIES // max(a.shape[1], 1))
    scratch = np.empty((min(step, a.shape[0]), a.shape[1]))
    for start in range(0, a.shape[0], step):
        rows = slice(start, start + step)
        term = scratch[: a[rows].shape[0]]
        np.multiply(b[rows], scale, out=term)
        a[rows] += term


def _multiplier_matrix(
    ws: FitWorkspace, c_reg: float, c_corr: float, out: np.ndarray | None = None
) -> np.ndarray:
    # Built in place, into ``out`` when given; the sum is S + (c_reg/c_corr) H
    # + (1/c_corr) SH bit for bit, since floating-point addition is commutative.
    a = np.multiply(ws.H, c_reg / c_corr, out=out)
    a += ws.S
    _add_scaled(a, ws.SH, 1.0 / c_corr)
    return a


def _solve_multiplier(
    ws: FitWorkspace, y: np.ndarray, c_reg: float, c_corr: float, c_drift: float, eps: float,
    context: str,
) -> np.ndarray:
    system = ws.factors(
        "multiplier", (c_reg, c_corr), lambda out: _multiplier_matrix(ws, c_reg, c_corr, out=out)
    )
    rhs = c_reg * y + c_reg * eps * ws.ones - (c_reg * c_drift / c_corr) * ws.He + eps * ws.Se - (
        c_drift / c_corr
    ) * ws.SHe
    return solve_checked(system.matrix, rhs, context=context, factors=system)


def _check_targets(ws: FitWorkspace, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != ws.ones.shape[0]:
        raise ValueError(f"got {y.shape[0]} targets for {ws.ones.shape[0]} training rows")
    return y


def solve_alpha(ws: FitWorkspace, y: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Down-bound multiplier from the eliminated m x m system (c1, c2, c3, eps1)."""
    y = _check_targets(ws, y)
    return _solve_multiplier(ws, y, hp.c1, hp.c2, hp.c3, hp.eps1, "down-bound multiplier system")


def solve_beta(ws: FitWorkspace, y: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Up-bound multiplier: same system with (c4, c5, c6, eps2) and y negated."""
    y = _check_targets(ws, y)
    return _solve_multiplier(ws, -y, hp.c4, hp.c5, hp.c6, hp.eps2, "up-bound multiplier system")


def _norm_inf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def _down_residuals(
    ws: FitWorkspace, y: np.ndarray, hp: Hyperparams,
    v1: np.ndarray, v1_star: np.ndarray, alpha: np.ndarray,
) -> tuple[float, float, float]:
    """Down-bound stationarity, correcting and feasibility residuals."""
    e = ws.ones
    g, gs = ws.G, ws.G_star
    return (
        _norm_inf(hp.c1 * v1 - g.T @ (y - g @ v1) - g.T @ alpha),
        _norm_inf(hp.c2 * v1_star + hp.c3 * gs.T @ e + gs.T @ alpha),
        _norm_inf(y - g @ v1 + hp.eps1 * e + gs @ v1_star),
    )


def _up_residuals(
    ws: FitWorkspace, y: np.ndarray, hp: Hyperparams,
    v2: np.ndarray, v2_star: np.ndarray, beta: np.ndarray,
) -> tuple[float, float, float]:
    """Up-bound stationarity, correcting and feasibility residuals."""
    e = ws.ones
    g, gs = ws.G, ws.G_star
    return (
        _norm_inf(hp.c4 * v2 + g.T @ (g @ v2 - y) + g.T @ beta),
        _norm_inf(hp.c5 * v2_star + hp.c6 * gs.T @ e + gs.T @ beta),
        _norm_inf(g @ v2 - y + hp.eps2 * e + gs @ v2_star),
    )


_RESIDUAL_KINDS = ("stationarity", "correcting", "feasibility")


def _recover(ws: FitWorkspace, c: float, rhs: np.ndarray, context: str) -> np.ndarray:
    """Solve (G^T G + c I) v = rhs on the workspace's kept recovery factors."""
    system = ws.factors("recovery", c, lambda out: _plus_diagonal(ws.GtG, c, out=out))
    return solve_checked(system.matrix, rhs, context=context, factors=system)


def _keep_multiplier_in_sh(ws: FitWorkspace, c_reg: float, c_corr: float) -> None:
    """Make the kept (c_reg, c_corr) multiplier system S H's own array; drop S and H.

    Only for a workspace no other fit reads. Se, He and SHe are read first,
    since every right-hand side needs them. ``H *= c_reg/c_corr; H += S;
    SH *= 1/c_corr; SH += H`` is ``_multiplier_matrix``'s sum bit for bit
    (floating-point addition is commutative), so every solve that hits the
    entry returns what it would have returned.
    """
    ws.Se, ws.He, ws.SHe  # formed before S and H are overwritten
    s, h, sh = ws.S, ws.H, ws.SH
    ws.release("S", "H", "SH")
    h *= c_reg / c_corr
    h += s
    sh *= 1.0 / c_corr
    sh += h
    ws.factors("multiplier", (c_reg, c_corr), lambda out: sh)


def _keep_recovery_in_gtg(ws: FitWorkspace, c: float) -> None:
    """Make the kept recovery system G^T G + c I G^T G's own array; drop G^T G."""
    gtg = ws.GtG
    ws.release("GtG")
    ws.factors("recovery", c, lambda out: _plus_diagonal(gtg, c, out=gtg))


def _gate(
    side: str, residuals: tuple[float, float, float], tol: float
) -> tuple[float, float, float]:
    """Return one side's ``residuals`` if each is at most ``tol``; else raise NumericalError."""
    failed = [i for i, r in enumerate(residuals) if not r <= tol]
    if failed:
        worst = max(failed, key=lambda i: residuals[i])
        raise NumericalError(
            f"fit rejected: {side} {_RESIDUAL_KINDS[worst]} optimality residual "
            f"{residuals[worst]:.3e} exceeds {tol:.3e}; the multiplier system is too "
            f"ill-conditioned for these hyperparameters"
        )
    return residuals


def _correct_and_gate(
    ws: FitWorkspace, y: np.ndarray, hp: Hyperparams, side: str,
    v: np.ndarray, multiplier: np.ndarray, tol: float,
) -> tuple[np.ndarray, tuple[float, float, float]]:
    """One side's correcting weights and its gated residuals, in IEEE arithmetic.

    ``v1* = -(1/c2) G*^T (c3 1 + alpha)`` (down) or ``v2* = -(1/c5) G*^T
    (c6 1 + beta)`` (up). At c2 or c5 near the largest float the correcting
    weights are subnormal: flushed to zero, they fail a gate that the fit
    passes in IEEE arithmetic, the arithmetic ``kkt_residuals`` uses.
    """
    down = side == "down-bound"
    c_corr, c_drift = (hp.c2, hp.c3) if down else (hp.c5, hp.c6)
    residuals = _down_residuals if down else _up_residuals
    with flush_subnormals(False):
        v_star = -(ws.G_star.T @ (c_drift * ws.ones + multiplier)) / c_corr
        return v_star, _gate(side, residuals(ws, y, hp, v, v_star, multiplier), tol)


def _linear_row_limit(data: PIDataset, hp: Hyperparams) -> str | None:
    """Why a linear-variant or identity-kernel fit on ``data`` must fail, or None if it need not.

    G = [X | 1] and G* = [X* | 1] share their constant column, so [G, G*]
    spans at most d_regular + d_privileged + 1 dimensions, and the equality
    constraint needs it to span R^m. The identity kernel's G = [X X' | 1]
    has the column space of [X | 1] at most, so the same bound holds.
    """
    span = data.regular.shape[1] + data.privileged.shape[1] + 1
    if (hp.kernel is not None and hp.kernel.kind != "linear") or data.n_samples <= span:
        return None
    return (
        f"the {data.n_samples} training rows exceed rank[G, G*] <= "
        f"d_regular + d_privileged + 1 = {span}"
    )


def _held(
    solve: Callable[..., np.ndarray], *args
) -> tuple[np.ndarray | None, NumericalError | None]:
    """``(solve(*args), None)``, or ``(None, error)`` when it raised NumericalError."""
    try:
        return solve(*args), None
    except NumericalError as exc:
        return None, exc


def _fit_side_by_side(
    ws: FitWorkspace, y: np.ndarray, hp: Hyperparams, tol: float
) -> tuple[np.ndarray | KKTResiduals, ...]:
    """Solve, recover and gate the down side, then the up side, on a shared workspace.

    Every product and factor entry is kept for the fits that share ``ws``.
    Returns v1, v2, v1*, v2*, alpha, beta and the residuals the gates checked.
    """
    alpha = solve_alpha(ws, y, hp)
    v1 = _recover(ws, hp.c1, ws.G.T @ (y + alpha), "down-bound recovery")
    v1_star, down = _correct_and_gate(ws, y, hp, "down-bound", v1, alpha, tol)

    beta = solve_beta(ws, y, hp)
    v2 = _recover(ws, hp.c4, ws.G.T @ (y - beta), "up-bound recovery")
    v2_star, up = _correct_and_gate(ws, y, hp, "up-bound", v2, beta, tol)
    return v1, v2, v1_star, v2_star, alpha, beta, KKTResiduals(*down, *up)


def _fit_in_steps(
    ws: FitWorkspace, data: PIDataset, y: np.ndarray, hp: Hyperparams, tol: float
) -> tuple[np.ndarray | KKTResiduals, ...]:
    """A fit on a fresh workspace no other fit reads; returns what ``_fit_side_by_side`` does.

    Each design is held only by the steps that read it, and rebuilt (the same
    floating-point operations, so the same bits) when a later step needs it
    again. So at most three m x m arrays are live at once with tied
    parameters, (c4, c5) = (c1, c2), and five untied, besides a jitter
    retry's own two:

    1. H is formed and G* dropped, then S is formed and G dropped.
    2. Untied, alpha is solved on a multiplier matrix in an array of its
       own, which is then dropped.
    3. The (c4, c5) multiplier matrix is assembled in S H's array (S and H
       dropped); tied, alpha is solved on it, then beta. The multiplier
       system is dropped.
    4. G is rebuilt and G^T G + c1 I built in G^T G's array for v1; v2 is
       solved on the kept factors, or with c4 != c1 on G^T G + c4 I built
       in the same array from a recomputed G^T G. Both are dropped.
    5. G* is rebuilt for v1*, v2* and the two gates.

    An up-side error is held until the down-side gate has passed, so a fit
    fails with the error and message of a fit on a shared workspace.
    """
    ws.H  # each product formed before its design is dropped
    ws.release("G_star")
    ws.S
    ws.release("G")
    tied = (hp.c4, hp.c5) == (hp.c1, hp.c2)
    if not tied:
        alpha = solve_alpha(ws, y, hp)
        ws.release("multiplier")
    _keep_multiplier_in_sh(ws, hp.c4, hp.c5)
    if tied:
        alpha = solve_alpha(ws, y, hp)
    beta, up_error = _held(solve_beta, ws, y, hp)
    ws.release("multiplier")

    ws.G = _design(data.regular, hp.kernel)
    _keep_recovery_in_gtg(ws, hp.c1)
    v1 = _recover(ws, hp.c1, ws.G.T @ (y + alpha), "down-bound recovery")
    if up_error is None:
        v2, up_error = _held(_recover, ws, hp.c4, ws.G.T @ (y - beta), "up-bound recovery")
    ws.release("recovery", "GtG")

    ws.G_star = _design(data.privileged, hp.kernel)
    v1_star, down = _correct_and_gate(ws, y, hp, "down-bound", v1, alpha, tol)
    if up_error is not None:
        raise up_error
    v2_star, up = _correct_and_gate(ws, y, hp, "up-bound", v2, beta, tol)
    return v1, v2, v1_star, v2_star, alpha, beta, KKTResiduals(*down, *up)


def fit(
    data: PIDataset,
    hp: Hyperparams,
    norm: NormStats | None = None,
    ws: FitWorkspace | None = None,
) -> TrainedModel:
    """Fit both bound regressors and their correcting functions.

    After each side's multiplier solve, its weights are recovered from

        (G^T G + c1 I) v1 = G^T (y + alpha)    v1* = -(1/c2) G*^T (c3 1 + alpha)
        (G^T G + c4 I) v2 = G^T (y - beta)     v2* = -(1/c5) G*^T (c6 1 + beta)

    A fit is returned only when all six optimality residuals come out at most
    ``KKT_TOL_SCALE * (1 + ||y||_inf)``; an ill-conditioned hyperparameter
    choice whose per-solve checks pass but whose recovered solution violates
    the optimality system fails loudly instead of returning garbage. The gate
    is checked one side at a time, down side first: a down-side rejection
    raises before any up-side error, and on a shared workspace before the up
    side factors or recovers anything, so a rejected fit there costs about
    half an accepted one. The message names the side and the residual
    (stationarity, correcting or feasibility) that failed. A failed
    linear-variant or identity-kernel fit with more training rows than
    d_regular + d_privileged + 1 also says that the rows exceed the rank of
    [G, G*].

    ``norm`` is not applied here; training data is expected to be already
    normalized by the caller, and the stats ride along for prediction time.

    ``ws`` lets candidates that share training rows and kernel reuse one
    workspace, its products and its kept factors; it must be
    ``build_workspace(data, hp)``, with or without ``reuse=``, for this
    ``data`` and ``hp.kernel``; the fit then keeps everything it computed in
    it. Without it the workspace is built here and the fit runs in steps (see
    ``_fit_in_steps``): each product and design is dropped as soon as no
    later step reads it, so at most three m x m arrays are live at once with
    tied parameters, (c4, c5) = (c1, c2), and five untied. Both schedules
    return the same bits and raise the same error. The returned model's
    ``kkt`` holds the residuals the gate checked.

    Both schedules run under ``flush_subnormals()``, on the calling thread
    only; the designs they build, v1*, v2* and the gate keep IEEE arithmetic.
    """
    with flush_subnormals():
        own_ws = ws is None
        if own_ws:
            ws = build_workspace(data, hp)
        y = _check_targets(ws, data.targets)
        tol = kkt_tolerance(y)
        try:
            if own_ws:
                weights = _fit_in_steps(ws, data, y, hp, tol)
            else:
                weights = _fit_side_by_side(ws, y, hp, tol)
        except NumericalError as exc:
            limit = _linear_row_limit(data, hp)
            if limit is None:
                raise
            raise NumericalError(f"{exc}; {limit}") from exc

    v1, v2, v1_star, v2_star, alpha, beta, kkt = weights
    return TrainedModel(
        v1=v1,
        v2=v2,
        v1_star=v1_star,
        v2_star=v2_star,
        duals=DualSolution(alpha=alpha, beta=beta),
        hp=hp,
        train_regular=np.array(data.regular, dtype=float),
        train_privileged=np.array(data.privileged, dtype=float),
        norm=norm,
        kkt=kkt,
    )


def _prediction_rows(x: np.ndarray, n_columns: int, what: str) -> np.ndarray:
    """``x`` as a 2-D float array, rejecting a wrong column count or NaN/inf."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != n_columns:
        raise ValueError(f"expected {n_columns} {what} columns, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("prediction inputs must be finite; found NaN or inf")
    return x


#: Rows of the cross-Gram formed per ``gram`` call in kernel-mode evaluation
#: (32 and 64 were the fastest of 32 to 1024 at 20000 x 1200). The blocked
#: products equal the full ``gram(x, rows) @ w`` bit for bit only because
#: every block starts at a multiple of 4 (single-threaded OpenBLAS takes the
#: rows of a matrix-vector product four at a time) and no block but the only
#: one is a single row (a 1-row product is summed another way).
_PREDICT_BLOCK_ROWS = 64


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each row block of ``n`` rows; a 1-row tail joins the block before it."""
    stops = list(range(_PREDICT_BLOCK_ROWS, n, _PREDICT_BLOCK_ROWS))
    if stops and n - stops[-1] == 1:
        stops.pop()
    bounds = [0, *stops, n]
    return list(zip(bounds[:-1], bounds[1:]))


def _design_products(
    x: np.ndarray,
    train_rows: np.ndarray,
    kernel: KernelSpec | None,
    *weights: np.ndarray,
    k: np.ndarray | None = None,
) -> list[np.ndarray]:
    """The design of ``x`` times each weight vector ``w`` (bias excluded).

    Linear mode (``kernel`` None) returns ``x @ w``. Kernel mode returns
    ``gram(x, train_rows, kernel) @ w`` but takes that cross-Gram one block of
    at most ``_PREDICT_BLOCK_ROWS + 1`` rows at a time, with one
    matrix-vector product per weight vector (a stacked matrix product rounds
    differently). Each block is formed on its own, so no n x m array exists,
    or, when the caller passes the whole cross-Gram as ``k``, is a row slice
    of it: the same values in the same blocks, so the same bits.
    """
    if kernel is None:
        if k is not None:
            raise ValueError("a linear-variant model reads no cross-Gram; k must be None")
        return [x @ w for w in weights]
    if k is not None:
        k = np.ascontiguousarray(k, dtype=float)
        if k.shape != (x.shape[0], train_rows.shape[0]):
            raise ValueError(
                f"k must be the {x.shape[0]} x {train_rows.shape[0]} cross-Gram of the inputs "
                f"and the training rows, got shape {k.shape}"
            )
    outs = [np.empty(x.shape[0]) for _ in weights]
    for start, stop in _row_blocks(x.shape[0]):
        block = gram(x[start:stop], train_rows, kernel) if k is None else k[start:stop]
        for out, w in zip(outs, weights):
            np.matmul(block, w, out=out[start:stop])
    return outs


def _regular_inputs(
    model: TrainedModel | KRRModel, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, KernelSpec | None]:
    """Checked and normalized inputs, the training rows they meet and the kernel."""
    if isinstance(model, KRRModel):
        rows, kernel, what = model.train_features, model.kernel, "feature"
    else:
        rows, kernel, what = model.train_regular, model.hp.kernel, "regular feature"
    x = _prediction_rows(x, rows.shape[1], what)
    if model.norm is not None:
        x = model.norm.transform_features(x)
    return x, rows, kernel


def cross_gram(model: TrainedModel | KRRModel, x: np.ndarray) -> np.ndarray:
    """The cross-Gram a kernel-mode predict of ``x`` reads: gram(x, training rows, kernel).

    ``x`` is checked and normalized as ``predict`` does it. Every model
    trained on the same rows with the same kernel reads the same cross-Gram,
    so the candidates of one cross-validation fold and width can share one,
    passed to each ``predict(..., k=)`` or ``KRRModel.predict(..., k=)``.
    """
    x, rows, kernel = _regular_inputs(model, x)
    if kernel is None:
        raise ValueError("a linear-variant model reads no cross-Gram")
    return gram(x, rows, kernel)


def predict(model: TrainedModel, x: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    """Average of the two bound regressors over regular features only.

    Applies the stored training normalization to ``x`` first when the model
    carries one. Privileged features are not a parameter by design. In kernel
    mode the cross-Gram with the training rows is formed one row block at a
    time, so memory beyond the inputs and the output stays at one block.

    ``k``, ``cross_gram(model, x)``, lets models that share training rows and
    kernel share that cross-Gram: each row block is then read from it, and
    the predictions are bitwise those without it. A ``k`` of the wrong shape,
    or any ``k`` for a linear-variant model, raises ``ValueError``.
    """
    weights = model.v1[:-1] + model.v2[:-1]
    bias = model.v1[-1] + model.v2[-1]
    (scores,) = _design_products(*_regular_inputs(model, x), weights, k=k)
    return 0.5 * (scores + bias)


def bound_functions(model: TrainedModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the down- and up-bound regressors separately."""
    s1, s2 = _design_products(*_regular_inputs(model, x), model.v1[:-1], model.v2[:-1])
    return s1 + model.v1[-1], s2 + model.v2[-1]


def _require_privileged_channel(model: TrainedModel) -> None:
    """Raise ValueError unless ``model`` holds the privileged channel ``fit`` sets."""
    if any(v is None for v in (model.v1_star, model.v2_star, model.duals, model.train_privileged)):
        raise ValueError("the model holds no privileged channel; a model file keeps only what "
                         "predict reads")


def correcting_values(model: TrainedModel, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both correcting functions on privileged inputs.

    Training-time diagnostic of a model ``fit`` returned: inputs are expected
    in the same (already normalized) space the model was fitted in.
    """
    _require_privileged_channel(model)
    x_star = _prediction_rows(x_star, model.train_privileged.shape[1], "privileged feature")
    s1, s2 = _design_products(
        x_star, model.train_privileged, model.hp.kernel, model.v1_star[:-1], model.v2_star[:-1]
    )
    return s1 + model.v1_star[-1], s2 + model.v2_star[-1]


def kkt_residuals(model: TrainedModel, data: PIDataset) -> KKTResiduals:
    """Infinity norms of all six optimality equations of a model ``fit`` returned."""
    _require_privileged_channel(model)
    ws = build_workspace(data, model.hp)
    y = _check_targets(ws, data.targets)
    return KKTResiduals(
        *_down_residuals(ws, y, model.hp, model.v1, model.v1_star, model.duals.alpha),
        *_up_residuals(ws, y, model.hp, model.v2, model.v2_star, model.duals.beta),
    )


@dataclass(frozen=True)
class KRRModel:
    """Kernel ridge comparator: (K + ridge I) coef = y, no privileged channel."""

    train_features: np.ndarray
    coef: np.ndarray
    ridge: float
    kernel: KernelSpec
    norm: NormStats | None = None

    def predict(self, x: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
        """Kernel ridge prediction, the cross-Gram formed one row block at a time.

        ``k``, ``cross_gram(self, x)``, is read block by block instead, as in
        :func:`predict`: the same bits, and ``ValueError`` for a wrong shape.
        """
        return _design_products(*_regular_inputs(self, x), self.coef, k=k)[0]


def krr_gram(data: Dataset, kernel: KernelSpec) -> np.ndarray:
    """The training Gram K of the kernel ridge comparator."""
    return gram(data.features, data.features, kernel)


def fit_krr_comparator(
    data: Dataset,
    ridge: float,
    kernel: KernelSpec,
    norm: NormStats | None = None,
    k: np.ndarray | None = None,
) -> KRRModel:
    """Kernel ridge regression baseline on the same (regular) features.

    ``k``, ``krr_gram(data, kernel)``, lets ridge candidates on the same rows
    and kernel share one Gram; it is built here without it. ``K + ridge I``
    is written into a new array, so ``k`` is left as it was.
    """
    if not ridge > 0:
        raise ValueError(f"ridge must be positive, got {ridge}")
    if k is None:
        k = krr_gram(data, kernel)
    coef = solve_checked(
        _plus_diagonal(k, ridge), np.asarray(data.targets, dtype=float),
        context="kernel ridge system",
    )
    return KRRModel(
        train_features=np.array(data.features, dtype=float),
        coef=coef,
        ridge=ridge,
        kernel=kernel,
        norm=norm,
    )


MODEL_FORMAT = "twinpi-model-v2"

#: The formats ``load_model`` reads; v1 also holds the privileged channel, unread.
_READ_FORMATS = (MODEL_FORMAT, "twinpi-model-v1")


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Write what prediction reads, no privileged channel, as JSON in ``MODEL_FORMAT``.

    The keys are ``format``, ``hyperparams``, ``v1``, ``v2``, ``train_regular``
    and ``norm``, with shortest round-trip floats (exact decimal round trip).
    The file is replaced atomically (:func:`~twinpi.data.write_atomically`):
    readers see the old file or the new one, never a truncated one.
    """
    payload = {
        "format": MODEL_FORMAT,
        "hyperparams": asdict(model.hp),
        "v1": model.v1.tolist(),
        "v2": model.v2.tolist(),
        "train_regular": model.train_regular.tolist(),
        "norm": None
        if model.norm is None
        else {"col_min": model.norm.col_min.tolist(), "col_max": model.norm.col_max.tolist()},
    }
    text = json.dumps(payload, indent=1)
    write_text_atomically(path, text)


def _model_from_payload(payload: dict) -> TrainedModel:
    hp_raw = payload["hyperparams"]
    kernel = hp_raw["kernel"]  # read first: of several missing keys, the error names it
    if kernel is not None:
        kernel = KernelSpec(kind=kernel["kind"], mu=kernel["mu"])
    scalars = {f.name: hp_raw[f.name] for f in fields(Hyperparams) if f.name != "kernel"}
    hp = Hyperparams(**scalars, kernel=kernel)
    train_regular = _checked_array(payload["train_regular"], "train_regular", 2)
    m, d_regular = train_regular.shape
    # Weight vectors are [u; bias]: u spans the training rows in kernel mode,
    # the regular feature columns in linear mode.
    length = (m if kernel is not None else d_regular) + 1
    weights = {key: _checked_array(payload[key], key, 1) for key in ("v1", "v2")}
    for key, v in weights.items():
        if v.shape[0] != length:
            raise DataError(f"{key} has length {v.shape[0]}, expected {length}")
    norm = None
    if payload["norm"] is not None:
        norm = NormStats(payload["norm"]["col_min"], payload["norm"]["col_max"])
        if norm.n_feature_columns < d_regular:
            raise DataError(
                f"norm covers {norm.n_feature_columns} feature columns, "
                f"the model reads {d_regular}"
            )
    return TrainedModel(**weights, hp=hp, train_regular=train_regular, norm=norm)


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file in any of ``_READ_FORMATS``: only the keys ``save_model`` writes.

    The model has no privileged channel. Any unreadable, incomplete or
    inconsistent file, or JSON nested too deep to parse, is a DataError.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise DataError(f"model file {path} nests its JSON too deeply to read") from None
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"model file {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"model file {path} holds a JSON {type(payload).__name__}, not an object")
    if payload.get("format") not in _READ_FORMATS:
        raise DataError(f"model file {path} has unknown format {payload.get('format')!r}")
    try:
        return _model_from_payload(payload)
    except KeyError as exc:
        raise DataError(f"model file {path} lacks key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"model file {path} is malformed: {exc}") from exc
