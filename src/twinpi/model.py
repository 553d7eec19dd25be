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

A fit is accepted only when its six optimality residuals pass the KKT gate.
The gate is checked side by side: the down-bound side is solved, recovered
and checked first, and a down-side rejection raises before the up-bound
multiplier solve and recovery run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, NormStats, PIDataset
from .kernels import KernelSpec, gram
from .linalg import NumericalError, solve_checked

#: A fit is accepted only if all six optimality residuals are at most
#: KKT_TOL_SCALE * (1 + ||y||_inf).
KKT_TOL_SCALE = 1e-8


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


@dataclass(frozen=True)
class FitWorkspace:
    """Augmented design matrices shared by the two training problems.

    The products below depend only on the designs, not on c1..c6 or eps;
    each is computed on first access and then kept for the workspace's life.
    """

    G: np.ndarray
    G_star: np.ndarray
    ones: np.ndarray

    @cached_property
    def S(self) -> np.ndarray:
        return self.G @ self.G.T

    @cached_property
    def H(self) -> np.ndarray:
        return self.G_star @ self.G_star.T

    @cached_property
    def SH(self) -> np.ndarray:
        return self.S @ self.H

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
        return self.G.T @ self.G


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
        return max(
            self.down_stationarity,
            self.down_correcting,
            self.down_feasibility,
            self.up_stationarity,
            self.up_correcting,
            self.up_feasibility,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "down_stationarity": self.down_stationarity,
            "down_correcting": self.down_correcting,
            "down_feasibility": self.down_feasibility,
            "up_stationarity": self.up_stationarity,
            "up_correcting": self.up_correcting,
            "up_feasibility": self.up_feasibility,
        }


@dataclass(frozen=True)
class TrainedModel:
    """Fitted twin regressor: weight vectors packed as [u; bias].

    Regular training rows are retained for kernel prediction; privileged
    rows are retained only so the correcting functions can be inspected.
    ``norm`` carries the training normalization when the surrounding
    pipeline attached one, in which case prediction inputs are raw.
    """

    v1: np.ndarray
    v2: np.ndarray
    v1_star: np.ndarray
    v2_star: np.ndarray
    duals: DualSolution
    hp: Hyperparams
    train_regular: np.ndarray
    train_privileged: np.ndarray
    norm: NormStats | None = None

    @property
    def is_kernel(self) -> bool:
        return self.hp.kernel is not None

    @property
    def n_regular_features(self) -> int:
        return self.train_regular.shape[1]


def build_workspace(data: PIDataset, hp: Hyperparams) -> FitWorkspace:
    """Assemble G = [Phi | 1] and G* = [Phi* | 1] for the chosen variant."""
    m = data.n_samples
    ones = np.ones(m)
    if hp.kernel is None:
        phi = data.regular
        phi_star = data.privileged
    else:
        phi = gram(data.regular, data.regular, hp.kernel)
        phi_star = gram(data.privileged, data.privileged, hp.kernel)
    g = np.column_stack([phi, ones])
    g_star = np.column_stack([phi_star, ones])
    return FitWorkspace(G=g, G_star=g_star, ones=ones)


def _multiplier_system(
    ws: FitWorkspace, y: np.ndarray, c_reg: float, c_corr: float, c_drift: float, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    e = ws.ones
    a = ws.S + (c_reg / c_corr) * ws.H + (1.0 / c_corr) * ws.SH
    rhs = c_reg * y + c_reg * eps * e - (c_reg * c_drift / c_corr) * ws.He + eps * ws.Se - (
        c_drift / c_corr
    ) * ws.SHe
    return a, rhs


def _check_targets(ws: FitWorkspace, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != ws.G.shape[0]:
        raise ValueError(f"got {y.shape[0]} targets for {ws.G.shape[0]} training rows")
    return y


def solve_alpha(ws: FitWorkspace, y: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Down-bound multiplier from the eliminated m x m system (c1, c2, c3, eps1)."""
    y = _check_targets(ws, y)
    a, rhs = _multiplier_system(ws, y, hp.c1, hp.c2, hp.c3, hp.eps1)
    return solve_checked(a, rhs, context="down-bound multiplier system")


def solve_beta(ws: FitWorkspace, y: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Up-bound multiplier: same system with (c4, c5, c6, eps2) and y negated."""
    y = _check_targets(ws, y)
    a, rhs = _multiplier_system(ws, -y, hp.c4, hp.c5, hp.c6, hp.eps2)
    return solve_checked(a, rhs, context="up-bound multiplier system")


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


def _gate(side: str, residuals: tuple[float, float, float], tol: float) -> None:
    """Raise NumericalError unless every residual of one side is at most ``tol``."""
    failed = [i for i, r in enumerate(residuals) if not r <= tol]
    if failed:
        worst = max(failed, key=lambda i: residuals[i])
        raise NumericalError(
            f"fit rejected: {side} {_RESIDUAL_KINDS[worst]} optimality residual "
            f"{residuals[worst]:.3e} exceeds {tol:.3e}; the multiplier system is too "
            f"ill-conditioned for these hyperparameters"
        )


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
    raises before the up-side multiplier solve and recovery run, so a rejected
    fit costs about half an accepted one. The message names the side and the
    residual (stationarity, correcting or feasibility) that failed.

    ``norm`` is not applied here; training data is expected to be already
    normalized by the caller, and the stats ride along for prediction time.

    ``ws`` lets candidates that share training rows and kernel reuse one
    workspace and its products; it must be ``build_workspace(data, hp)`` for
    this ``data`` and ``hp.kernel``. Without it the workspace is built here.
    """
    if ws is None:
        ws = build_workspace(data, hp)
    y = _check_targets(ws, data.targets)
    tol = KKT_TOL_SCALE * (1.0 + float(np.max(np.abs(y))))

    alpha = solve_alpha(ws, y, hp)
    gtg = ws.GtG
    eye = np.eye(gtg.shape[0])
    v1 = solve_checked(gtg + hp.c1 * eye, ws.G.T @ (y + alpha), context="down-bound recovery")
    v1_star = -(ws.G_star.T @ (hp.c3 * ws.ones + alpha)) / hp.c2
    _gate("down-bound", _down_residuals(ws, y, hp, v1, v1_star, alpha), tol)

    beta = solve_beta(ws, y, hp)
    v2 = solve_checked(gtg + hp.c4 * eye, ws.G.T @ (y - beta), context="up-bound recovery")
    v2_star = -(ws.G_star.T @ (hp.c6 * ws.ones + beta)) / hp.c5
    _gate("up-bound", _up_residuals(ws, y, hp, v2, v2_star, beta), tol)

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
    )


def _prediction_rows(x: np.ndarray, n_columns: int, what: str) -> np.ndarray:
    """``x`` as a 2-D float array, rejecting a wrong column count or NaN/inf."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != n_columns:
        raise ValueError(f"expected {n_columns} {what} columns, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("prediction inputs must be finite; found NaN or inf")
    return x


def _regular_design(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    x = _prediction_rows(x, model.n_regular_features, "regular feature")
    if model.norm is not None:
        x = model.norm.transform_features(x)
    if model.hp.kernel is None:
        return x
    return gram(x, model.train_regular, model.hp.kernel)


def predict(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Average of the two bound regressors over regular features only.

    Applies the stored training normalization to ``x`` first when the model
    carries one. Privileged features are not a parameter by design.
    """
    phi = _regular_design(model, x)
    weights = model.v1[:-1] + model.v2[:-1]
    bias = model.v1[-1] + model.v2[-1]
    return 0.5 * (phi @ weights + bias)


def bound_functions(model: TrainedModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the down- and up-bound regressors separately."""
    phi = _regular_design(model, x)
    r1 = phi @ model.v1[:-1] + model.v1[-1]
    r2 = phi @ model.v2[:-1] + model.v2[-1]
    return r1, r2


def correcting_values(model: TrainedModel, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both correcting functions on privileged inputs.

    Training-time diagnostic only: inputs are expected in the same
    (already normalized) space the model was fitted in.
    """
    x_star = _prediction_rows(x_star, model.train_privileged.shape[1], "privileged feature")
    if model.hp.kernel is None:
        phi = x_star
    else:
        phi = gram(x_star, model.train_privileged, model.hp.kernel)
    p1 = phi @ model.v1_star[:-1] + model.v1_star[-1]
    p2 = phi @ model.v2_star[:-1] + model.v2_star[-1]
    return p1, p2


def kkt_residuals(model: TrainedModel, data: PIDataset) -> KKTResiduals:
    """Infinity norms of all six optimality equations on the training data."""
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

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = _prediction_rows(x, self.train_features.shape[1], "feature")
        if self.norm is not None:
            x = self.norm.transform_features(x)
        return gram(x, self.train_features, self.kernel) @ self.coef


def fit_krr_comparator(
    data: Dataset,
    ridge: float,
    kernel: KernelSpec,
    norm: NormStats | None = None,
) -> KRRModel:
    """Kernel ridge regression baseline on the same (regular) features."""
    if not ridge > 0:
        raise ValueError(f"ridge must be positive, got {ridge}")
    k = gram(data.features, data.features, kernel)
    coef = solve_checked(
        k + ridge * np.eye(k.shape[0]), np.asarray(data.targets, dtype=float),
        context="kernel ridge system",
    )
    return KRRModel(
        train_features=np.array(data.features, dtype=float),
        coef=coef,
        ridge=ridge,
        kernel=kernel,
        norm=norm,
    )


MODEL_FORMAT = "twinpi-model-v1"


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Serialize to JSON with shortest round-trip floats (exact decimal round trip).

    The file is replaced atomically: readers see the old file or the new one.
    """
    hp = model.hp
    payload = {
        "format": MODEL_FORMAT,
        "hyperparams": {
            "c1": hp.c1, "c2": hp.c2, "c3": hp.c3,
            "c4": hp.c4, "c5": hp.c5, "c6": hp.c6,
            "eps1": hp.eps1, "eps2": hp.eps2,
            "kernel": None if hp.kernel is None else {"kind": hp.kernel.kind, "mu": hp.kernel.mu},
        },
        "v1": model.v1.tolist(),
        "v2": model.v2.tolist(),
        "v1_star": model.v1_star.tolist(),
        "v2_star": model.v2_star.tolist(),
        "alpha": model.duals.alpha.tolist(),
        "beta": model.duals.beta.tolist(),
        "train_regular": model.train_regular.tolist(),
        "train_privileged": model.train_privileged.tolist(),
        "norm": None
        if model.norm is None
        else {"col_min": model.norm.col_min.tolist(), "col_max": model.norm.col_max.tolist()},
    }
    path = Path(path)
    # Write a sibling file and rename it onto the target, so a failed write
    # never leaves a truncated model file behind.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _model_array(payload: dict, key: str, ndim: int) -> np.ndarray:
    arr = np.asarray(payload[key], dtype=float)
    if arr.ndim != ndim:
        raise DataError(f"{key} must be {ndim}-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{key} contains non-finite entries")
    return arr


def _model_from_payload(payload: dict) -> TrainedModel:
    hp_raw = payload["hyperparams"]
    kernel = None
    if hp_raw["kernel"] is not None:
        kernel = KernelSpec(kind=hp_raw["kernel"]["kind"], mu=hp_raw["kernel"]["mu"])
    hp = Hyperparams(
        c1=hp_raw["c1"], c2=hp_raw["c2"], c3=hp_raw["c3"],
        c4=hp_raw["c4"], c5=hp_raw["c5"], c6=hp_raw["c6"],
        eps1=hp_raw["eps1"], eps2=hp_raw["eps2"], kernel=kernel,
    )
    train_regular = _model_array(payload, "train_regular", 2)
    train_privileged = _model_array(payload, "train_privileged", 2)
    m, d_regular = train_regular.shape
    if train_privileged.shape[0] != m:
        raise DataError(
            f"train_privileged has {train_privileged.shape[0]} rows, train_regular has {m}"
        )
    # Weight vectors are [u; bias]: u spans the training rows in kernel mode,
    # the feature columns of their channel in linear mode.
    n_regular = m if kernel is not None else d_regular
    n_privileged = m if kernel is not None else train_privileged.shape[1]
    expected = {
        "v1": n_regular + 1, "v2": n_regular + 1,
        "v1_star": n_privileged + 1, "v2_star": n_privileged + 1,
        "alpha": m, "beta": m,
    }
    vectors = {}
    for key, length in expected.items():
        vectors[key] = _model_array(payload, key, 1)
        if vectors[key].shape[0] != length:
            raise DataError(f"{key} has length {vectors[key].shape[0]}, expected {length}")
    norm = None
    if payload["norm"] is not None:
        norm = NormStats(payload["norm"]["col_min"], payload["norm"]["col_max"])
        if norm.n_feature_columns < d_regular:
            raise DataError(
                f"norm covers {norm.n_feature_columns} feature columns, "
                f"the model reads {d_regular}"
            )
    return TrainedModel(
        v1=vectors["v1"],
        v2=vectors["v2"],
        v1_star=vectors["v1_star"],
        v2_star=vectors["v2_star"],
        duals=DualSolution(alpha=vectors["alpha"], beta=vectors["beta"]),
        hp=hp,
        train_regular=train_regular,
        train_privileged=train_privileged,
        norm=norm,
    )


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; any unreadable, incomplete or inconsistent file is a DataError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"model file {path} holds a JSON {type(payload).__name__}, not an object")
    if payload.get("format") != MODEL_FORMAT:
        raise DataError(f"model file {path} has unknown format {payload.get('format')!r}")
    try:
        return _model_from_payload(payload)
    except KeyError as exc:
        raise DataError(f"model file {path} lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"model file {path} is malformed: {exc}") from exc
