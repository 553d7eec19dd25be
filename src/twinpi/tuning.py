"""Grid-search hyperparameter selection with k-fold cross-validation.

The grid is a Cartesian product over base-2 exponents. The two bound sides
share their three regularization weights (c4, c5, c6) = (c1, c2, c3), so an
rbf grid has four axes (c1, c2, c3, mu) and a linear feature-space one has
three. Candidates are ordered lexicographically by exponent tuple, and a
stride subsample over that order keeps desk-scale runs tractable. Untied
weights and the identity kernel are fitted by :func:`~twinpi.model.fit`
alone; no grid searches them.

Both searches, the twin model's (:func:`cross_validate`) and the kernel
ridge comparator's (:func:`tune_krr`), run one fold loop and one selection
rule. The loop goes fold by fold and, within a fold, kernel width by kernel
width. Each model supplies three steps to it:

- a "prepare" step, run once per (fold, width): the twin model builds its
  workspace (G, G* and, on demand, their products; see :mod:`twinpi.model`)
  and the comparator its Gram K;
- a "fit" step, run per candidate on what was prepared: the twin model
  fits on the shared workspace, and consecutive candidates share the LU
  factors of equal systems; the comparator solves ``K + ridge I`` in new
  arrays;
- its ``predict``.

Only the twin model's workspace chain recycles arrays: each workspace is
built in the previous one's arrays whenever the training row count is the
same (G, G*, S, H, S H, G^T G and the kept multiplier and recovery matrices
with their LU arrays), so moving on to the next width or fold allocates no
m x m array. That pays, because a workspace holds up to seven m x m arrays
and every candidate of its group fits on it. The values come from the same
floating-point operations as in new arrays, so every fold RMSE is bitwise
unchanged. The comparator's Gram and ridge systems are new arrays:
recycling them moved no benchmark metric, and no candidate now carries
state to the next.

A validation prediction reads only the regular channel, so the cross-Gram
between a fold's validation rows and its training rows depends on the fold
and the kernel width alone. The loop forms it once per (fold, width), by
:func:`~twinpi.model.cross_gram` at the first candidate that fitted (none
for a group where nothing fitted, or for the linear feature-space variant),
and every candidate's ``predict`` reads its row blocks from it. The blocks
and their products are those ``predict`` forms without it, so the fold
RMSEs keep every bit.

A fit that raises :class:`~twinpi.linalg.NumericalError` leaves its fold
RMSE empty. A candidate is eligible only if it fitted on every fold: its
score is then the mean over all k folds, the usual k-fold estimate, rather
than a mean over whichever folds happened to fit. The eligible candidate of
least mean wins, the earliest in grid order on ties; the same rule orders
every eligible candidate in :attr:`TuneResult.ranking`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import Dataset, PIDataset
from .kernels import KernelSpec, rbf_width_error
from .linalg import NumericalError
from .metrics import evaluate
from .model import (
    Hyperparams,
    KRRModel,
    build_workspace,
    cross_gram,
    fit,
    fit_krr_comparator,
    krr_gram,
    predict,
)
from .model import _linear_row_limit


class TuningError(RuntimeError):
    """Raised when no grid candidate can be fitted."""


#: Hard cap on the candidates a grid builds, after any subsampling.
MAX_MATERIALIZED = 200_000


#: The exponents e for which 2.0**e is a positive finite float: above them
#: 2.0**e raises OverflowError, below them it is 0.0.
_EXPONENTS = range(sys.float_info.min_exp - sys.float_info.mant_dig, sys.float_info.max_exp)


@dataclass(frozen=True)
class GridSpec:
    """Search space and cross-validation protocol.

    Every candidate ties (c4, c5, c6) to (c1, c2, c3). ``kernel`` is "rbf" or
    None for the linear feature-space variant; "rbf" adds a width axis, which
    ``pin_mu`` removes again by fixing the width (with ``kernel=None``,
    ``pin_mu`` is an error).
    """

    c_lo: int = -8
    c_hi: int = 8
    mu_lo: int = -8
    mu_hi: int = 8
    eps: float = 0.01
    folds: int = 5
    seed: int = 0
    kernel: str | None = "rbf"
    pin_mu: float | None = None
    max_candidates: int | None = None

    def __post_init__(self) -> None:
        if self.c_lo > self.c_hi or self.mu_lo > self.mu_hi:
            raise ValueError("exponent ranges must satisfy lo <= hi")
        if not all(e in _EXPONENTS for e in (self.c_lo, self.c_hi, self.mu_lo, self.mu_hi)):
            raise ValueError(
                f"exponent ranges must give 2**e positive and finite: "
                f"{_EXPONENTS[0]} <= e <= {_EXPONENTS[-1]}"
            )
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds}")
        if self.kernel not in (None, "rbf"):
            raise ValueError(f"kernel must be None or 'rbf', got {self.kernel!r}")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be positive when given")
        if self.pin_mu is not None:
            error = rbf_width_error(self.pin_mu, "pin_mu")
            if error is not None:
                raise ValueError(error)
            if self.kernel != "rbf":
                raise ValueError(f"pin_mu needs kernel 'rbf', got {self.kernel!r}")
        for e in (self.mu_lo, self.mu_hi) if self.has_mu_axis else ():
            error = rbf_width_error(2.0**e, f"width 2**{e}")
            if error is not None:
                raise ValueError(error)
        if not (self.eps >= 0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be finite and non-negative, got {self.eps}")

    @property
    def has_mu_axis(self) -> bool:
        return self.kernel == "rbf" and self.pin_mu is None


@dataclass(frozen=True)
class CandidateResult:
    """One grid candidate with its cross-validated score.

    ``fold_rmses`` holds one entry per fold (None where the fit failed);
    ``mean_rmse`` is the mean over the folds that fitted, None when none did.
    Only a candidate with ``failed_folds == 0`` can be selected.
    """

    hp: Hyperparams
    mean_rmse: float | None
    failed_folds: int
    fold_rmses: tuple[float | None, ...] = ()


@dataclass(frozen=True)
class TuneResult:
    """Selected hyperparameters plus the full candidate table and folds.

    ``ranking`` holds the table index of every candidate that fitted on all
    folds, in selection order: ascending mean RMSE, grid order on ties. Its
    first entry is ``best_index``.
    """

    best: Hyperparams
    best_index: int
    table: tuple[CandidateResult, ...]
    folds: tuple[np.ndarray, ...]
    ranking: tuple[int, ...]


def _candidate_kernel(spec: GridSpec, rest: tuple[int, ...]) -> KernelSpec | None:
    # ``rest`` holds the exponents after the regularization axes.
    if spec.kernel is None:
        return None
    mu = spec.pin_mu if spec.pin_mu is not None else 2.0 ** rest[0]
    return KernelSpec("rbf", mu=mu)


def _candidate_hp(spec: GridSpec, exponents: tuple[int, ...]) -> Hyperparams:
    c1, c2, c3 = (2.0**e for e in exponents[:3])
    return Hyperparams(
        c1=c1, c2=c2, c3=c3, c4=c1, c5=c2, c6=c3,
        eps1=spec.eps, eps2=spec.eps, kernel=_candidate_kernel(spec, exponents[3:]),
    )


def _grid_axes(spec: GridSpec, n_c_axes: int) -> list[list[int]]:
    c_axis = list(range(spec.c_lo, spec.c_hi + 1))
    axes = [c_axis] * n_c_axes
    if spec.has_mu_axis:
        axes.append(list(range(spec.mu_lo, spec.mu_hi + 1)))
    return axes


def _grid_stride(sizes: list[int], max_candidates: int | None) -> int:
    """The subsampling stride over axes of ``sizes``; a :class:`TuningError` past the cap."""
    total = math.prod(sizes)
    stride = 1 if max_candidates is None else max(1, math.ceil(total / max_candidates))
    count = math.ceil(total / stride)
    if count > MAX_MATERIALIZED:
        raise TuningError(
            f"grid keeps {count} of its {total} candidates, over the cap of "
            f"{MAX_MATERIALIZED}; set max_candidates to at most {MAX_MATERIALIZED}"
        )
    return stride


def check_grid_cap(spec: GridSpec) -> None:
    """Raise the :class:`TuningError` ``cross_validate`` would raise for ``spec``'s grid size.

    The kernel ridge comparator's grid has one regularization axis where the
    twin model's has three, so it never keeps more candidates.
    """
    _grid_stride([len(a) for a in _grid_axes(spec, 3)], spec.max_candidates)


def _grid_points(axes: list[list[int]], max_candidates: int | None) -> list[tuple[int, ...]]:
    """Exponent tuples over ``axes`` in lexicographic order, stride-subsampled.

    More than ``MAX_MATERIALIZED`` tuples is a :class:`TuningError`, raised
    before any is built.
    """
    sizes = [len(a) for a in axes]
    total = math.prod(sizes)
    stride = _grid_stride(sizes, max_candidates)
    # C order runs the last axis fastest: lexicographic order over tuples.
    digits = np.unravel_index(np.arange(0, total, stride), sizes)
    return [
        tuple(axis[d] for axis, d in zip(axes, point))
        for point in zip(*(column.tolist() for column in digits))
    ]


def _grid_candidates(spec: GridSpec) -> list[Hyperparams]:
    """Candidates in deterministic lexicographic order by exponent tuple.

    With ``max_candidates`` set, an even stride over that order is taken
    instead of the full product.
    """
    return [
        _candidate_hp(spec, exponents)
        for exponents in _grid_points(_grid_axes(spec, 3), spec.max_candidates)
    ]


def kfold_indices(m: int, k: int, seed: int) -> list[np.ndarray]:
    """Shuffle 0..m-1 with ``seed`` and split into k folds of near-equal size."""
    if k > m:
        raise ValueError(f"cannot make {k} folds from {m} samples")
    if k < 2:
        raise ValueError(f"folds must be at least 2, got {k}")
    perm = np.random.default_rng(seed).permutation(m)
    return [np.sort(part) for part in np.array_split(perm, k)]


def _fold_splits(m: int, spec: GridSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train rows, validation rows) per fold of ``kfold_indices``."""
    all_idx = np.arange(m)
    splits = []
    for val_idx in kfold_indices(m, spec.folds, spec.seed):
        mask = np.ones(m, dtype=bool)
        mask[val_idx] = False
        splits.append((all_idx[mask], val_idx))
    return splits


def _fold_rmses(
    splits, kernels, train_rows, x, y, prepare, fit_one, predict_one
) -> list[list[float | None]]:
    """Each candidate's validation RMSE on each fold, None where its fit failed.

    Fold by fold and, within a fold, kernel width by kernel width: the
    candidates of one (fold, width) group share what ``prepare(train, pos,
    previous)`` returns for the group's first candidate ``pos`` (it may build
    it in the arrays of ``previous``, the group before's), and
    ``fit_one(train, pos, prepared)`` fits each of them. The validation
    cross-Gram is formed at the group's first fitted candidate and read by
    every ``predict_one(model, x, k=)``.
    """
    groups: dict[KernelSpec | None, list[int]] = {}
    for pos, kernel in enumerate(kernels):
        groups.setdefault(kernel, []).append(pos)
    table: list[list[float | None]] = [[None] * len(splits) for _ in kernels]
    prepared = None
    for fold, (train_idx, val_idx) in enumerate(splits):
        train = train_rows(train_idx)
        x_val, y_val = x[val_idx], y[val_idx]
        for kernel, positions in groups.items():
            prepared = prepare(train, positions[0], prepared)
            k_val = None
            for pos in positions:
                try:
                    model = fit_one(train, pos, prepared)
                except NumericalError:
                    continue
                if k_val is None and kernel is not None:
                    k_val = cross_gram(model, x_val)
                table[pos][fold] = evaluate(y_val, predict_one(model, x_val, k=k_val)).rmse
    return table


def _ranking(table: list[list[float | None]]) -> list[int]:
    """The rows with no None and a mean below inf, by ascending mean (the
    earliest first on ties): the first is the selected one."""
    means = {pos: float(np.mean(rmses)) for pos, rmses in enumerate(table) if None not in rmses}
    return sorted((pos for pos, mean in means.items() if mean < math.inf), key=means.__getitem__)


def cross_validate(data: PIDataset, spec: GridSpec) -> TuneResult:
    """Score every grid candidate by k-fold validation RMSE and pick the best.

    Within each fold the model is fitted on the remaining folds (privileged
    features included) and scored on the held-out fold through regular
    features only. The best candidate is the one with the lowest mean RMSE
    among those that fitted on every fold; ties break toward the earliest
    candidate in grid order.
    """
    hps = _grid_candidates(spec)
    splits = _fold_splits(data.n_samples, spec)
    # A linear-variant fit on more rows than [G, G*] can span must fail, so
    # a fold that large fails every candidate: say why before fitting any.
    for fold, (train_idx, _) in enumerate(splits):
        limit = _linear_row_limit(data.subset(train_idx), hps[0])
        if limit is not None:
            raise TuningError(
                f"none of the {len(hps)} candidates can fit fold {fold + 1}: {limit}"
            )
    rmses = _fold_rmses(
        splits, [hp.kernel for hp in hps], data.subset, data.regular, data.targets,
        lambda train, pos, ws: build_workspace(train, hps[pos], reuse=ws),
        lambda train, pos, ws: fit(train, hps[pos], ws=ws),
        predict,
    )
    table = []
    for hp, row in zip(hps, rmses):
        scored = [r for r in row if r is not None]
        mean_rmse = float(np.mean(scored)) if scored else None
        table.append(CandidateResult(hp, mean_rmse, len(row) - len(scored), tuple(row)))
    ranking = _ranking(rmses)
    if not ranking:
        failures = sum(r.failed_folds for r in table)
        raise TuningError(
            f"none of the {len(table)} candidates fitted on every fold "
            f"({failures} failed folds total)"
        )
    return TuneResult(
        best=hps[ranking[0]],
        best_index=ranking[0],
        table=tuple(table),
        folds=tuple(val_idx for _, val_idx in splits),
        ranking=tuple(ranking),
    )


def tune_krr(data: Dataset, spec: GridSpec) -> tuple[float, KernelSpec]:
    """Cross-validate the kernel ridge comparator over (ridge, width) exponents.

    Runs the fold loop and selection rule of :func:`cross_validate` on the
    same exponent ranges, folds and seed, so both models are scored on
    identical validation rows. A (fold, width) group shares one Gram; each
    ridge candidate solves its own ``K + ridge I`` in new arrays.
    """
    candidates = [
        (2.0 ** exponents[0], _candidate_kernel(spec, exponents[1:]) or KernelSpec("linear"))
        for exponents in _grid_points(_grid_axes(spec, 1), spec.max_candidates)
    ]
    rmses = _fold_rmses(
        _fold_splits(data.n_samples, spec), [kernel for _, kernel in candidates],
        lambda idx: Dataset(data.features[idx], data.targets[idx]), data.features, data.targets,
        lambda train, pos, _: krr_gram(train, candidates[pos][1]),
        lambda train, pos, k: fit_krr_comparator(train, *candidates[pos], k=k),
        KRRModel.predict,
    )
    ranking = _ranking(rmses)
    if not ranking:
        raise TuningError("no kernel ridge candidate fitted on every fold")
    return candidates[ranking[0]]
