"""Rank-based comparison of regression models over a collection of datasets.

Implements the Friedman chi-square statistic, its F-distributed refinement,
and the Nemenyi critical difference for pairwise post-hoc comparison
(Demšar, JMLR 2006). Ranking needs numpy only. No distribution quantiles
are computed here: the Nemenyi q_alpha defaults to Demšar's tabulated 5%
value for the model count, and the caller supplies the F critical value to
compare against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError

DIRECTIONS = ("lower_better", "higher_better")

#: Nemenyi q_alpha at the 5% level by model count (Demšar 2006, Table 5a):
#: the studentized-range quantile divided by sqrt(2).
Q_ALPHA_05 = {
    2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164,
}


@dataclass(frozen=True)
class ScoreTable:
    """Scores of l models on n datasets plus the orientation of "better"."""

    scores: np.ndarray
    direction: str = "lower_better"
    model_names: tuple[str, ...] | None = None
    dataset_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim != 2:
            raise ValueError("scores must be a 2-d matrix (datasets x models)")
        n, l = scores.shape
        if n < 2 or l < 2:
            raise ValueError(f"need at least 2 datasets and 2 models, got {n} x {l}")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores contain non-finite entries")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        object.__setattr__(self, "scores", scores)
        if self.model_names is not None and len(self.model_names) != l:
            raise ValueError("model_names length does not match column count")
        if self.dataset_names is not None and len(self.dataset_names) != n:
            raise ValueError("dataset_names length does not match row count")
        for what, names in (("model", self.model_names), ("dataset", self.dataset_names)):
            for i, name in enumerate(names or ()):
                if name in names[:i]:
                    raise ValueError(f"{what} name {name!r} appears more than once")

    @property
    def n_datasets(self) -> int:
        return self.scores.shape[0]

    @property
    def n_models(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class FriedmanResult:
    """Both Friedman statistics with their degrees of freedom.

    ``f_f`` is None (and ``degenerate`` True) when the F-refinement's
    denominator n (l - 1) - chi2 is non-positive.
    """

    chi2_f: float
    f_f: float | None
    chi2_dof: int
    f_dof: tuple[int, int]
    degenerate: bool


@dataclass(frozen=True)
class StatsReport:
    """Full rank-test report for one score table."""

    rank_matrix: np.ndarray
    avg_ranks: np.ndarray
    friedman: FriedmanResult
    cd: float
    significant: np.ndarray
    q_alpha: float
    f_critical: float | None
    reject_null: bool | None
    model_names: tuple[str, ...] | None = None
    dataset_names: tuple[str, ...] | None = None


def _average_ranks(row: np.ndarray) -> np.ndarray:
    """1-based ascending ranks; each run of equal values gets its mean position.

    Equal to ``scipy.stats.rankdata(row, method="average")`` bit for bit on
    finite input: every rank is an integer or a half-integer, computed exactly.
    """
    order = np.argsort(row, kind="stable")
    ordered = row[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, row.size))
    ranks = np.empty(row.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def rank_rows(table: ScoreTable) -> tuple[np.ndarray, np.ndarray]:
    """Rank models within each dataset row; best model gets rank 1.

    Ties receive the average of the tied rank positions, so every row sums
    to l (l + 1) / 2.
    """
    scores = table.scores if table.direction == "lower_better" else -table.scores
    ranks = np.vstack([_average_ranks(row) for row in scores])
    return ranks, ranks.mean(axis=0)


def friedman(avg_ranks: np.ndarray, n: int, l: int) -> FriedmanResult:
    """Friedman chi-square over average ranks, plus its F refinement.

    chi2 = 12 n / (l (l + 1)) * (sum r_i^2 - l (l + 1)^2 / 4), with l - 1
    degrees of freedom; F = (n - 1) chi2 / (n (l - 1) - chi2) with
    (l - 1, (l - 1)(n - 1)) degrees of freedom.
    """
    r = np.asarray(avg_ranks, dtype=float).ravel()
    if l < 2 or n < 2:
        raise ValueError(f"need l >= 2 models and n >= 2 datasets, got l={l}, n={n}")
    if r.shape[0] != l:
        raise ValueError(f"got {r.shape[0]} average ranks for l={l} models")
    chi2 = (12.0 * n / (l * (l + 1))) * (float(np.sum(r**2)) - l * (l + 1) ** 2 / 4.0)
    denom = n * (l - 1) - chi2
    if denom <= 0.0:
        return FriedmanResult(chi2, None, l - 1, (l - 1, (l - 1) * (n - 1)), True)
    f_f = (n - 1) * chi2 / denom
    return FriedmanResult(chi2, f_f, l - 1, (l - 1, (l - 1) * (n - 1)), False)


def _default_q_alpha(l: int) -> float:
    """The 5%-level q_alpha for l models, ``Q_ALPHA_05[l]``; beyond 10 models there is none."""
    if l not in Q_ALPHA_05:
        raise ValueError(
            f"no default q_alpha for {l} models: the 5% table covers 2 to 10 models; "
            f"give q_alpha (--q-alpha)"
        )
    return Q_ALPHA_05[l]


def nemenyi_cd(l: int, n: int, q_alpha: float | None = None) -> float:
    """Critical difference cd = q_alpha * sqrt(l (l + 1) / (6 n)).

    ``q_alpha`` defaults to ``_default_q_alpha(l)``.
    """
    if l < 2 or n < 2:
        raise ValueError(f"need l >= 2 and n >= 2, got l={l}, n={n}")
    if q_alpha is None:
        q_alpha = _default_q_alpha(l)
    if not q_alpha > 0:
        raise ValueError(f"q_alpha must be positive, got {q_alpha}")
    return q_alpha * float(np.sqrt(l * (l + 1) / (6.0 * n)))


def significance_table(avg_ranks: np.ndarray, cd: float) -> np.ndarray:
    """Pairwise matrix: True where |r_i - r_j| > cd. Symmetric, false diagonal."""
    if not cd > 0:
        raise ValueError(f"critical difference must be positive, got {cd}")
    r = np.asarray(avg_ranks, dtype=float).ravel()
    diff = np.abs(r[:, None] - r[None, :])
    out = diff > cd
    np.fill_diagonal(out, False)
    return out


def compute_report(
    table: ScoreTable,
    q_alpha: float | None = None,
    f_critical: float | None = None,
) -> StatsReport:
    """Rank the table and run the Friedman test plus Nemenyi post-hoc.

    ``q_alpha`` defaults to ``_default_q_alpha`` of the table's model count.
    """
    if q_alpha is None:
        q_alpha = _default_q_alpha(table.n_models)
    ranks, avg = rank_rows(table)
    fr = friedman(avg, table.n_datasets, table.n_models)
    cd = nemenyi_cd(table.n_models, table.n_datasets, q_alpha)
    sig = significance_table(avg, cd)
    reject = None
    if f_critical is not None and fr.f_f is not None:
        reject = fr.f_f > f_critical
    return StatsReport(
        rank_matrix=ranks,
        avg_ranks=avg,
        friedman=fr,
        cd=cd,
        significant=sig,
        q_alpha=q_alpha,
        f_critical=f_critical,
        reject_null=reject,
        model_names=table.model_names,
        dataset_names=table.dataset_names,
    )


def load_score_csv(path: str | Path, direction: str = "lower_better") -> ScoreTable:
    """Read a score table: header row of model names, first column dataset names."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    rows = [r for r in rows if r and any(c.strip() for c in r)]
    if len(rows) < 3:
        raise DataError(f"{path}: a score table needs a header and at least 2 data rows")
    header = [c.strip() for c in rows[0]]
    if len(header) < 3:
        raise DataError(f"{path}: a score table needs at least 2 model columns")
    model_names = tuple(header[1:])
    dataset_names = []
    scores = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        dataset_names.append(row[0].strip())
        try:
            scores.append([float(c) for c in row[1:]])
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric score in row {i}: {exc}") from None
    try:
        return ScoreTable(np.asarray(scores), direction, model_names, tuple(dataset_names))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def format_report(report: StatsReport) -> str:
    """Human-readable multi-line rendering of a report."""
    names = report.model_names or tuple(
        f"model{i + 1}" for i in range(report.avg_ranks.shape[0])
    )
    lines = ["average ranks:"]
    for name, r in zip(names, report.avg_ranks):
        lines.append(f"  {name}: {r:.4f}")
    fr = report.friedman
    lines.append(f"chi2_f = {fr.chi2_f:.4f} (dof {fr.chi2_dof})")
    if fr.degenerate:
        lines.append("f_f: degenerate (denominator n(l-1) - chi2 <= 0)")
    else:
        lines.append(f"f_f = {fr.f_f:.4f} (dof {fr.f_dof[0]}, {fr.f_dof[1]})")
    if report.f_critical is not None and report.reject_null is not None:
        verdict = "reject" if report.reject_null else "fail to reject"
        lines.append(
            f"f_f vs critical value {report.f_critical}: {verdict} the null of equivalence"
        )
    lines.append(f"nemenyi cd = {report.cd:.4f} (q_alpha = {report.q_alpha})")
    lines.append("pairwise significant (|rank gap| > cd):")
    l = len(names)
    for i in range(l):
        for j in range(i + 1, l):
            flag = "yes" if report.significant[i, j] else "no"
            lines.append(f"  {names[i]} vs {names[j]}: {flag}")
    return "\n".join(lines)
