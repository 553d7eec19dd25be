"""Least-squares twin support-vector regression with privileged information.

Training data may carry extra "privileged" features that are available while
fitting but never at prediction time; the two epsilon-insensitive bound
regressors absorb them through correcting functions, and everything reduces
to dense linear solves. The package also ships the surrounding experiment
machinery: normalization, synthetic benchmarks, grid-search tuning, rank
statistics and generalization-bound calculators.
"""

from .bounds import BoundInputs, generalization_bound, rademacher_bound
from .data import (
    DataError,
    Dataset,
    HeadSplit,
    NoiseSpec,
    NormStats,
    PIDataset,
    RatioSplit,
    apply_norm,
    gen_synthetic,
    lag_embed,
    load_csv,
    min_max_normalize,
    save_csv,
    split_privileged,
    train_test_split,
)
from .kernels import KernelSpec, gram, kernel_eval
from .linalg import LUFactors, NumericalError, solve_checked
from .metrics import Metrics, aggregate_mean, evaluate
from .model import (
    DualSolution,
    FitWorkspace,
    Hyperparams,
    KKTResiduals,
    KRRModel,
    TrainedModel,
    bound_functions,
    build_workspace,
    correcting_values,
    cross_gram,
    fit,
    fit_krr_comparator,
    kkt_residuals,
    krr_gram,
    load_model,
    predict,
    save_model,
    solve_alpha,
    solve_beta,
)
from .oracle import StackedSystem, build_stacked_system, solve_stacked_kkt
from .stats import (
    FriedmanResult,
    ScoreTable,
    StatsReport,
    compute_report,
    friedman,
    load_score_csv,
    nemenyi_cd,
    rank_rows,
    significance_table,
)
from .tuning import (
    GridSpec,
    TuneResult,
    TuningError,
    cross_validate,
    export_tune_csv,
    kfold_indices,
    make_grid,
    tune_krr,
)

__version__ = "0.1.0"
