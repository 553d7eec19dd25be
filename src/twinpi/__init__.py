"""Least-squares twin support-vector regression with privileged information.

Training data may carry extra "privileged" features that are available while
fitting but never at prediction time; the two epsilon-insensitive bound
regressors absorb them through correcting functions, and everything reduces
to dense linear solves. The package exports the model's API: datasets and
normalization, fit, predict, the KKT re-check, model files, metrics and
grid-search tuning.

The tools around the model are imported from their own modules, and
``import twinpi`` does not load them: the stacked-KKT reference solver from
:mod:`twinpi.oracle`, the Friedman and Nemenyi rank tests from
:mod:`twinpi.stats`, and the generalization-bound calculator from
:mod:`twinpi.bounds`. The solver internals (``gram``, ``solve_checked``,
``solve_alpha``, ``build_workspace``, ...) stay in :mod:`twinpi.kernels`,
:mod:`twinpi.linalg`, :mod:`twinpi.model`, :mod:`twinpi.metrics` and
:mod:`twinpi.tuning`.
"""

from .data import (
    DataError,
    Dataset,
    HeadSplit,
    NoiseSpec,
    NormStats,
    PIDataset,
    RatioSplit,
    gen_synthetic,
    lag_embed,
    load_csv,
    min_max_normalize,
    save_csv,
    split_privileged,
    train_test_split,
)
from .kernels import KernelSpec
from .linalg import NumericalError
from .metrics import Metrics, evaluate
from .model import (
    Hyperparams,
    KKTResiduals,
    KRRModel,
    TrainedModel,
    bound_functions,
    correcting_values,
    fit,
    fit_krr_comparator,
    kkt_residuals,
    load_model,
    predict,
    save_model,
)
from .tuning import GridSpec, TuneResult, TuningError, cross_validate, tune_krr

__version__ = "0.1.0"
