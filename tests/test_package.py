"""The ``twinpi`` namespace: the model's API, and nothing that only tools read."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import twinpi

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = {
    "DataError", "Dataset", "HeadSplit", "NoiseSpec", "NormStats", "PIDataset",
    "RatioSplit", "gen_synthetic", "lag_embed", "load_csv", "min_max_normalize",
    "save_csv", "split_privileged", "train_test_split",
    "KernelSpec",
    "NumericalError",
    "Metrics", "evaluate",
    "Hyperparams", "KKTResiduals", "KRRModel", "TrainedModel", "bound_functions",
    "correcting_values", "fit", "fit_krr_comparator", "kkt_residuals", "load_model",
    "predict", "save_model",
    "GridSpec", "TuneResult", "TuningError", "cross_validate", "tune_krr",
}

#: Names the package no longer exports, by the module that defines them.
MODULE_ONLY = {
    "bounds": ["BoundInputs", "generalization_bound", "rademacher_bound"],
    "oracle": ["StackedSystem", "build_stacked_system", "solve_stacked_kkt"],
    "stats": ["FriedmanResult", "ScoreTable", "StatsReport", "compute_report", "friedman",
              "load_score_csv", "nemenyi_cd", "rank_rows", "significance_table"],
    "kernels": ["gram"],
    "linalg": ["LUFactors", "solve_checked"],
    "metrics": ["aggregate_mean"],
    "model": ["DualSolution", "FitWorkspace", "build_workspace", "cross_gram", "krr_gram",
              "solve_alpha", "solve_beta"],
    "tuning": ["kfold_indices"],
}


def test_the_package_exports_the_model_api_only():
    public = {name for name, value in vars(twinpi).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS
    assert twinpi.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in MODULE_ONLY.items() for name in names
])
def test_a_dropped_name_imports_from_its_module(module, name):
    assert not hasattr(twinpi, name)
    assert getattr(importlib.import_module(f"twinpi.{module}"), name).__module__ == (
        f"twinpi.{module}"
    )


def test_the_readme_quick_tour_import_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^from twinpi import \(.*?^\)", readme, re.MULTILINE | re.DOTALL)
    namespace = {}
    exec(block.group(0), namespace)
    assert namespace["fit"] is twinpi.fit


def test_importing_the_package_loads_no_tool_module():
    probe = "import sys, twinpi; print(*(m for m in sys.modules if m.startswith('twinpi')))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = set(done.stdout.split())
    assert "twinpi.model" in loaded
    assert not {"twinpi.oracle", "twinpi.stats", "twinpi.bounds", "twinpi.cli"} & loaded
