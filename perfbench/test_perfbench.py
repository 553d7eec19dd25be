"""Tests of the benchmark harness itself, on inputs small enough for the test suite."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import twinpi.cli as cli
import twinpi.model as model_mod
import workloads as wl

HERE = Path(__file__).resolve().parent

SMALL = {
    "tune-wide": {"n_train": 60, "max_candidates": 8},
    "tune-pinned-krr": {"n_train": 60, "max_candidates": 8},
    "fit-predict": {"n_train": 80, "n_test": 300},
}


def _is_count(name):
    return wl.PER_LAYER[name][0] in ("count", "flop", "B", "ratio")


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(workload, tmp_path):
    with wl.Instrumented(traced=True) as inst:
        runs = [inst.run_pass(workload, 1, tmp_path, SMALL[workload]) for _ in range(2)]
    metrics = []
    for p in runs:
        assert wl.pass_problems(workload, p, None) == []
        metrics.append(wl.layer_metrics(p))
    counts = [{k: v for k, v in m.items() if _is_count(k)} for m in metrics]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.solve.calls"] > 0 and counts[0]["kernels.gram.elements"] > 0
    for m in metrics:
        assert m["cli.self_s"] >= 0.0
        parts = sum(v for k, v in m.items() if k.endswith("self_s")) + m["trace.recheck_s"]
        assert parts == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_fold_fit_failures_split_by_cause(tmp_path):
    with wl.Instrumented(traced=True) as inst:
        p = inst.run_pass("tune-wide", 1, tmp_path, SMALL["tune-wide"])
    m = wl.layer_metrics(p)
    failed = m["model.fit.failed_solve"] + m["model.fit.failed_gate"]
    fold_fits = m["tuning.fold_fits.attempted"]
    assert fold_fits == 8 * 5
    assert failed > 0
    assert m["tuning.fold_fits.useful_ratio"] == pytest.approx((fold_fits - failed) / fold_fits)


def test_untraced_pass_times_phases_and_restores_names(tmp_path):
    original_fit, original_gram = cli.fit, model_mod.gram
    with wl.Instrumented(traced=False) as inst:
        assert cli.fit is not original_fit
        assert model_mod.gram is original_gram
        p = inst.run_pass("tune-pinned-krr", 2, tmp_path, SMALL["tune-pinned-krr"])
        timings = wl.pass_timings(p)
    assert cli.fit is original_fit
    assert 0.0 < timings["setup_data_s"] < timings["wall_s"]
    assert timings["fit_s"] > 0.0 and timings["predict_rows_per_s"] > 0.0
    assert wl.model_problems(p) == []


def test_output_mismatch_is_a_failed_pass(tmp_path):
    with wl.Instrumented(traced=False) as inst:
        p = inst.run_pass("fit-predict", 0, tmp_path, SMALL["fit-predict"])
    recorded = wl.observed_outputs("fit-predict", p)
    assert len(recorded["eval"]) == 3
    assert wl.pass_problems("fit-predict", p, recorded) == []
    altered = {"eval": recorded["eval"][:2] + ["sse/sst = 0.5"]}
    assert wl.pass_problems("fit-predict", p, altered) != []


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == wl.PER_LAYER
    golden = wl.load_golden()
    assert all(len(golden[w]) == wl.GOLDEN_SEEDS for w in wl.WORKLOADS)


def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune-wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
