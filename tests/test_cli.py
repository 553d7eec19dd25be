import contextlib
import errno
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from support import csv_files, single_blas_thread
import twinpi.cli
from twinpi.cli import main, read_config, write_config
from twinpi.data import DataError, load_csv
from twinpi.metrics import evaluate
from twinpi.model import load_model, predict
from twinpi.tuning import TuningError


def run(args):
    return main([str(a) for a in args])


# ------------------------------------------------------------------- synth


def test_synth_writes_expected_files(tmp_path):
    out = tmp_path / "synth"
    assert run(["synth", "--fn", "f2", "--noise", "uniform_pm02", "--seed", 7,
                "--out", out]) == 0
    train = load_csv(out / "train.csv")
    test = load_csv(out / "test.csv")
    assert train.n_samples == 100 and train.n_features == 5
    assert test.n_samples == 200
    manifest = read_config(out / "manifest.txt")
    assert manifest["fn"] == "f2" and manifest["seed"] == "7"


def test_synth_is_byte_identical_across_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["synth", "--fn", "f1", "--seed", 3, "--out", out]) == 0
    for name in ("train.csv", "test.csv", "manifest.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_synth_f1_has_two_feature_columns(tmp_path):
    out = tmp_path / "f1"
    assert run(["synth", "--fn", "f1", "--seed", 0, "--out", out]) == 0
    header = (out / "train.csv").read_text().splitlines()[0]
    assert header == "x1,x2,y"


@pytest.mark.parametrize("command, target", [("synth", "train.csv"), ("fit", "model.json")])
def test_an_unwritable_output_file_is_a_data_error(tmp_path, capsys, command, target):
    # a directory where the output file should go: the rename onto it fails
    data_dir = tmp_path / "data"
    assert run(["synth", "--fn", "f2", "--seed", 5, "--out", data_dir]) == 0
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    argv = {
        "synth": ["synth", "--fn", "f2", "--seed", 5, "--out", out],
        "fit": ["fit", "--data", data_dir / "train.csv", "--out", out],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == [target]


# --------------------------------------------------------------------- fit


@pytest.fixture()
def f2_run(tmp_path):
    data_dir = tmp_path / "data"
    run(["synth", "--fn", "f2", "--seed", 5, "--out", data_dir])
    fit_dir = tmp_path / "fit"
    code = run(["fit", "--data", data_dir / "train.csv", "--out", fit_dir])
    assert code == 0
    return data_dir, fit_dir


def test_fit_writes_model_and_residual_report(f2_run):
    data_dir, fit_dir = f2_run
    assert (fit_dir / "model.json").exists()
    report = read_config(fit_dir / "kkt_report.txt")
    assert report["within_tolerance"] == "True"
    assert float(report["max_residual"]) <= float(report["threshold"])


def test_fit_is_deterministic(f2_run, tmp_path):
    data_dir, fit_dir = f2_run
    again = tmp_path / "fit2"
    assert run(["fit", "--data", data_dir / "train.csv", "--out", again]) == 0
    assert (fit_dir / "model.json").read_bytes() == (again / "model.json").read_bytes()


def test_fit_single_feature_is_a_data_error(tmp_path):
    path = tmp_path / "narrow.csv"
    path.write_text("x,y\n1,2\n3,4\n5,6\n")
    assert run(["fit", "--data", path, "--out", tmp_path / "o"]) == 2


WIDTH_OUT_OF_RANGE = "is out of range: 2 mu**2 must be a positive finite float"


@pytest.mark.parametrize("mu", [1e300, 1e-200])
def test_fit_with_an_extreme_rbf_width_is_a_configuration_error(tmp_path, capsys, mu):
    # 1e300**2 overflows and 2 * 1e-200**2 underflows to 0 (a NaN diagonal)
    data_dir = tmp_path / "data"
    run(["synth", "--fn", "f2", "--seed", 5, "--out", data_dir])
    capsys.readouterr()
    code = run(["fit", "--data", data_dir / "train.csv", "--kernel", "rbf", "--mu", mu,
                "--out", tmp_path / "o"])
    assert code == 1
    assert capsys.readouterr().err == f"configuration error: rbf width mu = {mu} {WIDTH_OUT_OF_RANGE}\n"
    assert not (tmp_path / "o" / "model.json").exists()


def test_fit_numerical_failure_exit_code(tmp_path):
    data_dir = tmp_path / "data"
    run(["synth", "--fn", "f2", "--seed", 11, "--out", data_dir])
    code = run(["fit", "--data", data_dir / "train.csv", "--mu", 4.0,
                "--out", tmp_path / "o"])
    assert code == 3


@pytest.mark.parametrize("rows, code", [(5, 0), (6, 0), (7, 3), (8, 3), (12, 3), (60, 3)])
def test_linear_fit_needs_rows_within_the_feature_span(tmp_path, capsys, rows, code):
    # f2 has 3 regular and 2 privileged columns: [G, G*] has rank at most
    # 3 + 2 + 1 = 6, and the equality constraint needs rank m.
    data_dir = tmp_path / "data"
    assert run(["synth", "--fn", "f2", "--seed", 0, "--n-train", rows, "--out", data_dir]) == 0
    capsys.readouterr()
    assert run(["fit", "--data", data_dir / "train.csv", "--kernel", "linear",
                "--out", tmp_path / "o"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("numerical error: down-bound multiplier system: residual")
        assert err.endswith(
            f"; the {rows} training rows exceed rank[G, G*] <= "
            "d_regular + d_privileged + 1 = 6\n"
        )
        assert not (tmp_path / "o" / "model.json").exists()
    else:
        assert err == ""
        assert read_config(tmp_path / "o" / "kkt_report.txt")["within_tolerance"] == "True"


# -------------------------------------------------------------------- eval


def test_eval_prints_metrics_and_appends_row(f2_run, tmp_path, capsys):
    data_dir, fit_dir = f2_run
    results = tmp_path / "results.csv"
    code = run(["eval", "--model", fit_dir / "model.json",
                "--data", data_dir / "test.csv", "--out", results])
    assert code == 0
    out = capsys.readouterr().out
    assert "rmse = " in out and "predict_time_s = " in out
    lines = results.read_text().splitlines()
    assert lines[0].startswith("data,model,rmse")
    assert len(lines) == 2

    # appended rows accumulate
    run(["eval", "--model", fit_dir / "model.json",
         "--data", data_dir / "test.csv", "--out", results])
    assert len(results.read_text().splitlines()) == 3


def test_eval_matches_library_metrics(f2_run, capsys):
    data_dir, fit_dir = f2_run
    assert run(["eval", "--model", fit_dir / "model.json",
                "--data", data_dir / "test.csv"]) == 0
    printed = capsys.readouterr().out
    rmse_line = next(l for l in printed.splitlines() if l.startswith("rmse"))
    printed_rmse = float(rmse_line.split("=")[1])

    model = load_model(fit_dir / "model.json")
    test = load_csv(data_dir / "test.csv")
    y_hat = predict(model, test.features[:, : model.n_regular_features])
    y_true = model.norm.transform_targets(test.targets)
    assert printed_rmse == evaluate(y_true, y_hat).rmse


def test_eval_finite_rmse_below_one_on_clean_f2(f2_run, capsys):
    data_dir, fit_dir = f2_run
    assert run(["eval", "--model", fit_dir / "model.json",
                "--data", data_dir / "test.csv"]) == 0
    printed = capsys.readouterr().out
    rmse = float(next(l for l in printed.splitlines() if l.startswith("rmse")).split("=")[1])
    assert np.isfinite(rmse) and rmse < 1.0


def test_eval_schema_mismatch(f2_run, tmp_path):
    data_dir, fit_dir = f2_run
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,y\n1,2,3\n4,5,6\n")
    assert run(["eval", "--model", fit_dir / "model.json", "--data", bad]) == 2


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: [p],
        lambda p: {"format": p["format"]},
        lambda p: dict(p, v1=p["v1"][:-1]),
        lambda p: dict(p, hyperparams=dict(p["hyperparams"], c1=10**400)),
    ],
    ids=["json-list", "missing-keys", "short-weights", "integer-too-large-for-a-float"],
)
def test_eval_corrupt_model_file_is_a_data_error(f2_run, corrupt, capsys):
    data_dir, fit_dir = f2_run
    path = fit_dir / "model.json"
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    capsys.readouterr()
    assert run(["eval", "--model", path, "--data", data_dir / "test.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: model file") and "Traceback" not in err


def test_eval_model_file_with_an_extreme_rbf_width_is_a_data_error(f2_run, capsys):
    data_dir, fit_dir = f2_run
    path = fit_dir / "model.json"
    payload = json.loads(path.read_text())
    payload["hyperparams"]["kernel"]["mu"] = 1e300
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["eval", "--model", path, "--data", data_dir / "test.csv"]) == 2
    assert capsys.readouterr().err == (
        f"data error: model file {path} is malformed: rbf width mu = 1e+300 {WIDTH_OUT_OF_RANGE}\n"
    )


def test_eval_model_file_that_is_not_utf8_is_a_data_error(f2_run, tmp_path, capsys):
    data_dir, _ = f2_run
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert run(["eval", "--model", path, "--data", data_dir / "test.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: model file {path} is not UTF-8 text")


@given(csv_files())
@settings(max_examples=150, deadline=None)
def test_fit_on_a_csv_file_load_csv_rejects_is_a_data_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(content)
    try:
        load_csv(path)
        return  # accepted files are fitted elsewhere
    except DataError:
        pass
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["fit", "--data", path, "--out", path.parent / "out"])
    assert code == 2
    assert err.getvalue().startswith("data error: ") and "Traceback" not in err.getvalue()


# --------------------------------------------------------------- benchmark


def test_benchmark_small_run_with_comparator(tmp_path, capsys):
    out = tmp_path / "bench"
    code = run(["benchmark", "--synthetic", "f2", "--repeats", 2,
                "--n-train", 60, "--n-test", 60, "--max-candidates", 8,
                "--grid-lo", -4, "--grid-hi", 2, "--folds", 3,
                "--seed", 1, "--with-krr", "--out", out])
    assert code == 0
    lines = (out / "benchmark.csv").read_text().splitlines()
    assert lines[0] == ("dataset,status,twin_rmse,twin_sse,twin_sse_over_sst,"
                        "krr_rmse,krr_sse,krr_sse_over_sst,error")
    cells = lines[1].split(",")
    assert cells[0] == "f2" and cells[1] == "ok"
    assert np.isfinite(float(cells[2])) and np.isfinite(float(cells[5]))
    assert (out / "timing.txt").exists()
    timing = (out / "timing.txt").read_text()
    assert "f2: tune " in timing
    assert re.fullmatch(
        r"f2: tune \S+ s, fit \S+ s, predict \S+ s, data prep \S+ s, krr \S+ s "
        r"\(mean over repeats\)\n",
        timing,
    )
    assert timing.strip() in capsys.readouterr().out


def test_failed_benchmark_write_keeps_the_previous_csv(tmp_path, capsys, monkeypatch):
    out = tmp_path / "bench"
    args = ["benchmark", "--synthetic", "f2", "--repeats", 1, "--n-train", 30,
            "--n-test", 20, "--max-candidates", 2, "--folds", 2, "--out", out]
    assert run(args + ["--seed", 1]) == 0
    before = (out / "benchmark.csv").read_bytes()
    names = sorted(p.name for p in out.iterdir())
    write_text = Path.write_text

    def fail_part_way(self, text, *args, **kwargs):
        if "benchmark.csv" not in self.name:
            return write_text(self, text, *args, **kwargs)
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

    monkeypatch.setattr(Path, "write_text", fail_part_way)
    assert run(args + ["--seed", 2]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert (out / "benchmark.csv").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == names


def test_benchmark_records_failures_and_continues(tmp_path):
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("x,y\n" + "\n".join(f"{i},{i * 2}" for i in range(30)) + "\n")
    out = tmp_path / "bench"
    code = run(["benchmark", "--data", narrow, "--synthetic", "f2",
                "--repeats", 1, "--n-train", 50, "--n-test", 30,
                "--max-candidates", 4, "--grid-lo", -3, "--grid-hi", 0,
                "--folds", 3, "--seed", 2, "--out", out])
    assert code == 0
    lines = (out / "benchmark.csv").read_text().splitlines()
    by_name = {l.split(",")[0]: l for l in lines[1:]}
    assert by_name["f2"].split(",")[1] == "ok"
    assert by_name["narrow"].split(",")[1] == "failed"
    assert "insufficient features" in by_name["narrow"]


LINEAR_PAST_ROW_LIMIT = ["benchmark", "--synthetic", "f2", "--kernel", "linear", "--n-train", 30,
                         "--max-candidates", 6, "--with-krr"]


def test_benchmark_scores_the_comparator_when_the_twin_model_fails(tmp_path, capsys):
    # 24 training rows per fold exceed the linear variant's row limit of 6.
    out = tmp_path / "bench"
    assert run(LINEAR_PAST_ROW_LIMIT + ["--repeats", 1, "--out", out]) == 0
    cells = (out / "benchmark.csv").read_text().splitlines()[1].split(",")
    assert cells[:5] == ["f2", "failed", "", "", ""]
    assert all(np.isfinite(float(c)) for c in cells[5:8])
    assert cells[8].startswith("none of the 6 candidates can fit fold 1: ")
    assert "f2: FAILED (none of the 6 candidates can fit fold 1: " in capsys.readouterr().err
    assert (out / "timing.txt").read_text() == "f2: failed\n"


def test_benchmark_leaves_comparator_cells_empty_unless_every_repeat_fitted(
    tmp_path, monkeypatch
):
    tunes, krr_tunes = [], []
    cross_validate, tune_krr = twinpi.cli.cross_validate, twinpi.cli.tune_krr

    def counted_cross_validate(*args, **kwargs):
        tunes.append(args)
        return cross_validate(*args, **kwargs)

    def failing_second_tune_krr(*args, **kwargs):
        krr_tunes.append(args)
        if len(krr_tunes) == 2:
            raise TuningError("forced comparator failure")
        return tune_krr(*args, **kwargs)

    monkeypatch.setattr(twinpi.cli, "cross_validate", counted_cross_validate)
    monkeypatch.setattr(twinpi.cli, "tune_krr", failing_second_tune_krr)
    out = tmp_path / "bench"
    assert run(LINEAR_PAST_ROW_LIMIT + ["--repeats", 3, "--out", out]) == 0
    cells = (out / "benchmark.csv").read_text().splitlines()[1].split(",")
    # The twin model's first error names the row; it is not tuned again, and
    # the comparator stops at its own failure.
    assert cells[:8] == ["f2", "failed", "", "", "", "", "", ""]
    assert cells[8].startswith("none of the 6 candidates can fit fold 1: ")
    assert len(tunes) == 1 and len(krr_tunes) == 2


def test_benchmark_without_datasets_is_usage_error(tmp_path):
    assert run(["benchmark", "--out", tmp_path]) == 1


@pytest.mark.parametrize("flags, message", [
    (["--pin-mu", -1], "pin_mu must be positive and finite, got -1.0"),
    (["--pin-mu", "nan"], "pin_mu must be positive and finite, got nan"),
    (["--eps", -0.5], "eps must be finite and non-negative, got -0.5"),
    (["--folds", 1], "folds must be at least 2, got 1"),
    (["--grid-lo", 3, "--grid-hi", 1], "exponent ranges must satisfy lo <= hi"),
    (["--kernel", "linear", "--pin-mu", 0.5], "pin_mu needs kernel 'rbf', got None"),
    (["--pin-mu", 1e300], f"pin_mu = 1e+300 {WIDTH_OUT_OF_RANGE}"),
    (["--pin-mu", 1e-200], f"pin_mu = 1e-200 {WIDTH_OUT_OF_RANGE}"),
    (["--grid-lo", 1020, "--grid-hi", 1100],
     "exponent ranges must give 2**e positive and finite: -1074 <= e <= 1023"),
    (["--grid-lo", 500, "--grid-hi", 512],
     f"width 2**512 = 1.3407807929942597e+154 {WIDTH_OUT_OF_RANGE}"),
])
def test_benchmark_bad_grid_flags_are_usage_errors(tmp_path, capsys, flags, message):
    out = tmp_path / "bench"
    code = run(["benchmark", "--synthetic", "f2", "--repeats", 1, "--n-train", 30,
                "--max-candidates", 2, "--out", out] + flags)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: grid flags: {message}\n"
    assert "FAILED" not in captured.out + captured.err
    assert not (out / "benchmark.csv").exists()


@pytest.mark.parametrize("ratio", [1.5, 0, -0.2, "nan"])
def test_benchmark_bad_split_ratio_is_a_usage_error(tmp_path, capsys, ratio):
    data = tmp_path / "tiny.csv"
    data.write_text("x1,x2,y\n0,0,0\n1,2,1\n2,3,2\n3,1,0\n")
    out = tmp_path / "bench"
    code = run(["benchmark", "--data", data, "--split-ratio", ratio, "--repeats", 1,
                "--out", out])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --split-ratio must lie in (0, 1), got {float(ratio)}\n"
    assert "FAILED" not in captured.out + captured.err
    assert not (out / "benchmark.csv").exists()


def test_benchmark_byte_identical_reruns(tmp_path):
    args = ["benchmark", "--synthetic", "f3", "--repeats", 2, "--n-train", 40,
            "--n-test", 30, "--max-candidates", 6, "--grid-lo", -6, "--grid-hi", -2,
            "--folds", 3, "--seed", 4]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", out_a]) == 0
    assert run(args + ["--out", out_b]) == 0
    assert (out_a / "benchmark.csv").read_bytes() == (out_b / "benchmark.csv").read_bytes()


# ------------------------------------------------------------------- stats


def test_stats_command_golden_values(tmp_path, capsys):
    from test_stats import SYNTHETIC_RMSE_TABLE

    scores = tmp_path / "scores.csv"
    header = "dataset," + ",".join(f"m{i}" for i in range(6))
    rows = [header] + [
        f"d{r}," + ",".join(str(v) for v in row)
        for r, row in enumerate(SYNTHETIC_RMSE_TABLE)
    ]
    scores.write_text("\n".join(rows) + "\n")
    out = tmp_path / "report"
    code = run(["stats", "--scores", scores, "--q-alpha", 2.850,
                "--f-critical", 2.3828, "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    # exact average ranks (the two-decimal prints round to 4.83, 2.58, ...)
    assert "chi2_f = 43.0952" in text
    assert "f_f = 28.0423" in text
    assert "cd = 2.1767" in text
    assert "reject the null" in text
    assert (out / "ranks.csv").exists() and (out / "significance.csv").exists()


def test_stats_identical_scores_degenerate(tmp_path, capsys):
    scores = tmp_path / "flat.csv"
    scores.write_text("dataset,a,b\nd1,1.0,1.0\nd2,1.0,1.0\n")
    assert run(["stats", "--scores", scores]) == 0
    text = capsys.readouterr().out
    assert "chi2_f = 0.0000" in text
    assert "f_f = 0.0000" in text
    assert "a vs b: no" in text


def test_stats_malformed_table_is_data_error(tmp_path):
    scores = tmp_path / "bad.csv"
    scores.write_text("dataset,a,b\nd1,oops,1.0\nd2,1.0,1.0\n")
    assert run(["stats", "--scores", scores]) == 2


def test_stats_scores_that_are_not_utf8_are_a_data_error(tmp_path, capsys):
    scores = tmp_path / "bad.csv"
    scores.write_bytes(b"dataset,a,b\nd1,1.0,\xff\nd2,1.0,2.0\n")
    assert run(["stats", "--scores", scores]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {scores}: not UTF-8 text")


# ------------------------------------------------------------------ bounds


def test_bounds_command_unit_diagonal(f2_run, capsys):
    _, fit_dir = f2_run
    code = run(["bounds", "--model", fit_dir / "model.json",
                "--weight-cap", 1.0, "--delta", 0.05])
    assert code == 0
    text = capsys.readouterr().out
    assert "note:" in text  # illustrative default Lipschitz constant
    rad = float(next(l for l in text.splitlines() if l.startswith("rademacher")).split("=")[1])
    assert rad == pytest.approx(0.1, rel=1e-12)  # rbf diagonal, m = 100
    gen = float(next(l for l in text.splitlines()
                     if l.startswith("generalization")).split("=")[1])
    assert gen == pytest.approx(0.2 + np.sqrt(np.log(20.0) / 200.0), rel=1e-12)


# ------------------------------------------------------------ config files


def test_config_round_trip(tmp_path):
    values = {"fn": "f2", "seed": "7", "out": "somewhere"}
    path = tmp_path / "c.txt"
    write_config(values, path)
    assert read_config(path) == values


def test_config_drives_a_command_and_flags_win(tmp_path):
    cfg = tmp_path / "synth.cfg"
    write_config({"fn": "f1", "seed": "3", "n_train": "17", "out": str(tmp_path / "a")}, cfg)
    assert run(["synth", "--config", cfg]) == 0
    assert load_csv(tmp_path / "a" / "train.csv").n_samples == 17

    # explicit flag overrides the config value
    assert run(["synth", "--config", cfg, "--out", tmp_path / "b",
                "--n-train", 9]) == 0
    assert load_csv(tmp_path / "b" / "train.csv").n_samples == 9


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    write_config({"fn": "f1", "bogus": "1"}, cfg)
    assert run(["synth", "--config", cfg]) == 1
    # ``mu`` is a fit key; benchmark tunes the width or takes --pin-mu.
    write_config({"synthetic": "f2", "mu": "0.001", "out": str(tmp_path / "o")}, cfg)
    assert run(["benchmark", "--config", cfg]) == 1
    assert "unknown config key 'mu' for command 'benchmark'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"fn = f1\nout = \xff\n")
    assert run(["synth", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"usage error: config {cfg} is not UTF-8 text\n"


def test_repeated_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(f"synthetic = f1\nsynthetic = f2\nout = {tmp_path / 'o'}\n")
    assert run(["benchmark", "--config", cfg]) == 1
    assert "line 2 repeats key 'synthetic'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(["synth", "--fn", "f9"]) == 1
    assert run(["frobnicate"]) == 1
    capsys.readouterr()
    assert run(["benchmark", "--synthetic", "f2", "--mu", 0.001, "--out", tmp_path / "o"]) == 1
    assert "unrecognized arguments: --mu" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_model_file_is_valid_json(f2_run):
    _, fit_dir = f2_run
    payload = json.loads((fit_dir / "model.json").read_text())
    assert payload["format"] == "twinpi-model-v1"
    assert payload["hyperparams"]["kernel"]["kind"] == "rbf"


# ------------------------------------------------- lag embedding / head split


def _write_series(path, n=400, seed=0):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=n)) + 50.0
    path.write_text("price\n" + "\n".join(repr(float(v)) for v in values) + "\n")


def _check_lag_benchmark(tmp_path):
    series = tmp_path / "stock.csv"
    _write_series(series)
    out = tmp_path / "bench"
    code = run(["benchmark", "--data", series, "--lags", 5,
                "--split", "head", "--head-count", 200,
                "--repeats", 1, "--max-candidates", 6,
                "--grid-lo", -8, "--grid-hi", -2, "--folds", 3,
                "--seed", 3, "--out", out])
    assert code == 0
    line = (out / "benchmark.csv").read_text().splitlines()[1]
    cells = line.split(",")
    assert cells[0] == "stock" and cells[1] == "ok"
    assert np.isfinite(float(cells[2]))


def test_benchmark_lag_embedded_series_with_head_split(tmp_path):
    _check_lag_benchmark(tmp_path)


def test_benchmark_lag_embedded_series_on_one_blas_thread(tmp_path):
    # On one thread a candidate fits 1 of its 3 folds with the lowest RMSE of
    # any; tuning must not pick it, or its full-data refit is rejected.
    with single_blas_thread():
        _check_lag_benchmark(tmp_path)


def test_fit_and_eval_lag_embedded_series(tmp_path):
    series = tmp_path / "stock.csv"
    _write_series(series, seed=1)
    fit_dir = tmp_path / "fit"
    # near-collinear lag features require a narrow kernel to stay well posed
    assert run(["fit", "--data", series, "--lags", 3, "--mu", 2.0**-7,
                "--out", fit_dir]) == 0
    model = load_model(fit_dir / "model.json")
    assert model.n_regular_features == 2  # ceil(3 / 2) regular lag columns
    assert run(["eval", "--model", fit_dir / "model.json",
                "--data", series, "--lags", 3]) == 0


@pytest.mark.parametrize("command", ["fit", "eval", "benchmark"])
def test_negative_lags_are_usage_errors(tmp_path, capsys, command):
    series = tmp_path / "stock.csv"
    _write_series(series)
    out = tmp_path / "o"
    flags = {"fit": ["--out", out], "eval": ["--model", tmp_path / "model.json"],
             "benchmark": ["--repeats", 1, "--out", out]}[command]
    assert run([command, "--data", series, "--lags", -2] + flags) == 1
    assert capsys.readouterr().err == (
        "usage error: argument --lags: must be at least 0 (0 = off), got -2\n"
    )
    assert not out.exists()


def test_negative_lags_in_a_config_are_a_usage_error(tmp_path, capsys):
    series = tmp_path / "stock.csv"
    _write_series(series)
    cfg = tmp_path / "fit.cfg"
    write_config({"data": str(series), "lags": "-1", "out": str(tmp_path / "o")}, cfg)
    assert run(["fit", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"usage error: config {cfg}: argument --lags: must be at least 0 (0 = off), got -1\n"
    )
    assert not (tmp_path / "o").exists()


def test_bounds_linear_variant_uses_squared_row_norms(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("x1,x2,y\n0,0,0\n1,2,1\n2,3,2\n")
    fit_dir = tmp_path / "fit"
    assert run(["fit", "--data", data, "--kernel", "linear", "--out", fit_dir]) == 0
    assert run(["bounds", "--model", fit_dir / "model.json",
                "--weight-cap", 1.0, "--lipschitz", 1.0]) == 0
    text = capsys.readouterr().out
    model = load_model(fit_dir / "model.json")
    expected = np.sqrt(np.sum(model.train_regular**2)) / model.train_regular.shape[0]
    rad = float(next(l for l in text.splitlines() if l.startswith("rademacher")).split("=")[1])
    assert rad == pytest.approx(expected, rel=1e-12)
    assert "note:" not in text  # explicit Lipschitz constant, no default warning


def test_boolean_config_key(tmp_path):
    cfg = tmp_path / "bench.cfg"
    write_config(
        {"synthetic": "f3", "repeats": "1", "n_train": "40", "n_test": "20",
         "max_candidates": "4", "grid_lo": "-6", "grid_hi": "-2", "folds": "3",
         "with_krr": "true", "out": str(tmp_path / "o")},
        cfg,
    )
    assert run(["benchmark", "--config", cfg]) == 0
    header, *rows = (tmp_path / "o" / "benchmark.csv").read_text().splitlines()
    assert "krr_rmse" in header
    assert len(rows) == 1 and rows[0].startswith("f3,ok,")


def _small_benchmark_config(path, **extra):
    values = {"repeats": "1", "n_train": "40", "n_test": "20", "max_candidates": "4",
              "grid_lo": "-6", "grid_hi": "-2", "folds": "3", **extra}
    write_config(values, path)
    return path


def _benchmark_rows(out):
    return [line.split(",")[:2] for line in (out / "benchmark.csv").read_text().splitlines()[1:]]


def test_repeatable_config_key_names_whole_datasets(tmp_path):
    cfg = _small_benchmark_config(tmp_path / "bench.cfg", synthetic="f2",
                                  out=str(tmp_path / "one"))
    assert run(["benchmark", "--config", cfg]) == 0
    assert _benchmark_rows(tmp_path / "one") == [["f2", "ok"]]

    cfg = _small_benchmark_config(tmp_path / "list.cfg", synthetic="f2, f1",
                                  out=str(tmp_path / "two"))
    assert run(["benchmark", "--config", cfg]) == 0
    assert _benchmark_rows(tmp_path / "two") == [["f2", "ok"], ["f1", "ok"]]


def test_repeatable_flag_replaces_the_config_list(tmp_path):
    cfg = _small_benchmark_config(tmp_path / "bench.cfg", synthetic="f2",
                                  out=str(tmp_path / "o"))
    assert run(["benchmark", "--config", cfg, "--synthetic", "f1"]) == 0
    assert _benchmark_rows(tmp_path / "o") == [["f1", "ok"]]


@pytest.mark.parametrize("line", ["kernel = poly", "mu = wide", "lags = 1.5", "c1 ="])
def test_invalid_config_value_is_usage_error(tmp_path, line, capsys):
    data = tmp_path / "train.csv"
    data.write_text("x1,x2,y\n0,0,0\n1,2,1\n2,3,2\n")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"{line}\nout = {tmp_path / 'o'}\n")
    assert run(["fit", "--data", data, "--config", cfg]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "o" / "model.json").exists()


def test_non_boolean_switch_in_config_is_usage_error(tmp_path, capsys):
    cfg = _small_benchmark_config(tmp_path / "bench.cfg", synthetic="f2", with_krr="maybe",
                                  out=str(tmp_path / "o"))
    assert run(["benchmark", "--config", cfg]) == 1
    assert "must be boolean" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_values_are_converted_like_flags(tmp_path):
    data = tmp_path / "tiny.csv"
    data.write_text("x1,x2,y\n0,0,0\n1,2,1\n2,3,2\n")
    cfg = tmp_path / "fit.cfg"
    write_config({"kernel": "linear", "c1": "2", "eps": "0.5e-1",
                  "out": str(tmp_path / "config")}, cfg)
    assert run(["fit", "--data", data, "--config", cfg]) == 0
    assert run(["fit", "--data", data, "--kernel", "linear", "--c1", 2, "--eps", "0.5e-1",
                "--out", tmp_path / "flags"]) == 0
    from_config = (tmp_path / "config" / "model.json").read_bytes()
    assert from_config == (tmp_path / "flags" / "model.json").read_bytes()
    assert json.loads(from_config)["hyperparams"]["kernel"] is None
