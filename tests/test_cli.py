import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import csv_files, single_blas_thread
import twinpi.cli
from twinpi.cli import _csv_text, main, read_config, write_config
from twinpi.data import DataError, load_csv
from twinpi.linalg import NumericalError
from twinpi.metrics import evaluate
from twinpi.model import load_model, predict, save_model
from twinpi.tuning import TuningError


def run(args):
    return main([str(a) for a in args])


def read_csv_rows(path):
    """The rows of a CSV output, each checked to be as wide as the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [len(rows[0])] * len(rows)
    return rows


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


@pytest.mark.parametrize("weights", [
    ["--c2", 2.2250738585072014e-308, "--c5", 2.2250738585072014e-308],
    ["--c1", 1.1235582092889474e+307, "--c4", 1.1235582092889474e+307],
], ids=["c2-c5-tiny", "c1-c4-huge"])
def test_fit_overflow_at_extreme_weights_is_a_numerical_error(tmp_path, capsys, weights):
    # The multiplier system's products overflow; under filterwarnings = error
    # a RuntimeWarning escaping fit would end this run in a traceback.
    data_dir = tmp_path / "data"
    assert run(["synth", "--fn", "f2", "--n-train", 120, "--seed", 0, "--out", data_dir]) == 0
    capsys.readouterr()
    assert run(["fit", "--data", data_dir / "train.csv", "--mu", 0.125, *weights,
                "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rows, code", [(5, 0), (6, 0), (7, 3), (8, 3), (12, 3), (60, 3)])
def test_linear_fit_needs_rows_within_the_feature_span(tmp_path, capsys, rows, code):
    # f2 has 3 regular and 2 privileged columns: [G, G*] has rank at most
    # 3 + 2 + 1 = 6, and the equality constraint needs rank m.
    data_dir = tmp_path / "data"
    assert run(["synth", "--fn", "f2", "--seed", 0, "--n-train", rows, "--out", data_dir]) == 0
    capsys.readouterr()
    assert run(["fit", "--data", data_dir / "train.csv", "--kernel", "linear",
                "--out", tmp_path / "o"]) == code
    # the output directory is made only once the fit has returned
    assert (tmp_path / "o").exists() == (code == 0)
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


def test_eval_out_quotes_paths_with_commas(f2_run, tmp_path):
    data_dir, fit_dir = f2_run
    data = tmp_path / "test,\"held out\".csv"
    data.write_bytes((data_dir / "test.csv").read_bytes())
    model = tmp_path / "fit,a" / "model.json"
    model.parent.mkdir()
    model.write_bytes((fit_dir / "model.json").read_bytes())
    results = tmp_path / "results.csv"
    for _ in range(2):  # the first row is written whole, the second appended
        assert run(["eval", "--model", model, "--data", data, "--out", results]) == 0
    rows = read_csv_rows(results)
    assert rows[0] == ["data", "model", "rmse", "sse", "sse_over_sst", "n"]
    assert [row[:2] for row in rows[1:]] == [[str(data), str(model)]] * 2


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


@pytest.mark.parametrize("command", ["eval", "bounds"])
def test_a_model_file_nested_too_deep_is_a_data_error(f2_run, tmp_path, capsys, command):
    data_dir, _ = f2_run
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    argv = {"eval": ["eval", "--model", path, "--data", data_dir / "test.csv"],
            "bounds": ["bounds", "--model", path, "--lipschitz", 1]}[command]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"data error: model file {path} nests its JSON too deeply to read\n"
    )


@pytest.mark.parametrize("weights, message", [
    (lambda n: [(-1.0) ** i * 1e308 for i in range(n)], "predicts NaN or inf"),
    (lambda n: [1e200] * n, "squared errors overflow"),
], ids=["alternating-1e308", "constant-1e200"])
def test_eval_of_weights_out_of_range_is_a_data_error(f2_run, capsys, weights, message):
    data_dir, fit_dir = f2_run
    path = fit_dir / "model.json"
    payload = json.loads(path.read_text())
    payload["v1"] = payload["v2"] = weights(len(payload["v1"]))
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["eval", "--model", path, "--data", data_dir / "test.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and message in captured.err


def test_eval_model_file_whose_norm_covers_too_few_columns_is_a_data_error(f2_run, capsys):
    data_dir, fit_dir = f2_run
    path = fit_dir / "model.json"
    payload = json.loads(path.read_text())
    # col_min and col_max end with the target's column: two entries cover one feature
    payload["norm"] = {key: values[:2] for key, values in payload["norm"].items()}
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["eval", "--model", path, "--data", data_dir / "test.csv"]) == 2
    assert _one_line_error(capsys, "data error: ") == (
        f"data error: model file {path} is malformed: norm covers 1 feature columns, "
        "the model reads 3\n"
    )


# ------------------------------------------------ model file property test

LEAN_MODEL_KEYS = ("format", "hyperparams", "v1", "v2", "train_regular", "norm")
_HP_FIELDS = ("c1", "c2", "c3", "c4", "c5", "c6", "eps1", "eps2", "kernel")

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
_kernels = st.none() | st.fixed_dictionaries(
    {"kind": st.sampled_from(["rbf", "linear"]) | _json_values,
     "mu": st.floats() | _json_values}
)
_ARRAYS = ("v1", "v2", "train_regular", "train_regular[0]", "norm col_min", "norm col_max")
_model_edits = st.one_of(
    st.tuples(st.just("delete"), st.sampled_from(LEAN_MODEL_KEYS)),
    st.tuples(st.just("swap"), st.sampled_from(LEAN_MODEL_KEYS), _json_values),
    st.tuples(st.just("swap entry"), st.sampled_from(_ARRAYS), st.integers(0, 30),
              st.floats() | st.sampled_from([1e308, -1e308, 1e200, 5e-324]) | _json_values),
    st.tuples(st.just("resize"), st.sampled_from(_ARRAYS), st.integers(0, 30)),
    st.tuples(
        st.just("hyperparam"),
        st.sampled_from(_HP_FIELDS),
        st.floats() | st.integers() | _json_values | _kernels,
    ),
)


def _array(payload, name):
    """The list an array edit changes; "train_regular[0]" is the first training row."""
    if name.startswith("norm "):
        return payload["norm"][name[5:]]
    if name == "train_regular[0]":
        return payload["train_regular"][0]
    return payload[name]


def _edit_model_payload(payload, edit):
    kind, key, *value = edit
    if kind == "delete":
        payload.pop(key, None)
    elif kind == "swap":
        payload[key] = value[0]
    elif kind == "hyperparam":
        payload["hyperparams"][key] = value[0]
    elif kind == "swap entry":
        array = _array(payload, key)
        array[value[0] % len(array)] = value[1]
    else:  # resize: cut to n entries, or pad with copies of the last one
        array, n = _array(payload, key), value[0]
        array[:] = array[:n] + array[-1:] * (n - len(array))


@pytest.fixture(scope="module")
def lean_model_file(tmp_path_factory):
    """A small fitted f2 model's file and a test set for it."""
    root = tmp_path_factory.mktemp("lean")
    assert run(["synth", "--fn", "f2", "--n-train", 20, "--n-test", 20, "--seed", 3,
                "--out", root]) == 0
    assert run(["fit", "--data", root / "train.csv", "--mu", 0.0625, "--out", root]) == 0
    return json.loads((root / "model.json").read_text()), root / "test.csv"


@given(edits=st.lists(_model_edits, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_an_edited_model_file_loads_or_is_a_data_error(lean_model_file, tmp_path_factory, edits):
    payload, test_csv = lean_model_file
    payload = json.loads(json.dumps(payload))  # a deep copy to edit
    for edit in edits:
        # an edit of a key an earlier edit deleted or swapped, or of the first
        # row of a training array an earlier edit emptied, has nothing to edit
        with contextlib.suppress(
            KeyError, TypeError, AttributeError, ZeroDivisionError, IndexError
        ):
            _edit_model_payload(payload, edit)
    path = tmp_path_factory.mktemp("edited") / "model.json"
    path.write_text(json.dumps(payload))
    try:
        load_model(path)
    except DataError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["eval", "--model", path, "--data", test_csv])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        printed = dict(line.split(" = ") for line in out.getvalue().splitlines())
        for name in ("rmse", "sse", "sse/sst"):
            assert printed[name] == "undefined" or math.isfinite(float(printed[name]))


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


def test_benchmark_names_a_data_prep_failure_after_the_twin_model_failed(
    tmp_path, capsys, monkeypatch
):
    normalize = twinpi.cli.min_max_normalize
    calls = []

    def failing_second_normalize(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise DataError("forced data-prep failure")
        return normalize(*args, **kwargs)

    monkeypatch.setattr(twinpi.cli, "min_max_normalize", failing_second_normalize)
    out = tmp_path / "bench"
    assert run(LINEAR_PAST_ROW_LIMIT + ["--repeats", 2, "--out", out]) == 0
    cells = read_csv_rows(out / "benchmark.csv")[1]
    # The comparator scored repeat 1 only, so its cells stay empty.
    assert cells[:8] == ["f2", "failed", "", "", "", "", "", ""]
    assert cells[8].startswith("none of the 6 candidates can fit fold 1: ")
    assert "f2: FAILED (none of the 6 candidates can fit fold 1: " in capsys.readouterr().err
    assert (out / "timing.txt").read_text() == "f2: failed\n"
    assert len(calls) == 2


SMALL_F2_WITH_KRR = ["benchmark", "--synthetic", "f2", "--repeats", 2, "--n-train", 40,
                     "--n-test", 20, "--max-candidates", 4, "--grid-lo", -6, "--grid-hi", -2,
                     "--folds", 3, "--with-krr"]


@pytest.mark.parametrize("name, failing_call, error", [
    ("min_max_normalize", 2, DataError("forced data-prep failure")),
    ("tune_krr", 1, TuningError("forced comparator failure")),
])
def test_benchmark_names_a_data_prep_or_comparator_failure_of_a_fitting_twin_model(
    tmp_path, capsys, monkeypatch, name, failing_call, error
):
    original = getattr(twinpi.cli, name)
    calls, tunes = [], []
    cross_validate = twinpi.cli.cross_validate

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == failing_call:
            raise error
        return original(*args, **kwargs)

    def counted_cross_validate(*args, **kwargs):
        tunes.append(args)
        return cross_validate(*args, **kwargs)

    monkeypatch.setattr(twinpi.cli, name, failing)
    monkeypatch.setattr(twinpi.cli, "cross_validate", counted_cross_validate)
    out = tmp_path / "bench"
    assert run(SMALL_F2_WITH_KRR + ["--out", out]) == 0
    rows = read_csv_rows(out / "benchmark.csv")
    assert rows[1] == ["f2", "failed", "", "", "", "", "", "", str(error)]
    assert capsys.readouterr().err == f"f2: FAILED ({error})\n"
    assert (out / "timing.txt").read_text() == "f2: failed\n"
    # The error stops the dataset at once: no repeat runs after it.
    assert len(calls) == failing_call and len(tunes) == 1


def test_benchmark_refits_the_next_candidate_when_the_best_refit_is_rejected(tmp_path, capsys):
    # At one BLAS thread the gate rejects the refit of this run's best
    # candidate on all 300 rows, and the second one fits.
    out = tmp_path / "bench"
    with single_blas_thread():
        code = run(["benchmark", "--synthetic", "f4", "--n-train", 300, "--repeats", 1,
                    "--max-candidates", 64, "--seed", 23760, "--out", out])
    assert code == 0
    rows = read_csv_rows(out / "benchmark.csv")
    assert rows[1][:2] == ["f4", "ok"] and rows[1][-1] == ""
    assert all(np.isfinite(float(c)) for c in rows[1][2:5])
    err = capsys.readouterr().err
    assert err.startswith("f4: repeat 1: the best candidate's refit failed (fit rejected: ")
    assert err.endswith("; refitted rank 2 of the selection order\n")
    assert err.count("\n") == 1


SMALL_F2 = ["benchmark", "--synthetic", "f2", "--repeats", 1, "--n-train", 40, "--n-test", 20,
            "--max-candidates", 8, "--grid-lo", -6, "--grid-hi", -2, "--folds", 3]


def _rejecting_refits(monkeypatch, rejected):
    """Make the first ``rejected`` final refits raise; returns the hyperparameters
    each refit was given and the tuning results."""
    fit, cross_validate = twinpi.cli.fit, twinpi.cli.cross_validate
    refits, tunes = [], []

    def rejecting_fit(data, hp, **kwargs):
        refits.append(hp)
        if len(refits) <= rejected:
            raise NumericalError(f"forced rejection {len(refits)}")
        return fit(data, hp, **kwargs)

    def recorded_cross_validate(*args, **kwargs):
        tunes.append(cross_validate(*args, **kwargs))
        return tunes[-1]

    monkeypatch.setattr(twinpi.cli, "fit", rejecting_fit)
    monkeypatch.setattr(twinpi.cli, "cross_validate", recorded_cross_validate)
    return refits, tunes


def test_benchmark_falls_back_in_the_selection_order(tmp_path, capsys, monkeypatch):
    refits, tunes = _rejecting_refits(monkeypatch, 1)
    out = tmp_path / "bench"
    assert run(SMALL_F2 + ["--out", out]) == 0
    (tuned,) = tunes
    assert len(tuned.ranking) >= 3
    assert refits == [tuned.table[i].hp for i in tuned.ranking[:2]]
    assert read_csv_rows(out / "benchmark.csv")[1][:2] == ["f2", "ok"]
    assert capsys.readouterr().err == (
        "f2: repeat 1: the best candidate's refit failed (forced rejection 1); "
        "refitted rank 2 of the selection order\n"
    )


def test_benchmark_row_fails_with_the_best_error_after_three_rejected_refits(
    tmp_path, capsys, monkeypatch
):
    refits, tunes = _rejecting_refits(monkeypatch, 3)
    out = tmp_path / "bench"
    assert run(SMALL_F2 + ["--out", out]) == 0
    (tuned,) = tunes
    assert refits == [tuned.table[i].hp for i in tuned.ranking[:3]]
    rows = read_csv_rows(out / "benchmark.csv")
    assert rows[1] == ["f2", "failed", "", "", "", "forced rejection 1"]
    assert capsys.readouterr().err == "f2: FAILED (forced rejection 1)\n"
    assert (out / "timing.txt").read_text() == "f2: failed\n"


def test_benchmark_quotes_a_dataset_name_with_a_comma(tmp_path):
    data = tmp_path / "a,b.csv"
    run(["synth", "--fn", "f2", "--n-train", 40, "--out", tmp_path / "synth"])
    data.write_bytes((tmp_path / "synth" / "train.csv").read_bytes())
    out = tmp_path / "bench"
    base = ["--data", data, "--repeats", 1, "--max-candidates", 4, "--folds", 3,
            "--pin-mu", 0.0625, "--with-krr"]
    assert run(["benchmark", *base, "--out", out]) == 0
    rows = read_csv_rows(out / "benchmark.csv")
    assert len(rows[0]) == 9 and [row[:2] for row in rows[1:]] == [["a,b", "ok"]]
    # A failed row too: the linear variant cannot fit this many training rows.
    assert run(["benchmark", *base[:-3], "--kernel", "linear", "--out", out]) == 0
    rows = read_csv_rows(out / "benchmark.csv")
    assert [row[:2] for row in rows[1:]] == [["a,b", "failed"]]
    assert "exceed" in rows[1][5]


@pytest.mark.parametrize("twice", ["csv", "synthetic"])
def test_benchmark_rejects_two_datasets_of_one_name(tmp_path, capsys, twice):
    # the files need not exist: the names are checked before any dataset runs
    if twice == "csv":
        datasets = ["--data", tmp_path / "a" / "train.csv", "--data", tmp_path / "b" / "train.csv"]
        name = "train"
    else:
        datasets = ["--synthetic", "f2", "--synthetic", "f1", "--synthetic", "f2"]
        name = "f2"
    out = tmp_path / "bench"
    assert run(["benchmark", *datasets, "--repeats", 1, "--max-candidates", 2,
                "--out", out]) == 1
    assert capsys.readouterr() == (
        "", f"usage error: dataset name {name!r} appears more than once; "
        "each benchmark row needs its own name\n"
    )
    assert not out.exists()


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
    (["--max-candidates", 0], "max_candidates must be positive when given"),
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


def test_benchmark_grid_past_the_cap_is_a_usage_error_before_any_dataset(tmp_path, capsys):
    out = tmp_path / "bench"
    code = run(["benchmark", "--synthetic", "f2", "--grid-lo", -15, "--grid-hi", 15,
                "--max-candidates", 1000000, "--repeats", 1, "--out", out])
    assert code == 1
    assert capsys.readouterr() == (
        "", "usage error: grid flags: grid keeps 923521 of its 923521 candidates, over the "
        "cap of 200000; set max_candidates to at most 200000\n"
    )
    assert not out.exists()


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


def test_stats_outputs_quote_names_with_commas(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text('dataset,"twin, tied",krr,"say ""hi"""\n'
                      '"d,1",0.1,0.2,0.3\nd2,0.3,0.1,0.2\nd3,0.2,0.3,0.1\n')
    out = tmp_path / "report"
    assert run(["stats", "--scores", scores, "--out", out]) == 0
    names = ["twin, tied", "krr", 'say "hi"']
    ranks = read_csv_rows(out / "ranks.csv")
    assert ranks[0] == ["dataset", *names]
    assert [row[0] for row in ranks[1:]] == ["d,1", "d2", "d3", "avg_rank"]
    assert ranks[1][1:] == ["1.0", "2.0", "3.0"]
    significance = read_csv_rows(out / "significance.csv")
    assert significance[0] == ["model", *names]
    assert [row[0] for row in significance[1:]] == names


def test_stats_outputs_quote_names_with_carriage_returns(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_bytes(b'dataset,"twin\rtied",krr\n"d\r1",0.1,0.2\nd2,0.3,0.1\n')
    out = tmp_path / "report"
    assert run(["stats", "--scores", scores, "--out", out]) == 0
    ranks = read_csv_rows(out / "ranks.csv")
    assert ranks[0] == ["dataset", "twin\rtied", "krr"]
    assert [row[0] for row in ranks[1:]] == ["d\r1", "d2", "avg_rank"]
    assert read_csv_rows(out / "significance.csv")[0] == ["model", "twin\rtied", "krr"]


def test_csv_text_quotes_only_cells_that_need_it():
    rows = [["a\rb", "c\nd", "e"], ["x,y", 'q"', "plain"], ["", " s ", "1.5"], ["a\r\nb"]]
    assert _csv_text(rows) == (
        '"a\rb","c\nd",e\n"x,y","q""",plain\n, s ,1.5\n"a\r\nb"\n'
    )


def test_stats_identical_scores_degenerate(tmp_path, capsys):
    scores = tmp_path / "flat.csv"
    scores.write_text("dataset,a,b\nd1,1.0,1.0\nd2,1.0,1.0\n")
    assert run(["stats", "--scores", scores]) == 0
    text = capsys.readouterr().out
    assert "chi2_f = 0.0000" in text
    assert "f_f = 0.0000" in text
    assert "a vs b: no" in text


#: sse/sst of the twin model and kernel ridge on f1-f4: kernel ridge ranks
#: first on every dataset, a rank gap of 1.0.
TWIN_VS_KRR = "dataset,twin,krr\nf1,4.89,0.99\nf2,0.76,0.49\nf3,3.19,1.00\nf4,0.36,0.27\n"


@pytest.mark.parametrize("flags, cd, verdict", [
    ([], "0.9800 (q_alpha = 1.96)", "yes"),
    (["--q-alpha", 2.850], "1.4250 (q_alpha = 2.85)", "no"),
])
def test_stats_default_q_alpha_is_the_two_model_value(tmp_path, capsys, flags, cd, verdict):
    scores = tmp_path / "scores.csv"
    scores.write_text(TWIN_VS_KRR)
    assert run(["stats", "--scores", scores, *flags, "--out", tmp_path / "report"]) == 0
    text = capsys.readouterr().out
    assert f"nemenyi cd = {cd}\n" in text
    assert text.endswith(f"twin vs krr: {verdict}\n")
    assert (tmp_path / "report" / "report.txt").read_text() == text


def test_stats_past_ten_models_needs_q_alpha(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    names = [f"m{i}" for i in range(11)]
    rows = [",".join(["dataset", *names])]
    rows += [",".join([f"d{r}", *(str((r * 7 + i) % 11) for i in range(11))]) for r in range(3)]
    scores.write_text("\n".join(rows) + "\n")
    assert run(["stats", "--scores", scores, "--out", tmp_path / "report"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "configuration error: no default q_alpha for 11 models: the 5% table covers "
        "2 to 10 models; give q_alpha (--q-alpha)\n"
    )
    assert not (tmp_path / "report").exists()
    assert run(["stats", "--scores", scores, "--q-alpha", 3.2]) == 0


def test_stats_malformed_table_is_data_error(tmp_path):
    scores = tmp_path / "bad.csv"
    scores.write_text("dataset,a,b\nd1,oops,1.0\nd2,1.0,1.0\n")
    assert run(["stats", "--scores", scores]) == 2


def test_stats_scores_that_are_not_utf8_are_a_data_error(tmp_path, capsys):
    scores = tmp_path / "bad.csv"
    scores.write_bytes(b"dataset,a,b\nd1,1.0,\xff\nd2,1.0,2.0\n")
    assert run(["stats", "--scores", scores]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {scores}: not UTF-8 text")


def test_benchmark_scores_feed_stats(tmp_path, capsys):
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("x,y\n" + "\n".join(f"{i},{i * 2}" for i in range(30)) + "\n")
    out = tmp_path / "bench"
    assert run(["benchmark", "--synthetic", "f1", "--synthetic", "f2", "--data", narrow,
                "--repeats", 1, "--n-train", 40, "--n-test", 20, "--max-candidates", 4,
                "--grid-lo", -6, "--grid-hi", -2, "--folds", 3, "--with-krr",
                "--out", out]) == 0
    rows = read_csv_rows(out / "benchmark.csv")
    assert [row[:2] for row in rows[1:]] == [["f1", "ok"], ["f2", "ok"], ["narrow", "failed"]]
    # each ok row's mean test rmse, as benchmark.csv writes it; the failed
    # dataset is left out, and stderr names it
    assert read_csv_rows(out / "scores.csv") == [
        ["dataset", "twin", "krr"], *([row[0], row[2], row[5]] for row in rows[1:3])
    ]
    assert capsys.readouterr().err.startswith("narrow: FAILED (")
    assert run(["stats", "--scores", out / "scores.csv", "--out", tmp_path / "report"]) == 0
    assert "(q_alpha = 1.96)\n" in capsys.readouterr().out
    ranks = read_csv_rows(tmp_path / "report" / "ranks.csv")
    assert [row[0] for row in ranks] == ["dataset", "f1", "f2", "avg_rank"]


def test_stats_on_a_table_with_a_nan_score_is_a_data_error(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("dataset,twin,krr\nf1,0.5,nan\nf2,0.4,0.3\n")
    assert run(["stats", "--scores", scores, "--out", tmp_path / "report"]) == 2
    assert _one_line_error(capsys, "data error: ") == (
        f"data error: {scores}: scores contain non-finite entries\n"
    )
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("table, message", [
    (None, "cannot read {path}: [Errno 2] No such file or directory"),
    ("dataset,a,b\nd1,1.0,2.0\n", "{path}: a score table needs a header and at least 2 data rows"),
    ("dataset,a\nd1,1.0\nd2,2.0\n", "{path}: a score table needs at least 2 model columns"),
], ids=["missing-file", "one-data-row", "one-model-column"])
def test_stats_on_a_missing_or_too_small_table_is_a_data_error(tmp_path, capsys, table, message):
    scores = tmp_path / "scores.csv"
    if table is not None:
        scores.write_text(table)
    capsys.readouterr()
    assert run(["stats", "--scores", scores, "--out", tmp_path / "report"]) == 2
    err = _one_line_error(capsys, "data error: ")
    assert err.startswith("data error: " + message.format(path=scores))
    assert not (tmp_path / "report").exists()


def test_stats_with_a_nonpositive_q_alpha_is_a_configuration_error(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(TWIN_VS_KRR)
    assert run(["stats", "--scores", scores, "--q-alpha", 0]) == 1
    assert _one_line_error(capsys, "configuration error: ") == (
        "configuration error: q_alpha must be positive, got 0.0\n"
    )


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


def test_bounds_of_a_linear_model_whose_diagonal_overflows_is_a_data_error(tmp_path, capsys):
    run(["synth", "--fn", "f2", "--n-train", 6, "--n-test", 5, "--out", tmp_path / "data"])
    assert run(["fit", "--data", tmp_path / "data" / "train.csv", "--kernel", "linear",
                "--out", tmp_path / "fit"]) == 0
    path = tmp_path / "fit" / "model.json"
    payload = json.loads(path.read_text())
    payload["train_regular"][0][0] = 1e200  # finite, but its square is not
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    # An overflow warning would fail the test: warnings are errors here.
    assert run(["bounds", "--model", path, "--lipschitz", 1]) == 2
    assert capsys.readouterr() == ("", (
        f"data error: model file {path} is malformed: its training rows overflow "
        "the linear kernel diagonal\n"
    ))


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
    assert payload["format"] == "twinpi-model-v2"
    assert payload["hyperparams"]["kernel"]["kind"] == "rbf"
    # only what predict reads: no privileged channel
    assert sorted(payload) == sorted(LEAN_MODEL_KEYS)


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


# --------------------------------------------------------- input boundaries


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    return err


def test_fit_selects_the_target_by_name_or_by_index(tmp_path):
    data_dir = tmp_path / "data"
    assert run(["synth", "--fn", "f2", "--seed", 0, "--out", data_dir]) == 0
    models = {}
    for target in (None, "y", "5", "-1", "x1", "0", " x1 "):
        flags = [] if target is None else ["--target", target]
        out = tmp_path / f"fit{len(models)}"
        assert run(["fit", "--data", data_dir / "train.csv", "--mu", 0.125, *flags,
                    "--out", out]) == 0
        models[target] = (out / "model.json").read_bytes()
    assert models["y"] == models["5"] == models["-1"] == models[None]
    assert models["x1"] == models["0"] == models[" x1 "] != models[None]


@pytest.mark.parametrize("target, message", [
    ("6", "target column index 6 out of range for 6 columns"),
    ("-7", "target column index -7 out of range for 6 columns"),
    ("zz", "target column 'zz' not found in header ['x1', 'x2', 'x3', 'x4', 'x5', 'y']"),
])
def test_fit_target_outside_the_file_is_a_data_error(tmp_path, capsys, target, message):
    data_dir = tmp_path / "data"
    assert run(["synth", "--fn", "f2", "--seed", 0, "--out", data_dir]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert run(["fit", "--data", data_dir / "train.csv", "--target", target, "--out", out]) == 2
    assert _one_line_error(capsys, "data error: ") == f"data error: {message}\n"
    assert not out.exists()


def test_fit_target_by_name_in_a_file_without_a_header_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "plain.csv"
    data.write_text("0,0,0\n1,2,1\n2,3,2\n")
    assert run(["fit", "--data", data, "--target", "y", "--out", tmp_path / "o"]) == 2
    assert _one_line_error(capsys, "data error: ") == (
        "data error: target column 'y' requested but file has no header\n"
    )


def test_benchmark_with_zero_repeats_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["benchmark", "--synthetic", "f2", "--repeats", 0, "--out", out]) == 1
    assert _one_line_error(capsys, "usage error: ") == (
        "usage error: --repeats must be at least 1\n"
    )
    assert not out.exists()


def test_config_line_without_equals_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# a comment\nfn f1\n")
    assert run(["synth", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert _one_line_error(capsys, "usage error: ") == (
        f"usage error: {cfg}: line 2 is not a 'key = value' pair: 'fn f1'\n"
    )
    assert not (tmp_path / "o").exists()


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert run(["synth", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = _one_line_error(capsys, f"usage error: cannot read config {cfg}: ")
    assert "No such file or directory" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, content, prefix", [
    ("missing.json", None, "cannot read model file {path}: "),
    ("broken.json", '{"format": ', "model file {path} is not valid JSON: "),
])
def test_eval_of_an_unreadable_or_invalid_model_file_is_a_data_error(
    f2_run, capsys, name, content, prefix
):
    data_dir, fit_dir = f2_run
    path = fit_dir / name
    if content is not None:
        path.write_text(content)
    capsys.readouterr()
    assert run(["eval", "--model", path, "--data", data_dir / "test.csv"]) == 2
    _one_line_error(capsys, "data error: " + prefix.format(path=path))
    with pytest.raises(DataError, match=re.escape(prefix.format(path=path))):
        load_model(path)


def test_eval_on_too_few_feature_columns_is_a_data_error(f2_run, tmp_path, capsys):
    data_dir, fit_dir = f2_run
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,y\n1,2,3\n4,5,6\n")
    capsys.readouterr()
    assert run(["eval", "--model", fit_dir / "model.json", "--data", bad]) == 2
    assert _one_line_error(capsys, "data error: ") == (
        "data error: schema mismatch: test data has 2 feature columns, "
        "model was trained on 5\n"
    )
    # a model file saved without normalization stats needs its regular columns
    model = load_model(fit_dir / "model.json")
    bare = tmp_path / "bare.json"
    save_model(dataclasses.replace(model, norm=None), bare)
    assert run(["eval", "--model", bare, "--data", bad]) == 2
    assert _one_line_error(capsys, "data error: ") == (
        "data error: schema mismatch: test data has 2 feature columns, "
        "model needs at least 3\n"
    )


def test_fit_without_data_is_a_usage_error_and_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["fit", "--out", out]) == 1
    assert _one_line_error(capsys, "usage error: ") == (
        "usage error: --data is required (on the command line or in the config)\n"
    )
    assert not out.exists()


def test_with_krr_false_in_a_config_runs_without_the_comparator(tmp_path):
    cfg = _small_benchmark_config(tmp_path / "bench.cfg", synthetic="f2", with_krr="false",
                                  out=str(tmp_path / "o"))
    assert run(["benchmark", "--config", cfg]) == 0
    rows = read_csv_rows(tmp_path / "o" / "benchmark.csv")
    assert rows[0] == ["dataset", "status", "twin_rmse", "twin_sse", "twin_sse_over_sst", "error"]
    # scores.csv then has the twin model's column only
    assert read_csv_rows(tmp_path / "o" / "scores.csv") == [["dataset", "twin"], ["f2", rows[1][2]]]


@pytest.mark.parametrize("flags, message", [
    (["--lipschitz", 0], "Lipschitz constant must be positive, got 0.0"),
    (["--delta", 1], "delta must lie in (0, 1), got 1.0"),
    (["--empirical-error", -1], "empirical error must be non-negative, got -1.0"),
])
def test_bounds_out_of_range_inputs_are_configuration_errors(f2_run, capsys, flags, message):
    _, fit_dir = f2_run
    capsys.readouterr()
    assert run(["bounds", "--model", fit_dir / "model.json", *flags]) == 1
    assert _one_line_error(capsys, "configuration error: ") == (
        f"configuration error: {message}\n"
    )


def test_bounds_rejects_its_flags_before_it_prints_the_lipschitz_note(f2_run, capsys):
    _, fit_dir = f2_run
    capsys.readouterr()
    assert run(["bounds", "--model", fit_dir / "model.json", "--delta", 1]) == 1
    assert capsys.readouterr() == ("", "configuration error: delta must lie in (0, 1), got 1.0\n")
