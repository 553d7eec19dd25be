"""Command-line driver for synthetic data, fitting, evaluation, benchmark runs,
rank statistics and generalization bounds.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure. Every command accepts ``--config FILE`` holding
``key = value`` lines mirroring its flags, each parsed by its flag (a
repeatable flag takes a comma-separated list); explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bounds import BoundInputs, generalization_bound, rademacher_bound
from .data import (
    DataError,
    Dataset,
    HeadSplit,
    NoiseSpec,
    RatioSplit,
    gen_synthetic,
    lag_embed,
    load_csv,
    load_series,
    min_max_normalize,
    save_csv,
    split_privileged,
    train_test_split,
    write_text_atomically,
)
from .kernels import KernelSpec
from .linalg import NumericalError
from .metrics import aggregate_mean, evaluate
from .model import (
    Hyperparams,
    fit,
    fit_krr_comparator,
    # Not called here: ``fit`` returns the residuals its gate checked. It stays
    # bound because perfbench's traced mode wraps it as its ``model.kkt`` layer.
    kkt_residuals,  # noqa: F401
    kkt_tolerance,
    load_model,
    predict,
    save_model,
)
from .stats import compute_report, format_report, load_score_csv
from .tuning import GridSpec, TuningError, check_grid_cap, cross_validate, tune_krr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags or configuration."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file (``#`` starts a comment line).

    Each key may appear once; a repeatable flag takes a comma-separated list.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise UsageError(f"config {path} is not UTF-8 text") from None
    out: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {i} is not a 'key = value' pair: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise UsageError(f"{path}: line {i} repeats key {key!r}")
        out[key] = value
    return out


def write_config(values: dict[str, object], path: str | Path) -> None:
    """Write a flat config/manifest file that :func:`read_config` reads back."""
    lines = [f"{key} = {values[key]}" for key in values]
    write_text_atomically(path, "\n".join(lines) + "\n")


def _require(args, name: str) -> str:
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise UsageError(f"--{name} is required (on the command line or in the config)")
    return value


def _target_selector(raw: str | None):
    if raw is None:
        return None
    stripped = raw.strip()
    try:
        return int(stripped)
    except ValueError:
        return stripped


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_ratio(value: float | None) -> str:
    return "undefined" if value is None else _fmt(value)


def _csv_text(rows) -> str:
    """``rows`` as CSV lines, each ending in a newline.

    A cell holding a comma, a quote, a newline or a carriage return is quoted
    as ``csv.writer`` quotes it, so ``csv.reader`` reads it back as one cell;
    other cells are written as they are. Each row is written with a CRLF
    terminator, since with a bare LF one ``csv.writer`` leaves a carriage
    return unquoted, and the CRLF then becomes a newline.
    """
    lines = []
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
    return "".join(lines)


def _lag_count(raw: str) -> int:
    """``--lags``: a non-negative integer (0 = off)."""
    try:
        lags = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if lags < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0 (0 = off), got {lags}")
    return lags


def _load_dataset(path: str, target: str | None, lags: int) -> Dataset:
    if lags > 0:
        series = load_series(path, _target_selector(target))
        return lag_embed(series, lags)
    return load_csv(path, _target_selector(target))


def _hp_from_args(args) -> Hyperparams:
    kernel = None if args.kernel == "linear" else KernelSpec("rbf", mu=args.mu)
    return Hyperparams(
        c1=args.c1, c2=args.c2, c3=args.c3,
        c4=args.c4, c5=args.c5, c6=args.c6,
        eps1=args.eps, eps2=args.eps, kernel=kernel,
    )


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fn = _require(args, "fn")
    noise_seed = args.seed if args.noise_seed is None else args.noise_seed
    noise = NoiseSpec(args.noise, seed=noise_seed)
    train, test = gen_synthetic(fn, args.n_train, args.n_test, noise, args.seed)
    save_csv(train, out_dir / "train.csv")
    save_csv(test, out_dir / "test.csv")
    write_config(
        {
            "fn": fn,
            "noise": args.noise,
            "seed": args.seed,
            "noise_seed": noise_seed,
            "n_train": args.n_train,
            "n_test": args.n_test,
        },
        out_dir / "manifest.txt",
    )
    print(f"wrote {out_dir / 'train.csv'} ({train.n_samples} rows)")
    print(f"wrote {out_dir / 'test.csv'} ({test.n_samples} rows)")
    return EXIT_OK


def cmd_fit(args) -> int:
    raw = _load_dataset(_require(args, "data"), args.target, args.lags)
    normalized, stats = min_max_normalize(raw)
    pi = split_privileged(normalized)
    model = fit(pi, _hp_from_args(args), norm=stats)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    save_model(model, model_path)

    res = model.kkt
    threshold = kkt_tolerance(pi.targets)
    report = dict(res.as_dict())
    report["max_residual"] = res.max_residual()
    report["threshold"] = threshold
    report["within_tolerance"] = res.max_residual() <= threshold
    write_config(report, out_dir / "kkt_report.txt")

    print(f"wrote {model_path}")
    print(
        f"kkt max residual {res.max_residual():.3e} "
        f"(threshold {threshold:.3e}, ok={report['within_tolerance']})"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(_require(args, "model"))
    ds = _load_dataset(_require(args, "data"), args.target, args.lags)
    d_regular = model.n_regular_features
    if model.norm is not None:
        if ds.n_features != model.norm.n_feature_columns:
            raise DataError(
                f"schema mismatch: test data has {ds.n_features} feature columns, "
                f"model was trained on {model.norm.n_feature_columns}"
            )
    elif ds.n_features < d_regular:
        raise DataError(
            f"schema mismatch: test data has {ds.n_features} feature columns, "
            f"model needs at least {d_regular}"
        )
    x = ds.features[:, :d_regular]
    # A model file or test data out of range overflows to inf or NaN, which is
    # a data error below rather than a warning and a NaN metric.
    with np.errstate(over="ignore", invalid="ignore"):
        start = time.perf_counter()
        y_hat = predict(model, x)
        elapsed = time.perf_counter() - start
        y_true = model.norm.transform_targets(ds.targets) if model.norm is not None else ds.targets
        met = evaluate(y_true, y_hat)
    if not np.all(np.isfinite(y_hat)):
        raise DataError("the model predicts NaN or inf on these features; "
                        "the model file or the test data is out of range")
    if not np.isfinite(met.sse):
        raise DataError("the squared errors overflow; the model file or the test data "
                        "is out of range")
    print(f"rmse = {met.rmse}")
    print(f"sse = {met.sse}")
    print(f"sse/sst = {_fmt_ratio(met.sse_over_sst)}")
    print(f"predict_time_s = {elapsed:.4f}")
    if args.out:
        out_path = Path(args.out)
        row = [args.data, args.model, _fmt(met.rmse), _fmt(met.sse),
               _fmt_ratio(met.sse_over_sst), str(met.n)]
        if not out_path.exists():
            header = ["data", "model", "rmse", "sse", "sse_over_sst", "n"]
            write_text_atomically(out_path, _csv_text([header, row]))
        else:
            with open(out_path, "a", encoding="utf-8") as fh:
                fh.write(_csv_text([row]))
    return EXIT_OK


#: The errors that fail one dataset's benchmark row, not the whole run.
_ROW_ERRORS = (DataError, NumericalError, TuningError, ValueError)

#: The most candidates a benchmark repeat refits on all its training rows.
_REFIT_CANDIDATES = 3


def _refit(pi, tuned, stats, label: str):
    """The final model: the best candidate of ``tuned`` refitted on ``pi``, or,
    when that fit raises :class:`NumericalError`, the next of the first
    ``_REFIT_CANDIDATES`` in ``tuned.ranking`` whose fit succeeds.

    A candidate past the best is named on stderr under ``label``. When every
    refit fails, the best candidate's error is raised.
    """
    error = None
    for rank, index in enumerate(tuned.ranking[:_REFIT_CANDIDATES], start=1):
        try:
            model = fit(pi, tuned.table[index].hp, norm=stats)
        except NumericalError as exc:
            error = error or exc
            continue
        if error is not None:
            print(f"{label}: the best candidate's refit failed ({error}); "
                  f"refitted rank {rank} of the selection order", file=sys.stderr)
        return model
    raise error


def _benchmark_dataset(args, grid: GridSpec, index: int, kind: str, value: str, name: str):
    """Tune, fit and score dataset ``index`` on each of ``args.repeats`` seeds.

    ``kind`` is "synthetic" (``value`` names the function) or "csv" (``value``
    is the path); ``name`` is the row's name. Returns (twin metrics, krr
    metrics, timings, error): the metrics of each repeat each model scored,
    the timings of each repeat that ran to its end, and the error that fails
    the row, None if none. The rules:

    * the twin model's first error names the row, and the twin model is not
      run again; without ``--with-krr`` the repeats stop there;
    * a data-prep or comparator error stops the dataset at once, and names the
      row unless the twin model failed first;
    * the caller fills the comparator's cells only when it scored every repeat;
    * a final refit that fails falls back to the next candidates (:func:`_refit`).

    A repeat's timings map each phase to its seconds: the twin model's tune,
    fit and predict; data prep (generate or load, split, normalize, privileged
    split); and, with ``--with-krr``, krr (tune, fit and predict of the
    comparator). Errors outside ``_ROW_ERRORS`` propagate.
    """
    twin_all, krr_all, timings, error = [], [], [], None
    for repeat in range(args.repeats):
        seed_r = args.seed + 7919 * index + 101 * repeat
        try:
            start = time.perf_counter()
            if kind == "synthetic":
                train_raw, test_raw = gen_synthetic(
                    value, args.n_train, args.n_test, NoiseSpec(args.noise, seed=seed_r + 1),
                    seed_r,
                )
            else:
                ds = _load_dataset(value, args.target, args.lags)
                scheme = (
                    HeadSplit(args.head_count)
                    if args.split == "head"
                    else RatioSplit(args.split_ratio, seed=seed_r)
                )
                train_raw, test_raw = train_test_split(ds, scheme)
            train_n, stats = min_max_normalize(train_raw)
            pi = split_privileged(train_n)
            data_time = time.perf_counter() - start
            grid = replace(grid, seed=seed_r)
            d_regular = pi.regular.shape[1]
            x_test = test_raw.features[:, :d_regular]
            y_true = stats.transform_targets(test_raw.targets)
        except _ROW_ERRORS as exc:
            error = error or exc
            break

        times = {}
        if error is None:
            try:
                start = time.perf_counter()
                tuned = cross_validate(pi, grid)
                times["tune"] = time.perf_counter() - start

                start = time.perf_counter()
                model = _refit(pi, tuned, stats, f"{name}: repeat {repeat + 1}")
                times["fit"] = time.perf_counter() - start

                start = time.perf_counter()
                y_hat = predict(model, x_test)
                times["predict"] = time.perf_counter() - start
                twin_all.append(evaluate(y_true, y_hat))
            except _ROW_ERRORS as exc:
                error = exc
                if not args.with_krr:
                    break
        times["data prep"] = data_time

        if args.with_krr:
            try:
                start = time.perf_counter()
                regular_train = Dataset(train_n.features[:, :d_regular], train_n.targets)
                ridge, kernel = tune_krr(regular_train, grid)
                krr = fit_krr_comparator(regular_train, ridge, kernel, norm=stats)
                krr_predictions = krr.predict(x_test)
                times["krr"] = time.perf_counter() - start
                krr_all.append(evaluate(y_true, krr_predictions))
            except _ROW_ERRORS as exc:
                error = error or exc
                break
        timings.append(times)
    return twin_all, krr_all, timings, error


def _averaged_cells(metrics) -> tuple[list[str], float]:
    """The rmse, sse and sse/sst cells of the mean over repeats, and the mean rmse."""
    rmse = aggregate_mean([m.rmse for m in metrics])
    sse = aggregate_mean([m.sse for m in metrics])
    ratios = [m.sse_over_sst for m in metrics]
    ratio = None if any(r is None for r in ratios) else aggregate_mean(ratios)
    return [_fmt(rmse), _fmt(sse), _fmt_ratio(ratio)], rmse


def cmd_benchmark(args) -> int:
    specs = [("synthetic", fn) for fn in (args.synthetic or [])]
    specs += [("csv", path) for path in (args.data or [])]
    if not specs:
        raise UsageError("no datasets given: use --synthetic and/or --data")
    names = [value if kind == "synthetic" else Path(value).stem for kind, value in specs]
    for name in names:
        if names.count(name) > 1:
            raise UsageError(f"dataset name {name!r} appears more than once; "
                             "each benchmark row needs its own name")
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    if not 0.0 < args.split_ratio < 1.0:
        raise UsageError(f"--split-ratio must lie in (0, 1), got {args.split_ratio}")
    try:
        grid = GridSpec(
            c_lo=args.grid_lo, c_hi=args.grid_hi, mu_lo=args.grid_lo, mu_hi=args.grid_hi,
            eps=args.eps, folds=args.folds, kernel=None if args.kernel == "linear" else "rbf",
            pin_mu=args.pin_mu, max_candidates=args.max_candidates,
        )
        check_grid_cap(grid)
    except (ValueError, TuningError) as exc:
        raise UsageError(f"grid flags: {exc}") from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ["dataset", "status", "twin_rmse", "twin_sse", "twin_sse_over_sst"]
    if args.with_krr:
        header += ["krr_rmse", "krr_sse", "krr_sse_over_sst"]
    header.append("error")
    rows = [header]
    score_rows = [["dataset", "twin", *(["krr"] if args.with_krr else [])]]
    timing_lines = []

    for index, ((kind, value), name) in enumerate(zip(specs, names)):
        twin_all, krr_all, timings, error = _benchmark_dataset(
            args, grid, index, kind, value, name
        )
        krr_cells = []
        if args.with_krr:
            scored = len(krr_all) == args.repeats
            krr_cells, krr_rmse = _averaged_cells(krr_all) if scored else (["", "", ""], None)
        if error is None:
            twin_cells, twin_rmse = _averaged_cells(twin_all)
            rows.append([name, "ok", *twin_cells, *krr_cells, ""])
            score_rows.append([name, twin_cells[0], *krr_cells[:1]])
            phases = ", ".join(
                f"{phase} {aggregate_mean([t[phase] for t in timings]):.4f} s"
                for phase in timings[0]
            )
            timing_lines.append(f"{name}: {phases} (mean over repeats)")
            print(f"{name}: twin rmse {twin_rmse:.6f}" +
                  (f", krr rmse {krr_rmse:.6f}" if args.with_krr else ""))
        else:
            message = str(error).replace(",", ";").replace("\n", " ")
            rows.append([name, "failed", "", "", "", *krr_cells, message])
            timing_lines.append(f"{name}: failed")
            print(f"{name}: FAILED ({error})", file=sys.stderr)

    csv_path = out_dir / "benchmark.csv"
    write_text_atomically(csv_path, _csv_text(rows))
    # Wall-clock timings are machine-dependent; kept out of the CSV so the
    # primary output is byte-identical across reruns of one config.
    write_text_atomically(out_dir / "timing.txt", "\n".join(timing_lines) + "\n")
    # The mean test RMSE of each ok row, every model's, in the layout `stats` reads.
    write_text_atomically(out_dir / "scores.csv", _csv_text(score_rows))
    for line in timing_lines:
        print(line)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_stats(args) -> int:
    direction = "lower_better" if args.direction == "lower" else "higher_better"
    table = load_score_csv(_require(args, "scores"), direction)
    report = compute_report(table, args.q_alpha, args.f_critical)
    text = format_report(report)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_text_atomically(out_dir / "report.txt", text + "\n")
        # load_score_csv names every model and dataset.
        names = report.model_names
        rank_rows = [["dataset", *names]]
        for ds_name, row in zip(report.dataset_names, report.rank_matrix):
            rank_rows.append([ds_name, *map(_fmt, row)])
        rank_rows.append(["avg_rank", *map(_fmt, report.avg_ranks)])
        write_text_atomically(out_dir / "ranks.csv", _csv_text(rank_rows))
        sig_rows = [["model", *names]]
        for name, row in zip(names, report.significant):
            sig_rows.append([name, *("yes" if v else "no" for v in row)])
        write_text_atomically(out_dir / "significance.csv", _csv_text(sig_rows))
    return EXIT_OK


def cmd_bounds(args) -> int:
    path = _require(args, "model")
    model = load_model(path)
    train = model.train_regular
    if model.hp.kernel is None or model.hp.kernel.kind == "linear":
        # Finite training rows can still square past the float range.
        with np.errstate(over="ignore"):
            diag = np.sum(train * train, axis=1)
        if not np.all(np.isfinite(diag)):
            raise DataError(
                f"model file {path} is malformed: its training rows overflow "
                "the linear kernel diagonal"
            )
    else:
        diag = np.ones(train.shape[0])
    inputs = BoundInputs(
        weight_norm_cap=args.weight_cap,
        lipschitz=1.0 if args.lipschitz is None else args.lipschitz,
        delta=args.delta,
        kernel_diag=diag,
        empirical_error=args.empirical_error,
    )
    if args.lipschitz is None:
        print("note: no Lipschitz constant given; using the illustrative default L = 1")
    complexity = rademacher_bound(args.weight_cap, diag)
    bound = generalization_bound(inputs, diag.size)
    print(f"m = {diag.size}")
    print(f"rademacher_bound = {complexity}")
    print(f"generalization_bound = {bound}")
    return EXIT_OK


def _add_common_model_flags(sub) -> None:
    sub.add_argument("--kernel", choices=["linear", "rbf"], default="rbf",
                     help="linear feature-space variant or Gaussian-kernel variant")
    sub.add_argument("--eps", type=float, default=0.01,
                     help="insensitivity margin used for both bound regressors")


def build_parser() -> tuple[_Parser, argparse._SubParsersAction]:
    parser = _Parser(prog="twinpi", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic train/test pair")
    synth.add_argument("--fn", choices=["f1", "f2", "f3", "f4"], default=None)
    synth.add_argument("--noise", choices=list(NoiseSpec.KINDS), default="uniform_pm02")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--noise-seed", type=int, default=None,
                       help="separate seed for the noise draw (default: --seed)")
    synth.add_argument("--n-train", type=int, default=100)
    synth.add_argument("--n-test", type=int, default=200)
    synth.add_argument("--out", default=".", help="output directory")
    synth.set_defaults(func=cmd_synth)

    fit_p = subs.add_parser("fit", help="normalize, split privileged features and fit")
    fit_p.add_argument("--data", default=None, help="training CSV")
    fit_p.add_argument("--target", default=None, help="target column name or index")
    fit_p.add_argument("--lags", type=_lag_count, default=0,
                       help="lag-embed the target column as a series (0 = off)")
    for i in range(1, 7):
        fit_p.add_argument(f"--c{i}", type=float, default=1.0)
    _add_common_model_flags(fit_p)
    fit_p.add_argument("--mu", type=float, default=0.25,
                       help="Gaussian kernel width (default suits min-max normalized features)")
    fit_p.add_argument("--out", default=".", help="output directory")
    fit_p.set_defaults(func=cmd_fit)

    eval_p = subs.add_parser("eval", help="evaluate a fitted model on a test CSV")
    eval_p.add_argument("--model", default=None, help="model.json from fit")
    eval_p.add_argument("--data", default=None, help="test CSV")
    eval_p.add_argument("--target", default=None)
    eval_p.add_argument("--lags", type=_lag_count, default=0)
    eval_p.add_argument("--out", default=None, help="CSV to append a metrics row to")
    eval_p.set_defaults(func=cmd_eval)

    bench = subs.add_parser("benchmark", help="tune, fit and evaluate over datasets")
    bench.add_argument("--synthetic", action="append", choices=["f1", "f2", "f3", "f4"],
                       help="synthetic dataset id (repeatable)")
    bench.add_argument("--data", action="append", help="dataset CSV path (repeatable)")
    bench.add_argument("--target", default=None)
    bench.add_argument("--lags", type=_lag_count, default=0)
    bench.add_argument("--noise", choices=list(NoiseSpec.KINDS), default="uniform_pm02")
    bench.add_argument("--repeats", type=int, default=4)
    bench.add_argument("--n-train", type=int, default=100)
    bench.add_argument("--n-test", type=int, default=200)
    bench.add_argument("--split", choices=["ratio", "head"], default="ratio")
    bench.add_argument("--split-ratio", type=float, default=0.7)
    bench.add_argument("--head-count", type=int, default=200)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--grid-lo", type=int, default=-8)
    bench.add_argument("--grid-hi", type=int, default=8)
    bench.add_argument("--folds", type=int, default=5)
    bench.add_argument("--max-candidates", type=int, default=64,
                       help="stride-subsample the grid to this many candidates")
    bench.add_argument("--pin-mu", type=float, default=None,
                       help="fix the rbf kernel width instead of tuning it")
    _add_common_model_flags(bench)
    bench.add_argument("--with-krr", action="store_true",
                       help="also tune and score the kernel ridge comparator")
    bench.add_argument("--out", default=".", help="output directory")
    bench.set_defaults(func=cmd_benchmark)

    stats_p = subs.add_parser("stats", help="Friedman test and Nemenyi post hoc on a score table")
    stats_p.add_argument("--scores", default=None,
                         help="CSV: header of model names, first column dataset names")
    stats_p.add_argument("--direction", choices=["lower", "higher"], default="lower",
                         help="whether lower scores are better")
    stats_p.add_argument("--q-alpha", type=float, default=None,
                         help="Nemenyi q_alpha (default: the 5%% value for the table's "
                              "model count, 2 to 10 models)")
    stats_p.add_argument("--f-critical", type=float, default=None,
                         help="externally supplied F critical value to compare against")
    stats_p.add_argument("--out", default=None, help="output directory for report files")
    stats_p.set_defaults(func=cmd_stats)

    bounds_p = subs.add_parser("bounds", help="capacity and generalization bounds of a model")
    bounds_p.add_argument("--model", default=None)
    bounds_p.add_argument("--weight-cap", type=float, default=1.0,
                          help="norm cap B of the regressor weight vectors")
    bounds_p.add_argument("--lipschitz", type=float, default=None,
                          help="Lipschitz constant of the loss (default 1, illustrative)")
    bounds_p.add_argument("--delta", type=float, default=0.05)
    bounds_p.add_argument("--empirical-error", type=float, default=0.0)
    bounds_p.set_defaults(func=cmd_bounds)

    for sub in subs.choices.values():
        sub.add_argument("--config", default=None,
                         help="key = value file mirroring these flags; flags win")
    return parser, subs


def _config_tokens(action: argparse.Action, key: str, value: str) -> list[str]:
    """The command-line tokens that say what ``key = value`` says."""
    flag = action.option_strings[-1]
    if isinstance(action, argparse._StoreTrueAction):
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return [flag]
        if lowered in ("0", "false", "no", "off"):
            return []
        raise UsageError(f"config key {key!r} must be boolean, got {value!r}")
    if isinstance(action, argparse._AppendAction):
        return [f"{flag}={item.strip()}" for item in value.split(",")]
    return [f"{flag}={value}"]


def _given_dests(argv: list[str]) -> set[str]:
    """Destinations of the flags ``argv`` sets explicitly."""
    parser, subs = build_parser()
    for sub in subs.choices.values():
        for action in sub._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _apply_config(sub: _Parser, argv: list[str], args) -> None:
    """Fill ``args`` from its config file wherever no flag was given.

    Each ``key = value`` line is parsed by the command's own flag, so types,
    choices and booleans are checked as on the command line; a repeatable
    flag takes a comma-separated list. An explicit flag replaces the config
    value, also for a repeatable flag.
    """
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    config = read_config(args.config)
    tokens: list[str] = []
    for key, value in config.items():
        if key not in actions:
            raise UsageError(f"unknown config key {key!r} for command {args.command!r}")
        tokens += _config_tokens(actions[key], key, value)
    try:
        configured = sub.parse_args(tokens)
    except UsageError as exc:
        raise UsageError(f"config {args.config}: {exc}") from None
    given = _given_dests(argv)
    for key in config:
        if key not in given:
            setattr(args, key, getattr(configured, key))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _apply_config(subs.choices[args.command], argv, args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, TuningError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
