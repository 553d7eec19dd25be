"""Command-line driver for synthetic data, fitting, evaluation, benchmark runs,
rank statistics and generalization bounds.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure. Every command accepts ``--config FILE`` holding
``key = value`` lines mirroring its flags, each parsed by its flag (a
repeatable flag takes a comma-separated list); explicit flags win.
"""

from __future__ import annotations

import argparse
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
    KKT_TOL_SCALE,
    Hyperparams,
    fit,
    fit_krr_comparator,
    # Not called here: ``fit`` returns the residuals its gate checked. It stays
    # bound because perfbench's traced mode wraps it as its ``model.kkt`` layer.
    kkt_residuals,  # noqa: F401
    load_model,
    predict,
    save_model,
)
from .stats import compute_report, format_report, load_score_csv
from .tuning import GridSpec, TuningError, cross_validate, tune_krr

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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _load_dataset(_require(args, "data"), args.target, args.lags)
    normalized, stats = min_max_normalize(raw)
    pi = split_privileged(normalized)
    model = fit(pi, _hp_from_args(args), norm=stats)
    model_path = out_dir / "model.json"
    save_model(model, model_path)

    res = model.kkt
    threshold = KKT_TOL_SCALE * (1.0 + float(np.max(np.abs(pi.targets))))
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
    start = time.perf_counter()
    y_hat = predict(model, x)
    elapsed = time.perf_counter() - start
    y_true = model.norm.transform_targets(ds.targets) if model.norm is not None else ds.targets
    met = evaluate(y_true, y_hat)
    print(f"rmse = {met.rmse}")
    print(f"sse = {met.sse}")
    print(f"sse/sst = {_fmt_ratio(met.sse_over_sst)}")
    print(f"predict_time_s = {elapsed:.4f}")
    if args.out:
        out_path = Path(args.out)
        row = ",".join(
            [args.data, args.model, _fmt(met.rmse), _fmt(met.sse), _fmt_ratio(met.sse_over_sst),
             str(met.n)]
        )
        if not out_path.exists():
            write_text_atomically(out_path, "data,model,rmse,sse,sse_over_sst,n\n" + row + "\n")
        else:
            with open(out_path, "a", encoding="utf-8") as fh:
                fh.write(row + "\n")
    return EXIT_OK


#: The errors that fail one dataset's benchmark row, not the whole run.
_ROW_ERRORS = (DataError, NumericalError, TuningError, ValueError)


def _benchmark_one_repeat(
    args, grid: GridSpec, spec_kind: str, spec_value: str, seed_r: int, twin: bool = True
):
    """One tune->fit->eval pass of ``grid`` at seed ``seed_r``.

    Returns (twin metrics, krr metrics, timings). Each model's metrics are
    None when it did not run (the twin model without ``twin``, the comparator
    without ``--with-krr``), or the error that stopped it: the comparator is
    tuned and scored after the twin model whether or not that failed. The
    timings map each phase to its seconds: the twin model's tune, fit and
    predict; data prep (generate or load, split, normalize, privileged
    split); and, with ``--with-krr``, krr (tune, fit and predict of the
    comparator).
    """
    start = time.perf_counter()
    if spec_kind == "synthetic":
        train_raw, test_raw = gen_synthetic(
            spec_value, args.n_train, args.n_test, NoiseSpec(args.noise, seed=seed_r + 1), seed_r
        )
    else:
        ds = _load_dataset(spec_value, args.target, args.lags)
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

    timings = {}
    twin_metrics = None
    if twin:
        try:
            start = time.perf_counter()
            tuned = cross_validate(pi, grid)
            timings["tune"] = time.perf_counter() - start

            start = time.perf_counter()
            model = fit(pi, tuned.best, norm=stats)
            timings["fit"] = time.perf_counter() - start

            start = time.perf_counter()
            y_hat = predict(model, x_test)
            timings["predict"] = time.perf_counter() - start
            twin_metrics = evaluate(y_true, y_hat)
        except _ROW_ERRORS as exc:
            twin_metrics = exc
    timings["data prep"] = data_time

    krr_metrics = None
    if args.with_krr:
        try:
            start = time.perf_counter()
            regular_train = Dataset(train_n.features[:, :d_regular], train_n.targets)
            ridge, kernel = tune_krr(regular_train, grid)
            krr = fit_krr_comparator(regular_train, ridge, kernel, norm=stats)
            krr_predictions = krr.predict(x_test)
            timings["krr"] = time.perf_counter() - start
            krr_metrics = evaluate(y_true, krr_predictions)
        except _ROW_ERRORS as exc:
            krr_metrics = exc
    return twin_metrics, krr_metrics, timings


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
    except ValueError as exc:
        raise UsageError(f"grid flags: {exc}") from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ["dataset", "status", "twin_rmse", "twin_sse", "twin_sse_over_sst"]
    if args.with_krr:
        header += ["krr_rmse", "krr_sse", "krr_sse_over_sst"]
    header.append("error")
    rows = [",".join(header)]
    timing_lines = []

    for index, (kind, value) in enumerate(specs):
        name = value if kind == "synthetic" else Path(value).stem
        # A failed twin model fails the row with its first error; the
        # comparator is still scored on every repeat, and fills its cells
        # when it fitted on all of them.
        twin_all, krr_all, timings, twin_error = [], [], [], None
        try:
            for repeat in range(args.repeats):
                seed_r = args.seed + 7919 * index + 101 * repeat
                twin_met, krr_met, times = _benchmark_one_repeat(
                    args, grid, kind, value, seed_r, twin=twin_error is None
                )
                if isinstance(twin_met, Exception):
                    twin_error = twin_met
                    if not args.with_krr:
                        break
                elif twin_met is not None:
                    twin_all.append(twin_met)
                if isinstance(krr_met, Exception):
                    raise krr_met
                if krr_met is not None:
                    krr_all.append(krr_met)
                timings.append(times)
            if twin_error is not None:
                raise twin_error

            twin_cells, twin_rmse = _averaged_cells(twin_all)
            cells = [name, "ok", *twin_cells]
            if args.with_krr:
                krr_cells, krr_rmse = _averaged_cells(krr_all)
                cells += krr_cells
            cells.append("")
            rows.append(",".join(cells))
            phases = ", ".join(
                f"{phase} {aggregate_mean([t[phase] for t in timings]):.4f} s"
                for phase in timings[0]
            )
            timing_lines.append(f"{name}: {phases} (mean over repeats)")
            print(f"{name}: twin rmse {twin_rmse:.6f}" +
                  (f", krr rmse {krr_rmse:.6f}" if args.with_krr else ""))
        except _ROW_ERRORS as exc:
            exc = twin_error or exc
            message = str(exc).replace(",", ";").replace("\n", " ")
            cells = [name, "failed", "", "", ""]
            if args.with_krr:
                scored = len(krr_all) == args.repeats
                cells += _averaged_cells(krr_all)[0] if scored else ["", "", ""]
            cells.append(message)
            rows.append(",".join(cells))
            timing_lines.append(f"{name}: failed")
            print(f"{name}: FAILED ({exc})", file=sys.stderr)

    csv_path = out_dir / "benchmark.csv"
    write_text_atomically(csv_path, "\n".join(rows) + "\n")
    # Wall-clock timings are machine-dependent; kept out of the CSV so the
    # primary output is byte-identical across reruns of one config.
    write_text_atomically(out_dir / "timing.txt", "\n".join(timing_lines) + "\n")
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
        names = report.model_names or tuple(
            f"model{i + 1}" for i in range(report.avg_ranks.shape[0])
        )
        dataset_names = report.dataset_names or tuple(
            f"dataset{i + 1}" for i in range(report.rank_matrix.shape[0])
        )
        rank_lines = ["dataset," + ",".join(names)]
        for ds_name, row in zip(dataset_names, report.rank_matrix):
            rank_lines.append(ds_name + "," + ",".join(_fmt(v) for v in row))
        rank_lines.append("avg_rank," + ",".join(_fmt(v) for v in report.avg_ranks))
        write_text_atomically(out_dir / "ranks.csv", "\n".join(rank_lines) + "\n")
        sig_lines = ["model," + ",".join(names)]
        for name, row in zip(names, report.significant):
            sig_lines.append(name + "," + ",".join("yes" if v else "no" for v in row))
        write_text_atomically(out_dir / "significance.csv", "\n".join(sig_lines) + "\n")
    return EXIT_OK


def cmd_bounds(args) -> int:
    model = load_model(_require(args, "model"))
    train = model.train_regular
    if model.hp.kernel is None or model.hp.kernel.kind == "linear":
        diag = np.sum(train * train, axis=1)
    else:
        diag = np.ones(train.shape[0])
    lipschitz = args.lipschitz
    if lipschitz is None:
        lipschitz = 1.0
        print("note: no Lipschitz constant given; using the illustrative default L = 1")
    inputs = BoundInputs(
        weight_norm_cap=args.weight_cap,
        lipschitz=lipschitz,
        delta=args.delta,
        kernel_diag=diag,
        empirical_error=args.empirical_error,
    )
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
    stats_p.add_argument("--q-alpha", type=float, default=2.850)
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
