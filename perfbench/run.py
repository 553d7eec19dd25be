"""Run one twinpi benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tune-wide --seed 3 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy. The workload repeats for
``--seconds`` seconds in this one process, after an untimed warm-up pass.
``--trace 0`` prints the end-to-end metrics (averages over the passes);
``--trace 1`` runs an untraced reference pass, then traced passes, and prints
the per-layer metrics. The
last line of standard output is one JSON object; a run whose outputs differ
from the recorded ones, or fail the KKT and oracle checks, reports
``"correct": false`` and exits with code 1. Spans, per-pass figures and the
environment go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: One BLAS thread. OpenBLAS threads spin at barriers, so on two vCPUs shared
#: with anything else a two-thread run slowed threefold and a 300-row fit
#: twentyfold, while one thread tunes at m = 240 about as fast. The recorded
#: outputs were produced with one thread; OpenBLAS results repeat bit for bit
#: only at a fixed thread count.
BLAS_THREADS = 1
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import twinpi; "
    "print(time.perf_counter() - t)"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; call before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_probe() -> float:
    """Time ``import twinpi`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def environment() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime_threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            runtime_threads = getter()
    return {
        "nproc": nproc(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_runtime": runtime_threads,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_checked(wl, inst, workload: str, seed: int, workdir: Path, golden: dict,
                seconds: float, minimum: int):
    """Passes for ``seconds`` (at least ``minimum``), each checked as it ends.

    Checked at once because every pass writes its files to the same workdir.
    """
    passes, problems = [], []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        p = inst.run_pass(workload, seed, workdir)
        passes.append(p)
        problems.append(wl.pass_problems(workload, p, golden))
    return passes, problems


def measure_untraced(wl, workload: str, seed: int, seconds: float, workdir: Path, golden: dict,
                     own_import_s: float):
    """End-to-end metrics: averages over the correct passes after a warm-up pass.

    Averages, not medians: the host's speed switches between levels about
    1.6 times apart every few seconds, and the median of a run's few passes
    jumps with it, while the average follows the share of time at each level.
    Rates are averaged harmonically, so each is the run's total work over its
    total time.
    """
    with wl.Instrumented(traced=False) as inst:
        warmup = run_checked(wl, inst, workload, seed, workdir, golden, 0, 1)
        # One pass in a fresh process, as a user's command runs. Later passes
        # raise it by allocator history alone: freed 11 MB Gram products lift
        # glibc's mmap threshold, and the heap then keeps ~50 MB at random.
        rss = peak_rss_mb()
        # Import is timed three times, apart, as the host's speed drifts:
        # this process's own import and a fresh one before and after the passes.
        imports = [own_import_s, import_probe()]
        measured = run_checked(wl, inst, workload, seed, workdir, golden, seconds, 2)
        imports.append(import_probe())
    import_s = statistics.median(imports)
    timings = [wl.pass_timings(p) for p, found in zip(*measured) if not found]
    metrics = {}
    if timings:
        def mean(key):
            return statistics.fmean(t[key] for t in timings)

        def rate(key):
            return statistics.harmonic_mean([t[key] for t in timings])

        metrics = {
            "wall_s": mean("wall_s"),
            "setup_s": import_s + mean("setup_data_s"),
            "peak_rss_mb": rss,
            "fold_fits_per_s": rate("fold_fits_per_s"),
            "fit_s": mean("fit_s"),
            "predict_rows_per_s": rate("predict_rows_per_s"),
        }
    record = {"import_s": imports, "warmup_wall_s": warmup[0][0].wall, "passes": timings}
    return warmup[0] + measured[0], warmup[1] + measured[1], metrics, record


def measure_traced(wl, workload: str, seed: int, seconds: float, workdir: Path, golden: dict):
    """Per-layer metrics: a warm-up and an untraced reference pass, then traced passes."""
    with wl.Instrumented(traced=False) as inst:
        passes, problems = run_checked(wl, inst, workload, seed, workdir, golden, 0, 2)
    reference = passes[1]
    with wl.Instrumented(traced=True) as inst:
        traced, found = run_checked(wl, inst, workload, seed, workdir, golden, seconds, 2)
    passes += traced
    problems += found
    layers = [wl.layer_metrics(p) for p, bad in zip(traced, found) if not bad]
    metrics = {}
    if layers:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - reference.wall
    spans = [[[s.id, s.parent, s.name, s.start, s.end, s.error, s.info] for s in p.spans]
             for p in traced]
    record = {"reference_wall_s": reference.wall, "passes": layers, "spans": spans}
    return passes, problems, metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twinpi" / "__init__.py").is_file():
        print(f"perfbench: no twinpi sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    # Imported only now: numpy must see the pinned thread count, and twinpi
    # must come from src/.
    start = time.perf_counter()
    import twinpi  # noqa: F401  (timed: part of setup_s)
    own_import_s = time.perf_counter() - start
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    input_seed = args.seed % wl.GOLDEN_SEEDS
    golden = wl.load_golden()[args.workload][str(input_seed)]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        common = (wl, args.workload, input_seed, args.seconds, workdir, golden)
        if args.trace:
            passes, problems, metrics, record = measure_traced(*common)
        else:
            passes, problems, metrics, record = measure_untraced(*common, own_import_s)
        first_ok = next((p for p, found in zip(passes, problems) if not found), None)
        start = time.perf_counter()
        if first_ok is not None:
            problems[passes.index(first_ok)] += wl.model_problems(first_ok)
        check_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for found in problems if found)
    for i, found in enumerate(problems):
        for problem in found:
            print(f"pass {i}: {problem}", file=sys.stderr)
    env = environment()
    if args.trace:
        metrics["oracle.check_s"] = check_s
        units = {name: unit for name, (unit, _) in wl.PER_LAYER.items()}
    else:
        units = wl.END_TO_END
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "input_seed": input_seed, "problems": problems,
                    "result": result, **record}),
        encoding="utf-8",
    )
    print("env " + json.dumps(env))
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
