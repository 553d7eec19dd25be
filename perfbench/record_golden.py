"""Record the outputs every benchmark run is compared against.

    python3 perfbench/record_golden.py

Runs each workload once per input seed (0 .. GOLDEN_SEEDS-1) and writes the
outputs to ``golden.json``. It refuses to record a pass that exits nonzero or
whose final model fails the KKT gate or disagrees with the stacked oracle.
Re-record only when a change is meant to alter the outputs, and say so in
that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT, SRC, pin_blas_threads


def main() -> int:
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads as wl

    golden: dict = {}
    OUT.mkdir(exist_ok=True)
    with wl.Instrumented(traced=False) as inst:
        for workload in wl.WORKLOADS:
            golden[workload] = {}
            for seed in range(wl.GOLDEN_SEEDS):
                workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=OUT))
                try:
                    p = inst.run_pass(workload, seed, workdir)
                    problems = wl.pass_problems(workload, p, None) or wl.model_problems(p)
                    observed = wl.observed_outputs(workload, p)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                if problems:
                    print(f"{workload} seed {seed}: " + "; ".join(problems), file=sys.stderr)
                    return 1
                golden[workload][str(seed)] = observed
                rejected = p.captures["fit"][3] is not None
                note = ", final fit rejected by the gate" if rejected else ""
                print(f"{workload} seed {seed}: {p.wall:.2f} s{note}", flush=True)
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
