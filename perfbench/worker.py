"""Run one repeat of one workload in this (fresh) process and print one
JSON line with its measurements.

    python3 perfbench/worker.py --workload NAME --seed N --repeat I
        [--trace] [--tiny]

With --trace the span tracer is installed and per-layer metrics are
added; without it the tracer module is never imported. The library is
imported from the src/ directory next to this one; report files and
spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Extra set-up samples are taken only while a set-up costs less than this.
CHEAP_SETUP_S = 0.05
EXTRA_SETUP_BUDGET_S = 0.05
MAX_SETUP_SAMPLES = 50


def blas_record() -> dict:
    """BLAS library and the thread count it actually runs with."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def run_repeat(workload, args, watch) -> dict:
    """One repeat, then extra set-ups while they are cheap (untraced only)."""
    T = workload.size(args.tiny)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            rep = workload.run(T, args.seed, args.tiny, Path(tmp), watch)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            n = workload.n_ops(args.tiny)
            return {"attempted": n, "failed": n}
    if not args.trace and rep.setup_s[0] < CHEAP_SETUP_S:
        spent = 0.0
        while spent < EXTRA_SETUP_BUDGET_S and len(rep.setup_s) < MAX_SETUP_SAMPLES:
            t0 = time.perf_counter()
            workload.setup(T, args.seed, args.tiny)
            rep.setup_s.append(time.perf_counter() - t0)
            spent += rep.setup_s[-1]
    return {
        "attempted": len(rep.op_failed),
        "failed": sum(rep.op_failed),
        "setup_s": rep.setup_s,
        "run_s": rep.run_s,
        "op_ms": rep.op_ms,
        "digests": rep.digests,
        "info": rep.info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import resistor

    if Path(resistor.__file__).resolve().parent != ROOT / "src" / "resistor":
        print(f"resistor imported from {resistor.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    watch = workloads.Stopwatch()
    for owner, attr, key in workload.hooks():
        watch.wrap(owner, attr, key)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.run = args.repeat
        tracer.install()
    try:
        result = run_repeat(workload, args, watch)
    finally:
        if tracer is not None:
            tracer.uninstall()
        watch.unwrap()
    params = workload.params(workload.size(args.tiny))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["basis_bytes"] = params.T * params.d * 8
    result["env"] = {"python": platform.python_version(), **blas_record()}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = sorted(tracer.absent)
        result["missing"] = tracer.missing
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-{args.repeat}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
