"""The resistor benchmark: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs each repeat of the workload in a fresh worker process (worker.py)
until the budget is spent, checks the outputs and prints a machine
record, a workload record and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, medians over the repeats; with
--trace 1 each untraced repeat is followed by a traced one and the
metrics are the per-layer ones plus trace_overhead_s. The load is a closed loop: one
client, each query waiting for the previous answer. --tiny runs every
workload at a small size (used by selftest.py).

Exits non-zero without a result when the library source (src/resistor
next to this directory) is missing or a worker does not finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Whole invocation, workers included, must end within this.
DEADLINE_S = 170.0
# Untraced repeats per run at least, each in its own process: the
# between-process spread (memory placement) is larger than the spread of
# repeats within one process, so medians are taken across processes.
MIN_REPEATS = 3
# BLAS threads for the workers: nproc, the CPUs this process may use.
# The count changes the last bits of BLAS results, so it is set
# explicitly rather than left to the library.
BLAS_THREADS = len(os.sched_getaffinity(0))
MB = 1024.0 * 1024.0
# The tail latency reported is the highest percentile with this many
# samples beyond it within a repeat.
TAIL_BEYOND = 10


def _first_line_value(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _llc_bytes() -> int | None:
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        sizes[level] = int(size.rstrip("KMG")) * scale
    return sizes[max(sizes)] if sizes else None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_record() -> dict:
    mem_kb = _first_line_value("/proc/meminfo", "MemTotal")
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line_value("/proc/cpuinfo", "model name"),
        "mem_total_mb": int(mem_kb.split()[0]) / 1024.0 if mem_kb else None,
        "llc_bytes": _llc_bytes(),
        "git_commit": _git_commit(),
        "blas_threads_set": BLAS_THREADS,
    }


def run_worker(args, repeat: int, trace: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--repeat", str(repeat),
    ]
    cmd += ["--trace"] * trace + ["--tiny"] * args.tiny
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_repeats(args, traced: bool, deadline: float) -> tuple[list[dict], list[dict]]:
    """Untraced repeats (and, if traced, a traced one after each) in fresh
    worker processes until the budget is spent, at least MIN_REPEATS
    untraced or one pair traced. Stops after a repeat that raised."""
    plain, traced_reps = [], []
    start = time.monotonic()
    while True:
        n = len(plain)
        elapsed = time.monotonic() - start
        if n >= (1 if traced else MIN_REPEATS) and elapsed * (1 + 1 / n) > args.seconds:
            break
        plain.append(run_worker(args, n, False, deadline))
        if traced:
            traced_reps.append(run_worker(args, n, True, deadline))
        if any("run_s" not in rep for rep in plain + traced_reps):
            break
    return plain, traced_reps


def tail(samples: list[float]) -> float | None:
    """The sample with TAIL_BEYOND samples beyond it, None if too few."""
    if len(samples) <= TAIL_BEYOND:
        return None
    return sorted(samples)[len(samples) - TAIL_BEYOND - 1]


def summarize(plain: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics and the workload record from untraced repeats."""
    done = [rep for rep in plain if "run_s" in rep]
    if not done:
        return {}, {}
    first = done[0]
    mismatched = [i for i, rep in enumerate(done) if rep["digests"] != first["digests"]]
    values = {
        "setup_s": statistics.median(s for rep in done for s in rep["setup_s"]),
        "run_s": statistics.median(rep["run_s"] for rep in done),
        "op_ms_p50": statistics.median(ms for rep in done for ms in rep["op_ms"]),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in done),
    }
    record = {
        "setup_samples": sum(len(rep["setup_s"]) for rep in done),
        "run_s_all": [rep["run_s"] for rep in done],
        "peak_rss_mb_all": [rep["peak_rss_mb"] for rep in done],
        "digests": first["digests"],
        "digest_mismatch_repeats": mismatched,
        # A repeat whose reports differ fails every operation.
        "digest_failed_ops": sum(done[i]["attempted"] - done[i]["failed"] for i in mismatched),
        **first["info"],
    }
    tails = [tail(rep["op_ms"]) for rep in done]
    if None not in tails:
        n = len(first["op_ms"])
        record["op_ms_tail"] = {
            "percentile": 100.0 * (1 - TAIL_BEYOND / n),
            "ms": statistics.median(tails),
            "samples_per_repeat": n,
        }
    return values, record


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "resistor" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'resistor'}", file=sys.stderr)
        return 2
    try:
        plain, traced_reps = run_repeats(args, bool(args.trace), deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"workload {args.workload} did not complete: {exc}", file=sys.stderr)
        return 3

    machine = machine_record()
    machine.update(plain[0]["env"])
    print("machine " + json.dumps(machine))
    values, record = summarize(plain)
    attempted = sum(rep["attempted"] for rep in plain + traced_reps)
    failed = sum(rep["failed"] for rep in plain + traced_reps) + record.get("digest_failed_ops", 0)
    basis_bytes = plain[0]["basis_bytes"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "repeats": len(plain),
        "ops": attempted,
        "failed_frac": failed / attempted,
        "basis_bytes": basis_bytes,
        "llc_bytes": machine["llc_bytes"],
        **record,
    }

    if args.trace:
        layers = {}
        traced = [rep["layers"] for rep in traced_reps if "layers" in rep and "run_s" in rep]
        for name in PER_LAYER:
            got = [layer[name] for layer in traced if name in layer]
            if got:
                layers[name] = statistics.median(got)
        if values and traced:
            traced_run_s = statistics.median(rep["run_s"] for rep in traced_reps)
            layers["trace_overhead_s"] = traced_run_s - values["run_s"]
            layers["instance.basis_mb"] = basis_bytes / MB
            layers["instance.rss_over_basis"] = values["peak_rss_mb"] * MB / basis_bytes
            record["traced_run_s"] = traced_run_s
        metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER.items() if name in layers}
        record["absent_metrics"] = sorted(set(PER_LAYER) - set(metrics))
        record["missing_names"] = sorted({n for rep in traced_reps for n in rep.get("missing", [])})
        complete = bool(traced)
    else:
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items() if name in values}
        complete = len(metrics) == len(END_TO_END)
    print("workload " + json.dumps(record))

    correct = (
        failed == 0
        and complete
        and all(math.isfinite(m["value"]) for m in metrics.values())
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
