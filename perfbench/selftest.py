"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a small size, untraced and traced, and checks
that each prints every metric named in BENCHMARK.json with its unit,
correct and with no failed operation. Also checks that the output
checks fail closed on NaN and infinite certificates, that the tracer
reports a vanished library name as absent instead of crashing, and
that the benchmark exits non-zero without a result when the library
source is missing. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spec import WORKLOADS  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_runs(spec: dict) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = bench(workload, trace)
            result = json.loads(lines[-1])
            label = f"{workload} --trace {trace}"
            check(code == 0, f"{label} exits 0")
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{label} correct with no failed operation")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted[trace], f"{label} prints every metric with its unit")
            check(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                  f"{label} values are finite")
            if trace:
                share = result["metrics"]["evaluator.mc_share"]["value"]
                expected = {"near_tie_k2": 3 / 4, "adaptive_t400": 0.0}.get(workload, share)
                check(share == expected, f"{label} mc_share {share}")


def check_fail_closed() -> None:
    import workloads
    from resistor.harness import RunConfig, run_experiment

    check(workloads.below_floor(math.nan, 0.1), "NaN gap is below the floor")
    check(workloads.outside(math.nan, 0.0, 1.0), "NaN value is outside its interval")
    report = run_experiment(RunConfig(mode="deterministic", T=4, k=1, seed=0))
    check(not any(workloads.report_failures(report)), "clean report passes its checks")
    for bad in (math.nan, math.inf, -math.inf):
        rows = [replace(row) for row in report.rows]
        rows[1].certified_gap = bad
        flags = workloads.report_failures(replace(report, rows=rows))
        check(flags == [False, True, False, False], f"certificate {bad} fails its query only")
    check(all(workloads.report_failures(replace(report, rows=report.rows[:2]))[2:]),
          "missing queries count as failed")


def check_tracer_absent() -> None:
    import tracer as tracing

    wraps = tracing.WRAPS + [tracing.Wrap("resistor.oracles", "no_such_name", "oracles.gone")]
    tracer = tracing.Tracer(wraps)
    tracer.install()
    try:
        from resistor.harness import RunConfig, run_experiment

        run_experiment(RunConfig(mode="deterministic", T=4, k=1, seed=0))
    finally:
        tracer.uninstall()
    check(tracer.absent == {"oracles.gone"} and tracer.missing == ["resistor.oracles.no_such_name"],
          "a vanished name is reported absent")
    check(tracer.layer_metrics()["oracles.query_calls"] == 4, "tracer still counts the rest")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without the library source it exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    check_fail_closed()
    check_tracer_absent()
    check_bare_directory()
    check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
