#!/usr/bin/env python3
"""Run every (T, k, method) cell of the deterministic grid and tabulate
the worst certified gap against the 1/(2 sqrt(T)) floor."""

import argparse
import time

from resistor.harness import RunConfig, run_experiment
from resistor.instance import DETERMINISTIC


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budgets", type=int, nargs="+", default=[4, 9, 16, 25, 100, 400])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cells = [(k, m) for k, ms in ((1, ["psg", "agd"]), (2, ["psg", "agd", "cubic"])) for m in ms]
    print(f"{'method':>7} {'k':>2} {'T':>3} {'min gap':>10} {'floor':>10} {'replay':>7} {'time':>7}")
    failures = 0
    for k, method in cells:
        for T in args.budgets:
            start = time.perf_counter()
            report = run_experiment(
                RunConfig(mode=DETERMINISTIC, T=T, k=k, method=method, seed=args.seed)
            )
            elapsed = time.perf_counter() - start
            ok = report.passed
            failures += not ok
            print(
                f"{method:>7} {k:>2} {T:>3} {report.min_gap:>10.6f} {report.floor:>10.6f} "
                f"{'exact' if report.consistency_ok else 'MISMATCH':>7} {elapsed:>6.2f}s"
                + ("" if ok else "   <-- FAIL")
            )
    print("grid:", "PASS" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
