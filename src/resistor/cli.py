"""Command-line interface.

    resistor run    --mode det|rand --T 16 --k 1 --method psg --seed 0 ...
    resistor verify --suite lipschitz|invariance|locality|all --T 9 --k 2 ...
    resistor sweep  --seeds 20 --mode rand --T 4 --k 1 ...
    resistor grid   --budgets T [T ...] --seed 0

Exit code 0 iff every asserted property passed.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields

from .harness import (
    AUDIT_PAIRS,
    AUDIT_SAMPLES,
    REPORT_FORMATS,
    SUITES,
    RefusedArgument,
    RunConfig,
    emit_report,
    run_experiment,
    run_verification,
    sweep,
)
from .instance import DETERMINISTIC, RANDOMIZED
from .optimizers import METHODS

_MODES = {"det": DETERMINISTIC, "deterministic": DETERMINISTIC, "rand": RANDOMIZED, "randomized": RANDOMIZED}


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=sorted(_MODES))
    parser.add_argument("--T", type=int, help="query budget")
    parser.add_argument("--k", type=int, help="derivative order")
    parser.add_argument("--method", choices=list(METHODS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--fail-prob", type=float, help="randomized-mode failure probability")
    parser.add_argument("--mc-samples", type=int)
    parser.add_argument("--rescale-L", type=float, help="target order-k smoothness coefficient")
    parser.add_argument("--dump-vectors", action="store_true")
    parser.add_argument("--out", type=str)
    parser.add_argument("--format", choices=REPORT_FORMATS)
    parser.set_defaults(**asdict(RunConfig()))


def _config(args: argparse.Namespace) -> RunConfig:
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return RunConfig(**{**flags, "mode": _MODES[args.mode]})


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_experiment(_config(args))
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{report.mode} T={report.T} k={report.k} method={report.method} seed={report.seed}: "
        f"min certified gap {report.min_gap:.6g}, floor {report.floor:.6g} [{status}]"
    )
    if report.event_e_held is not None:
        ev = "held" if report.event_e_held else f"violated at query {report.event_e_first_violation}"
        print(f"  low-correlation event: {ev}")
    if not report.consistency_ok:
        print(f"  replay mismatch at query {report.consistency_first_mismatch}")
    if not report.min_crosscheck.passed:
        print(
            f"  witness cross-check failed: estimate {report.min_crosscheck.estimate:.6g} "
            f"> bound {report.min_crosscheck.bound:.6g} + 3*stderr"
        )
    if args.out:
        print(f"  report written to {args.out}")
    return 0 if report.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = run_verification(
        args.suite, args.T, args.k, seed=args.seed, n_pairs=args.pairs, samples=args.mc_samples
    )
    for audit in summary.lipschitz:
        print(
            f"lipschitz order {audit.order}: max ratio {audit.max_ratio:.6g} "
            f"({audit.n_tie_band}/{audit.n_pairs} pairs in the tie band) "
            f"vs bound {audit.bound:.6g} ({'PASS' if audit.passed else 'FAIL'})"
        )
    if summary.invariance is not None:
        inv = summary.invariance
        print(
            f"invariance: {inv.n_exact} exact / {inv.n_monte_carlo} tie-band pairs, "
            f"max exact diff {inv.max_exact_diff:.3e} ({'PASS' if inv.passed else 'FAIL'})"
        )
    if summary.locality is not None:
        ok = summary.locality.passed
        print(f"locality: replay {'ok' if ok else 'MISMATCH'} ({'PASS' if ok else 'FAIL'})")
    print(f"suite {args.suite}: {'PASS' if summary.passed else 'FAIL'}")
    return 0 if summary.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    report = sweep(_config(args), args.seeds)
    if report.held_fraction is not None:
        print(
            f"event held in {report.held_count}/{report.n_seeds} runs "
            f"(threshold {report.held_threshold:.4f})"
        )
    worst = min((o.min_gap for o in report.outcomes), default=float("inf"))
    print(f"worst certified gap across seeds: {worst:.6g}")
    print(f"sweep: {'PASS' if report.passed else 'FAIL'}")
    if args.out:
        emit_report(report, "json", args.out)
        print(f"sweep report written to {args.out}")
    return 0 if report.passed else 1


# (mode, k, methods) cells of the grid: the deterministic grid, plus
# randomized psg at k = 1
_GRID_CELLS = (
    (DETERMINISTIC, 1, ("psg", "agd")),
    (DETERMINISTIC, 2, ("psg", "agd", "cubic")),
    (RANDOMIZED, 1, ("psg",)),
)
_GRID_MODES = {DETERMINISTIC: "det", RANDOMIZED: "rand"}


def _event(report) -> str:
    if report.event_e_held is None:
        return "-"
    return "held" if report.event_e_held else f"viol@{report.event_e_first_violation}"


def _cmd_grid(args: argparse.Namespace) -> int:
    print(
        f"{'mode':>4} {'method':>7} {'k':>2} {'T':>3} {'min gap':>10} {'floor':>10} "
        f"{'replay':>7} {'event E':>7} {'time':>7}"
    )
    failures = 0
    for mode, k, methods in _GRID_CELLS:
        for method in methods:
            for T in args.budgets:
                start = time.perf_counter()
                report = run_experiment(
                    RunConfig(mode=mode, T=T, k=k, method=method, seed=args.seed)
                )
                elapsed = time.perf_counter() - start
                failures += not report.passed
                print(
                    f"{_GRID_MODES[mode]:>4} {method:>7} {k:>2} {T:>3} {report.min_gap:>10.6f} "
                    f"{report.floor:>10.6f} {'exact' if report.consistency_ok else 'MISMATCH':>7} "
                    f"{_event(report):>7} {elapsed:>6.2f}s"
                    + ("" if report.passed else "   <-- FAIL")
                )
    print("grid:", "PASS" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="resistor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one optimizer-versus-oracle experiment")
    _add_run_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="smoothness/invariance/locality audits")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--T", type=int, default=9)
    p_verify.add_argument("--k", type=int, default=1)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--pairs", type=int, default=AUDIT_PAIRS)
    p_verify.add_argument("--mc-samples", type=int, default=AUDIT_SAMPLES)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="repeat an experiment across seeds")
    _add_run_args(p_sweep)
    p_sweep.add_argument("--seeds", type=int, required=True, help="number of seeds")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_grid = sub.add_parser(
        "grid", help="every (T, k, method) cell of the deterministic grid, plus randomized psg"
    )
    p_grid.add_argument(
        "--budgets", type=int, nargs="+", default=[4, 9, 16, 25, 100, 400],
        help="query budgets T (default: %(default)s)",
    )
    p_grid.add_argument("--seed", type=int, default=0)
    p_grid.set_defaults(func=_cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; an argument it refuses is a usage error (exit
    status 2), any other error propagates."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RefusedArgument as exc:
        parser.error(f"{args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
