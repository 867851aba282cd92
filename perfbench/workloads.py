"""The benchmark's four workloads, their output checks, and the stopwatch
that times library boundaries in untraced runs.

Each workload function runs one repeat: it sets up, runs to a certified
result, checks that result and returns a Repeat. An operation is one
oracle query together with its checks (one audit on audit_k2, where the
latency timed is that of one gradient estimate instead); every check is
written as `not (value meets bound)`, so a NaN or an infinity fails it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from resistor import evaluator, harness, oracles
from resistor.evaluator import MONTE_CARLO, piece_values
from resistor.instance import (
    RANDOMIZED,
    params_deterministic,
    params_randomized,
    shift_of,
)
from patch import Patches

MC_SAMPLES = 100_000
TINY_MC_SAMPLES = 10_000
# Monte-Carlo answers must land within this many reported errors.
STDERRS = 4.0
REPLAY_REASONS = {"", "monte_carlo_regime"}
FAIL_PROB = 0.2
# Audit pairs and samples per estimate at --tiny size (full size: the
# run_verification defaults, 30 pairs and 20k samples).
TINY_AUDIT = {"n_pairs": 3, "samples": 2_000}
# Audits on k = 2: Lipschitz orders 0, 1, 2, invariance, locality.
AUDITS = 5


@dataclass
class Repeat:
    """One repeat of a workload: timings, per-operation failures, digests."""

    setup_s: list[float]
    run_s: float
    op_ms: list[float]
    op_failed: list[bool]
    digests: dict[str, str] = field(default_factory=dict)
    info: dict = field(default_factory=dict)


class Stopwatch:
    """Records (start, end) of calls made through a few library names.

    wrap() swaps a module function or class method for a timed wrapper;
    unwrap() puts the originals back. Samples are grouped by key.
    """

    def __init__(self):
        self.calls: dict[str, list[tuple[float, float]]] = {}
        self._patches = Patches()

    def wrap(self, owner, attr: str, key: str) -> None:
        calls = self.calls.setdefault(key, [])

        def make(original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    calls.append((start, time.perf_counter()))

            return timed

        self._patches.swap(owner, attr, make)

    def unwrap(self) -> None:
        self._patches.undo()

    def take(self, key: str) -> list[tuple[float, float]]:
        calls = self.calls.get(key, [])
        out = list(calls)
        calls.clear()
        return out


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def below_floor(gap: float, floor: float) -> bool:
    """True unless gap is a number at or above floor."""
    return not (gap >= floor)


def outside(value: float, lo: float, hi: float) -> bool:
    """True unless lo <= value <= hi."""
    return not (lo <= value <= hi)


def report_failures(report) -> list[bool]:
    """One flag per oracle query of a RunReport: True if its checks failed.

    Every certified gap must reach the floor (in randomized mode only when
    event E held, as the certificate assumes), randomized mode must report
    event E, and report.passed must hold for any query to pass. A query
    missing from the report counts as failed.
    """
    randomized = report.mode == RANDOMIZED
    run_bad = not report.passed or (randomized and report.event_e_held is None)
    need_floor = not randomized or report.event_e_held is True
    flags = []
    for row in report.rows:
        bad = run_bad or not finite(row.certified_gap, row.value, row.grad_norm)
        if need_floor:
            bad = bad or below_floor(row.certified_gap, row.floor)
        flags.append(bad)
    return flags + [True] * (report.T - len(report.rows))


def gap_over_floor(gaps, floor: float) -> float:
    return min(gaps) / floor


def _ms(calls) -> list[float]:
    return [1e3 * (end - start) for start, end in calls]


def _run_experiment(config, watch: Stopwatch) -> Repeat:
    """One run_experiment call, split into set-up (until the oracle is
    built) and run (until the report files are written)."""
    start = time.perf_counter()
    report = harness.run_experiment(config)
    end = time.perf_counter()
    (_, built), = watch.take("setup")
    csv_path = Path(config.out)
    digests = {
        "csv": sha256_file(csv_path),
        "transcript": sha256_file(str(csv_path) + ".transcript.jsonl"),
    }
    failed = report_failures(report)
    ops = _ms(watch.take("op"))
    info = {"gap_over_floor": gap_over_floor([r.certified_gap for r in report.rows], report.floor)}
    if report.mode == RANDOMIZED:
        info["event_e_held"] = report.event_e_held
    return Repeat([built - start], end - built, ops, failed, digests, info)


def adaptive_run(T: int, seed: int, tiny: bool, out: Path, watch: Stopwatch) -> Repeat:
    config = harness.RunConfig(
        mode="deterministic", T=T, k=1, method="psg", seed=seed, out=str(out / "run.csv"),
    )
    return _run_experiment(config, watch)


def hidden_run(T: int, seed: int, tiny: bool, out: Path, watch: Stopwatch) -> Repeat:
    config = harness.RunConfig(
        mode="randomized", T=T, k=1, method="psg", fail_prob=FAIL_PROB,
        seed=seed, out=str(out / "run.csv"),
    )
    return _run_experiment(config, watch)


def _tie_oracle(T: int, seed: int, tiny: bool):
    return oracles.AdaptiveOracle(
        params_deterministic(T, 2), seed=seed,
        mc_samples=TINY_MC_SAMPLES if tiny else MC_SAMPLES,
    )


def tie_client(oracle, rng: np.random.Generator) -> None:
    """Query so that every piece after the first ties piece 1 exactly.

    Query 1 is the origin; its exact answer reveals a_1 = gradient *
    norm_denom. Query t >= 2 is (shift_1 - shift_t) * e_t with e_t a unit
    vector orthogonal to a_1, e_2, ..., e_{t-1}: the new piece is a_t = e_t
    and a_t . x_t + shift_t = shift_1 = a_1 . x_t + shift_1, while pieces
    2..t-1 sit gamma/T or more below, so answers 2..T are Monte Carlo.
    """
    params = oracle.params
    first = oracle.query(np.zeros(params.d))
    known = [first.gradient * params.norm_denom]
    for t in range(2, params.T + 1):
        e = rng.standard_normal(params.d)
        for _ in range(2):
            for u in known:
                e -= (u @ e) * u
        e /= np.linalg.norm(e)
        known.append(e)
        oracle.query((shift_of(params, 1) - shift_of(params, t)) * e)


def tie_failures(final, transcript, replay, gaps) -> tuple[list[bool], dict]:
    """Per-query checks of the tie client's answers, and their errors.

    Value: inside [f~(x), f~(x) + k delta] / norm_denom widened by
    STDERRS reported standard errors. Monte-Carlo gradient: within STDERRS
    reported gradient errors of g_ref = (a_1 + a_t) / (2 norm_denom), exact
    because pieces 2..t-1 sit gamma/T below the tie, more than the 2 k delta
    the smoothing can move them. Replay reasons may only be "" or
    "monte_carlo_regime".
    """
    params = final.params
    denom = params.norm_denom
    a1 = final.pieces[0].a
    flags, grad_err, hess_err = [], [], []
    for rec, entry, gap in zip(transcript.records, replay.entries, gaps):
        resp = rec.response
        f_tilde = piece_values(final, rec.x).f_tilde
        slack = STDERRS * resp.value_stderr
        bad = entry.reason not in REPLAY_REASONS or below_floor(gap, params.floor)
        bad = bad or outside(
            resp.value,
            f_tilde / denom - slack,
            (f_tilde + params.k * params.delta) / denom + slack,
        )
        bad = bad or not finite(*resp.gradient, resp.gradient_error)
        if resp.regime == MONTE_CARLO:
            g_ref = (a1 + final.pieces[rec.index - 1].a) / (2.0 * denom)
            dist = float(np.linalg.norm(resp.gradient - g_ref))
            bad = bad or not (dist <= STDERRS * resp.gradient_error)
            grad_err.append(dist / float(np.linalg.norm(g_ref)))
            hess = resp.hessian()
            if hess is not None:
                norm = float(np.linalg.norm(hess.tensor))
                bad = bad or not finite(hess.error_bound, norm)
                hess_err.append(hess.error_bound / norm)
        flags.append(bad)
    flags += [True] * (params.T - len(flags))
    info = {
        "mc_answers": len(grad_err),
        "gradient_relerr": float(np.median(grad_err)) if grad_err else None,
        "hessian_relerr": float(np.median(hess_err)) if hess_err else None,
    }
    return flags, info


def near_tie_run(T: int, seed: int, tiny: bool, out: Path, watch: Stopwatch) -> Repeat:
    start = time.perf_counter()
    oracle = _tie_oracle(T, seed, tiny)
    built = time.perf_counter()
    params = oracle.params
    tie_client(oracle, np.random.default_rng(seed))
    final, replay = oracle.finalize()
    gaps = [evaluator.suboptimality_certificate(final, rec.x) for rec in oracle.transcript.records]
    path = out / "transcript.jsonl"
    oracle.transcript.to_jsonl(path)
    end = time.perf_counter()
    failed, info = tie_failures(final, oracle.transcript, replay, gaps)
    info["gap_over_floor"] = gap_over_floor(gaps, params.floor)
    return Repeat(
        [built - start], end - built, _ms(watch.take("op")), failed,
        {"transcript": sha256_file(path)}, info,
    )


def audit_failures(summary) -> list[bool]:
    """One flag per audit: True unless it passed with finite figures."""
    flags = [
        not audit.passed or not finite(audit.max_ratio, audit.bound)
        for audit in summary.lipschitz
    ]
    flags.append(summary.invariance is None or not summary.invariance.passed)
    flags.append(summary.locality is None or not summary.locality.passed)
    if not summary.passed:
        flags = [True] * len(flags)
    return flags


def audit_run(T: int, seed: int, tiny: bool, out: Path, watch: Stopwatch) -> Repeat:
    start = time.perf_counter()
    summary = harness.run_verification("all", T=T, k=2, seed=seed, **(TINY_AUDIT if tiny else {}))
    end = time.perf_counter()
    (s0, s1), = watch.take("setup")
    return Repeat(
        [s1 - s0], end - start - (s1 - s0), _ms(watch.take("op")), audit_failures(summary)
    )


@dataclass(frozen=True)
class Workload:
    """T and tiny_T: the instance size at full and at --tiny size; every
    call below gets the one in use. run(T, seed, tiny, out, watch): one
    repeat. setup(T, seed, tiny): the repeat's set-up alone, for extra
    set-up samples. params(T): the instance parameters (for basis size).
    hooks(): (owner, attribute, stopwatch key) boundaries to time. ops:
    operations per repeat when it is not T."""

    T: int
    tiny_T: int
    run: Callable[[int, int, bool, Path, Stopwatch], Repeat]
    setup: Callable[[int, int, bool], object]
    params: Callable[[int], object]
    hooks: Callable[[], list[tuple[object, str, str]]]
    ops: int | None = None

    def size(self, tiny: bool) -> int:
        return self.tiny_T if tiny else self.T

    def n_ops(self, tiny: bool) -> int:
        return self.ops or self.size(tiny)


def _oracle_hooks(cls) -> list[tuple[object, str, str]]:
    return [(cls, "__init__", "setup"), (cls, "query", "op")]


def _audit_hooks() -> list[tuple[object, str, str]]:
    # One operation timed: a gradient estimate, the same work in every
    # audit that makes one (Lipschitz orders 1 and 2).
    return [
        (harness, "audit_instance", "setup"),
        (harness, "smoothed_gradient_mc", "op"),
    ]


def _adaptive_params(T: int):
    return params_deterministic(T, 1)


def _hidden_params(T: int):
    return params_randomized(T, 1, FAIL_PROB)


def _k2_params(T: int):
    return params_deterministic(T, 2)


WORKLOADS: dict[str, Workload] = {
    "adaptive_t400": Workload(
        T=400,
        tiny_T=9,
        run=adaptive_run,
        setup=lambda T, seed, tiny: oracles.AdaptiveOracle(
            _adaptive_params(T), seed=seed, mc_samples=MC_SAMPLES
        ),
        params=_adaptive_params,
        hooks=lambda: _oracle_hooks(oracles.AdaptiveOracle),
    ),
    "hidden_t9": Workload(
        T=9,
        tiny_T=4,
        run=hidden_run,
        setup=lambda T, seed, tiny: oracles.RandomizedOracle(
            _hidden_params(T), seed=seed, mc_samples=MC_SAMPLES
        ),
        params=_hidden_params,
        hooks=lambda: _oracle_hooks(oracles.RandomizedOracle),
    ),
    "near_tie_k2": Workload(
        T=9,
        tiny_T=4,
        run=near_tie_run,
        setup=_tie_oracle,
        params=_k2_params,
        hooks=lambda: [(oracles.AdaptiveOracle, "query", "op")],
    ),
    "audit_k2": Workload(
        T=9,
        tiny_T=4,
        run=audit_run,
        setup=lambda T, seed, tiny: harness.audit_instance(T, 2, seed),
        params=_k2_params,
        hooks=_audit_hooks,
        ops=AUDITS,
    ),
}
