"""Experiment runner and verification suites.

run_experiment pits one optimizer against one adversarial oracle and
certifies, per query, the closed-form suboptimality gap against the
1/(2 sqrt(T)) floor. The verify_* suites audit the smoothness bounds,
subspace invariance and answer locality of a built instance. Reports
are plain dataclasses with deterministic CSV/JSON emission (replays of
the same config produce byte-identical files).
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .evaluator import (
    DEFAULT_VALUE_SAMPLES,
    MCBudget,
    _check_budget,
    _tensor_coords_mc,
    affine_regimes,
    rescale_to_smoothness,
    smoothed_gradient_mc,
    smoothed_value_mc,
    suboptimality_certificate,
)
from .geometry import dot_norm, perp_component, random_orthonormal_basis, sample_ball, vector_norm
from .instance import (
    DETERMINISTIC,
    RANDOMIZED,
    HardInstance,
    params_deterministic,
    params_randomized,
    pessimal_point,
)
from .oracles import AdaptiveOracle, RandomizedOracle, event_e_check
from .optimizers import check_method, run_method
from .streams import as_count, as_integer, as_scale, refusal, stream

# Samples per Monte-Carlo estimate in the smoothness and invariance audits,
# and the pairs per Lipschitz order (points for invariance) of an audit.
AUDIT_SAMPLES = 20_000
AUDIT_PAIRS = 30
CSV_COLUMNS = ["iter", "certified_gap", "floor", "regime", "event_e_margin", "value", "grad_norm"]
REPORT_FORMATS = ("csv", "json")
SUITES = ("lipschitz", "invariance", "locality", "all")


class RefusedArgument(ValueError):
    """An argument that run_experiment, sweep or run_verification refuses
    before any work starts: the ValueError or TypeError of its check,
    chained, with the same message. The CLI reports it as a usage error;
    any later error is the run's own."""


@contextmanager
def _argument_checks():
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise RefusedArgument(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    mode: str = DETERMINISTIC
    T: int = 9
    k: int = 1
    method: str = "psg"
    seed: int = 0
    fail_prob: float = 0.2
    mc_samples: int = DEFAULT_VALUE_SAMPLES
    rescale_L: float | None = None
    dump_vectors: bool = False
    out: str | None = None
    format: str = "csv"


@dataclass
class IterationRow:
    iter: int
    certified_gap: float
    floor: float
    regime: str
    event_e_margin: float | None
    value: float
    grad_norm: float


@dataclass
class MinCrossCheck:
    """Smoothed value at the witness point, from smoothed_value_mc (exact,
    stderr 0, where the point is exact-affine; else a Monte-Carlo
    estimate), against the closed-form cap -1/sqrt(r) + gamma + k*delta."""

    estimate: float
    stderr: float
    bound: float
    passed: bool


@dataclass
class RunReport:
    mode: str
    T: int
    k: int
    method: str
    seed: int
    rescale: float
    floor: float
    rows: list[IterationRow]
    floor_ok: bool
    consistency_ok: bool
    consistency_first_mismatch: int | None
    event_e_held: bool | None
    event_e_first_violation: int | None
    min_crosscheck: MinCrossCheck
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def min_gap(self) -> float:
        return min((row.certified_gap for row in self.rows), default=math.inf)


def run_experiment(config: RunConfig) -> RunReport:
    """Run one optimizer-versus-oracle experiment and certify the floor.

    Deterministic mode asserts the closed-form certificate at every
    query with no tolerance; randomized mode asserts it whenever the
    low-correlation event held. The witness-point cross-check reruns
    once per experiment as a redundant sanity bound on the minimum. Where
    the witness point -sum(a_i)/sqrt(r) is exact-affine (its argmax
    margin is gamma/m, above 2*k*delta in both schedules),
    smoothed_value_mc returns f_tilde there with stderr 0 and draws no
    sample; otherwise it is a Monte-Carlo estimate on the oracle's budget,
    stream (config.seed, "smooth-value"), which no other stream uses.
    Every argument is checked before any query, each refusal a
    RefusedArgument: mode, T, k, the method at that k, the format,
    rescale_L, then the oracle's seed, mc_samples and rescale as it is built.
    """
    with _argument_checks():
        if config.mode == DETERMINISTIC:
            params = params_deterministic(config.T, config.k)
        elif config.mode == RANDOMIZED:
            params = params_randomized(config.T, config.k, config.fail_prob)
        else:
            raise ValueError(f"unknown mode {config.mode!r}")
        check_method(config.method, params.k)
        if config.format not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {config.format!r}")
        scale = 1.0
        if config.rescale_L is not None:
            scale = rescale_to_smoothness(config.rescale_L, config.k, config.T)
        oracle_cls = AdaptiveOracle if config.mode == DETERMINISTIC else RandomizedOracle
        oracle = oracle_cls(
            params, seed=config.seed, mc_samples=config.mc_samples, rescale=scale
        )
    run_method(oracle, config.method)
    final, consistency = oracle.finalize()

    floor = scale * params.floor
    rows = []
    for rec, entry in zip(oracle.transcript.records, consistency.entries):
        gap = scale * suboptimality_certificate(
            final, rec.x, allow_partial=True, f_tilde=entry.f_tilde
        )
        rows.append(
            IterationRow(
                iter=rec.index,
                certified_gap=gap,
                floor=floor,
                regime=rec.response.regime,
                event_e_margin=rec.event_e_margin,
                value=rec.response.value,
                grad_norm=vector_norm(rec.response.gradient),
            )
        )

    if config.mode == RANDOMIZED:
        check = event_e_check(oracle.transcript, params)
        held, first_violation = check.held, check.first_violation
        floor_ok = (not held) or all(row.certified_gap >= floor for row in rows)
    else:
        held, first_violation = None, None
        floor_ok = all(row.certified_gap >= floor for row in rows)

    xhat, _ = pessimal_point(final)
    est, se = smoothed_value_mc(final, xhat, oracle.budget)
    bound = -1.0 / math.sqrt(final.num_pieces) + params.gamma + params.k * params.delta
    crosscheck = MinCrossCheck(
        estimate=est, stderr=se, bound=bound, passed=est <= bound + 3.0 * se
    )

    passed = floor_ok and consistency.all_equal and crosscheck.passed
    report = RunReport(
        mode=config.mode,
        T=config.T,
        k=config.k,
        method=config.method,
        seed=config.seed,
        rescale=scale,
        floor=floor,
        rows=rows,
        floor_ok=floor_ok,
        consistency_ok=consistency.all_equal,
        consistency_first_mismatch=consistency.first_mismatch,
        event_e_held=held,
        event_e_first_violation=first_violation,
        min_crosscheck=crosscheck,
        passed=passed,
    )
    if config.out is not None:
        emit_report(report, config.format, config.out)
        transcript_path = Path(str(config.out) + ".transcript.jsonl")
        oracle.transcript.to_jsonl(transcript_path, dump_vectors=config.dump_vectors)
    return report


def _fmt(x) -> str:
    if x is None:
        return ""
    return str(x)


def emit_report(report: RunReport | SweepReport, format: str, path) -> Path:
    """Write a run report as CSV (CSV_COLUMNS of each row) or JSON, a sweep
    report as JSON; trailing newline, UTF-8, byte-stable across replays."""
    path = Path(path)
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in report.rows:
                writer.writerow([_fmt(getattr(row, name)) for name in CSV_COLUMNS])
    elif format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_dict(), indent=2))
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {format!r}")
    return path


@dataclass
class LipschitzAudit:
    """n_tie_band counts the pairs with a point of two or more
    contenders, inside the tie band; the rest are compared exactly."""

    order: int
    bound: float
    max_ratio: float
    max_excess: float
    n_pairs: int
    n_tie_band: int
    passed: bool


class UnsupportedOrderError(ValueError):
    """Orders above 2 are not audited (tensor Monte-Carlo noise at the
    (T/delta)^3 scale would need infeasible sample counts)."""


def _separated_pairs(instance: HardInstance, n_pairs: int, rng) -> list[tuple[np.ndarray, np.ndarray, float]]:
    min_sep = 10.0 * instance.params.delta
    pairs = []
    d = instance.basis.dim
    while len(pairs) < n_pairs:
        x = sample_ball(d, rng)
        y = sample_ball(d, rng)
        dist = dot_norm(x - y)
        if dist >= min_sep:
            pairs.append((x, y, dist))
    return pairs


def verify_lipschitz(
    instance: HardInstance,
    order: int,
    n_pairs: int = AUDIT_PAIRS,
    samples: int = AUDIT_SAMPLES,
    seed: int = 0,
    rescale: float = 1.0,
) -> LipschitzAudit:
    """Audit the order-i smoothness bound (T/delta)^i on random pairs.

    Pairs are drawn in the unit ball at separation >= 10*delta, one point
    at a time (_separated_pairs). Then every point is evaluated against
    the pieces once, all in one pass (affine_regimes), and its values and
    contenders go to its estimate (regime=) and to n_tie_band. Each
    estimate's budget is the child ("lip<i><x|y>" or "lip2", pair index)
    of MCBudget(samples, seed), checked once, at entry. The
    difference quotient of the order-i derivative is compared against
    rescale * (T/delta)^i with an explicit Monte-Carlo slack of three
    combined reported errors. Orders 0 and 1 use the value and gradient
    estimators; order 2 compares the ambient Hessians Q^T H Q at x and y
    in Frobenius norm, each lifted through its own contender frame Q,
    both estimated on one common-random-numbers seed (the reported
    errors are Frobenius bounds already). A NaN ratio or error makes
    max_ratio or max_excess NaN and fails the audit. Orders above 2 raise UnsupportedOrderError,
    n_pairs below 1 a ValueError, and rescale must pass streams.as_scale
    (a zero one would pass the audit on no evidence).
    """
    n_pairs, rescale = as_count(n_pairs, "n_pairs"), as_scale(rescale, "rescale")
    root = MCBudget(samples, seed)
    params = instance.params
    if order > 2:
        raise UnsupportedOrderError(
            f"order {order} not audited (supported: 0, 1, 2)"
        )
    if order > params.k:
        raise ValueError(f"order {order} exceeds the instance's smoothness order k={params.k}")
    _check_budget(instance, order, root)
    bound = rescale * (params.T / params.delta) ** order
    rng = stream(seed, "lipschitz-pairs", order)
    pairs = _separated_pairs(instance, n_pairs, rng)
    regimes = affine_regimes(instance, [z for x, y, _ in pairs for z in (x, y)])
    ratios, excesses = [], []
    n_tie_band = 0
    for p, ((x, y, dist), rx, ry) in enumerate(zip(pairs, regimes[::2], regimes[1::2])):
        n_tie_band += len(rx[1]) > 1 or len(ry[1]) > 1
        if order == 0:
            vx, ex = smoothed_value_mc(instance, x, root.child("lip0x", p), regime=rx)
            vy, ey = smoothed_value_mc(instance, y, root.child("lip0y", p), regime=ry)
            ratio = rescale * abs(vx - vy) / dist
        elif order == 1:
            gx, ex = smoothed_gradient_mc(instance, x, root.child("lip1x", p), regime=rx)
            gy, ey = smoothed_gradient_mc(instance, y, root.child("lip1y", p), regime=ry)
            ratio = rescale * dot_norm(gx - gy) / dist
        else:
            crn = root.child("lip2", p)
            hx, ex, fx = _tensor_coords_mc(instance, x, 2, crn, regime=rx)
            hy, ey, fy = _tensor_coords_mc(instance, y, 2, crn, regime=ry)
            ratio = rescale * dot_norm(fx.T @ hx @ fx - fy.T @ hy @ fy) / dist
        slack = rescale * 3.0 * (ex + ey) / dist
        ratios.append(ratio)
        excesses.append(ratio - slack)
    # np.max, unlike Python's max, keeps a NaN, which then fails the audit
    max_excess = float(np.max(excesses))
    return LipschitzAudit(
        order=order,
        bound=bound,
        max_ratio=float(np.max(ratios)),
        max_excess=max_excess,
        n_pairs=len(pairs),
        n_tie_band=n_tie_band,
        passed=max_excess <= bound,
    )


@dataclass
class InvarianceAudit:
    n_points: int
    n_exact: int
    n_monte_carlo: int
    max_exact_diff: float
    passed: bool


def verify_invariance(
    instance: HardInstance,
    n_points: int = AUDIT_PAIRS,
    samples: int = AUDIT_SAMPLES,
    seed: int = 0,
) -> InvarianceAudit:
    """Check that shifting a point by a vector orthogonal to the piece
    span leaves the answer unchanged.

    Pairs (x, x+y) with y in the orthogonal complement are scaled into
    the ball together; exact-affine pairs must agree to 1e-10 (the
    orthogonality tolerance), tie-band pairs to 6 combined reported
    errors. Every pair is drawn first, then every point evaluated against
    the pieces once, all in one pass (affine_regimes): its values and
    contenders decide the comparison and go to its estimate (regime=),
    whose budget is the child ("inv-a" or "inv-b", pair index) of
    MCBudget(samples, seed), checked once, at entry. n_points must be at
    least 1.
    """
    n_points = as_count(n_points, "n_points")
    root = MCBudget(samples, seed)
    _check_budget(instance, 0, root)
    d = instance.basis.dim
    if d <= len(instance.basis):
        raise ValueError("no orthogonal complement to test (d <= span dimension)")
    rng = stream(seed, "invariance")
    drawn = []
    for p in range(n_points):
        x = sample_ball(d, rng)
        raw = rng.standard_normal(d)
        y = perp_component(perp_component(raw, instance.basis), instance.basis)
        norm = dot_norm(y)
        if norm == 0.0:
            continue
        y = y / norm * rng.random()
        c = max(1.0, dot_norm(x + y))
        drawn.append((p, x / c, (x + y) / c))
    regimes = affine_regimes(instance, [z for _, a, b in drawn for z in (a, b)])
    n_exact = n_mc = 0
    max_exact_diff = 0.0
    ok = True
    for (p, a, b), ra, rb in zip(drawn, regimes[::2], regimes[1::2]):
        (values_a, keep_a), (values_b, keep_b) = ra, rb
        if len(keep_a) == len(keep_b) == 1:
            diff = abs(values_a.f_tilde - values_b.f_tilde)
            max_exact_diff = max(max_exact_diff, diff)
            ok = ok and np.array_equal(keep_a, keep_b) and diff <= 1e-10
            n_exact += 1
        else:
            va, ea = smoothed_value_mc(instance, a, root.child("inv-a", p), regime=ra)
            vb, eb = smoothed_value_mc(instance, b, root.child("inv-b", p), regime=rb)
            ok = ok and abs(va - vb) <= 6.0 * math.sqrt(ea * ea + eb * eb)
            n_mc += 1
    return InvarianceAudit(
        n_points=n_points,
        n_exact=n_exact,
        n_monte_carlo=n_mc,
        max_exact_diff=max_exact_diff,
        passed=ok,
    )


@dataclass
class LocalityAudit:
    passed: bool


def verify_locality(T: int, k: int, seed: int = 0) -> LocalityAudit:
    """Adaptive-protocol locality made executable: run a subgradient
    sequence and replay it against the final instance, which rechecks
    every recorded regime flag offline (a flag the final instance
    contradicts is a regime_mismatch, which fails the replay)."""
    params = params_deterministic(T, k)
    oracle = AdaptiveOracle(params, seed=seed)
    run_method(oracle, "psg")
    _, consistency = oracle.finalize()
    return LocalityAudit(passed=consistency.all_equal)


def audit_instance(T: int, k: int, seed: int = 0) -> HardInstance:
    """A completed deterministic-mode instance on a random orthonormal
    basis, for standalone audits. Its d - T explicit directions make the
    working space all of R^d."""
    params = params_deterministic(T, k)
    basis = random_orthonormal_basis(
        params.d, params.T, stream(seed, "audit-basis"), params.d - params.T
    )
    return HardInstance.from_basis(params, basis)


@dataclass
class VerifySummary:
    suite: str
    lipschitz: list[LipschitzAudit] = field(default_factory=list)
    invariance: InvarianceAudit | None = None
    locality: LocalityAudit | None = None

    @property
    def passed(self) -> bool:
        checks: list[bool] = [a.passed for a in self.lipschitz]
        if self.invariance is not None:
            checks.append(self.invariance.passed)
        if self.locality is not None:
            checks.append(self.locality.passed)
        return bool(checks) and all(checks)


def run_verification(
    suite: str,
    T: int,
    k: int,
    seed: int = 0,
    n_pairs: int = AUDIT_PAIRS,
    samples: int = AUDIT_SAMPLES,
) -> VerifySummary:
    """Run one audit suite, or all of them, on a T-piece order-k instance;
    n_pairs (pairs per Lipschitz order, points for invariance) must be at
    least 1, samples (per estimate) what the estimates take: 2^(j+1) at
    Lipschitz order j = min(k, 2), 2 for invariance, none for locality.
    The suite, n_pairs, T, k and samples are checked before any audit
    runs (a RefusedArgument): the audit instance is built first for every
    suite, the locality audit's included, whose own instance shares its
    parameters."""
    summary = VerifySummary(suite=suite)
    with _argument_checks():
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        n_pairs = as_count(n_pairs, "n_pairs")
        instance = audit_instance(T, k, seed)
        samples = as_integer(samples, "samples")
        orders = [0, 1] + ([2] if k >= 2 else [])
        least = {"locality": -math.inf, "invariance": 2}.get(suite, 2 ** (orders[-1] + 1))
        if samples < least:
            raise ValueError(refusal("samples", f"be at least {least} for the {suite} suite", samples))
    if suite in {"lipschitz", "all"}:
        summary.lipschitz = [
            verify_lipschitz(instance, order, n_pairs=n_pairs, samples=samples, seed=seed)
            for order in orders
        ]
    if suite in {"invariance", "all"}:
        summary.invariance = verify_invariance(instance, n_points=n_pairs, samples=samples, seed=seed)
    if suite in {"locality", "all"}:
        summary.locality = verify_locality(T, k, seed)
    return summary


@dataclass
class SeedOutcome:
    seed: int
    event_e_held: bool | None
    min_gap: float
    floor: float
    passed: bool


@dataclass
class SweepReport:
    mode: str
    n_seeds: int
    outcomes: list[SeedOutcome]
    held_count: int | None
    held_fraction: float | None
    held_threshold: float | None
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def sweep(config: RunConfig, n_seeds: int) -> SweepReport:
    """Run the experiment across n_seeds seeds (base seed + offset).

    Randomized mode additionally checks that the fraction of runs where
    the low-correlation event held clears (1 - fail_prob) minus three
    binomial standard deviations. n_seeds must be at least 1.
    """
    with _argument_checks():
        n_seeds = as_count(n_seeds, "n_seeds")
    outcomes = []
    for offset in range(n_seeds):
        report = run_experiment(replace(config, seed=config.seed + offset, out=None))
        outcomes.append(
            SeedOutcome(
                seed=config.seed + offset,
                event_e_held=report.event_e_held,
                min_gap=report.min_gap,
                floor=report.floor,
                passed=report.passed,
            )
        )
    held_count = held_fraction = threshold = None
    passed = all(o.passed for o in outcomes)
    if config.mode == RANDOMIZED:
        held_count = sum(1 for o in outcomes if o.event_e_held)
        held_fraction = held_count / n_seeds
        p = config.fail_prob
        threshold = (1.0 - p) - 3.0 * math.sqrt(p * (1.0 - p) / n_seeds)
        passed = passed and held_fraction >= threshold
    return SweepReport(
        mode=config.mode,
        n_seeds=n_seeds,
        outcomes=outcomes,
        held_count=held_count,
        held_fraction=held_fraction,
        held_threshold=threshold,
        passed=passed,
    )
