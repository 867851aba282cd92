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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .evaluator import (
    DEFAULT_VALUE_SAMPLES,
    MCBudget,
    _tensor_coords_mc,
    affine_regime,
    rescale_to_smoothness,
    smoothed_gradient_mc,
    smoothed_value_mc,
    suboptimality_certificate,
)
from .geometry import perp_component, random_orthonormal_basis, sample_ball
from .instance import (
    DETERMINISTIC,
    RANDOMIZED,
    HardInstance,
    params_deterministic,
    params_randomized,
    pessimal_point,
)
from .oracles import AdaptiveOracle, RandomizedOracle, event_e_check
from .optimizers import run_method
from .streams import child_seed, stream

# Samples per Monte-Carlo estimate in the smoothness and invariance audits.
AUDIT_SAMPLES = 20_000
CSV_COLUMNS = ["iter", "certified_gap", "floor", "regime", "event_e_margin", "value", "grad_norm"]


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
    """Smoothed value at the witness point (exact, stderr 0, where the
    point is exact-affine; else a Monte-Carlo estimate), against the
    closed-form cap -1/sqrt(r) + gamma + k*delta."""

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
    once per experiment as a redundant sanity bound on the minimum. The
    smoothed value at -sum(a_i)/sqrt(r) is f_tilde there, with stderr 0,
    when that point is exact-affine (its argmax margin is gamma/m, above
    2*k*delta in both schedules): every point the smoothing reaches sees
    the one winning piece, whose average over centred balls is its value.
    Otherwise it is a Monte-Carlo estimate.
    """
    if config.mode == DETERMINISTIC:
        params = params_deterministic(config.T, config.k)
    elif config.mode == RANDOMIZED:
        params = params_randomized(config.T, config.k, config.fail_prob)
    else:
        raise ValueError(f"unknown mode {config.mode!r}")
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
            final, rec.x, allow_partial=True, values=entry.values
        )
        rows.append(
            IterationRow(
                iter=rec.index,
                certified_gap=gap,
                floor=floor,
                regime=rec.response.regime,
                event_e_margin=rec.event_e_margin,
                value=rec.response.value,
                grad_norm=float(np.linalg.norm(rec.response.gradient)),
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
    values, idx = affine_regime(final, xhat)
    if idx is not None:
        est, se = values.f_tilde, 0.0
    else:
        est, se = smoothed_value_mc(
            final, xhat, MCBudget(config.mc_samples, child_seed(config.seed, "min-crosscheck"))
        )
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


def emit_report(report: RunReport, format: str, path) -> Path:
    """Write the report as CSV (fixed column set) or JSON; trailing
    newline, UTF-8, byte-stable across replays of the same config."""
    path = Path(path)
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in report.rows:
                writer.writerow(
                    [
                        row.iter,
                        _fmt(row.certified_gap),
                        _fmt(row.floor),
                        row.regime,
                        _fmt(row.event_e_margin),
                        _fmt(row.value),
                        _fmt(row.grad_norm),
                    ]
                )
    elif format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_dict(), indent=2))
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {format!r}")
    return path


@dataclass
class LipschitzAudit:
    order: int
    bound: float
    max_ratio: float
    max_excess: float
    n_pairs: int
    passed: bool


class UnsupportedOrderError(ValueError):
    """Orders above 2 are not audited (tensor Monte-Carlo noise at the
    (r/delta)^3 scale would need infeasible sample counts)."""


def _separated_pairs(instance: HardInstance, n_pairs: int, rng) -> list[tuple[np.ndarray, np.ndarray, float]]:
    min_sep = 10.0 * instance.params.delta
    pairs = []
    d = instance.basis.dim
    while len(pairs) < n_pairs:
        x = sample_ball(d, rng)
        y = sample_ball(d, rng)
        dist = float(np.linalg.norm(x - y))
        if dist >= min_sep:
            pairs.append((x, y, dist))
    return pairs


def verify_lipschitz(
    instance: HardInstance,
    order: int,
    n_pairs: int = 50,
    samples: int = AUDIT_SAMPLES,
    seed: int = 0,
    rescale: float = 1.0,
) -> LipschitzAudit:
    """Audit the order-i smoothness bound (r/delta)^i on random pairs.

    Pairs are drawn in the unit ball at separation >= 10*delta; the
    difference quotient of the order-i derivative is compared against
    rescale * (r/delta)^i with an explicit Monte-Carlo slack of three
    combined reported errors. Orders 0 and 1 use the value and gradient
    estimators; order 2 compares H(x) u and H(y) u for the basis row
    u = p mod r, both Hessians estimated on one common-random-numbers
    seed. A NaN ratio or error makes max_ratio or max_excess NaN and
    fails the audit. Orders above 2 raise UnsupportedOrderError.
    """
    params = instance.params
    if order > 2:
        raise UnsupportedOrderError(
            f"order {order} not audited (supported: 0, 1, 2)"
        )
    if order > params.k:
        raise ValueError(f"order {order} exceeds the instance's smoothness order k={params.k}")
    r = instance.smoothing_dim
    bound = rescale * (r / params.delta) ** order
    rng = stream(seed, "lipschitz-pairs", order)
    pairs = _separated_pairs(instance, n_pairs, rng)
    ratios, excesses = [], []
    for p, (x, y, dist) in enumerate(pairs):
        if order == 0:
            vx, ex = smoothed_value_mc(instance, x, MCBudget(samples, child_seed(seed, "lip0x", p)))
            vy, ey = smoothed_value_mc(instance, y, MCBudget(samples, child_seed(seed, "lip0y", p)))
            ratio = rescale * abs(vx - vy) / dist
            slack = rescale * 3.0 * (ex + ey) / dist
        elif order == 1:
            gx, ex = smoothed_gradient_mc(instance, x, MCBudget(samples, child_seed(seed, "lip1x", p)))
            gy, ey = smoothed_gradient_mc(instance, y, MCBudget(samples, child_seed(seed, "lip1y", p)))
            ratio = rescale * float(np.linalg.norm(gx - gy)) / dist
            slack = rescale * 3.0 * (ex + ey) / dist
        else:
            crn = MCBudget(samples, child_seed(seed, "lip2", p))
            hx, ex = _tensor_coords_mc(instance, x, 2, crn)
            hy, ey = _tensor_coords_mc(instance, y, 2, crn)
            column = p % r
            ratio = rescale * float(np.linalg.norm(hx[:, column] - hy[:, column])) / dist
            slack = rescale * 3.0 * (ex + ey) / dist
        ratios.append(ratio)
        excesses.append(ratio - slack)
    # np.max, unlike Python's max, keeps a NaN, which then fails the audit
    max_excess = float(np.max(excesses, initial=-math.inf))
    return LipschitzAudit(
        order=order,
        bound=bound,
        max_ratio=float(np.max(ratios, initial=0.0)),
        max_excess=max_excess,
        n_pairs=len(pairs),
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
    n_points: int = 20,
    samples: int = AUDIT_SAMPLES,
    seed: int = 0,
) -> InvarianceAudit:
    """Check that shifting a point by a vector orthogonal to the piece
    span leaves the answer unchanged.

    Pairs (x, x+y) with y in the orthogonal complement are scaled into
    the ball together; exact-affine pairs must agree to 1e-10 (the
    orthogonality tolerance), Monte-Carlo pairs to 6 combined standard
    errors.
    """
    d = instance.basis.dim
    if d <= instance.smoothing_dim:
        raise ValueError("no orthogonal complement to test (d <= smoothing dimension)")
    rng = stream(seed, "invariance")
    n_exact = n_mc = 0
    max_exact_diff = 0.0
    ok = True
    for p in range(n_points):
        x = sample_ball(d, rng)
        raw = rng.standard_normal(d)
        y = perp_component(perp_component(raw, instance.basis), instance.basis)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            continue
        y = y / norm * rng.random()
        c = max(1.0, float(np.linalg.norm(x + y)))
        a, b = x / c, (x + y) / c
        values_a, ia = affine_regime(instance, a)
        values_b, ib = affine_regime(instance, b)
        if ia is not None and ib is not None:
            diff = abs(values_a.f_tilde - values_b.f_tilde)
            max_exact_diff = max(max_exact_diff, diff)
            ok = ok and ia == ib and diff <= 1e-10
            n_exact += 1
        else:
            va, ea = smoothed_value_mc(instance, a, MCBudget(samples, child_seed(seed, "inv-a", p)))
            vb, eb = smoothed_value_mc(instance, b, MCBudget(samples, child_seed(seed, "inv-b", p)))
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
    consistency_ok: bool
    regimes_consistent: bool
    passed: bool


def verify_locality(T: int, k: int, seed: int = 0) -> LocalityAudit:
    """Adaptive-protocol locality made executable: run a subgradient
    sequence and replay it against the final instance, which rechecks
    every recorded regime flag offline (a flag the final instance
    contradicts is a regime_mismatch)."""
    params = params_deterministic(T, k)
    oracle = AdaptiveOracle(params, seed=seed)
    run_method(oracle, "psg")
    _, consistency = oracle.finalize()
    regimes_ok = all(e.reason != "regime_mismatch" for e in consistency.entries)
    return LocalityAudit(
        consistency_ok=consistency.all_equal,
        regimes_consistent=regimes_ok,
        passed=consistency.all_equal and regimes_ok,
    )


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
    n_pairs: int = 30,
    samples: int = AUDIT_SAMPLES,
) -> VerifySummary:
    summary = VerifySummary(suite=suite)
    if suite not in {"lipschitz", "invariance", "locality", "all"}:
        raise ValueError(f"unknown suite {suite!r}")
    if suite in {"lipschitz", "invariance", "all"}:
        instance = audit_instance(T, k, seed)
        if suite in {"lipschitz", "all"}:
            orders = [0, 1] + ([2] if k >= 2 else [])
            summary.lipschitz = [
                verify_lipschitz(instance, order, n_pairs=n_pairs, samples=samples, seed=seed)
                for order in orders
            ]
        if suite in {"invariance", "all"}:
            summary.invariance = verify_invariance(
                instance, n_points=n_pairs, samples=samples, seed=seed
            )
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
    binomial standard deviations.
    """
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
