"""Acceptance gate: every headline guarantee exercised end to end at its
stated tolerance, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rA`) to see the
per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from resistor.evaluator import (
    MCBudget,
    _contender_frame,
    affine_regime,
    rescale_to_smoothness,
    smoothed_value_mc,
)
from resistor.geometry import OrthonormalBasis
from resistor.harness import RunConfig, audit_instance, run_experiment, sweep, verify_lipschitz
from resistor.instance import DETERMINISTIC, RANDOMIZED, HardInstance, params_deterministic, pessimal_point
from resistor.evaluator import piece_values

from conftest import abs_instance, contender_frame_at, fd_gradient_crn, sampled_gradient, unit

BUDGETS = (4, 9, 16, 25, 100, 400)
GRID = [
    (T, k, method)
    for k, methods in ((1, ("psg", "agd")), (2, ("psg", "agd", "cubic")))
    for method in methods
    for T in BUDGETS
]


def _line(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def det_grid():
    """All deterministic grid cells, run once and shared (seed 0)."""
    out = {}
    for T, k, method in GRID:
        start = time.perf_counter()
        report = run_experiment(
            RunConfig(mode=DETERMINISTIC, T=T, k=k, method=method, seed=0)
        )
        out[(T, k, method)] = (report, time.perf_counter() - start)
    return out


def test_criterion_1_deterministic_floor(det_grid):
    ok = True
    for (T, k, method), (report, elapsed) in det_grid.items():
        floor = 1.0 / (2.0 * math.sqrt(T))
        cell_ok = (
            len(report.rows) == T
            and all(row.certified_gap >= floor for row in report.rows)
            and elapsed < 10.0
        )
        if not cell_ok:
            print(f"  cell (T={T}, k={k}, {method}) failed: {report}")
        ok = ok and cell_ok
    _line(1, "deterministic floor 1/(2*sqrt(T)) at every query", ok)


def test_randomized_grid_rows():
    # the randomized psg k = 1 row of `resistor grid` at every budget, under
    # the deterministic cells' 10 s bound
    ok = True
    for T in BUDGETS:
        start = time.perf_counter()
        report = run_experiment(RunConfig(mode=RANDOMIZED, T=T, k=1, method="psg", seed=0))
        elapsed = time.perf_counter() - start
        floor = 1.0 / (2.0 * math.sqrt(T))
        row_ok = (
            report.passed
            and report.event_e_held is True
            and len(report.rows) == T
            and all(row.certified_gap >= floor for row in report.rows)
            and elapsed < 10.0
        )
        print(f"  randomized psg T={T}: event E held={report.event_e_held}, {elapsed:.2f}s")
        ok = ok and row_ok
    print(f"[criterion note] randomized psg rows at T in {BUDGETS}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_2_consistency_replay(det_grid):
    ok = all(
        report.consistency_ok and report.consistency_first_mismatch is None
        for report, _ in det_grid.values()
    )
    _line(2, "recorded vs replayed responses exactly equal", ok)


def test_criterion_3_min_value_crosscheck():
    inst = audit_instance(9, 2, seed=0)
    p = inst.params
    xhat, _ = pessimal_point(inst)
    est, stderr = smoothed_value_mc(inst, xhat, MCBudget(100_000, seed=30))
    bound = -1.0 / 3.0 + p.gamma + p.k * p.delta
    _line(3, "witness-point value below -1/sqrt(T) + gamma + k*delta", est <= bound + 3 * stderr)


def _bias_trial_failures(instance, seed_base: int) -> int:
    rng = np.random.default_rng(seed_base)
    failures = 0
    for trial in range(100):
        x = rng.standard_normal(instance.params.d)
        x /= max(1.0, 2.0 * np.linalg.norm(x))
        values, keep = affine_regime(instance, x)
        exact = values.f_tilde
        # the one-contender frame is sampled, where the estimator alone
        # would return the closed form
        frame = _contender_frame(instance, values, keep)
        budget = MCBudget(2_000, seed=seed_base + trial)
        est, se = smoothed_value_mc(instance, x, budget, contender_frame=frame)
        if abs(est - exact) > 4.0 * se:
            failures += 1
    return failures


def test_criterion_4a_affine_fixed_point():
    p = params_deterministic(4, 1)
    inst = HardInstance.from_basis(p, OrthonormalBasis(unit(p.d, 0)[None, :]))
    failures = _bias_trial_failures(inst, 1000)
    if failures > 2:  # rerun-once policy
        failures = _bias_trial_failures(inst, 2000)
    _line(4, "a) affine fixed point: <= 2 of 100 trials beyond 4 sigma", failures <= 2)


def test_criterion_4b_value_within_k_delta():
    inst = audit_instance(9, 2, seed=0)
    p = inst.params
    rng = np.random.default_rng(42)
    ok = True
    for point in range(1000):
        x = rng.standard_normal(p.d)
        x /= max(1.0, np.linalg.norm(x))
        est, se = smoothed_value_mc(inst, x, MCBudget(2_000, seed=50_000 + point))
        ft = piece_values(inst, x).f_tilde
        ok = ok and abs(est - ft) <= p.k * p.delta + 3.0 * se
    _line(4, "b) |smoothed - max-affine| <= k*delta + 3 sigma at 1000 points", ok)


def test_criterion_4c_value_lipschitz():
    audit = verify_lipschitz(audit_instance(4, 1, seed=0), 0, n_pairs=1000, samples=2_000, seed=4)
    _line(4, "c) value difference quotients <= 1 + MC slack over 1000 pairs", audit.passed and audit.bound == 1.0)


def test_criterion_4d_gradient_lipschitz():
    inst = audit_instance(4, 1, seed=0)
    audit = verify_lipschitz(inst, 1, n_pairs=1000, samples=2_000, seed=5)
    expected_bound = inst.params.T / inst.params.delta
    _line(
        4,
        "d) gradient difference quotients <= r/delta over 1000 pairs",
        audit.passed and audit.bound == expected_bound,
    )


def test_criterion_5_one_dimensional_analytic():
    # single smoothing pass of max(a.x, -a.x) at the kink: the 1-d integral
    # E|delta u|, u uniform on [-1, 1], equals delta/2
    p = params_deterministic(4, 1)
    inst = abs_instance(p)
    # the kink is a two-piece point, answered in closed form unless the
    # contender frame is passed: the sampler is checked here
    x = np.zeros(p.d)
    est, se = smoothed_value_mc(inst, x, MCBudget(100_000, seed=6), contender_frame=contender_frame_at(inst, x))
    _line(5, "kink of |a.x| smooths to delta/2 within 3 sigma", abs(est - p.delta / 2.0) <= 3 * se)


def test_criterion_6_gradient_formula_equivalence():
    inst = audit_instance(4, 1, seed=0)
    p = inst.params
    r = inst.params.T
    h = p.delta / 1000.0
    trunc = math.sqrt(r) * (r / p.delta) * h / 2.0
    rng = np.random.default_rng(7)
    ok = True
    for point in range(50):
        x = rng.standard_normal(p.d)
        x /= max(1.0, np.linalg.norm(x))
        # the sphere formula itself, sampled at every point
        sphere, g_err = sampled_gradient(inst, x, MCBudget(200_000, seed=70_000 + point))
        fd, fd_err = fd_gradient_crn(inst, x, h, 100_000, seed=90_000 + point)
        ok = ok and np.linalg.norm(sphere - fd) <= 3.0 * (g_err + fd_err) + trunc
    _line(6, "sphere-formula gradient matches value finite differences (50 points)", ok)


def test_criterion_7_randomized_mode():
    start = time.perf_counter()
    report = sweep(
        RunConfig(mode=RANDOMIZED, T=4, k=1, method="psg", seed=0, fail_prob=0.2, mc_samples=10_000),
        20,
    )
    elapsed = time.perf_counter() - start
    floor = 1.0 / (2.0 * math.sqrt(4))
    held_ok = report.held_count >= 13
    gaps_ok = all(o.min_gap >= floor for o in report.outcomes if o.event_e_held)
    print(
        f"  event held {report.held_count}/20, elapsed {elapsed:.1f}s "
        f"(budget 300s), worst held-run gap {min((o.min_gap for o in report.outcomes if o.event_e_held), default=float('nan')):.4f}"
    )
    _line(7, "randomized mode: event E >= 13/20 and floor in every held run", held_ok and gaps_ok and elapsed < 300.0)


def test_criterion_8_rescaling():
    report = run_experiment(
        RunConfig(mode=DETERMINISTIC, T=4, k=1, method="psg", seed=0, rescale_L=1.0)
    )
    s = rescale_to_smoothness(1.0, 1, 4)
    floor_ok = report.floor == 0.00078125 and all(row.floor == 0.00078125 for row in report.rows)
    inst = audit_instance(4, 1, seed=0)
    unscaled = verify_lipschitz(inst, 1, n_pairs=3, samples=1_000, seed=8)
    scaled = verify_lipschitz(inst, 1, n_pairs=3, samples=1_000, seed=8, rescale=s)
    audit_ok = scaled.bound == s * unscaled.bound
    _line(8, "rescaled floor 0.00078125 and audit bound scaled by s exactly", floor_ok and audit_ok and report.passed)


def test_rescaled_floor_product_constant_across_budgets():
    # floor * T^(2.5k) * 2 sqrt(T) must reproduce L/(10k)^k at every T
    for k in (1, 2):
        L = 1.0
        target = L / (10.0 * k) ** k
        for T in BUDGETS:
            s = rescale_to_smoothness(L, k, T)
            floor = s / (2.0 * math.sqrt(T))
            product = floor * T ** (2.5 * k) * 2.0 * math.sqrt(T)
            assert product == pytest.approx(target, rel=1e-12), (k, T)
    print("[criterion note] floor * T^(2.5k) * 2*sqrt(T) constant across T: PASS")
