import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resistor.evaluator import MONTE_CARLO, MCBudget, OracleResponse, oracle_answer, suboptimality_certificate
from resistor.geometry import OrthonormalBasis
from resistor.instance import DETERMINISTIC, HardInstance, InstanceParams, params_deterministic
from resistor.oracles import AdaptiveOracle, Transcript, QueryRecord
from resistor.optimizers import (
    cubic_step,
    project_ball,
    run_accelerated_gradient,
    run_cubic_newton,
    run_method,
    run_projected_subgradient,
)
from resistor.streams import child_seed

from conftest import unit


class DirectOracle:
    """Fixed-instance oracle for exercising optimizers outside the
    adversarial protocol (nothing is revealed or appended)."""

    def __init__(self, instance, budget=10**9, seed=0, rescale=1.0):
        self.instance = instance
        self.params = instance.params
        self.dim = instance.basis.dim
        self.rescale = rescale
        self.seed = seed
        self._budget = budget
        self.transcript = Transcript(instance.params)

    @property
    def queries_left(self):
        return self._budget - len(self.transcript)

    def query(self, x):
        x = np.array(x, dtype=float)
        i = len(self.transcript) + 1
        budget = MCBudget(10_000, child_seed(self.seed, "mc", i))
        resp = oracle_answer(self.instance, x, budget=budget).scaled(self.rescale)
        self.transcript.records.append(QueryRecord(i, x, resp, None))
        return resp


class QuadraticOracle:
    """f(x) = c ||x - target||^2 / 2 for `budget` queries, an internal
    sanity fixture."""

    def __init__(self, target, budget, curvature=1.0):
        self.target = np.asarray(target, dtype=float)
        self.params = SimpleNamespace(d=self.target.shape[0], T=budget, delta=1.0)
        self.dim = self.target.shape[0]
        self.rescale = 1.0
        self.transcript = []
        self.curvature = curvature

    @property
    def queries_left(self):
        return self.params.T - len(self.transcript)

    def query(self, x):
        x = np.asarray(x, dtype=float)
        self.transcript.append(x)
        return OracleResponse(
            value=0.5 * self.curvature * float(np.sum((x - self.target) ** 2)),
            gradient=self.curvature * (x - self.target),
            higher=(),
            affine_index=None,
            value_stderr=0.0,
            gradient_error=0.0,
        )


def one_piece_instance(T=6, k=1):
    p = params_deterministic(T, k)
    return HardInstance.from_basis(p, OrthonormalBasis(unit(p.d, 0)[None, :]))


class TestProjectBall:
    def test_inside_unchanged(self):
        x = np.array([0.3, 0.4])
        assert project_ball(x) is x

    def test_outside_scaled_to_boundary(self):
        out = project_ball(np.array([0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_zero_fixed(self):
        np.testing.assert_array_equal(project_ball(np.zeros(3)), np.zeros(3))


class TestProjectedSubgradient:
    def test_one_piece_monotone_descent(self):
        oracle = DirectOracle(one_piece_instance(), budget=6)
        run_projected_subgradient(oracle)
        coords = [rec.x[0] for rec in oracle.transcript.records]
        assert all(b <= a + 1e-15 for a, b in zip(coords, coords[1:]))
        assert coords[-1] < coords[0]
        grads = [rec.response.gradient for rec in oracle.transcript.records]
        for g in grads:
            np.testing.assert_array_equal(g, grads[0])

    def test_floor_against_adaptive_t16(self):
        p = params_deterministic(16, 1)
        oracle = AdaptiveOracle(p, seed=0)
        run_projected_subgradient(oracle)
        final, _ = oracle.finalize()
        for rec in oracle.transcript.records:
            assert suboptimality_certificate(final, rec.x) >= 1.0 / (2.0 * math.sqrt(16))

    def test_deterministic_replay(self):
        p = params_deterministic(9, 1)
        t1 = run_projected_subgradient(AdaptiveOracle(p, seed=8))
        t2 = run_projected_subgradient(AdaptiveOracle(p, seed=8))
        for a, b in zip(t1.records, t2.records):
            np.testing.assert_array_equal(a.x, b.x)


class RecordingOracle(QuadraticOracle):
    """Keeps each query by reference (as QuadraticOracle does) and a copy
    taken when it arrived."""

    def __init__(self, target, budget, curvature):
        super().__init__(target, budget, curvature)
        self.copies = []

    def query(self, x):
        self.copies.append(np.array(x, copy=True))
        return super().query(x)


class TestProjectedSubgradientStep:
    def test_queries_unchanged_and_iterates_follow_the_recursion(self):
        target = np.array([0.9, -0.6, 0.3, 0.4])
        # curvature 0.5 under the unit step scale: steps 0.5 / sqrt(t) * (x - target)
        oracle = RecordingOracle(target, budget=40, curvature=0.5)
        run_projected_subgradient(oracle)
        x = np.zeros(4)
        projected = []
        for t, (kept, copy) in enumerate(zip(oracle.transcript, oracle.copies, strict=True), start=1):
            # a query kept by reference is never written by later steps
            assert kept.tobytes() == copy.tobytes()
            assert kept.tobytes() == x.tobytes()
            step = x - 0.5 / math.sqrt(t) * (x - target)
            projected.append(np.linalg.norm(step) > 1.0)
            x = project_ball(step)
        # both branches of the projection are exercised
        assert any(projected) and not all(projected)


class TestAcceleratedGradient:
    def test_quadratic_sanity_against_long_gd(self):
        target = np.array([0.3, -0.2, 0.1, 0.25])
        # brute-force oracle: plain gradient descent run long enough
        ref = np.zeros(4)
        for _ in range(10_000):
            ref = project_ball(ref - 0.1 * (ref - target))
        agd_oracle = QuadraticOracle(target, budget=600)
        run_accelerated_gradient(agd_oracle)
        last = agd_oracle.transcript[-1]
        assert np.linalg.norm(last - ref) <= 1e-6
        assert np.linalg.norm(ref - target) <= 1e-9

    def test_floor_against_adaptive_t16(self):
        p = params_deterministic(16, 1)
        oracle = AdaptiveOracle(p, seed=1)
        run_accelerated_gradient(oracle)
        final, _ = oracle.finalize()
        for rec in oracle.transcript.records:
            assert suboptimality_certificate(final, rec.x) >= 0.125

    def test_queries_follow_the_nesterov_recursion(self):
        p = params_deterministic(9, 1)
        oracle = AdaptiveOracle(p, seed=3)
        run_accelerated_gradient(oracle)
        # independent recursion on a replayed oracle: step 0.3 / sqrt(t),
        # momentum (t - 1) / (t + 2), both points projected
        twin = AdaptiveOracle(p, seed=3)
        x_prev = y = np.zeros(p.d)
        for t, rec in enumerate(oracle.transcript.records, start=1):
            assert rec.x.tobytes() == y.tobytes()
            resp = twin.query(y)
            x = project_ball(y - 0.3 / math.sqrt(t) * resp.gradient)
            y = project_ball(x + (t - 1.0) / (t + 2.0) * (x - x_prev))
            x_prev = x
        assert len(oracle.transcript) == p.T


class TestCubicNewton:
    def test_zero_hessian_step_matches_closed_form(self):
        g = np.array([0.3, -0.4, 0.1])
        m_weight = 50.0
        s = cubic_step(g, None, m_weight)
        gnorm = np.linalg.norm(g)
        expected = -math.sqrt(2.0 * gnorm / m_weight) * (g / gnorm)
        np.testing.assert_allclose(s, expected, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(cubic_step(np.zeros(3), None, m_weight), np.zeros(3))

    def test_floor_against_adaptive_t9_k2(self):
        p = params_deterministic(9, 2)
        oracle = AdaptiveOracle(p, seed=2)
        run_cubic_newton(oracle)
        final, _ = oracle.finalize()
        for rec in oracle.transcript.records:
            assert suboptimality_certificate(final, rec.x) >= 1.0 / 6.0

    def test_strong_regularization_freezes_steps(self):
        g = np.array([1.0, 0.0])
        small = cubic_step(g, None, 1e12)
        large = cubic_step(g, None, 1e2)
        assert np.linalg.norm(small) <= 1e-5
        assert np.linalg.norm(small) < np.linalg.norm(large)

    def test_sampled_hessian_steps_minimize_the_ambient_model(self):
        # pieces e1, e2 with equal shifts tie along the diagonal, so every
        # answer from the origin on is Monte Carlo with a sampled Hessian
        params = InstanceParams(T=2, k=2, m=2, d=3, gamma=0.1, delta=0.005, mode=DETERMINISTIC)
        instance = HardInstance.custom(params, np.vstack([unit(3, 0), unit(3, 1)]), [0.0, 0.0])
        oracle = DirectOracle(instance, budget=4)
        run_cubic_newton(oracle)
        m_weight = (params.T / params.delta) ** 2
        records = oracle.transcript.records
        assert len(records) == 4
        for rec, after in zip(records, records[1:]):
            resp = rec.response
            assert resp.regime == MONTE_CARLO and not resp.hessian().is_zero
            # the step is unprojected, and optimal for the cubic model with
            # the ambient Hessian b^T H b: (H_amb + rho I) s = -g, rho = M ||s|| / 2
            s = after.x - rec.x
            assert np.linalg.norm(after.x) < 1.0
            b = resp.basis_matrix
            ambient = b.T @ resp.hessian().tensor @ b
            rho = 0.5 * m_weight * np.linalg.norm(s)
            residual = ambient @ s + rho * s + resp.gradient
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(resp.gradient)
            assert np.linalg.eigvalsh(ambient)[0] + rho >= 0.0

    def test_requires_second_order_oracle(self):
        p = params_deterministic(9, 1)
        with pytest.raises(ValueError, match="k >= 2"):
            run_cubic_newton(AdaptiveOracle(p, seed=0))


class TestSharedBehaviour:
    @pytest.mark.parametrize("method,k", [("psg", 1), ("agd", 1), ("cubic", 2)])
    def test_iterates_stay_feasible(self, method, k):
        p = params_deterministic(9, k)
        oracle = AdaptiveOracle(p, seed=4)
        run_method(oracle, method)
        for rec in oracle.transcript.records:
            assert np.linalg.norm(rec.x) <= 1.0 + 1e-12

    def test_unknown_method(self):
        p = params_deterministic(4, 1)
        with pytest.raises(ValueError, match="unknown method"):
            run_method(AdaptiveOracle(p, seed=0), "newton")


def symmetric(entries, r):
    a = np.array(entries[: r * r]).reshape(r, r)
    return (a + a.T) / 2.0


magnitude = st.floats(-100.0, 100.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(1, 8),
    h=st.lists(magnitude, min_size=64, max_size=64),
    g=st.lists(magnitude, min_size=8, max_size=8),
    m_weight=st.floats(1e-3, 1e6),
)
@example(r=2, h=[-1.0, 0.0, 0.0, 2.0] + [0.0] * 60, g=[0.0, 1.0] + [0.0] * 6, m_weight=1.0)
@example(r=3, h=[-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0] + [0.0] * 55, g=[0.0] * 8, m_weight=2.0)
@example(r=1, h=[5.0] + [0.0] * 63, g=[0.0] * 8, m_weight=1.0)
@example(r=1, h=[0.0] * 64, g=[8.363812443838375e-158] + [0.0] * 7, m_weight=1.0)
def test_cubic_step_is_the_global_minimizer(r, h, g, m_weight):
    """Nesterov & Polyak's characterization: s minimizes the cubic model
    globally iff (H + rho I) s = -g and H + rho I is positive semidefinite,
    rho = M ||s|| / 2. The residual is measured against the size of its
    terms, (||H|| + rho) ||s|| + ||g||: where ||g|| is far below ||H|| ||s||
    (near the hard case), rounding in H s alone exceeds any fraction of
    ||g||. The examples are a hard case (g orthogonal to the negative
    eigenvector), g = 0 with an indefinite H, g = 0 with H > 0, and a g
    whose squared norm underflows. Norms are taken with math.hypot,
    which does not underflow."""
    hess, g = symmetric(h, r), np.array(g[:r])
    s = cubic_step(g, hess, m_weight)
    snorm = math.hypot(*s)
    rho = 0.5 * m_weight * snorm
    hnorm = float(np.linalg.norm(hess, 2))
    residual = hess @ s + rho * s + g
    scale = (hnorm + rho) * snorm + math.hypot(*g)
    assert math.hypot(*residual) <= 1e-10 * scale
    assert np.linalg.eigvalsh(hess + rho * np.eye(r))[0] >= -1e-10 * (hnorm + rho)
    # H = 0 through the eigen path gives the closed form to roundoff
    np.testing.assert_allclose(
        cubic_step(g, np.zeros((r, r)), m_weight), cubic_step(g, None, m_weight), rtol=1e-12, atol=0
    )
