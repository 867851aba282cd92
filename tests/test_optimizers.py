import math
from types import SimpleNamespace

import numpy as np
import pytest

from resistor.evaluator import MCBudget, OracleResponse, oracle_answer, suboptimality_certificate
from resistor.geometry import OrthonormalBasis
from resistor.instance import HardInstance, params_deterministic
from resistor.oracles import AdaptiveOracle, Transcript, QueryRecord
from resistor.optimizers import (
    OptimizerConfig,
    cubic_substep,
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
    """f(x) = ||x - target||^2 / 2, an internal sanity fixture."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self.params = SimpleNamespace(d=self.target.shape[0], T=10**9, delta=1.0)
        self.dim = self.target.shape[0]
        self.rescale = 1.0
        self.transcript = []
        self.queries_left = 10**9

    def query(self, x):
        x = np.asarray(x, dtype=float)
        self.transcript.append(x)
        return OracleResponse(
            value=0.5 * float(np.sum((x - self.target) ** 2)),
            gradient=x - self.target,
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
        oracle = DirectOracle(one_piece_instance())
        run_projected_subgradient(oracle, OptimizerConfig(method="psg", budget=6))
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

    def test_budget_cannot_exceed_oracle(self):
        p = params_deterministic(4, 1)
        with pytest.raises(ValueError, match="budget"):
            run_projected_subgradient(AdaptiveOracle(p, seed=0), OptimizerConfig(budget=5))


class RecordingOracle(QuadraticOracle):
    """Keeps each query by reference (as QuadraticOracle does) and a copy
    taken when it arrived."""

    def __init__(self, target):
        super().__init__(target)
        self.copies = []

    def query(self, x):
        self.copies.append(np.array(x, copy=True))
        return super().query(x)


class TestProjectedSubgradientStep:
    def test_queries_unchanged_and_iterates_follow_the_recursion(self):
        target = np.array([0.9, -0.6, 0.3, 0.4])
        oracle = RecordingOracle(target)
        run_projected_subgradient(oracle, OptimizerConfig(method="psg", budget=40, step_scale=0.5))
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
        agd_oracle = QuadraticOracle(target)
        run_accelerated_gradient(
            agd_oracle, OptimizerConfig(method="agd", budget=200, step_size=1.0)
        )
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

    def test_zero_momentum_is_projected_gradient(self):
        p = params_deterministic(9, 1)
        oracle = AdaptiveOracle(p, seed=3)
        run_accelerated_gradient(
            oracle, OptimizerConfig(method="agd", momentum=0.0, step_size=0.05)
        )
        # independent projected-gradient recursion on a replayed oracle
        twin = AdaptiveOracle(p, seed=3)
        x = np.zeros(p.d)
        for rec in oracle.transcript.records:
            np.testing.assert_array_equal(rec.x, x)
            resp = twin.query(x)
            x = project_ball(x - 0.05 * resp.gradient)


class TestCubicNewton:
    def test_zero_hessian_step_matches_closed_form(self):
        g = np.array([0.3, -0.4, 0.1])
        m_weight = 50.0
        s = cubic_substep(g, None, m_weight, inner_steps=400)
        gnorm = np.linalg.norm(g)
        expected = -math.sqrt(2.0 * gnorm / m_weight) * (g / gnorm)
        np.testing.assert_allclose(s, expected, atol=1e-8)

    def test_floor_against_adaptive_t9_k2(self):
        p = params_deterministic(9, 2)
        oracle = AdaptiveOracle(p, seed=2)
        run_cubic_newton(oracle)
        final, _ = oracle.finalize()
        for rec in oracle.transcript.records:
            assert suboptimality_certificate(final, rec.x) >= 1.0 / 6.0

    def test_strong_regularization_freezes_steps(self):
        g = np.array([1.0, 0.0])
        small = cubic_substep(g, None, 1e12, inner_steps=100)
        large = cubic_substep(g, None, 1e2, inner_steps=100)
        assert np.linalg.norm(small) <= 1e-5
        assert np.linalg.norm(small) < np.linalg.norm(large)

    def test_requires_second_order_oracle(self):
        p = params_deterministic(9, 1)
        with pytest.raises(ValueError, match="k >= 2"):
            run_cubic_newton(AdaptiveOracle(p, seed=0))


class TestSharedBehaviour:
    @pytest.mark.parametrize("method,k", [("psg", 1), ("agd", 1), ("cubic", 2)])
    def test_iterates_stay_feasible(self, method, k):
        p = params_deterministic(9, k)
        oracle = AdaptiveOracle(p, seed=4)
        run_method(oracle, OptimizerConfig(method=method))
        for rec in oracle.transcript.records:
            assert np.linalg.norm(rec.x) <= 1.0 + 1e-12

    def test_unknown_method(self):
        p = params_deterministic(4, 1)
        with pytest.raises(ValueError, match="unknown method"):
            run_method(AdaptiveOracle(p, seed=0), OptimizerConfig(method="newton"))
