"""Baseline first- and second-order methods used as oracle test subjects.

These are deliberately plain implementations; the point of running them
against the adversarial oracles is that no tuning can beat the certified
suboptimality floor, so sophistication buys nothing here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PSG_STEP_SCALE = 1.0
# Kept small enough that iterates never need projecting for T <= 25, so
# revealed piece values freeze below the shift ladder instead of drifting
# back through the 2*k*delta near-tie band (where answers stop being
# closed-form). Measured worst argmax margin across the acceptance grid:
# 5.1x the band at 0.3, versus in-band collisions at 0.7-1.0 and with a
# fixed 1/(T/delta) step.
AGD_STEP_SCALE = 0.3


@dataclass(frozen=True)
class OptimizerConfig:
    """Method choice and step parameters.

    step_scale: c in the step schedule eta_t = c / sqrt(t); None picks
        the method default (subgradient 1.0, accelerated 0.3).
    step_size: fixed step for accelerated gradient, overriding the
        schedule.
    momentum: None for the Nesterov schedule (t-1)/(t+2), else constant.
    """

    method: str = "psg"
    budget: int | None = None
    step_scale: float | None = None
    step_size: float | None = None
    momentum: float | None = None
    inner_steps: int = 200

    def __post_init__(self):
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.step_scale is not None and self.step_scale <= 0:
            raise ValueError("step_scale must be positive")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")


def project_ball(x: np.ndarray) -> np.ndarray:
    """x unchanged if ||x|| <= 1, else x / ||x||."""
    norm = np.linalg.norm(x)
    return x if norm <= 1.0 else x / norm


def _budget(oracle, config: OptimizerConfig) -> int:
    budget = config.budget if config.budget is not None else oracle.queries_left
    if budget > oracle.queries_left:
        raise ValueError(
            f"budget {budget} exceeds the oracle's remaining {oracle.queries_left} queries"
        )
    return budget


def run_projected_subgradient(oracle, config: OptimizerConfig | None = None):
    """Projected subgradient from the origin, eta_t = step_scale / sqrt(t)."""
    config = config or OptimizerConfig(method="psg")
    budget = _budget(oracle, config)
    scale = config.step_scale if config.step_scale is not None else PSG_STEP_SCALE
    x = np.zeros(oracle.dim)
    for t in range(1, budget + 1):
        response = oracle.query(x)
        eta = scale / math.sqrt(t)
        # project_ball(x - eta * g) in one fresh array: x was queried, and
        # an oracle may keep it by reference, so x itself is never written
        x_next = eta * response.gradient
        np.subtract(x, x_next, out=x_next)
        norm = np.linalg.norm(x_next)
        if not (norm <= 1.0):
            x_next /= norm
        x = x_next
    return oracle.transcript


def run_accelerated_gradient(oracle, config: OptimizerConfig | None = None):
    """Nesterov-accelerated projected gradient from the origin.

    Queries land at the extrapolated points, which are projected back to
    the ball so they stay feasible.
    """
    config = config or OptimizerConfig(method="agd")
    budget = _budget(oracle, config)
    scale = config.step_scale if config.step_scale is not None else AGD_STEP_SCALE
    x_prev = np.zeros(oracle.dim)
    y = np.zeros(oracle.dim)
    for t in range(1, budget + 1):
        response = oracle.query(y)
        eta = config.step_size if config.step_size is not None else scale / math.sqrt(t)
        x = project_ball(y - eta * response.gradient)
        beta = config.momentum if config.momentum is not None else (t - 1.0) / (t + 2.0)
        y = project_ball(x + beta * (x - x_prev))
        x_prev = x
    return oracle.transcript


def cubic_model_value(s: np.ndarray, g: np.ndarray, hess: np.ndarray | None, m_weight: float) -> float:
    hs = 0.0 if hess is None else 0.5 * float(s @ hess @ s)
    return float(g @ s) + hs + (m_weight / 6.0) * float(np.linalg.norm(s)) ** 3


def cubic_substep(
    g: np.ndarray,
    hess: np.ndarray | None,
    m_weight: float,
    inner_steps: int = 200,
) -> np.ndarray:
    """Approximate minimizer of g.s + s.H.s/2 + (M/6)||s||^3.

    Gradient descent with backtracking from s = 0. With H = 0 the exact
    minimizer is -(sqrt(2||g||/M)) g/||g||, which the descent recovers;
    that is also the regime the adversarial responses produce.
    """
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return np.zeros_like(g)
    s = np.zeros_like(g)
    value = 0.0
    # curvature near the optimum is about sqrt(2 M ||g||) (plus H)
    curvature = math.sqrt(2.0 * m_weight * gnorm)
    if hess is not None:
        curvature += float(np.linalg.norm(hess, ord=2))
    step = 1.0 / curvature
    for _ in range(inner_steps):
        grad_model = g + (m_weight / 2.0) * np.linalg.norm(s) * s
        if hess is not None:
            grad_model = grad_model + hess @ s
        accepted = False
        for _ in range(30):
            trial = s - step * grad_model
            trial_value = cubic_model_value(trial, g, hess, m_weight)
            if trial_value < value:
                s, value = trial, trial_value
                step *= 1.2
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return s


def run_cubic_newton(oracle, config: OptimizerConfig | None = None):
    """Cubic-regularized second-order steps from the origin.

    Each step minimizes the local cubic model over the shift and
    projects back to the ball. Requires a second-order oracle.
    """
    config = config or OptimizerConfig(method="cubic")
    if oracle.params.k < 2:
        raise ValueError("cubic-regularized steps need an oracle with k >= 2")
    budget = _budget(oracle, config)
    # cubic regularization weight: the order-2 smoothness audit bound
    m_weight = oracle.rescale * (oracle.params.T / oracle.params.delta) ** 2
    x = np.zeros(oracle.dim)
    for _ in range(budget):
        response = oracle.query(x)
        hess = response.hessian_ambient()
        s = cubic_substep(response.gradient, hess, m_weight, config.inner_steps)
        x = project_ball(x + s)
    return oracle.transcript


METHODS = {
    "psg": run_projected_subgradient,
    "agd": run_accelerated_gradient,
    "cubic": run_cubic_newton,
}


def run_method(oracle, config: OptimizerConfig):
    try:
        runner = METHODS[config.method]
    except KeyError:
        raise ValueError(f"unknown method {config.method!r}; choose from {sorted(METHODS)}")
    return runner(oracle, config)
