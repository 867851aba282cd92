"""Baseline first- and second-order methods used as oracle test subjects.

These are deliberately plain implementations; the point of running them
against the adversarial oracles is that no tuning can beat the certified
suboptimality floor, so sophistication buys nothing here.
"""

from __future__ import annotations

import math

import numpy as np

PSG_STEP_SCALE = 1.0
# Kept small enough that iterates never need projecting for T <= 25, so
# revealed piece values freeze below the shift ladder instead of drifting
# back through the 2*k*delta near-tie band (where answers stop being
# closed-form). Measured worst argmax margin across the acceptance grid:
# 5.1x the band at 0.3, versus in-band collisions at 0.7-1.0 and with a
# fixed 1/(T/delta) step.
AGD_STEP_SCALE = 0.3


def project_ball(x: np.ndarray) -> np.ndarray:
    """x unchanged if ||x|| <= 1, else x / ||x||."""
    norm = np.linalg.norm(x)
    return x if norm <= 1.0 else x / norm


def run_projected_subgradient(oracle):
    """Projected subgradient from the origin, eta_t = PSG_STEP_SCALE /
    sqrt(t), for the oracle's remaining queries."""
    x = np.zeros(oracle.dim)
    for t in range(1, oracle.queries_left + 1):
        response = oracle.query(x)
        eta = PSG_STEP_SCALE / math.sqrt(t)
        # project_ball(x - eta * g) in one fresh array: x was queried, and
        # an oracle may keep it by reference, so x itself is never written
        x_next = eta * response.gradient
        np.subtract(x, x_next, out=x_next)
        norm = np.linalg.norm(x_next)
        if not (norm <= 1.0):
            x_next /= norm
        x = x_next
    return oracle.transcript


def run_accelerated_gradient(oracle):
    """Nesterov-accelerated projected gradient from the origin, for the
    oracle's remaining queries: eta_t = AGD_STEP_SCALE / sqrt(t) and
    momentum (t - 1) / (t + 2).

    Queries land at the extrapolated points, which are projected back to
    the ball so they stay feasible.
    """
    x_prev = np.zeros(oracle.dim)
    y = np.zeros(oracle.dim)
    for t in range(1, oracle.queries_left + 1):
        response = oracle.query(y)
        eta = AGD_STEP_SCALE / math.sqrt(t)
        x = project_ball(y - eta * response.gradient)
        beta = (t - 1.0) / (t + 2.0)
        y = project_ball(x + beta * (x - x_prev))
        x_prev = x
    return oracle.transcript


def cubic_step(g: np.ndarray, hess: np.ndarray | None, m_weight: float) -> np.ndarray:
    """The global minimizer s of g.s + s.H.s/2 + (M/6)||s||^3, M = m_weight.

    hess is the symmetric matrix H, in the coordinates of g, or None for
    H = 0, whose minimizer is -sqrt(2||g||/M) g/||g|| (zero for g = 0).
    Otherwise s = -(H + rho I)^-1 g for the rho >= max(0, -lambda_min(H))
    with ||s|| = 2 rho / M, which makes H + rho I positive semidefinite:
    the characterization of Nesterov & Polyak (2006, Math. Program.
    108:177-205). In the eigenbasis of H, rho is bisected to the last bit
    from the bracket [lo, lo + sqrt(M ||g|| / 2)], lo = max(0,
    -lambda_min), as t = rho + lambda_min, the smallest eigenvalue of
    H + rho I, which the divisions then see without cancellation. When
    the root is lo with lambda_min < 0 (g orthogonal to the bottom
    eigenvector: the hard case), the norm 2 rho / M is made up along
    that eigenvector.
    """
    # math.hypot scales as it sums, where a sum of squares can underflow
    gnorm = math.hypot(*g)
    if hess is None:
        if gnorm == 0.0:
            return np.zeros_like(g)
        return -math.sqrt(2.0 / m_weight) / math.sqrt(gnorm) * g
    lam, vecs = np.linalg.eigh(hess)
    w = vecs.T @ g
    bottom = float(lam[0])
    gaps = lam - bottom
    # t_lo = lo + lambda_min. At the top t - t_lo = c = sqrt(M ||g|| / 2)
    # <= min(t, rho), so ||s|| <= ||g|| / c = 2 c / M <= 2 rho / M; for
    # g = 0 the top is one float above t_lo, so no division is by zero
    t_lo = max(bottom, 0.0)
    a, b = t_lo, max(t_lo + math.sqrt(0.5 * m_weight * gnorm), float(np.nextafter(t_lo, math.inf)))
    while a < (mid := 0.5 * (a + b)) < b:
        if math.hypot(*(w / (gaps + mid))) > 2.0 * (mid - bottom) / m_weight:
            a = mid
        else:
            b = mid
    s = -w / (gaps + b)
    if bottom < 0.0 and a == 0.0:
        # the hard case: the bottom coordinate makes up the norm 2 rho / M,
        # taken as a ratio so that no square underflows
        radius = 2.0 * (b - bottom) / m_weight
        rest = math.hypot(*s[1:]) / radius
        s[0] = -math.copysign(radius * math.sqrt(max((1.0 - rest) * (1.0 + rest), 0.0)), w[0])
    return vecs @ s


def run_cubic_newton(oracle):
    """Cubic-regularized Newton steps from the origin, for the oracle's
    remaining queries, with M = rescale * (T / delta)^2, the order-2
    smoothness audit bound.

    Each step is cubic_step on the local model and is projected back to
    the ball. A zero Hessian (every exact answer) gives the closed form;
    a sampled one is applied in the basis coordinates of the response,
    and the step lifted back. Requires a second-order oracle.
    """
    if oracle.params.k < 2:
        raise ValueError("cubic-regularized steps need an oracle with k >= 2")
    m_weight = oracle.rescale * (oracle.params.T / oracle.params.delta) ** 2
    x = np.zeros(oracle.dim)
    for _ in range(oracle.queries_left):
        response = oracle.query(x)
        hess = response.hessian()
        if hess is None or hess.is_zero:
            s = cubic_step(response.gradient, None, m_weight)
        else:
            b = response.basis_matrix
            s = cubic_step(b @ response.gradient, hess.tensor, m_weight) @ b
        x = project_ball(x + s)
    return oracle.transcript


METHODS = {
    "psg": run_projected_subgradient,
    "agd": run_accelerated_gradient,
    "cubic": run_cubic_newton,
}


def run_method(oracle, method: str):
    """Run the named method (a key of METHODS) on the oracle's remaining
    queries; returns its transcript."""
    try:
        runner = METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    return runner(oracle)
