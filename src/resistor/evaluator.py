"""Evaluation of the shifted max-affine objective and its ball-smoothed
version, with derivatives.

The smoothed function is the expectation of the max-affine function over
k independent radius-delta ball perturbations inside the span of the
piece directions (iterated smoothing collapses to one expectation over
the sum of the perturbations). Queries fall in one of two regimes:

* exact_affine: one piece wins the max by a margin greater than
  2*k*delta. Each piece is 1-Lipschitz, so every point the smoothing
  can touch sees the same single affine piece, and value, gradient and
  all higher derivatives are closed-form (higher orders are zero).
* monte_carlo: near a tie, value and derivatives are estimated by
  sampling. The order-j derivative comes from the sphere identity
  iterated through the outer j smoothing layers,
      D^j f(x) = (r/delta)^j E[ f(x + delta (w_1 + ... + w_j) + delta v)
                                 w_1 (x) ... (x) w_j ],
  w_i uniform on the unit sphere of the span and v the sum of the k - j
  inner ball layers (Flaxman, Kalai & McMahan 2005; Nesterov &
  Spokoiny 2017). It is exact in expectation: no step size, no
  truncation term. Sign flips of the sphere vectors cancel the
  lower-order terms; for j = 1 they are the antithetic pairs of the
  gradient estimator.

  Only the contenders, the pieces within 2*k*delta of the top at x, can
  win anywhere the smoothing reaches, so the max is taken over them
  alone. Let Q (r x q, q = min(contenders, r)) be the orthonormal QR
  factor of their coordinates. The function sees each sphere or ball
  draw w only through Q^T w, and E[w | Q^T w] = Q Q^T w. So Q^T w is
  drawn exactly, in q coordinates (the coords form of
  geometry.sample_sphere and sample_ball), each estimate is formed there
  and lifted with Q: it is the conditional expectation of the estimate
  from a full r-dimensional draw (Rao-Blackwell), so it is unbiased and
  its variance is never larger. The factor (r/delta)^j keeps r.

  A Monte-Carlo answer estimates its value on one helper thread while
  the calling thread estimates the gradient and higher orders. Each
  estimate draws from its own stream (child seeds "value", "gradient",
  ("tensor", j)) and writes only arrays of its own, so the answer is bit
  for bit what the estimates give one after the other. A single helper,
  started per answer, and not a pool: each concurrent estimate holds its
  own draws, so more workers buy little time for much peak memory.
  Exact answers start no thread.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import sample_ball, sample_sphere
from .instance import QUERY_NORM_SLACK, HardInstance
from .streams import child_seed, stream

DEFAULT_VALUE_SAMPLES = 100_000
DEFAULT_GRADIENT_SAMPLES = 200_000

EXACT_AFFINE = "exact_affine"
MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class MCBudget:
    """Sample count and stream seed for one Monte-Carlo evaluation; the
    count must be an integer (see sample_count) of at least 1."""

    n_samples: int = DEFAULT_VALUE_SAMPLES
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_samples", sample_count(self.n_samples))
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


def sample_count(n) -> int:
    """n as an int: an integer (numpy's included) passes, a bool, a NaN or
    any other float is refused with a TypeError."""
    if isinstance(n, bool):
        raise TypeError("a sample count must be an integer, not a bool")
    return operator.index(n)


@dataclass(frozen=True, eq=False)
class HigherDerivative:
    """Derivative tensor of one order, in basis coordinates of the
    invariant subspace; no tensor means the closed-form zero tensor.
    error_bound is the root-sum-square of the per-entry Monte-Carlo
    standard errors (0 for the closed-form zero tensor)."""

    order: int
    tensor: np.ndarray | None = None
    error_bound: float = 0.0

    @property
    def is_zero(self) -> bool:
        return self.tensor is None

    def scaled(self, s: float) -> "HigherDerivative":
        if s == 1.0 or self.is_zero:
            return self
        return HigherDerivative(self.order, self.tensor * s, self.error_bound * abs(s))


@dataclass(frozen=True, eq=False)
class OracleResponse:
    """Value and derivatives at one query, with regime and error bounds.

    The gradient is an ambient vector lying in the span of the piece
    directions; tensors of order >= 2 are in basis coordinates, and
    basis_matrix (rows spanning the invariant subspace) is attached
    whenever a non-zero tensor is present so callers can apply them.
    The regime is exact_affine when affine_index names the winning
    piece, monte_carlo when it is None; in the exact_affine regime
    value_stderr and all error bounds are 0 and the gradient norm is
    1/norm_denom exactly.
    """

    value: float
    gradient: np.ndarray
    higher: tuple[HigherDerivative, ...]
    affine_index: int | None
    value_stderr: float
    gradient_error: float
    basis_matrix: np.ndarray | None = None

    @property
    def regime(self) -> str:
        return MONTE_CARLO if self.affine_index is None else EXACT_AFFINE

    def hessian(self) -> HigherDerivative | None:
        for h in self.higher:
            if h.order == 2:
                return h
        return None

    def hessian_ambient(self) -> np.ndarray | None:
        """Dense ambient Hessian, or None when it is exactly zero.

        Materializes a (d, d) array; meant for small ambient dimension.
        """
        h = self.hessian()
        if h is None or h.is_zero:
            return None
        b = self.basis_matrix
        return b.T @ h.tensor @ b

    def scaled(self, s: float) -> "OracleResponse":
        """Response for the objective multiplied by s (all outputs scale)."""
        if s == 1.0:
            return self
        return OracleResponse(
            value=self.value * s,
            gradient=self.gradient * s,
            higher=tuple(h.scaled(s) for h in self.higher),
            affine_index=self.affine_index,
            value_stderr=self.value_stderr * abs(s),
            gradient_error=self.gradient_error * abs(s),
            basis_matrix=self.basis_matrix,
        )


class PieceValues(NamedTuple):
    """Per-piece evaluations at one point."""

    linear: np.ndarray  # a_i . x
    shifted: np.ndarray  # a_i . x + shift_i

    @property
    def f_linear(self) -> float:
        return float(self.linear.max())

    @property
    def f_tilde(self) -> float:
        return float(self.shifted.max())


def piece_values(instance: HardInstance, x: np.ndarray) -> PieceValues:
    """All piece evaluations a_i.x and a_i.x + shift_i at x.

    np.vecdot takes one dot product per row, so the result for piece i is
    bit-identical to np.dot(a_i, x) whether or not later pieces exist
    (replays depend on this); a matrix-vector product M @ x is not.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.basis.dim,):
        raise ValueError(
            f"dimension mismatch: query has shape {x.shape}, instance is "
            f"{instance.basis.dim}-dimensional"
        )
    linear = np.vecdot(instance.piece_matrix, x)
    return PieceValues(linear=linear, shifted=linear + instance.piece_shifts)


def locally_affine_index(
    instance: HardInstance, x: np.ndarray, values: PieceValues | None = None
) -> int | None:
    """Index (1-based) of the unique argmax piece if its margin over every
    other piece strictly exceeds 2*k*delta, else None.

    Each piece is 1-Lipschitz, so this margin keeps the argmax constant
    on the radius-(k*delta) ball the smoothing averages over; ties and
    boundary (margin exactly 2*k*delta) go to Monte Carlo. values, if
    given, must be piece_values(instance, x). The runner-up is the max of
    the two slices around the argmax, views rather than a copy.
    """
    if instance.num_pieces == 0:
        return None
    shifted = (piece_values(instance, x) if values is None else values).shifted
    j = int(np.argmax(shifted))
    if instance.num_pieces == 1:
        return 1
    runner_up = max(shifted[:j].max(initial=-np.inf), shifted[j + 1:].max(initial=-np.inf))
    margin = shifted[j] - runner_up
    threshold = 2.0 * instance.params.k * instance.params.delta
    return j + 1 if margin > threshold else None


def affine_regime(instance: HardInstance, x: np.ndarray) -> tuple[PieceValues, int | None]:
    """Piece values at x and locally_affine_index there, from one pass
    over the pieces; the values are what exact_answer and the
    certificate need."""
    values = piece_values(instance, x)
    return values, locally_affine_index(instance, x, values)


def contenders(instance: HardInstance, values: PieceValues) -> np.ndarray:
    """Indices (0-based) of the pieces that can win the max somewhere the
    smoothing reaches: those not more than 2*k*delta below the top.

    Every smoothing perturbation has norm at most k*delta and each piece
    is 1-Lipschitz, so a piece further below never attains the max. The
    comparison is locally_affine_index's: an exact-affine point has
    exactly one contender, and a NaN keeps every piece. values must be
    piece_values(instance, x).
    """
    shifted = values.shifted
    band = 2.0 * instance.params.k * instance.params.delta
    return np.flatnonzero(~(shifted.max() - shifted > band))


def _contender_frame(
    instance: HardInstance, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The contenders at x: their shifted values, their coordinates in the
    frame Q, and Q itself (r x q, orthonormal columns), the reduced QR
    factor of their coordinates, so q = min(contenders, r)."""
    values = piece_values(instance, x)
    keep = contenders(instance, values)
    coords = instance.piece_coords[keep]
    frame, _ = np.linalg.qr(coords.T)
    return values.shifted[keep], coords @ frame, frame


def _ball_sum(r: int, k: int, rng: np.random.Generator, n: int, coords: int) -> np.ndarray:
    """First `coords` coordinates of the sum of k i.i.d. uniform samples
    of the unit r-ball, shape (n, coords)."""
    total = sample_ball(r, rng, size=n, coords=coords)
    for _ in range(k - 1):
        total += sample_ball(r, rng, size=n, coords=coords)
    return total


def _projection(coeffs: np.ndarray, draws: np.ndarray, delta: float) -> np.ndarray:
    """delta * (coeffs @ draws.T), shape (contenders, draws), scaled in
    place."""
    proj = coeffs @ draws.T
    proj *= delta
    return proj


def _flipped_max(base: np.ndarray, projs: list[np.ndarray], signs: tuple[int, ...]) -> np.ndarray:
    """Per draw, the max over contenders i of base[i] + sum_j signs[j] *
    projs[j][i], each projs[j] being (contenders, draws).

    Taken row by row, one elementwise maximum per contender, rather than
    as a max over a short axis of a (draws, contenders) array."""
    out = None
    for i, b in enumerate(base):
        row = projs[0][i] + b if signs[0] > 0 else b - projs[0][i]
        for sign, proj in zip(signs[1:], projs[1:]):
            (np.add if sign > 0 else np.subtract)(row, proj[i], out=row)
        out = row if out is None else np.maximum(out, row, out=out)
    return out


def smoothed_value_mc(
    instance: HardInstance, x: np.ndarray, budget: MCBudget | None = None
) -> tuple[float, float]:
    """Unbiased Monte-Carlo estimate of the smoothed value at x.

    Averages the shifted max-affine function over x + delta * (v_1 + ...
    + v_k), v_j i.i.d. uniform in the unit ball of the piece span, drawn
    in the q frame coordinates of the contenders (see the module notes).
    Returns (estimate, standard error). Unnormalized (no norm_denom).
    Needs n_samples >= 2: one sample has no standard error.
    """
    budget = budget or MCBudget()
    params = instance.params
    r = instance.smoothing_dim
    if r == 0:
        raise ValueError("instance has no pieces to evaluate")
    if budget.n_samples < 2:
        raise ValueError(
            f"a Monte-Carlo value needs n_samples >= 2 for a standard error, got {budget.n_samples}"
        )
    base, coeffs, frame = _contender_frame(instance, x)
    rng = stream(budget.seed, "smooth-value")
    n = budget.n_samples
    proj = _projection(coeffs, _ball_sum(r, params.k, rng, n, frame.shape[1]), params.delta)
    vals = _flipped_max(base, [proj], (1,))
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
    return est, stderr


def _tensor_coords_mc(
    instance: HardInstance, x: np.ndarray, order: int, budget: MCBudget
) -> tuple[np.ndarray, float]:
    """Order-j derivative tensor of the smoothed function at x, in basis
    coordinates, by the iterated sphere identity (see the module notes).

    j sphere vectors drawn first, then the k - j inner ball layers, all
    in the q frame coordinates of the contenders; the tensor is estimated
    there and lifted to the r basis coordinates. Each draw is evaluated
    at all 2^j sign flips (s_1 w_1, ..., s_j w_j), the ball layers
    flipping with s_1, and weighted by s_1 * ... * s_j: every flipped
    tuple has the law of the drawn one, so the estimate stays unbiased.
    n_samples counts function evaluations, so n_samples // 2^j draws are
    made; for j = 1 these are the antithetic pairs (w, v), (-w, -v).
    Returns (tensor symmetrised over its axes, error bound), the error
    bound being the root-sum-square of the per-entry standard errors in
    frame coordinates, which the lift (an isometry) leaves unchanged.
    Second moments are contracted draw by draw, so no (draws, q, q)
    array is built. Arrays are scaled and squared in place and dropped
    once used, with the bits of the allocating arithmetic: a Monte-Carlo
    answer runs this beside the value estimate, so their peaks add.
    Needs two draws for a standard error, so n_samples >= 2^(j+1).
    """
    params = instance.params
    if not 1 <= order <= params.k:
        raise ValueError(f"order must lie in [1, {params.k}]")
    if budget.n_samples < 2 ** (order + 1):
        raise ValueError(
            f"an order-{order} Monte-Carlo estimate needs n_samples >= {2 ** (order + 1)} "
            f"(two draws at {2 ** order} sign flips each), got {budget.n_samples}"
        )
    r = instance.smoothing_dim
    base, coeffs, frame = _contender_frame(instance, x)
    q = frame.shape[1]
    rng = stream(budget.seed, "smooth-gradient")
    n = budget.n_samples // 2**order
    spheres = [sample_sphere(r, rng, size=n, coords=q) for _ in range(order)]
    first = spheres[0]
    if order < params.k:
        first = _ball_sum(r, params.k - order, rng, n, q)
        first += spheres[0]
    projs = [_projection(coeffs, u, params.delta) for u in (first, *spheres[1:])]
    del first
    combo = None
    # the first sign tuple is all +1; each flip's max is a fresh array
    for signs in itertools.product((1, -1), repeat=order):
        flipped = _flipped_max(base, projs, signs)
        if combo is None:
            combo = flipped
        elif math.prod(signs) > 0:
            combo += flipped
        else:
            combo -= flipped
    del projs, flipped
    combo /= 2**order
    combo *= (r / params.delta) ** order
    g = combo[:, None] * spheres.pop(0)
    del combo
    axes = "abcdefghijklm"[:order]
    subscripts = ",".join("n" + a for a in axes) + "->" + axes
    tensor = np.einsum(subscripts, g, *spheres) / n
    for w in [g, *spheres]:  # second moments: square in place
        w *= w
    second = np.einsum(subscripts, g, *spheres) / n
    var = np.maximum(second - tensor**2, 0.0) * (n / (n - 1))
    err = float(np.sqrt(((np.sqrt(var) / math.sqrt(n)) ** 2).sum()))
    perms = list(itertools.permutations(range(order)))
    tensor = sum((np.transpose(tensor, p) for p in perms[1:]), tensor) / len(perms)
    for _ in range(order):  # lift each axis in turn: Q T Q^T for order 2
        tensor = np.tensordot(tensor, frame, axes=(0, 1))
    return tensor, err


def smoothed_gradient_mc(
    instance: HardInstance, x: np.ndarray, budget: MCBudget | None = None
) -> tuple[np.ndarray, float]:
    """Monte-Carlo gradient of the smoothed function at x, in ambient
    coordinates (lying in the piece span). Unnormalized."""
    budget = budget or MCBudget(DEFAULT_GRADIENT_SAMPLES)
    coords, err = _tensor_coords_mc(instance, x, 1, budget)
    return instance.basis.lift(coords), err


def oracle_answer(
    instance: HardInstance,
    x: np.ndarray,
    order: int | None = None,
    budget: MCBudget | Callable[[], MCBudget] | None = None,
) -> OracleResponse:
    """Full derivative-oracle answer at x, normalized by norm_denom.

    Exact-affine queries are answered in closed form (exact_answer);
    others fall back to Monte Carlo (monte_carlo_answer). A callable
    budget is called only then, so an exact answer never derives one.
    """
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x)
    if not (norm <= 1.0 + QUERY_NORM_SLACK):
        raise ValueError(f"query outside the unit ball: ||x|| = {norm}")
    values, idx = affine_regime(instance, x)
    if idx is not None:
        return exact_answer(instance, values, idx, order)
    return monte_carlo_answer(instance, x, order, budget() if callable(budget) else budget)


def _check_order(instance: HardInstance, order: int | None) -> int:
    k = instance.params.k if order is None else order
    if not 1 <= k <= instance.params.k:
        raise ValueError(f"order must lie in [1, {instance.params.k}]")
    return k


def exact_answer(
    instance: HardInstance, values: PieceValues, idx: int, order: int | None = None
) -> OracleResponse:
    """Closed-form answer where piece idx wins by more than 2*k*delta.

    The smoothing of a single affine piece is that piece, so the value
    is values.shifted[idx - 1], the gradient a_idx and higher orders
    vanish; values must be piece_values(instance, x) at the query x.
    With norm_denom 1 the gradient is the read-only piece row itself.
    """
    k = _check_order(instance, order)
    denom = instance.params.norm_denom
    a = instance.piece_matrix[idx - 1]
    return OracleResponse(
        value=float(values.shifted[idx - 1] / denom),
        gradient=a if denom == 1.0 else a / denom,
        higher=tuple(HigherDerivative(j) for j in range(2, k + 1)),
        affine_index=idx,
        value_stderr=0.0,
        gradient_error=0.0,
    )


def _on_helper(fn: Callable, *args) -> Callable[[], object]:
    """Start fn(*args) on a new thread. The returned function joins it and
    returns fn's result, or raises what fn raised. A plain thread, not a
    concurrent.futures executor, whose import (logging with it) adds
    about 0.6 MB to every process that imports this module."""
    outcome = []

    def run():
        try:
            outcome.append((True, fn(*args)))
        except BaseException as error:  # raised again in the caller
            outcome.append((False, error))

    thread = threading.Thread(target=run)
    thread.start()

    def result():
        thread.join()
        ok, value = outcome[0]
        if not ok:
            raise value
        return value

    return result


def monte_carlo_answer(
    instance: HardInstance,
    x: np.ndarray,
    order: int | None = None,
    budget: MCBudget | None = None,
) -> OracleResponse:
    """Sampled answer for a query near a tie.

    Value uses budget.n_samples, each derivative order 2*n_samples
    function evaluations, all on streams derived from the budget seed;
    every order comes from _tensor_coords_mc.

    The value is estimated on one helper thread while this thread
    estimates the derivatives; numpy's random fills and large array
    operations release the GIL, so the two overlap. The estimates share
    no stream and no mutable state, so each has the bits it would have
    alone. One helper, not a pool: every concurrent estimate holds its
    own draws, and more of them cost more peak memory than they save
    time. An error raised on the helper is raised here, and wins over a
    derivative error, as it would had the value been estimated first.
    """
    params = instance.params
    k = _check_order(instance, order)
    denom = params.norm_denom
    budget = budget or MCBudget()
    value_budget = MCBudget(budget.n_samples, child_seed(budget.seed, "value"))
    value_result = _on_helper(smoothed_value_mc, instance, x, value_budget)
    try:
        grad_budget = MCBudget(2 * budget.n_samples, child_seed(budget.seed, "gradient"))
        coords, gerr = _tensor_coords_mc(instance, x, 1, grad_budget)
        higher = []
        for j in range(2, k + 1):
            tensor_budget = MCBudget(2 * budget.n_samples, child_seed(budget.seed, "tensor", j))
            tensor, terr = _tensor_coords_mc(instance, x, j, tensor_budget)
            higher.append(HigherDerivative(j, tensor / denom, terr / denom))
    finally:
        value, stderr = value_result()
    return OracleResponse(
        value=value / denom,
        gradient=instance.basis.lift(coords) / denom,
        higher=tuple(higher),
        affine_index=None,
        value_stderr=stderr / denom,
        gradient_error=gerr / denom,
        basis_matrix=instance.basis.matrix if higher else None,
    )


def rescale_to_smoothness(L_target: float, k: int, T: int) -> float:
    """Multiplier s = L / ((10 k)^k T^(2.5 k)).

    Scaling every oracle output by s gives a function whose order-k
    smoothness coefficient is at most L_target, with suboptimality floor
    s / (2 sqrt(T)).
    """
    if L_target <= 0:
        raise ValueError("L_target must be positive")
    return L_target / ((10.0 * k) ** k * T ** (2.5 * k))


def suboptimality_certificate(
    instance: HardInstance,
    x: np.ndarray,
    allow_partial: bool = False,
    values: PieceValues | None = None,
) -> float:
    """Closed-form certified lower bound on the normalized gap between
    the smoothed value at x and its minimum over the unit ball:

        [ f_tilde(x) + 1/sqrt(r) - gamma - 2 k delta ] / norm_denom.

    The smoothed value sits within k*delta of f_tilde, and the witness
    point -sum(a_i)/sqrt(r) caps the minimum at -1/sqrt(r)+gamma+k*delta,
    so no sampling enters the certificate. Requires the full T pieces
    unless allow_partial (then r is the actual piece count). values, if
    given, must be piece_values(instance, x).
    """
    params = instance.params
    r = instance.num_pieces
    if r == 0:
        raise ValueError("instance has no pieces")
    if r < params.T and not allow_partial:
        raise ValueError(
            f"certificate needs a completed instance (r = {r} < T = {params.T})"
        )
    f_tilde = (piece_values(instance, x) if values is None else values).f_tilde
    raw = f_tilde + 1.0 / math.sqrt(r) - params.gamma - 2.0 * params.k * params.delta
    return raw / params.norm_denom
