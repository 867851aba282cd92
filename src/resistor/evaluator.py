"""Evaluation of the shifted max-affine objective and its ball-smoothed
version, with derivatives.

The smoothed function is the expectation of the max-affine function over
k independent radius-delta ball perturbations of the T-dimensional span
of the completed instance's pieces, however many exist yet (iterated
smoothing collapses to one expectation over the sum of the
perturbations). The contenders at x (contenders) are the pieces within
2*k*delta of the top, the only ones that can win anywhere the smoothing
reaches. Their count is the regime, and it alone decides how
regime_answer and the estimators answer:

* exact_affine: one contender, winning the max by more than 2*k*delta.
  Each piece is 1-Lipschitz, so every point the smoothing can touch
  sees the same single affine piece, and value, gradient and all
  higher derivatives are closed-form (higher orders are zero).
* monte_carlo: two or more contenders, inside the tie band. The answer
  is a function of the contenders and T alone (so at an adaptive query,
  where no later piece contends, it is the completed instance's answer,
  bit for bit): the gradient is lifted through the contenders' frame
  Q (_contender_frame), each tensor is in Q's q coordinates, and Q is
  the answer's basis_matrix.

  Two contenders at k <= 2 are answered in closed form by one law in
  frame coordinates (_two_piece_law), from which regime_answer builds
  the answer and an estimate takes its field. With p the top piece, c
  the difference of the two directions in frame coordinates and S the
  sum of k independent one-dimensional marginals of the uniform T-ball,
  the smoothed function is l_p(x) + E[(l_q(x) - l_p(x) + delta |c|
  S)_+], a one-dimensional law whose tail, excess and density come from
  the reduction recurrence of the integrals of cos^T (k = 1) and one
  Gauss-Legendre quadrature over the first marginal (k = 2). The law
  (_sum_law) depends on T, k, the standardized gap t and the node count
  alone, so it is computed once per process and shared read-only:
  repeated ties and the replay reuse it.

  Otherwise value and derivatives are estimated by sampling. The order-j
  derivative comes from the sphere identity iterated through the outer
  j smoothing layers,
      D^j f(x) = (T/delta)^j E[ f(x + delta (w_1 + ... + w_j) + delta v)
                                 w_1 (x) ... (x) w_j ],
  w_i uniform on the unit sphere of the span and v the sum of the k - j
  inner ball layers (Flaxman, Kalai & McMahan 2005; Nesterov &
  Spokoiny 2017). It is exact in expectation: no step size, no
  truncation term. Sign flips of the sphere vectors cancel the
  lower-order terms; for j = 1 they are the antithetic pairs of the
  gradient estimator.

  The max is taken over the contenders alone, orthonormal inside the
  span, which see each sphere or ball draw w only through Q w, and
  E[w | Q w] = Q^T Q w. So Q w is drawn exactly, in q coordinates (the
  coords form of geometry.sample_sphere and sample_ball), and each
  estimate is formed there: it is the conditional expectation of the
  estimate from a full T-dimensional draw (Rao-Blackwell), so it is
  unbiased and its variance is never larger. A sampled answer estimates
  its value, then each derivative order, each from its own stream.

The estimators (smoothed_value_mc, smoothed_gradient_mc,
_tensor_coords_mc) take this argument to its limit: at one contender
or a two-piece tie they return an estimate's expectation in closed form,
unnormalized, with its error (0 at an exact-affine point), and sample
only the rest. The rule lives in _two_piece_law alone, None where its
law does not apply; only smoothed_value_mc takes a contender frame to
sample, for monte_carlo_answer. Each takes its caller's budget and
regime=, the affine_regime at x, from a caller that has it: the verify
audits evaluate all their points in one pass (affine_regimes) and hand
each estimate its own. Their budgets, and each oracle query's, are
children of the audit's or oracle's one checked budget (MCBudget.child),
which derive their seeds only when a sampler reads them, so an estimate
or answer that draws nothing hashes no seed.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import FrozenInstanceError, dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .geometry import dot_norm, frozen, sample_ball, sample_sphere
from .instance import HardInstance, check_in_ball, span_basis
from .streams import FLOAT_MAX, as_count, as_seed, child_seed, refusal, stream

DEFAULT_VALUE_SAMPLES = 100_000

EXACT_AFFINE = "exact_affine"
MONTE_CARLO = "monte_carlo"

# Two-piece closed form: Gauss-Legendre nodes per quadrature element (the
# answer takes twice as many, and reports its distance from this many as
# the quadrature error), and the ratio and count of the elements graded
# geometrically toward each end of an integration interval.
TWO_PIECE_NODES = 16
# Machine epsilon of binary64, for the two-piece law's rounding floor.
_EPS = float(np.finfo(float).eps)
_GRADING_RATIO = 0.15
_GRADED_ELEMENTS = 12


class MCBudget:
    """Sample count and stream seed for one Monte-Carlo evaluation; the
    count must be an integer of at least 1 (see streams.as_count), the
    seed a non-negative integer (see streams.as_seed). A budget cannot be
    changed, and compares, hashes and prints as its (n_samples, seed).

    An oracle or audit checks one root budget and derives the rest from
    it: parent.child(purpose, index, n) is MCBudget(n, child_seed(
    parent.seed, purpose, index)), n the parent's count unless one is
    passed in, and checks only that n; its seed is derived when first read.
    Only a sampler reads it, to draw; the budget gate reads the count
    alone. So an estimate that draws nothing (one contender, a two-piece
    tie) derives no seed, and each gate refuses the child budget exactly
    as it refuses the eager one."""

    __slots__ = ("n_samples", "_seed")

    def __init__(self, n_samples: int = DEFAULT_VALUE_SAMPLES, seed: int = 0):
        object.__setattr__(self, "n_samples", as_count(n_samples, "n_samples"))
        object.__setattr__(self, "_seed", as_seed(seed))

    def child(self, purpose: str, index: int = 0, n_samples: int | None = None) -> "MCBudget":
        budget = object.__new__(MCBudget)
        count = self.n_samples if n_samples is None else as_count(n_samples, "n_samples")
        object.__setattr__(budget, "n_samples", count)
        # until the seed is read: the (parent, purpose, index) it derives from
        object.__setattr__(budget, "_seed", (self, purpose, index))
        return budget

    @property
    def seed(self) -> int:
        if type(self._seed) is tuple:
            parent, purpose, index = self._seed
            object.__setattr__(self, "_seed", child_seed(parent.seed, purpose, index))
        return self._seed

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, MCBudget):
            return NotImplemented
        return (self.n_samples, self.seed) == (other.n_samples, other.seed)

    def __hash__(self):
        return hash((self.n_samples, self.seed))

    def __repr__(self):
        return f"MCBudget(n_samples={self.n_samples!r}, seed={self.seed!r})"


def _same_bits(a, b) -> bool:
    """Whether two values of one response field are of one type with the
    same bits: arrays by shape, dtype and contents, floats as binary64,
    tuples item by item and dataclasses field by field."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if is_dataclass(a):
        return all(_same_bits(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b


@dataclass(frozen=True, eq=False)
class HigherDerivative:
    """Derivative tensor of one order, in the coordinates of the
    response's basis_matrix rows; no tensor means the zero tensor.
    error_bound bounds the Frobenius error: the root-sum-square of the
    per-entry Monte-Carlo standard errors of a sampled tensor (see
    _sampled_tensor_coords), the quadrature error plus a rounding floor
    of a two-piece one (0 for the zero tensor)."""

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

    The gradient is an ambient vector lying in the span of the
    contenders' directions. Tensors of order >= 2 are in the q
    coordinates of the contender frame, and basis_matrix (its q
    orthonormal rows, q x dim) is attached whenever a non-zero tensor is
    present so callers can apply them: Q^T H Q is the ambient Hessian.
    The regime is exact_affine when affine_index names the winning
    piece, monte_carlo when it is None: the query lies inside the tie
    band, answered in closed form for two contenders at k <= 2
    (_two_piece_law), else sampled. In the exact_affine regime
    value_stderr and all error bounds are 0 and the gradient norm is
    1/norm_denom exactly. Otherwise value_stderr and gradient_error are
    the standard errors of a sampled answer, or the quadrature error plus
    a rounding floor of a two-piece one: never 0.
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

    def mismatch(self, other: "OracleResponse") -> str:
        """"" if other has this response's bits in every field, else
        "<field>_mismatch" for the first field that differs."""
        for f in fields(self):
            if not _same_bits(getattr(self, f.name), getattr(other, f.name)):
                return f"{f.name}_mismatch"
        return ""

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
    def f_tilde(self) -> float:
        return float(self.shifted.max())


def piece_values(
    instance: HardInstance, x: np.ndarray, coords: np.ndarray | None = None
) -> PieceValues:
    """All piece evaluations a_i.x and a_i.x + shift_i at x.

    np.vecdot takes one dot product per row, so the result for piece i is
    bit-identical to np.dot(a_i, x) whether or not later pieces exist
    (replays depend on this); a matrix-vector product M @ x is not. So
    coords, the values a_i.x of the first pieces already taken by
    np.vecdot (of this instance or of one it extends), are used as they
    are and only the later pieces are evaluated, with the same bits.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.basis.dim,):
        raise ValueError(
            f"dimension mismatch: query has shape {x.shape}, instance is "
            f"{instance.basis.dim}-dimensional"
        )
    if coords is None:
        linear = np.vecdot(instance.piece_matrix, x)
    else:
        linear = np.concatenate([coords, np.vecdot(instance.piece_matrix[len(coords):], x)])
    return PieceValues(linear=linear, shifted=linear + instance.piece_shifts)


def contenders(instance: HardInstance, values: PieceValues) -> np.ndarray:
    """Indices (0-based) of the pieces that can win the max somewhere the
    smoothing reaches: those not more than 2*k*delta below the top.

    Every smoothing perturbation has norm at most k*delta and each piece
    is 1-Lipschitz, so a piece further below never attains the max. The
    regime is the contender count: one at an exact-affine point, more in
    the tie band (a tie, a margin of exactly 2*k*delta, a NaN, which keeps
    every piece). values must be piece_values(instance, x), pieces >= 1.
    """
    shifted = values.shifted
    band = 2.0 * instance.params.k * instance.params.delta
    # the ufunc and array methods, without np.max's and np.flatnonzero's
    # Python-level dispatch on every answer
    return (~(np.maximum.reduce(shifted) - shifted > band)).nonzero()[0]


def locally_affine_index(
    instance: HardInstance, x: np.ndarray, values: PieceValues | None = None
) -> int | None:
    """Index (1-based) of the sole contender at x (see contenders), the
    piece that wins by more than 2*k*delta, else None, as for an instance
    without pieces. values, if given, must be piece_values(instance, x)."""
    if instance.num_pieces == 0:
        return None
    keep = contenders(instance, piece_values(instance, x) if values is None else values)
    return int(keep[0]) + 1 if len(keep) == 1 else None


# A point's piece values and contenders.
Regime = tuple[PieceValues, np.ndarray]


def affine_regime(instance: HardInstance, x: np.ndarray) -> Regime:
    """Piece values at x and the contenders there, from one pass over the
    pieces: the values are what every answer and the certificate need,
    the contenders decide which answer (see regime_answer)."""
    values = piece_values(instance, x)
    return values, contenders(instance, values)


def affine_regimes(instance: HardInstance, points) -> list[Regime]:
    """affine_regime at each of the points, bit for bit: one np.vecdot
    over every (point, piece) pair takes the per-point dot products, then
    each point's contenders."""
    linear = np.vecdot(instance.piece_matrix, np.reshape(points, (-1, 1, instance.basis.dim)))
    shifted = linear + instance.piece_shifts
    return [(values, contenders(instance, values)) for values in map(PieceValues, linear, shifted)]


ContenderFrame = tuple[np.ndarray, np.ndarray, np.ndarray]
# The frame coordinates of q orthonormal piece rows, read-only, one per q.
_identity = functools.cache(lambda q: frozen(np.eye(q)))


def _contender_frame(instance: HardInstance, values: PieceValues, keep: np.ndarray) -> ContenderFrame:
    """The contenders keep at x: their shifted values, their coordinates in
    the frame Q, and Q itself (q x dim, orthonormal rows spanning their
    directions), from their piece rows alone. Orthonormal piece rows (a
    standard instance, whose piece matrix is its basis) are the frame
    themselves, with one read-only identity per q as coordinates; other
    rows (custom instances) give their Gram-Schmidt factor, q their rank.
    (values, keep) must be affine_regime(instance, x)."""
    rows = instance.piece_matrix[keep]
    if instance.piece_matrix is instance.basis.matrix:
        return values.shifted[keep], _identity(len(keep)), rows
    frame = span_basis(rows).matrix
    return values.shifted[keep], rows @ frame.T, frame


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
    instance: HardInstance,
    x: np.ndarray,
    budget: MCBudget,
    *,
    contender_frame: ContenderFrame | None = None,
    regime: Regime | None = None,
) -> tuple[float, float]:
    """Smoothed value at x and its standard error, unnormalized (no
    norm_denom): the top piece's value at one contender, else the value of
    _two_piece_law or, where it gives none, a sampled one. Needs
    n_samples >= 2, even in closed form: one sample has no standard error.
    contender_frame, if given, must be _contender_frame at x, and is
    sampled (_sampled_value) whatever its contender count:
    monte_carlo_answer passes its own. regime, if given, must be
    affine_regime(instance, x), and spares its evaluation.
    """
    _check_budget(instance, 0, budget)
    if contender_frame is not None:
        return _sampled_value(instance, budget, contender_frame)
    values, keep = affine_regime(instance, x) if regime is None else regime
    if len(keep) == 1:
        return float(values.shifted[keep[0]]), 0.0
    contender_frame = _contender_frame(instance, values, keep)
    law = _two_piece_law(instance, contender_frame)
    return _sampled_value(instance, budget, contender_frame) if law is None else (law.value, law.value_error)


def _sampled_value(
    instance: HardInstance, budget: MCBudget, contender_frame: ContenderFrame
) -> tuple[float, float]:
    """Unbiased Monte-Carlo estimate of the smoothed value over
    contender_frame and its standard error: the mean of the shifted
    max-affine function over x + delta * (v_1 + ... + v_k), v_j i.i.d.
    uniform in the unit T-ball, drawn in the q frame coordinates of the
    contenders (see the module notes). budget has passed _check_budget."""
    params = instance.params
    base, coeffs, frame = contender_frame
    rng = stream(budget.seed, "smooth-value")
    n = budget.n_samples
    proj = _projection(coeffs, _ball_sum(params.T, params.k, rng, n, len(frame)), params.delta)
    vals = _flipped_max(base, [proj], (1,))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def _check_budget(instance: HardInstance, order: int, budget: MCBudget) -> None:
    """Refuse an order-j estimate (j = 0 the value) that cannot be made:
    no pieces, or fewer than the two draws of 2^j evaluations each that a
    standard error needs."""
    if instance.num_pieces == 0:
        raise ValueError("instance has no pieces to evaluate")
    if budget.n_samples < 2 ** (order + 1):
        what = "a Monte-Carlo value" if order == 0 else f"an order-{order} Monte-Carlo estimate"
        why = "for a standard error" if order == 0 else f"(two draws at {2 ** order} sign flips each)"
        raise ValueError(f"{what} needs n_samples >= {2 ** (order + 1)} {why}, got {budget.n_samples}")


def _tensor_coords_mc(
    instance: HardInstance, x: np.ndarray, order: int, budget: MCBudget, *, regime: Regime | None = None
) -> tuple[np.ndarray, float, np.ndarray]:
    """Order-j derivative tensor of the smoothed function at x in the
    coordinates of its contender frame, its error bound, and the frame's
    rows: at an exact-affine point the sole contender's coordinate for
    j = 1 and the zero tensor above, with error 0, else _two_piece_law's
    gradient coordinates or Hessian or, where it gives none, a sampled
    tensor. j must lie in [1, k]; that check, then _check_budget, run
    first. regime as for smoothed_value_mc."""
    if not 1 <= order <= instance.params.k:
        raise ValueError(f"order must lie in [1, {instance.params.k}]")
    _check_budget(instance, order, budget)
    values, keep = affine_regime(instance, x) if regime is None else regime
    contender_frame = _contender_frame(instance, values, keep)
    _, coords, frame = contender_frame
    if len(keep) == 1:
        return (coords[0] if order == 1 else np.zeros((len(frame),) * order)), 0.0, frame
    law = _two_piece_law(instance, contender_frame)
    if law is None:
        return (*_sampled_tensor_coords(instance, order, budget, contender_frame), frame)
    if order == 1:
        return law.gradient_coords, law.gradient_error, frame
    hessian = law.hessian(1.0)
    return (np.zeros((len(frame),) * 2) if hessian.is_zero else hessian.tensor), hessian.error_bound, frame


def _sampled_tensor_coords(
    instance: HardInstance, order: int, budget: MCBudget, contender_frame: ContenderFrame
) -> tuple[np.ndarray, float]:
    """The sampled order-j derivative tensor over contender_frame, in its
    q frame coordinates, by the iterated sphere identity (see the module
    notes); budget has passed _check_budget.

    j sphere vectors drawn first, then the k - j inner ball layers, all
    in the q frame coordinates of the contenders. Each draw is evaluated
    at all 2^j sign flips (s_1 w_1, ..., s_j w_j), the ball layers
    flipping with s_1, and weighted by s_1 * ... * s_j: every flipped
    tuple has the law of the drawn one, so the estimate stays unbiased.
    n_samples counts function evaluations, so n_samples // 2^j draws are
    made; for j = 1 these are the antithetic pairs (w, v), (-w, -v).
    Returns (tensor symmetrised over its axes, error bound), the error
    bound being the root-sum-square of the per-entry standard errors.
    Where every draw is zero, no draw reached a kink and that variance
    says nothing: the bound is then the largest Frobenius norm one draw
    can add, (T/delta)^j (k - j + 1) delta (each flipped difference of
    the 1-Lipschitz max at most doubles), over the n draws; except at
    T = 1 with no ball layer, where the sign flips cover the law exactly.
    Second moments are contracted draw by draw, so no (draws, q, q)
    array is built. Arrays are scaled and squared in place and dropped
    once used, with the bits of the allocating arithmetic.
    """
    params = instance.params
    r = params.T
    base, coeffs, frame = contender_frame
    q = len(frame)
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
    missed = not g.any() and (r > 1 or order < params.k)
    for w in [g, *spheres]:  # second moments: square in place
        w *= w
    second = np.einsum(subscripts, g, *spheres) / n
    var = np.maximum(second - tensor**2, 0.0) * (n / (n - 1))
    err = float(np.sqrt(((np.sqrt(var) / math.sqrt(n)) ** 2).sum()))
    if missed:
        err = (r / params.delta) ** order * (params.k - order + 1) * params.delta / n
    perms = list(itertools.permutations(range(order)))
    return sum((np.transpose(tensor, p) for p in perms[1:]), tensor) / len(perms), err


def smoothed_gradient_mc(
    instance: HardInstance, x: np.ndarray, budget: MCBudget, *, regime: Regime | None = None
) -> tuple[np.ndarray, float]:
    """Gradient of the smoothed function at x, in ambient coordinates
    (lying in the piece span), with its error bound. Unnormalized. At an
    exact-affine point the read-only piece row a_idx, with no frame
    built; else _two_piece_law's or, where it gives none, the sampled
    frame coordinates, lifted through the contender frame. _check_budget
    runs first. regime as for smoothed_value_mc."""
    _check_budget(instance, 1, budget)
    values, keep = affine_regime(instance, x) if regime is None else regime
    if len(keep) == 1:
        return instance.piece_matrix[keep[0]], 0.0
    contender_frame = _contender_frame(instance, values, keep)
    law = _two_piece_law(instance, contender_frame)
    if law is not None:
        return contender_frame[2].T @ law.gradient_coords, law.gradient_error
    coords, err = _sampled_tensor_coords(instance, 1, budget, contender_frame)
    return contender_frame[2].T @ coords, err


def oracle_answer(
    instance: HardInstance,
    x: np.ndarray,
    budget: MCBudget | None = None,
    coords: np.ndarray | None = None,
) -> OracleResponse:
    """Full derivative-oracle answer at x, normalized by norm_denom: the
    regime_answer of affine_regime at x. x must lie in the unit ball
    (check_in_ball), and the instance must have pieces. coords, the
    np.vecdot values a_i.x of the first pieces, spare their evaluation
    and leave every bit of the answer as it is (see piece_values): the
    adaptive oracle passes those of the instance before its new piece."""
    x = np.asarray(x, dtype=float)
    check_in_ball(x)
    if instance.num_pieces == 0:
        raise ValueError("instance has no pieces")
    values = piece_values(instance, x, coords)
    return regime_answer(instance, x, values, contenders(instance, values), budget)


def regime_answer(
    instance: HardInstance,
    x: np.ndarray,
    values: PieceValues,
    keep: np.ndarray,
    budget: MCBudget | None = None,
) -> OracleResponse:
    """The answer at x that its contenders keep call for, normalized by
    norm_denom. One contender wins by more than 2*k*delta, and the
    smoothing of a single affine piece is that piece: its shifted value,
    its row a_i as the gradient (the read-only row itself with norm_denom
    1), zero higher orders. More get _tie_answer of the two-piece law
    where _two_piece_law gives one, else monte_carlo_answer over their
    frame. Only the last reads the budget's seed, so a child budget
    (MCBudget.child) derives none for any other answer. (values, keep)
    must be affine_regime(instance, x)."""
    params = instance.params
    denom = params.norm_denom
    if len(keep) == 1:
        idx = int(keep[0])
        a = instance.piece_matrix[idx]
        return OracleResponse(
            value=float(values.shifted[idx] / denom),
            gradient=a if denom == 1.0 else a / denom,
            higher=tuple(HigherDerivative(j) for j in range(2, params.k + 1)),
            affine_index=idx + 1,
            value_stderr=0.0,
            gradient_error=0.0,
        )
    frame = _contender_frame(instance, values, keep)
    law = _two_piece_law(instance, frame)
    if law is None:
        return monte_carlo_answer(instance, x, budget, frame)
    higher = (law.hessian(denom),) if params.k == 2 else ()
    fields = law.value, law.value_error, law.gradient_coords, law.gradient_error
    return _tie_answer(frame[2], *fields, higher, denom)


@functools.cache
def _gauss_legendre_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n- and 2n-point Gauss-Legendre rules on
    [-1, 1] side by side (3n of each), by Golub-Welsch: the eigenvalues of
    the Jacobi matrix of the Legendre recurrence, and twice the squared
    first components of its unit eigenvectors. Cached per n, read-only."""
    rules = []
    for m in (n, 2 * n):
        k = np.arange(1.0, m)
        beta = k / np.sqrt(4.0 * k * k - 1.0)
        nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
        rules.append((nodes, 2.0 * vectors[0] ** 2))
    (nodes, weights), (fine_nodes, fine_weights) = rules
    return frozen(np.concatenate([nodes, fine_nodes])), frozen(np.concatenate([weights, fine_weights]))


@functools.cache
def _wallis(r: int) -> float:
    """W_r, the integral of cos^r over [-pi/2, pi/2], by the reduction
    recurrence from W_0 = pi or W_1 = 2; cached per r."""
    half = math.pi / 2 if r % 2 == 0 else 1.0
    for n in range(2 + r % 2, r + 1, 2):
        half *= (n - 1) / n
    return 2.0 * half


def _marginal(r: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tail P(S_1 > u), excess E[(S_1 - u)_+] and density at each u in
    [-1, 1] (elementwise, any shape), S_1 one coordinate of a uniform
    point of the unit r-ball.

    The density is (1 - s^2)^((r-1)/2) / W_r; with s = sin(theta) it is
    cos^r(theta) / W_r, W_r the integral of cos^r over [-pi/2, pi/2]
    (_wallis). The integral J_n of cos^n from 0 to arcsin(u) follows the
    reduction recurrence J_n = cos^(n-1) u / n + (n-1)/n J_(n-2) from
    J_0 = arcsin(u) or J_1 = u, so the tail is 1/2 - J_r / W_r (1/2
    exactly at u = 0). The tail's first moment
    (1 - u^2)^((r+1)/2) / ((r+1) W_r) closes the excess.
    """
    wallis = _wallis(r)
    cos2 = (1.0 - u) * (1.0 + u)
    cos = np.sqrt(cos2)
    # J at the first n, and cos^(n-1) at the next
    integral, power = (u, cos2) if r % 2 else (np.arcsin(u), cos)
    for n in range(2 + r % 2, r + 1, 2):
        integral = power * u / n + (n - 1) / n * integral
        power = power * cos2
    tail = 0.5 - integral / wallis
    return tail, power / ((r + 1) * wallis) - u * tail, cos ** (r - 1) / wallis


# Laws _sum_law keeps. A run of T queries computes at most T + 1 distinct
# laws (one per tie answer, one for the witness check), and its replay
# asks for them again, after the last query. The least recently used law
# goes first, so every replayed law is still held while T < 4096, 2.5
# times the largest budget yet profiled (T = 1600). An entry (its key,
# two read-only 3-vectors and the cache's links) takes about 0.5 KB
# (tracemalloc over 2000 keys), so a full cache about 2 MB; a sweep over
# any number of seeds holds no more.
_SUM_LAWS_KEPT = 4096
# The law, or its error, where it vanishes.
_NO_LAW = frozen(np.zeros(3))


@functools.lru_cache(maxsize=_SUM_LAWS_KEPT)
def _sum_law(r: int, k: int, t: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """[P(S > t), E[(S - t)_+], density of S at t] for S the sum of k <= 2
    independent marginals of the uniform r-ball (see _marginal) and
    t >= 0, with the quadrature error of each. For k = 1 the law is
    closed-form, its quadrature error zero; beyond t = k the law vanishes.
    A pure function of its arguments, so it is cached (_SUM_LAWS_KEPT):
    both arrays are read-only, shared by every caller of the same key:
    _two_piece_law reads them as floats, once for an answer or estimate.

    For k = 2, S = S_1 + S_2, and the law is a composite Gauss-Legendre
    quadrature over s = S_1: from 2 * nodes nodes per element, its error
    the distance from the law from `nodes`. S_2 = t - s stays below 1 for
    s > t - 1, so the excess and the density are integrals over
    [t - 1, 1]. The tail is 1/2 - P(0 < S <= t), the integral of the
    density of S_1 times P(-s < S_2 <= t - s), split at s = t - 1: at an
    exact tie (t = 0) that integrand vanishes and the tail is 1/2. Each
    end of either interval is a singular point of the integrand, with
    another one t beyond it, so each interval is cut into
    max(2, ceil(sqrt(r))) equal elements (the marginals' width is about
    1/sqrt(r)), the first and last cut again into elements graded
    geometrically toward the ends.

    Both rules share one (elements x 3 * nodes) grid per interval, and
    _marginal runs once over the nodes of both intervals and both
    arguments, s and t - s. Each sum is one dot product over the nodes
    of one rule in element-major order.
    """
    if t >= k:
        return _NO_LAW, _NO_LAW
    if k == 1:
        return frozen(np.array(_marginal(r, np.float64(t)))), _NO_LAW
    pair_nodes, pair_weights = _gauss_legendre_pair(nodes)
    ratios = _GRADING_RATIO ** np.arange(_GRADED_ELEMENTS, 0, -1)
    pieces = max(2, math.ceil(math.sqrt(r)))
    # the intervals, one per row: [t - 1, 1], then [-1, t - 1] off a tie
    ends = [(t - 1.0, 1.0), (-1.0, t - 1.0)] if t > 0.0 else [(t - 1.0, 1.0)]
    a, b = np.array(ends).T[:, :, None]
    # np.linspace(a, b, pieces + 1)[1:-1], bit for bit
    inner = np.arange(1.0, pieces) * ((b - a) / pieces) + a
    edges = np.concatenate(
        [a, a + (inner[:, :1] - a) * ratios, inner, b - (b - inner[:, -1:]) * ratios[::-1], b], axis=1
    )
    half = (edges[:, 1:] - edges[:, :-1])[:, :, None] / 2.0
    # the marginal's arguments: s on each interval, then t - s on the first
    u = np.empty((len(ends) + 1, half.shape[1], 3 * nodes))
    np.add(edges[:, :-1, None] + half, half * pair_nodes, out=u[:-1])
    np.subtract(t, u[0], out=u[-1])
    tail, excess, density = _marginal(r, u)
    # the integrands, each times the density of S_1 at s: on [t - 1, 1],
    # P(-s < S_2 <= t - s) and the excess and density of S_2 at t - s; on
    # [-1, t - 1], P(S_2 > -s)
    f = np.empty((len(ends) + 2, *u.shape[1:]))
    np.subtract(1.0, tail[0], out=f[0])
    f[0] -= tail[-1]
    f[1], f[2] = excess[-1], density[-1]
    f[:3] *= density[0]
    if t > 0.0:
        np.subtract(1.0, tail[1], out=f[3])
        f[3] *= density[1]
    half = half[[0, 0, 0, 1][: len(f)]]  # each integrand's element widths
    laws = []
    for rule in (slice(0, nodes), slice(nodes, 3 * nodes)):
        weights = (half * pair_weights[rule]).reshape(len(f), -1)
        sums = np.vecdot(f[..., rule].reshape(len(f), -1), weights)
        between = sums[0] + sums[3] if t > 0.0 else sums[0]
        laws.append(np.array([0.5 - between, sums[1], sums[2]]))
    coarse, fine = laws
    return frozen(fine), frozen(np.abs(fine - coarse))


class _TwoPieceLaw(NamedTuple):
    """_two_piece_law's fields, unnormalized, in frame coordinates: the
    value, the gradient and the Hessian's factors, each with its error."""

    value: float
    value_error: float
    gradient_coords: np.ndarray
    gradient_error: float
    c: np.ndarray
    density: float
    sigma: float
    hessian_error: float

    def hessian(self, denom: float) -> HigherDerivative:
        """c c^T p_S(t) / sigma over denom; zero where p_S(t) is."""
        if not self.density > 0.0:
            return HigherDerivative(2)
        scale = self.density / (self.sigma * denom)
        return HigherDerivative(2, self.c[:, None] * self.c * scale, self.hessian_error / denom)


def _two_piece_law(instance: HardInstance, contender_frame: ContenderFrame) -> _TwoPieceLaw | None:
    """The law where exactly two pieces contend, at k <= 2, over their
    contender_frame, unnormalized in frame coordinates, else None: the one
    home of that rule. regime_answer lifts and divides the law, an
    estimate takes the field its order needs; either samples without one.

    Let p be the top piece of the two and q the other, c = coords_q -
    coords_p in their contender frame (_contender_frame) and sigma =
    delta |c|. By rotation invariance c.(v_1 + ... + v_k) has the law of
    |c| S, S the sum of k marginals of the T-ball (_sum_law), so with
    t = (l_p(x) - l_q(x)) / sigma the smoothed function is l_p(x) +
    sigma E[(S - t)_+]: the value. The gradient is the frame's lift of
    coords_p + c P(S > t), and for k = 2 the Hessian, in frame
    coordinates, is c c^T p_S(t) / sigma.
    Identical directions (c = 0, possible for custom instances) leave l_p
    itself, and so does t >= k, which S cannot reach: there the Hessian
    is the zero tensor.

    Each error field is the quadrature error carried through, plus a
    rounding floor of (dim + T + 64) units of roundoff on the terms it
    sums: dot products of length dim in the coordinates and the lift, the
    recurrence and the quadrature sums in the law.
    """
    params = instance.params
    base, coeffs, _ = contender_frame
    if len(base) != 2 or params.k > 2:
        return None
    pair = base.tolist()
    p = 0 if pair[0] >= pair[1] else 1
    level = pair[p]
    coords_p = coeffs[p]
    c = coeffs[1 - p] - coords_p
    norm_c = dot_norm(c)
    sigma = params.delta * norm_c
    t = (level - pair[1 - p]) / sigma if sigma > 0.0 else math.inf
    law, err = _sum_law(params.T, params.k, t, TWO_PIECE_NODES)
    (tail, excess, density), (err_tail, err_excess, err_density) = law.tolist(), err.tolist()
    rounding = (instance.basis.dim + params.T + 64) * _EPS
    return _TwoPieceLaw(
        value=level + sigma * excess,
        value_error=sigma * (err_excess + rounding) + rounding * abs(level),
        gradient_coords=coords_p + c * tail,
        gradient_error=norm_c * (err_tail + rounding) + rounding * dot_norm(coords_p),
        c=c,
        density=density,
        sigma=sigma,
        hessian_error=norm_c**2 / sigma * (err_density + rounding * density) if density > 0.0 else 0.0,
    )


def monte_carlo_answer(
    instance: HardInstance,
    x: np.ndarray,
    budget: MCBudget | None,
    contender_frame: ContenderFrame,
) -> OracleResponse:
    """Sampled answer at x over contender_frame, _contender_frame at x,
    whatever the contender count (no budget means MCBudget()).

    Value uses budget.n_samples, each derivative order 2*n_samples
    function evaluations, each estimate on its own stream, the child
    budgets "value", "gradient" and ("tensor", j) of budget: the value from
    smoothed_value_mc, orders 1..k from _sampled_tensor_coords, all over
    the one frame. The budget is refused before any draw: by the value's
    gate, then by order k's, which covers every lower order, so it needs
    n_samples >= max(2, 2^k). The value is estimated first, so an error
    it raises wins over a derivative error.
    """
    params = instance.params
    denom = params.norm_denom
    budget = budget or MCBudget()
    n = budget.n_samples
    value_budget = budget.child("value")
    draws = [budget.child("gradient", 0, 2 * n)]
    draws += [budget.child("tensor", j, 2 * n) for j in range(2, params.k + 1)]
    _check_budget(instance, 0, value_budget)
    _check_budget(instance, params.k, draws[-1])
    value, stderr = smoothed_value_mc(instance, x, value_budget, contender_frame=contender_frame)
    (coords, gerr), *tensors = (
        _sampled_tensor_coords(instance, j, draw, contender_frame) for j, draw in enumerate(draws, 1)
    )
    higher = tuple(HigherDerivative(j, t / denom, err / denom) for j, (t, err) in enumerate(tensors, 2))
    return _tie_answer(contender_frame[2], value, stderr, coords, gerr, higher, denom)


def _tie_answer(
    frame: np.ndarray, value: float, value_error: float, coords: np.ndarray, gradient_error: float,
    higher: tuple[HigherDerivative, ...], denom: float,
) -> OracleResponse:
    """The tie-band answer over the frame's rows from the unnormalized
    value, gradient frame coordinates and errors, each divided by denom,
    and the higher orders as given; the frame goes with a non-zero tensor."""
    basis = frame if higher and not higher[0].is_zero else None
    grad = frame.T @ coords / denom
    return OracleResponse(value / denom, grad, higher, None, value_error / denom, gradient_error / denom, basis)


def rescale_to_smoothness(L_target: float, k: int, T: int) -> float:
    """Multiplier s = L / ((10 k)^k T^(2.5 k)).

    Scaling every oracle output by s gives a function whose order-k
    smoothness coefficient is at most L_target, with suboptimality floor
    s / (2 sqrt(T)).
    """
    if not (0 < L_target < math.inf):
        raise ValueError(refusal("L_target", "be positive and finite", L_target))
    try:
        return L_target / ((10.0 * k) ** k * T ** (2.5 * k))
    except OverflowError:
        if L_target > FLOAT_MAX:
            raise ValueError(refusal("L_target", "lie within the float range", L_target)) from None
        raise ValueError(refusal("k", f"keep (10 k)^k T^(2.5 k) within the float range at T = {T}", k)) from None


def suboptimality_certificate(
    instance: HardInstance,
    x: np.ndarray,
    allow_partial: bool = False,
    f_tilde: float | None = None,
) -> float:
    """Closed-form certified lower bound on the normalized gap between
    the smoothed value at x and its minimum over the unit ball:

        [ f_tilde(x) + 1/sqrt(r) - gamma - 2 k delta ] / norm_denom.

    The smoothed value sits within k*delta of f_tilde, and the witness
    point -sum(a_i)/sqrt(r) caps the minimum at -1/sqrt(r)+gamma+k*delta,
    so no sampling enters the certificate. Requires the full T pieces
    unless allow_partial (then r is the actual piece count). f_tilde, if
    given, must be piece_values(instance, x).f_tilde.
    """
    params = instance.params
    r = instance.num_pieces
    if r == 0:
        raise ValueError("instance has no pieces")
    if r < params.T and not allow_partial:
        raise ValueError(
            f"certificate needs a completed instance (r = {r} < T = {params.T})"
        )
    if f_tilde is None:
        f_tilde = piece_values(instance, x).f_tilde
    raw = f_tilde + 1.0 / math.sqrt(r) - params.gamma - 2.0 * params.k * params.delta
    return raw / params.norm_denom
