"""Hard-instance description: parameter schedules, affine pieces with
decreasing shifts, and the closed-form bounds used as certificates.

An instance is a matrix whose rows are unit directions a_i, a vector of
shifts (1 - i/m)*gamma defining the shifted max-affine function, and the
orthonormal basis of the subspace the smoothing averages over.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    OrthonormalBasis,
    Vector,
    arbitrary_perp_unit,
    dot_norm,
    frozen,
    orthonormal_extend,
)
from .streams import as_integer, in_float_range, refusal

DETERMINISTIC = "deterministic"
RANDOMIZED = "randomized"

# Queries live in the closed unit ball; this is the feasibility slack.
QUERY_NORM_SLACK = 1e-9
PIECE_UNIT_TOL = 1e-10
PIECE_SPAN_TOL = 1e-8
# Shifts of an instance with no pieces: read-only, so one array serves all.
_NO_SHIFTS = frozen(np.zeros(0))


@dataclass(frozen=True)
class InstanceParams:
    """Scalar configuration of one hard instance.

    T: query budget; k: derivative order; m: shift denominator (equal to
    T in both standard modes); d: law dimension, the dimension of the
    space the pieces are drawn in (an instance's vectors have
    basis.dim coordinates, which is d except for a hidden basis written
    in the coordinates of its explicit subspace and span, see
    geometry.random_orthonormal_basis); gamma: shift scale;
    delta: smoothing radius; norm_denom: divisor applied to all oracle
    outputs (the maximum of the shifted max-affine function over the
    unit ball in deterministic mode, 1 in randomized mode).
    """

    T: int
    k: int
    m: int
    d: int
    gamma: float
    delta: float
    mode: str = DETERMINISTIC
    norm_denom: float = 1.0
    fail_prob: float | None = None

    @property
    def floor(self) -> float:
        """Certified suboptimality floor 1/(2 sqrt(T)) for every query."""
        return 1.0 / (2.0 * math.sqrt(self.T))

    @cached_property
    def _shift_ladder(self) -> np.ndarray:
        """(1 - i/m) * gamma for i = 1..T, read-only: shift_of's bits, as
        IEEE arithmetic gives them elementwise. Built once, when first
        read (see _shifts_of)."""
        ladder = (1.0 - np.arange(1, self.T + 1) / self.m) * self.gamma
        ladder.setflags(write=False)
        return ladder


def certified_floor_margin(params: InstanceParams) -> float:
    """Worst-query slack of the closed-form gap certificate over the floor.

    The certificate at query i is at least
        [(1 - i/m) gamma + 1/sqrt(T) - gamma - 2 k delta] / norm_denom,
    worst at i = T; randomized mode loses a further 1/(20 T^1.5) under
    the low-correlation event. Non-negative margin means every queried
    point is certifiably 1/(2 sqrt(T)) suboptimal.
    """
    worst = 1.0 / math.sqrt(params.T) - params.gamma - 2.0 * params.k * params.delta
    if params.mode == RANDOMIZED:
        worst -= 1.0 / (20.0 * params.T**1.5)
    return worst / params.norm_denom - params.floor


def params_deterministic(T: int, k: int, d: int | None = None) -> InstanceParams:
    """Deterministic-mode schedule: gamma = 1/(3 sqrt(T)), delta = gamma/(3 k T).

    T, k, then d are checked (see _schedule); d must be an integer (see
    streams.as_integer), defaults to T + 1 and may only be raised.
    """
    def rates(T: int, k: int, gamma: float) -> tuple[float, int, float, None]:
        dim = T + 1 if d is None else as_integer(d, "d")
        if dim <= T:
            raise ValueError(refusal("d", f"satisfy d > T = {T} in deterministic mode", dim))
        return gamma / (3.0 * k * T), dim, 1.0 + (1.0 - 1.0 / T) * gamma, None

    return _schedule(T, k, DETERMINISTIC, rates)


def randomized_dimension(T: int, fail_prob: float) -> int:
    """Smallest d with T * exp(-(1/(20 T^1.5))^2 (d - T)/2) <= fail_prob / T."""
    return T + math.ceil(800.0 * T**3 * math.log(T * T / fail_prob))


def params_randomized(T: int, k: int, fail_prob: float) -> InstanceParams:
    """Randomized-mode schedule: gamma = 1/(3 sqrt(T)), delta = 1/(20 k T^1.5).

    T, k, then fail_prob, a real number whose float lies in (0, 1) and is
    kept, are checked (see _schedule). The ambient dimension is the smallest
    integer pushing the union bound over the basis-query correlations below it.
    """
    def rates(T: int, k: int, gamma: float) -> tuple[float, int, float, float]:
        if not isinstance(fail_prob, numbers.Real):
            raise TypeError(f"fail_prob must be a real number, got {fail_prob!r}")
        p = float(fail_prob) if 0.0 < fail_prob < 1.0 else 0.0
        if not 0.0 < p < 1.0:
            raise ValueError("fail_prob must lie in (0, 1)")
        return 1.0 / (20.0 * k * T**1.5), randomized_dimension(T, p), 1.0, p

    return _schedule(T, k, RANDOMIZED, rates, fail_prob)


def _schedule(T: int, k: int, mode: str, rates: Callable, fail_prob: float | None = None) -> InstanceParams:
    """The params of gamma = 1/(3 sqrt(T)) and (delta, d, norm_denom, fail_prob)
    = rates(T, k, gamma), which checks the mode's own argument first, for
    positive integers T and k (see streams.as_integer). They are refused
    unless validate passes them, so a rate past the float range or a delta
    rounded to 0 fails closed; the refusal names k where T passes at k = 1,
    else T."""
    T, k = as_integer(T, "T"), as_integer(k, "k")
    if T < 1 or k < 1:
        raise ValueError("T and k must be positive integers")
    try:
        gamma = 1.0 / (3.0 * math.sqrt(T))
        delta, d, norm_denom, fail_prob = rates(T, k, gamma)
    except OverflowError:
        problems = ["its rates lie past the float range" + (f" at fail_prob = {fail_prob}" if fail_prob else "")]
    else:
        params = InstanceParams(T, k, T, d, gamma, delta, mode, norm_denom, fail_prob)
        problems = validate(params)
    if problems:
        try:  # k is at fault where T passes at k = 1
            name, value = ("k", k) if k > 1 and _schedule(T, 1, mode, rates, fail_prob) else ("T", T)
        except ValueError:
            name, value = "T", T
        raise ValueError(refusal(name, f"give a usable {mode} schedule ({'; '.join(problems)})", value))
    return params


def shift_of(params: InstanceParams, i: int) -> float:
    """Shift of the i-th piece: (1 - i/m) * gamma, strictly decreasing in i."""
    if not 1 <= i <= params.m:
        raise ValueError(f"piece index {i} out of range [1, {params.m}]")
    return (1.0 - i / params.m) * params.gamma


def _shifts_of(params: InstanceParams, n: int) -> np.ndarray:
    """Shifts of pieces 1..n, shift_of's bits, as a read-only view of the
    params' shift ladder: no copy. n must not exceed the budget T."""
    if n > params.m:
        raise ValueError(f"piece index {n} out of range [1, {params.m}]")
    return params._shift_ladder[:n]


def check_in_ball(x: np.ndarray) -> None:
    """Raise unless the query x lies in the closed unit ball, up to
    QUERY_NORM_SLACK; a NaN or infinite entry fails. x is measured as a
    float64 array of any shape (geometry.dot_norm)."""
    norm = dot_norm(np.asarray(x, dtype=float))
    if not (norm <= 1.0 + QUERY_NORM_SLACK):
        raise ValueError(f"query outside the unit ball: ||x|| = {norm}")


def validate(params: InstanceParams) -> list[str]:
    """Named inequality violations; empty iff the params are usable.

    The one home of the rules every schedule passes (see _schedule):
    positivity, the float range, the band 2k*delta <= gamma/m, the mode's
    dimension and the certified floor. Every test is written as `not
    (condition)`, so a NaN parameter fails it instead of passing; a number
    past the float range is listed, not raised.
    """
    v: list[str] = []
    if not (params.gamma > 0):
        v.append("gamma > 0 violated")
    if not (params.delta > 0):
        v.append("delta > 0 violated")
    if params.norm_denom <= 0:  # a NaN fails the floor test instead
        v.append("norm_denom > 0 violated")
    if params.m < 1 or params.T < 1 or params.k < 1:
        v.append("T, k, m must be positive")
        return v
    if not in_float_range(max(params.T, params.k, params.m, abs(params.d))):
        past = [f for f in ("T", "k", "m", "d") if not in_float_range(getattr(params, f))]
        return v + [f"{f} past the float range" for f in past]
    lhs = 2.0 * params.k * params.delta
    rhs = params.gamma / params.m
    if not (lhs <= rhs):
        v.append(f"2k*delta <= gamma/m violated: {lhs:.6g} > {rhs:.6g}")
    if params.mode == DETERMINISTIC:
        if params.d <= params.T:
            v.append("d > T violated")
    elif params.mode == RANDOMIZED:
        try:  # T^1.5, and the dimension's T^3 and T^2 / fail_prob, may overflow
            margin = lhs + 1.0 / (10.0 * params.T**1.5)
            cap = params.gamma / params.T
            if not (margin < cap):
                v.append(f"2k*delta + 1/(10*T^1.5) < gamma/T violated: {margin:.6g} >= {cap:.6g}")
            if params.fail_prob is None or not 0.0 < params.fail_prob < 1.0:
                v.append("fail_prob in (0, 1) required in randomized mode")
            elif params.d < (dmin := randomized_dimension(params.T, params.fail_prob)):
                v.append(f"d >= {dmin} violated: d = {params.d}")
        except OverflowError:
            v.append(f"randomized rates past the float range at T = {params.T}, fail_prob = {params.fail_prob}")
    else:
        v.append(f"unknown mode {params.mode!r}")
    if not v and not ((margin := certified_floor_margin(params)) >= 0):
        v.append(f"floor 1/(2*sqrt(T)) not certifiable: worst-query margin {margin:.6g} < 0")
    return v


class AffinePiece(NamedTuple):
    """One affine piece a.x + shift of the max, read from an instance:
    a is row index - 1 of its piece matrix, a read-only view."""

    index: int
    a: np.ndarray
    shift: float


@dataclass(frozen=True, eq=False)
class HardInstance:
    """The shifted max-affine function max_i(a_i.x + shift_i): a matrix, a
    shift vector and a basis.

    piece_matrix holds the directions a_i as read-only rows, piece_shifts
    the shifts, and basis an orthonormal basis of their span. The
    smoothing averages over the T-dimensional span of the completed
    instance, whatever the piece count (see evaluator). Vectors, queries
    included, have basis.dim coordinates: the working dimension.
    Standard instances, built by append_piece or from_basis, have the
    basis matrix itself as piece_matrix, as do custom and from_json
    instances of orthonormal rows.

    Pieces are checked once, where they enter: from_basis checks that
    the basis is orthonormal, custom and from_json that every direction
    is unit and lies in the span. append_piece checks nothing, its new
    row being orthonormal by construction.
    """

    params: InstanceParams
    piece_matrix: np.ndarray
    piece_shifts: np.ndarray
    basis: OrthonormalBasis

    @property
    def num_pieces(self) -> int:
        return len(self.piece_matrix)

    @property
    def complete(self) -> bool:
        return self.num_pieces == self.params.T

    @cached_property
    def pieces(self) -> tuple[AffinePiece, ...]:
        """The pieces one by one, as views of the matrix and shifts."""
        return tuple(
            AffinePiece(i + 1, a, float(shift))
            for i, (a, shift) in enumerate(zip(self.piece_matrix, self.piece_shifts))
        )

    @classmethod
    def empty(cls, params: InstanceParams) -> "HardInstance":
        basis = OrthonormalBasis.empty(params.d)
        return cls(params, basis.matrix, _NO_SHIFTS, basis)

    @classmethod
    def from_basis(cls, params: InstanceParams, basis: OrthonormalBasis) -> "HardInstance":
        """All pieces fixed up front from an orthonormal basis (one per row)."""
        if len(basis) > params.T:
            raise ValueError("basis has more vectors than the budget T")
        problems = basis.violations()
        if problems:
            raise ValueError("basis is not orthonormal: " + "; ".join(problems))
        return cls(params, basis.matrix, _shifts_of(params, len(basis)), basis)

    @classmethod
    def custom(
        cls,
        params: InstanceParams,
        directions: np.ndarray,
        shifts: np.ndarray,
    ) -> "HardInstance":
        """Hand-built fixture (directions need not be orthonormal).

        The smoothing basis is the directions themselves when they are
        orthonormal, else their Gram-Schmidt span, as from_json builds it,
        so a custom instance reads back from to_json bit for bit. Used for
        analytic test cases such as the two-piece |a.x| function;
        adversarial instances never go through here.
        """
        return _checked_instance(params, directions, shifts)


def _checked_instance(params: InstanceParams, directions, shifts) -> HardInstance:
    """Instance of the pieces (directions[i], shifts[i]), each checked
    once, the error naming the first piece that fails: its direction
    must be unit (NaN and inf fail; tested before any Gram-Schmidt step
    sees the row) and lie in the basis span.

    The basis is the directions themselves if they are orthonormal, else
    their Gram-Schmidt span.
    """
    matrix = frozen(np.atleast_2d(np.asarray(directions, dtype=float)))
    shifts = frozen(np.asarray(shifts, dtype=float))
    if shifts.shape != (len(matrix),):
        raise ValueError("one shift per direction required")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, and fails
        norms = np.linalg.norm(matrix, axis=1)
    bad = ~(np.abs(norms - 1.0) <= PIECE_UNIT_TOL)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"piece {i + 1} direction must be unit, ||a|| = {norms[i]}")
    basis = OrthonormalBasis(matrix)
    if basis.violations():
        basis = span_basis(matrix)
    residuals = np.linalg.norm(matrix - (matrix @ basis.matrix.T) @ basis.matrix, axis=1)
    bad = ~(residuals <= PIECE_SPAN_TOL)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(
            f"piece {i + 1} does not lie in the basis span (residual {residuals[i]:.3e})"
        )
    return HardInstance(params, matrix, shifts, basis)


def span_basis(rows: np.ndarray) -> OrthonormalBasis:
    """Gram-Schmidt basis of the span of the rows of an (n, d) array, by
    orthonormal_extend row by row: a row already in the span adds none."""
    basis = OrthonormalBasis.empty(rows.shape[1])
    for row in rows:
        basis, _ = orthonormal_extend(basis, row)
    return basis


def append_piece(
    instance: HardInstance,
    x: Vector,
    rng: Callable[[], np.random.Generator],
    coords: Vector | None = None,
) -> HardInstance:
    """New instance with one more piece built from the query x.

    The direction is the normalized component of x perpendicular to the
    current basis (orthonormal_extend); a degenerate x (already in the
    span) gets a random perpendicular unit vector from the generator
    rng() returns instead (arbitrary_perp_unit). rng is called only then,
    so no other query builds a generator. coords, if given, are x's
    coordinates against the basis by np.vecdot (for a standard instance,
    its piece values a_i.x), and replace the first projection's pass over
    the rows. The shifts are a view of the params' ladder (_shifts_of). The
    new row is orthonormal to the others by construction, so nothing is
    re-checked, x included: the oracle checks its norm before it builds
    the piece.
    """
    params = instance.params
    if instance.num_pieces >= params.T:
        raise ValueError(f"piece budget exhausted (T = {params.T})")
    with np.errstate(invalid="ignore"):  # a NaN or inf x builds a NaN row
        basis, unit = orthonormal_extend(instance.basis, x, params.T, coords)
    if unit is None:
        basis = instance.basis.extended(arbitrary_perp_unit(instance.basis, rng()), params.T)
    return HardInstance(params, basis.matrix, _shifts_of(params, instance.num_pieces + 1), basis)


def pessimal_point(instance: HardInstance) -> tuple[Vector, float]:
    """The witness point -sum(a_i)/sqrt(r) and the certified upper bound
    (-1/sqrt(r) + gamma + k*delta)/norm_denom on the normalized minimum."""
    r = instance.num_pieces
    if r == 0:
        raise ValueError("instance has no pieces")
    params = instance.params
    xhat = -instance.piece_matrix.sum(axis=0) / math.sqrt(r)
    bound = (-1.0 / math.sqrt(r) + params.gamma + params.k * params.delta)
    return xhat, bound / params.norm_denom


def to_json(instance: HardInstance) -> str:
    """Serialize as {params, pieces:[{index, shift, a:[...]}]}.

    Coordinates go through Python's shortest-repr floats, which
    round-trip binary64 exactly.
    """
    doc = {
        "params": asdict(instance.params),
        "pieces": [
            {"index": p.index, "shift": p.shift, "a": p.a.tolist()}
            for p in instance.pieces
        ],
    }
    return json.dumps(doc)


def from_json(text: str) -> HardInstance:
    """Instance of a to_json document. Piece indices must be 1..r; the
    basis is the directions themselves when they are orthonormal (as for
    every standard instance), else their Gram-Schmidt span."""
    doc = json.loads(text)
    params = InstanceParams(**doc["params"])
    pieces = sorted(doc["pieces"], key=lambda p: p["index"])
    indices = [p["index"] for p in pieces]
    if indices != list(range(1, len(pieces) + 1)):
        raise ValueError(f"piece indices must be 1..{len(pieces)}, got {indices}")
    directions = [p["a"] for p in pieces] or np.zeros((0, params.d))
    shifts = [p["shift"] for p in pieces]
    return _checked_instance(params, directions, shifts)
