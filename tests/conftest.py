import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from resistor.evaluator import _contender_frame, _sampled_tensor_coords, affine_regime, piece_values
from resistor.geometry import OrthonormalBasis
from resistor.instance import DETERMINISTIC, HardInstance, InstanceParams, shift_of
from resistor.oracles import AdaptiveOracle
from resistor.streams import stream


def unit(d: int, i: int) -> np.ndarray:
    e = np.zeros(d)
    e[i] = 1.0
    return e


@pytest.fixture
def plane_instance() -> HardInstance:
    """Two orthonormal pieces e1, e2 with gamma=0.1, m=2, k=1, delta=0.01.

    Shifts are 0.05 and 0.0; the near-tie band 2*k*delta is 0.02.
    """
    params = InstanceParams(
        T=2, k=1, m=2, d=3, gamma=0.1, delta=0.01, mode=DETERMINISTIC, norm_denom=1.0
    )
    basis = OrthonormalBasis(np.vstack([unit(3, 0), unit(3, 1)]))
    return HardInstance.from_basis(params, basis)


_JSON_MARGIN = re.compile(rb'("event_e_margin": )[^,}\n]*')


def margins_masked(data: bytes) -> bytes:
    """A report's or transcript's bytes with every event_e_margin value
    blanked: a CSV report's column emptied, each JSON value made null. A
    pin of these bytes holds while only margins move."""
    if not data.startswith(b"iter,"):
        return _JSON_MARGIN.sub(rb"\1null", data)
    lines = [line.split(b",") for line in data.split(b"\n")]
    col = lines[0].index(b"event_e_margin")
    for fields in lines[1:]:
        if len(fields) > col:
            fields[col] = b""
    return b"\n".join(b",".join(fields) for fields in lines)


def reference_locally_affine_index(
    instance: HardInstance, x: np.ndarray, values=None
) -> int | None:
    """The regime test by argmax and runner-up: the 1-based index of the
    unique argmax piece if its margin over every other piece strictly
    exceeds 2*k*delta, else None (a NaN margin included). The reference
    for evaluator.locally_affine_index and contenders."""
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


def contender_frame_at(instance: HardInstance, x: np.ndarray):
    """The contender frame at x. Passed to smoothed_value_mc or
    monte_carlo_answer, it makes them sample where the estimators would
    answer in closed form."""
    return _contender_frame(instance, *affine_regime(instance, x))


def sampled_tensor_coords(instance: HardInstance, x: np.ndarray, order: int, budget):
    """The sampler's order-j tensor at x, its error and the frame's rows:
    _sampled_tensor_coords over the contender frame at x, sampled even
    where _tensor_coords_mc would answer in closed form."""
    frame = contender_frame_at(instance, x)
    return (*_sampled_tensor_coords(instance, order, budget, frame), frame[2])


def sampled_gradient(instance: HardInstance, x: np.ndarray, budget) -> tuple[np.ndarray, float]:
    """The sampler's gradient at x and its error: the order-1 estimate
    over the contender frame at x, lifted as smoothed_gradient_mc lifts
    it inside the tie band, bit for bit."""
    coords, err, frame = sampled_tensor_coords(instance, x, 1, budget)
    return frame.T @ coords, err


def abs_instance(params) -> HardInstance:
    """Two-piece |a.x| fixture: pieces {a, -a}, zero shifts, 1-dim span,
    smoothed over that span: T is set to 1, its dimension."""
    a = unit(params.d, 0)
    return HardInstance.custom(dataclasses.replace(params, T=1), np.vstack([a, -a]), [0.0, 0.0])


def three_way_tie(oracle) -> np.ndarray:
    """Query the origin (an exact answer), then a point where pieces 1
    and 2 tie exactly (a two-piece answer); return a point where pieces 1,
    2 and 3 tie exactly, every later piece out of reach, so that query 3
    is answered by sampling.

    The adaptive oracle builds piece t along the part of query t
    perpendicular to the pieces so far, so query t >= 2 moves by
    shift_1 - shift_t along a new direction e_t and every piece up to t
    sits at shift_1; the randomized oracle's pieces are known, and the
    same offsets go along a_2 and a_3 from 0.2 a_1 + 0.2 (a_2 + a_3).
    """
    p = oracle.params
    a1 = oracle.query(np.zeros(oracle.dim)).gradient * p.norm_denom
    gaps = [shift_of(p, 1) - shift_of(p, t) for t in (2, 3)]
    if isinstance(oracle, AdaptiveOracle):
        rng = np.random.default_rng(0)
        known, points = [a1], [np.zeros(oracle.dim)]
        for gap in gaps:
            e = rng.standard_normal(oracle.dim)
            for _ in range(2):
                for u in known:
                    e -= (u @ e) * u
            e /= np.linalg.norm(e)
            known.append(e)
            points.append(points[-1] + gap * e)
        second, third = points[1:]
    else:
        a = oracle.instance.piece_matrix
        second = 0.2 * a[0] + (0.2 + gaps[0]) * a[1]
        third = second + (0.2 + gaps[1]) * a[2]
    oracle.query(second)
    return third


def fd_gradient_crn(
    instance: HardInstance, x: np.ndarray, h: float, n: int, seed: int
) -> tuple[np.ndarray, float]:
    """Independent gradient oracle: central finite differences of a
    hand-rolled smoothed-value Monte Carlo, common random numbers across
    the +/- evaluations.

    Deliberately avoids the library's estimators and streams: own RNG,
    own ball sampler over the T-ball, own (vectorized) max-affine
    arithmetic. Truncation error is O((T/delta) h) per coordinate; noise
    is O(1/sqrt(n)) per coordinate thanks to the shared samples.
    """
    params = instance.params
    r = params.T
    rng = np.random.default_rng(seed)
    total = np.zeros((n, r))
    for _ in range(params.k):
        g = rng.standard_normal((n, r))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        total += g * rng.random((n, 1)) ** (1.0 / r)
    pieces = instance.piece_matrix
    shifts = instance.piece_shifts
    basis = instance.basis.matrix
    proj = params.delta * (total @ piece_coords(instance).T)  # (n, pieces)
    grad = np.zeros(len(basis))
    errs = np.zeros(len(basis))
    for axis in range(len(basis)):
        base_p = pieces @ (x + h * basis[axis]) + shifts
        base_m = pieces @ (x - h * basis[axis]) + shifts
        quot = ((base_p[None, :] + proj).max(axis=1) - (base_m[None, :] + proj).max(axis=1)) / (2.0 * h)
        grad[axis] = quot.mean()
        errs[axis] = quot.std(ddof=1) / np.sqrt(n)
    return basis.T @ grad, float(np.sqrt((errs**2).sum()))


def full_sphere(r: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points on the unit sphere of R^r, shape (n, r), all r
    coordinates drawn: the reference for sample_sphere's coords = r form
    (same stream use, same arithmetic)."""
    g = rng.standard_normal((n, r))
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), r))
        norms = np.sqrt(np.add.reduce(g * g, axis=1))
    return g / norms[:, None]


def full_ball(r: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points in the unit ball of R^r, shape (n, r): full_sphere
    times a U^(1/r) radius."""
    v = full_sphere(r, rng, n)
    return v * (rng.random(n) ** (1.0 / r))[:, None]


def _full_ball_sum(r: int, k: int, rng: np.random.Generator, n: int) -> np.ndarray:
    total = full_ball(r, rng, n)
    for _ in range(k - 1):
        total += full_ball(r, rng, n)
    return total


def piece_coords(instance: HardInstance) -> np.ndarray:
    """Every piece direction in basis coordinates, padded with zeros to the
    T coordinates of the smoothing span, shape (pieces, T)."""
    coords = np.zeros((instance.num_pieces, instance.params.T))
    coords[:, : len(instance.basis)] = [instance.basis.coords(a) for a in instance.piece_matrix]
    return coords


def dense_value_mc(instance: HardInstance, x: np.ndarray, budget) -> tuple[float, float]:
    """Reference smoothed value: the full-span estimator, every draw in all
    T coordinates and the max over every piece, on the library's stream."""
    params = instance.params
    base = piece_values(instance, x).shifted
    rng = stream(budget.seed, "smooth-value")
    n = budget.n_samples
    c = _full_ball_sum(params.T, params.k, rng, n)
    vals = (base[None, :] + params.delta * (c @ piece_coords(instance).T)).max(axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


def dense_tensor_coords_mc(
    instance: HardInstance, x: np.ndarray, order: int, budget
) -> tuple[np.ndarray, float]:
    """Reference order-j derivative tensor in the T coordinates of
    piece_coords: the full-span sphere-identity estimator with its 2^j
    sign flips, every draw in all T coordinates and the max over every
    piece."""
    params = instance.params
    r = params.T
    base = piece_values(instance, x).shifted
    rng = stream(budget.seed, "smooth-gradient")
    n = budget.n_samples // 2**order
    spheres = [full_sphere(r, rng, n) for _ in range(order)]
    first = spheres[0]
    if order < params.k:
        first = first + _full_ball_sum(r, params.k - order, rng, n)
    projs = [params.delta * (u @ piece_coords(instance).T) for u in [first, *spheres[1:]]]
    combo = 0.0
    for signs in itertools.product((1, -1), repeat=order):
        shifted = base[None, :] + sum(s * p for s, p in zip(signs, projs))
        combo = combo + math.prod(signs) * shifted.max(axis=1)
    g = (r / params.delta) ** order * (combo / 2**order)[:, None] * spheres[0]
    axes = "abcdefghijklm"[:order]
    subscripts = ",".join("n" + a for a in axes) + "->" + axes
    tensor = np.einsum(subscripts, g, *spheres[1:]) / n
    second = np.einsum(subscripts, g * g, *(w * w for w in spheres[1:])) / n
    var = np.maximum(second - tensor**2, 0.0) * (n / (n - 1))
    err = float(np.sqrt((var / n).sum()))
    perms = list(itertools.permutations(range(order)))
    tensor = sum((np.transpose(tensor, p) for p in perms[1:]), tensor) / len(perms)
    return tensor, err
