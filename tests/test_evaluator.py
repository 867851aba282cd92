import dataclasses
import functools
import hashlib
import json
import math
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from resistor import evaluator, oracles
from resistor.evaluator import (
    EXACT_AFFINE,
    MONTE_CARLO,
    MCBudget,
    PieceValues,
    _contender_frame,
    _sum_law,
    _tensor_coords_mc,
    affine_regime,
    affine_regimes,
    contenders,
    locally_affine_index,
    monte_carlo_answer,
    oracle_answer,
    piece_values,
    rescale_to_smoothness,
    smoothed_gradient_mc,
    smoothed_value_mc,
    suboptimality_certificate,
    regime_answer,
)
from resistor.geometry import OrthonormalBasis, perp_component, sample_ball
from resistor.harness import RunConfig, audit_instance, run_experiment
from resistor.instance import (
    DETERMINISTIC,
    RANDOMIZED,
    HardInstance,
    InstanceParams,
    append_piece,
    params_deterministic,
    params_randomized,
    pessimal_point,
    shift_of,
)
from resistor.oracles import AdaptiveOracle, RandomizedOracle
from resistor.streams import child_seed, stream

from conftest import (
    abs_instance,
    contender_frame_at,
    dense_tensor_coords_mc,
    dense_value_mc,
    fd_gradient_crn,
    margins_masked,
    reference_locally_affine_index,
    sampled_gradient,
    sampled_tensor_coords,
    three_way_tie,
    unit,
)


class TestPieceValues:
    def test_origin(self, plane_instance):
        pv = piece_values(plane_instance, np.zeros(3))
        assert pv.f_tilde == pytest.approx(0.05, rel=1e-15)  # (1 - 1/m) gamma
        assert int(np.argmax(pv.shifted)) == 0

    def test_pessimal_linear_value(self):
        inst = audit_instance(9, 2)
        xhat, _ = pessimal_point(inst)
        pv = piece_values(inst, xhat)
        assert pv.linear.max() == pytest.approx(-1.0 / 3.0, abs=1e-10)

    def test_tie(self, plane_instance):
        pv = piece_values(plane_instance, np.array([0.3, 0.35, 0.0]))
        np.testing.assert_allclose(pv.shifted, [0.35, 0.35], rtol=1e-15)

    def test_dimension_mismatch(self, plane_instance):
        with pytest.raises(ValueError, match="dimension"):
            piece_values(plane_instance, np.zeros(4))


@given(st.integers(0, 2**31), st.integers(3, 30), st.integers(1, 400))
@settings(max_examples=25, deadline=None)
def test_piece_values_rows_ignore_later_pieces(seed, T, extra_d):
    """Row i of piece_values is bit-identical on every instance of an
    adaptive chain that has piece i, so replays against the completed
    instance reproduce query-time answers exactly."""
    p = params_deterministic(T, 1, d=T + extra_d)
    rng = stream(seed, "queries")
    chain = [HardInstance.empty(p)]
    for t in range(1, T + 1):
        x = rng.standard_normal(p.d)
        chain.append(append_piece(chain[-1], x / np.linalg.norm(x), partial(stream, seed, "piece", t)))
    x = rng.standard_normal(p.d)
    x /= np.linalg.norm(x)
    full = piece_values(chain[-1], x)
    for t, inst in enumerate(chain):
        part = piece_values(inst, x)
        assert part.linear.tobytes() == full.linear[:t].tobytes()
        assert part.shifted.tobytes() == full.shifted[:t].tobytes()


def _kernel_instance(kind: str, seed: int, r: int, d: int) -> HardInstance:
    """r <= 24 pieces in R^d, d > 24: an adaptive chain, a from_basis
    instance, or a custom instance with unit directions that are not
    orthogonal."""
    p = params_deterministic(24, 1, d=d)
    rng = stream(seed, "kernel")
    if kind == "adaptive":
        inst = HardInstance.empty(p)
        for t in range(1, r + 1):
            x = rng.standard_normal(d)
            inst = append_piece(inst, x / np.linalg.norm(x), partial(stream, seed, "piece", t))
        return inst
    rows = rng.standard_normal((r, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    if kind == "from_basis":
        return HardInstance.from_basis(p, OrthonormalBasis(np.linalg.qr(rows.T)[0].T))
    return HardInstance.custom(p, rows, rng.standard_normal(r))


@given(
    st.sampled_from(["adaptive", "from_basis", "custom"]),
    st.integers(0, 2**31),
    st.integers(1, 24),
    st.integers(1, 1000),
)
@settings(max_examples=40, deadline=None)
def test_piece_values_match_per_row_dot(kind, seed, r, extra_d):
    """The one-call kernel gives each piece the bits of np.dot(a_i, x)."""
    inst = _kernel_instance(kind, seed, r, 24 + extra_d)
    x = stream(seed, "point").standard_normal(inst.params.d)
    x /= np.linalg.norm(x)
    linear = piece_values(inst, x).linear
    assert linear.tobytes() == np.array([np.dot(a, x) for a in inst.piece_matrix]).tobytes()


@given(
    st.sampled_from(["adaptive", "from_basis", "custom"]),
    st.sampled_from(["ball", "tie2", "tie3"]),
    st.integers(0, 2**31),
    st.integers(1, 12),
    st.integers(1, 100),
)
@settings(max_examples=40, deadline=None)
def test_answer_given_the_first_piece_values_keeps_its_bits(kind, point, seed, r, extra_d):
    """oracle_answer given np.vecdot's a_i.x of its first j pieces, any j,
    answers with the bits of oracle_answer that evaluates every piece: the
    adaptive oracle passes those of the r - 1 pieces before its new one.
    Exact, two-piece and sampled answers alike."""
    inst = _kernel_instance(kind, seed, r, 24 + extra_d)
    matrix, shifts = inst.piece_matrix, inst.piece_shifts
    x = stream(seed, "point").standard_normal(inst.params.d)
    x *= 0.9 / np.linalg.norm(x)
    ties = {"ball": 0, "tie2": 2, "tie3": 3}[point]
    if kind != "custom" and 1 < ties <= r:
        # pieces 1..ties tie exactly, every later one far below
        x = 0.2 * matrix[0] + sum((0.2 + shifts[0] - shifts[t]) * matrix[t] for t in range(1, ties))
    budget = MCBudget(2_000, seed)
    whole = oracle_answer(inst, x, budget=budget)
    for j in range(r + 1):
        given_values = oracle_answer(inst, x, budget=budget, coords=np.vecdot(matrix[:j], x))
        assert whole.mismatch(given_values) == ""


class TestLocallyAffineIndex:
    def test_clear_winner(self, plane_instance):
        # margin 0.55 over the 0.02 band
        assert locally_affine_index(plane_instance, np.array([0.5, 0.0, 0.0])) == 1

    def test_tie_goes_monte_carlo(self, plane_instance):
        assert locally_affine_index(plane_instance, np.array([0.3, 0.35, 0.0])) is None

    def test_margin_exactly_at_threshold_is_none(self):
        # all quantities are binary fractions so the margin equals
        # 2*k*delta = 1/32 exactly; the fast path requires strict excess
        params = InstanceParams(
            T=2, k=1, m=2, d=3, gamma=0.25, delta=1.0 / 64.0, mode=DETERMINISTIC
        )
        basis = OrthonormalBasis(np.vstack([unit(3, 0), unit(3, 1)]))
        inst = HardInstance.from_basis(params, basis)
        x = np.array([0.25, 0.25 + 0.125 - 1.0 / 32.0, 0.0])
        pv = piece_values(inst, x).shifted
        assert pv[0] - pv[1] == 2 * params.k * params.delta
        assert locally_affine_index(inst, x) is None

    @pytest.mark.parametrize(
        "target, expected",
        [
            ((0.5, 0.5, 0.0), None),  # exact ties, wherever the runner-up sits
            ((0.0, 0.5, 0.5), None),
            ((0.5, 0.0, 0.5), None),
            ((0.5, 0.5, 0.5), None),
            ((0.5, 0.5 - 1 / 32, 0.0), None),  # margin exactly 2*k*delta
            ((0.5 - 1 / 32, 0.5, 0.25), None),
            ((0.0, 0.5 - 1 / 32, 0.5), None),
            ((0.5, 0.5 - 1 / 16, 0.0), 1),  # margin 2 * 2*k*delta
            ((0.5 - 1 / 16, 0.5, 0.5 - 1 / 16), 2),
            ((0.0, 0.5 - 1 / 16, 0.5), 3),
        ],
    )
    def test_top_two_margin(self, target, expected):
        # binary fractions throughout, so every shifted value is exactly
        # the target and 2*k*delta is exactly 1/32
        params = InstanceParams(
            T=3, k=1, m=4, d=4, gamma=0.25, delta=1.0 / 64.0, mode=DETERMINISTIC
        )
        inst = HardInstance.from_basis(params, OrthonormalBasis(np.eye(4)[:3]))
        x = np.append(np.array(target) - inst.piece_shifts, 0.0)
        assert piece_values(inst, x).shifted.tolist() == list(target)
        assert locally_affine_index(inst, x) == expected

    def test_single_piece_always_affine(self):
        p = params_deterministic(4, 1)
        inst = HardInstance.from_basis(p, OrthonormalBasis(unit(p.d, 0)[None, :]))
        assert locally_affine_index(inst, np.zeros(p.d)) == 1


@given(st.integers(0, 6), st.integers(1, 3), st.sampled_from([1 / 64, 0.01, 1e-3 / 3]), st.data())
@settings(max_examples=300, deadline=None)
def test_regime_is_the_argmax_margin_test(n, k, delta, data):
    # the contender count against the argmax and runner-up test it
    # replaced, on shifted vectors with NaN, infinities and exact ties, and
    # with a margin of exactly 2*k*delta or one ulp either side
    T = max(n, 1)
    params = InstanceParams(T=T, k=k, m=T, d=n + 1, gamma=0.25, delta=delta, mode=DETERMINISTIC)
    inst = HardInstance.from_basis(params, OrthonormalBasis(np.eye(n + 1)[:n]))
    band = 2.0 * k * delta
    special = [0.0, 1.0, band, -band, math.nan, math.inf, -math.inf]
    element = st.one_of(st.floats(), st.sampled_from(special))
    shifted = np.array(data.draw(st.lists(element, min_size=n, max_size=n)), dtype=float)
    if n >= 2 and data.draw(st.booleans()):
        margin = data.draw(st.sampled_from([band, np.nextafter(band, math.inf), np.nextafter(band, 0.0)]))
        top, runner = data.draw(st.sampled_from([(margin, 0.0), (0.0, -margin)]))
        assert top - runner == margin
        below = st.one_of(st.floats(max_value=runner), st.sampled_from([runner, -math.inf]))
        shifted = np.array([top, runner] + data.draw(st.lists(below, min_size=n - 2, max_size=n - 2)))
        shifted = shifted[data.draw(st.permutations(range(n)))]
    values = PieceValues(linear=shifted, shifted=shifted)
    with np.errstate(invalid="ignore"):  # inf - inf and NaN are drawn on purpose
        expected = reference_locally_affine_index(inst, None, values)
        assert locally_affine_index(inst, None, values) == expected
        if n:
            assert (len(contenders(inst, values)) == 1) == (expected is not None)


def _lattice_instance(k: int) -> HardInstance:
    """Three axis pieces in R^4 with binary-fraction shifts and delta = 1/64,
    so shifted values at lattice points are exact and 2*k*delta is k/32."""
    params = InstanceParams(T=3, k=k, m=4, d=4, gamma=0.25, delta=1.0 / 64.0, mode=DETERMINISTIC)
    return HardInstance.from_basis(params, OrthonormalBasis(np.eye(4)[:3]))


class TestContenders:
    @given(st.sampled_from([1, 2]), st.lists(st.integers(0, 24), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_exact_affine_iff_one_contender(self, k, steps):
        # shifted values on a 1/64 lattice: exact ties and margins of exactly
        # 2*k*delta are drawn often
        inst = _lattice_instance(k)
        x = np.append(np.array(steps) / 64.0 - inst.piece_shifts, 0.0)
        values = piece_values(inst, x)
        near = contenders(inst, values)
        idx = locally_affine_index(inst, x)
        assert (idx is not None) == (len(near) == 1)
        if idx is not None:
            assert near.tolist() == [idx - 1]
        top = values.shifted.max()
        band = 2 * k * inst.params.delta
        assert near.tolist() == [i for i, v in enumerate(values.shifted) if top - v <= band]

    @given(st.integers(0, 2**31), st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_exact_affine_iff_one_contender_generic(self, seed, r):
        inst = _kernel_instance("custom", seed, r, 40)
        rng = stream(seed, "point")
        for scale in (1.0, 1e-2, 1e-3):
            x = rng.standard_normal(inst.params.d)
            x *= scale / np.linalg.norm(x)
            near = contenders(inst, piece_values(inst, x))
            assert (locally_affine_index(inst, x) is not None) == (len(near) == 1)

    @given(
        st.sampled_from(["adaptive", "from_basis", "custom"]),
        st.integers(0, 2**31),
        st.integers(1, 24),
        st.integers(0, 40),
        st.sampled_from([1, 2]),
        st.lists(st.lists(st.integers(0, 24), min_size=3, max_size=3), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_regimes_are_the_per_point_regimes_bit_for_bit(self, kind, seed, r, n, k, steps):
        # generic points and a NaN point, and lattice points with exact
        # ties and margins of exactly 2*k*delta
        cases = [(_kernel_instance(kind, seed, r, 40), stream(seed, "batch").standard_normal((n, 40)) / 7.0)]
        cases[0][1][:1] = math.nan
        lattice = _lattice_instance(k)
        cases.append((lattice, [np.append(np.array(s) / 64.0 - lattice.piece_shifts, 0.0) for s in steps]))
        for inst, points in cases:
            batched = affine_regimes(inst, points)
            assert len(batched) == len(points)
            for x, (values, keep) in zip(points, batched):
                want_values, want_keep = affine_regime(inst, x)
                assert values.linear.tobytes() == want_values.linear.tobytes()
                assert values.shifted.tobytes() == want_values.shifted.tobytes()
                assert keep.dtype == want_keep.dtype and keep.tolist() == want_keep.tolist()

    def test_nan_keeps_every_piece(self):
        inst = _lattice_instance(1)
        values = piece_values(inst, np.array([np.nan, 0.0, 0.0, 0.0]))
        assert contenders(inst, values).tolist() == [0, 1, 2]

    @given(st.integers(0, 2**31), st.integers(1, 12), st.floats(1e-9, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_piece_out_of_reach_leaves_contenders(self, seed, r, gap):
        # r unit pieces with zero shifts and x a few tie bands from the
        # origin, so some pieces contend and some do not; then one more piece in their
        # span, more than 2*k*delta below the top at x
        params = params_deterministic(24, 1, d=40)
        band = 2 * params.k * params.delta
        rng = stream(seed, "far")
        rows = rng.standard_normal((r, params.d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        inst = HardInstance.custom(params, rows, np.zeros(r))
        x = rng.standard_normal(params.d)
        x *= 8 * band / np.linalg.norm(x)
        values = piece_values(inst, x)
        a = inst.basis.lift(rng.standard_normal(len(inst.basis)))
        a /= np.linalg.norm(a)
        shift = values.shifted.max() - a @ x - band - gap
        bigger = HardInstance.custom(params, np.vstack([rows, a]), np.append(np.zeros(r), shift))
        assert len(bigger.basis) == len(inst.basis)
        before = contenders(inst, values)
        assert contenders(bigger, piece_values(bigger, x)).tolist() == before.tolist()
        # the sampled answers do not see it either, bit for bit, on one
        # basis of the span: a single direction is its own basis, while
        # with the extra piece it goes through Gram-Schmidt
        if r > 1:  # both Gram-Schmidt the same rows
            assert inst.basis.matrix.tobytes() == bigger.basis.matrix.tobytes()
        inst = HardInstance(params, inst.piece_matrix, inst.piece_shifts, bigger.basis)
        budget = MCBudget(64, seed)
        assert smoothed_value_mc(bigger, x, budget) == smoothed_value_mc(inst, x, budget)
        g_big, e_big = smoothed_gradient_mc(bigger, x, budget)
        g, e = smoothed_gradient_mc(inst, x, budget)
        assert g_big.tobytes() == g.tobytes() and e_big == e


def _tie_client() -> tuple[AdaptiveOracle, list[np.ndarray], list]:
    """The oracle (T = 9, k = 2) after the tie client, its queries and its
    answers. Query 1 is the origin; query t >= 2 ties piece t with piece 1
    exactly, pieces 2..t-1 sitting gamma/T or more below, out of the
    smoothing's reach, so every answer after the first is Monte Carlo."""
    p = params_deterministic(9, 2)
    oracle = AdaptiveOracle(p, seed=0)
    xs = [np.zeros(p.d)]
    answers = [oracle.query(xs[0])]
    known = [answers[0].gradient * p.norm_denom]
    rng = np.random.default_rng(0)
    for t in range(2, p.T + 1):
        e = rng.standard_normal(p.d)
        for _ in range(2):
            for u in known:
                e -= (u @ e) * u
        e /= np.linalg.norm(e)
        known.append(e)
        xs.append((shift_of(p, 1) - shift_of(p, t)) * e)
        answers.append(oracle.query(xs[-1]))
    return oracle, xs, answers


@pytest.mark.parametrize("t", [5, 9])
def test_contender_estimates_match_full_span_reference(t):
    # Two contenders out of r = T = 9 pieces. Over fixed seeds the
    # estimates, taken from their contender frame to basis coordinates,
    # agree with the full-span estimator within 4 combined errors, and the
    # gradient and Hessian errors are no larger (Rao-Blackwell). The value
    # estimator has the same law either way, so its standard error agrees
    # only up to sampling noise. The estimators answer two contenders in
    # closed form, so the samplers are called over the contender frame.
    oracle, xs, _ = _tie_client()
    inst, x = oracle.instance, xs[t - 1]
    assert len(contenders(inst, piece_values(inst, x))) == 2 and inst.num_pieces == inst.params.T == 9
    frame_at_x = contender_frame_at(inst, x)
    for seed in range(4):
        budget = MCBudget(20_000, seed)
        value, verr = smoothed_value_mc(inst, x, budget, contender_frame=frame_at_x)
        ref, ref_err = dense_value_mc(inst, x, budget)
        assert abs(value - ref) <= 4 * math.hypot(verr, ref_err)
        assert verr <= 1.05 * ref_err
        for order in (1, 2):
            tensor, err, frame = sampled_tensor_coords(inst, x, order, budget)
            for _ in range(order):
                tensor = np.tensordot(tensor, inst.basis.matrix @ frame.T, axes=(0, 1))
            ref, ref_err = dense_tensor_coords_mc(inst, x, order, budget)
            assert np.linalg.norm(tensor - ref) <= 4 * math.hypot(err, ref_err)
            assert err <= ref_err


# monte_carlo_answer on the lattice instance (k = 2) at x = (1/4, 5/16, 0,
# 0), where pieces 1 and 2 tie and piece 3 sits 3/8 below, out of reach:
# MCBudget(1_000, 7), every field as float.hex, the Hessian in the frame
# of the two contenders. oracle_answer answers this point in closed form;
# these are the sampler's bits.
PINNED_ANSWER = {
    "value": "0x1.c5aca11fe10b6p-2",
    "value_stderr": "0x1.0756ba24c4419p-12",
    "gradient": ["0x1.fe31b246207bap-2", "0x1.ff89609d983d7p-2", "0x0.0p+0", "0x0.0p+0"],
    "gradient_error": "0x1.2e363dbe8231cp-5",
    "hessian": [
        "0x1.75ebbd549fc51p+4", "-0x1.906dfcee6e4eap+4",
        "-0x1.906dfcee6e4eap+4", "0x1.8870c77daf9f5p+4",
    ],
    "hessian_error": "0x1.32c7a1a7699e8p+2",
}


def test_pruned_answer_bits_pinned():
    inst = _lattice_instance(2)
    x = np.array([0.25, 0.3125, 0.0, 0.0])
    values = piece_values(inst, x)
    assert values.shifted.tolist() == [0.4375, 0.4375, 0.0625]
    assert contenders(inst, values).tolist() == [0, 1]
    resp = monte_carlo_answer(inst, x, MCBudget(1_000, 7), contender_frame_at(inst, x))
    hess = resp.hessian()
    got = {
        "value": float(resp.value).hex(),
        "value_stderr": float(resp.value_stderr).hex(),
        "gradient": [float(v).hex() for v in resp.gradient],
        "gradient_error": float(resp.gradient_error).hex(),
        "hessian": [float(v).hex() for v in hess.tensor.ravel()],
        "hessian_error": float(hess.error_bound).hex(),
    }
    assert got == PINNED_ANSWER
    # the estimates lie in the contenders' span: nothing along piece 3
    assert resp.gradient[2] == 0.0 and resp.gradient[3] == 0.0
    assert resp.basis_matrix.tobytes() == inst.piece_matrix[:2].tobytes()


@pytest.mark.parametrize("n", [math.nan, 2.5, 4.0, True, False, "100"])
def test_mc_budget_refuses_a_count_that_is_not_an_integer(n):
    with pytest.raises(TypeError):
        MCBudget(n)


def test_mc_budget_count_is_a_positive_int():
    budget = MCBudget(np.int64(7), 3)
    assert type(budget.n_samples) is int and budget.n_samples == 7
    for n in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            MCBudget(n)


@pytest.fixture
def tied_oracle():
    """A k = 2 adaptive oracle after conftest.three_way_tie's exact and
    two-piece queries and its three-way tie, and the three points."""
    oracle = AdaptiveOracle(params_deterministic(4, 2), seed=3, mc_samples=2_000)
    tie = three_way_tie(oracle)
    oracle.query(tie)
    return oracle, [rec.x for rec in oracle.transcript.records]


# each estimator at x with a budget, its output as bytes
ESTIMATES = {
    "value": lambda inst, x, budget: np.array(smoothed_value_mc(inst, x, budget)).tobytes(),
    "gradient": lambda inst, x, budget: b"".join(
        np.asarray(part).tobytes() for part in smoothed_gradient_mc(inst, x, budget)
    ),
    "hessian": lambda inst, x, budget: b"".join(
        np.asarray(part).tobytes() for part in _tensor_coords_mc(inst, x, 2, budget)
    ),
}


@pytest.mark.parametrize("estimate", sorted(ESTIMATES))
def test_child_budget_samples_the_bits_of_the_eager_one(tied_oracle, estimate):
    oracle, (_, _, tie) = tied_oracle
    eager = MCBudget(2_000, child_seed(5, "lip1x", 2))
    lazy = MCBudget(2_000, 5).child("lip1x", 2)
    assert ESTIMATES[estimate](oracle.instance, tie, lazy) == ESTIMATES[estimate](oracle.instance, tie, eager)
    assert lazy.seed == eager.seed


@pytest.mark.parametrize("estimate", sorted(ESTIMATES))
def test_child_budget_derives_its_seed_only_to_draw(monkeypatch, tied_oracle, estimate):
    # the exact point and the two-piece tie draw nothing; the three-way
    # tie samples, on the derived seed
    derived = []
    real = evaluator.child_seed

    def counting(seed, purpose, index=0):
        derived.append((seed, purpose, index))
        return real(seed, purpose, index)

    monkeypatch.setattr(evaluator, "child_seed", counting)
    oracle, points = tied_oracle
    for p, x in enumerate(points):
        ESTIMATES[estimate](oracle.instance, x, MCBudget(2_000, 5).child("point", p))
    assert derived == [(5, "point", 2)]


def test_budget_is_an_immutable_value():
    # a child budget equals, hashes and prints as its eager twin
    lazy = MCBudget(10, 5).child("p", 2)
    eager = MCBudget(10, child_seed(5, "p", 2))
    assert (lazy, hash(lazy), repr(lazy)) == (eager, hash(eager), repr(eager))
    assert MCBudget(10, 1) == MCBudget(10, 1) != MCBudget(10, 2)
    assert repr(MCBudget(10, 1)) == "MCBudget(n_samples=10, seed=1)"
    for budget in (lazy, eager):
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget.n_samples = 1


@functools.cache
def _three_way_tie():
    """conftest.three_way_tie's instance (k = 2, T = 4) and point."""
    oracle = AdaptiveOracle(params_deterministic(4, 2), seed=3, mc_samples=2_000)
    tie = three_way_tie(oracle)
    oracle.query(tie)
    return oracle.instance, tie


@given(
    n=st.integers(2, 64),
    seed=st.integers(0, 2**64),
    purpose=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", max_size=8),
    index=st.integers(0, 2**32),
    count=st.none() | st.integers(2, 64),
)
@settings(max_examples=60, deadline=None)
def test_child_budget_is_its_eager_twin(n, seed, purpose, index, count):
    # a child, and its own child, equals, hashes, prints and samples as the
    # budget built from the derived seed
    eager = MCBudget(n if count is None else count, child_seed(seed, purpose, index))
    eager_grandchild = MCBudget(eager.n_samples, child_seed(eager.seed, "value"))
    instance, tie = _three_way_tie()
    for make, twin in (
        (lambda: MCBudget(n, seed).child(purpose, index, count), eager),
        (lambda: MCBudget(n, seed).child(purpose, index, count).child("value"), eager_grandchild),
    ):
        # each read derives the seed: a fresh budget per comparison
        assert make() == twin and hash(make()) == hash(twin) and repr(make()) == repr(twin)
        assert ESTIMATES["value"](instance, tie, make()) == ESTIMATES["value"](instance, tie, twin)


def test_child_budget_checks_only_a_count_passed_in():
    root = MCBudget(10, 5)
    assert root.child("p", 1, np.int64(20)).n_samples == 20
    for bad, error in ((0, ValueError), (2.5, TypeError), (True, TypeError)):
        with pytest.raises(error, match="n_samples"):
            root.child("p", 1, bad)


def test_child_budget_is_refused_as_the_eager_one(tied_oracle):
    # the gate reads the count alone, with the eager budget's message
    oracle, (exact, _, _) = tied_oracle
    for budget in (MCBudget(3, 1), MCBudget(3, 1).child("p", 0)):
        with pytest.raises(ValueError, match="needs n_samples >= 4 .* got 3"):
            smoothed_gradient_mc(oracle.instance, exact, budget)


def test_a_budget_short_of_a_large_order_is_refused_by_bit_length(plane_instance):
    # the order-k floor 2^(k+1) was built and printed, and past the digit
    # limit its text raised an error that named nothing
    params = dataclasses.replace(plane_instance.params, k=20_000)
    instance = dataclasses.replace(plane_instance, params=params)
    x = np.array([0.0, 0.05, 0.0])
    with pytest.raises(ValueError, match=r"needs n_samples >= 2\^20001 \(two draws at 2\^20000 sign flips each\), got 200$"):
        monte_carlo_answer(instance, x, MCBudget(100, 0), contender_frame_at(instance, x))


def test_a_refused_order_builds_no_tensor_budget(plane_instance):
    # the k - 1 tensor budgets were built before order k was refused:
    # 0.6 s and 28 MB at k = 200000
    params = dataclasses.replace(plane_instance.params, k=200_000)
    instance = dataclasses.replace(plane_instance, params=params)
    x = np.array([0.0, 0.05, 0.0])
    frame = contender_frame_at(instance, x)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=r"needs n_samples >= 2\^200001 "):
            monte_carlo_answer(instance, x, MCBudget(100, 0), frame)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2**20


class TestSmoothedValue:
    def test_one_piece_unbiased(self):
        p = params_deterministic(4, 1)
        inst = HardInstance.from_basis(p, OrthonormalBasis(unit(p.d, 0)[None, :]))
        x = 0.4 * unit(p.d, 0) - 0.2 * unit(p.d, 1)
        exact = piece_values(inst, x).f_tilde
        est, se = smoothed_value_mc(inst, x, MCBudget(20_000, 5))
        # one piece is its own smoothing: the closed form, not a sample
        assert est == exact and se == 0.0

    def test_abs_kink_half_delta(self):
        p = params_deterministic(4, 1)
        inst = abs_instance(p)
        x = np.zeros(p.d)  # a two-piece point: the frame makes it sampled
        est, se = smoothed_value_mc(inst, x, MCBudget(100_000, 11), contender_frame=contender_frame_at(inst, x))
        assert abs(est - p.delta / 2.0) <= 3 * se

    def test_exact_path_consistency(self, plane_instance):
        x = np.array([0.5, 0.0, 0.0])
        idx = locally_affine_index(plane_instance, x)
        assert idx == 1
        values, keep = affine_regime(plane_instance, x)
        closed = values.shifted[idx - 1]
        # the one-contender frame is sampled, where the estimator alone
        # would return the closed form
        frame = _contender_frame(plane_instance, values, keep)
        est, se = smoothed_value_mc(plane_instance, x, MCBudget(30_000, 2), contender_frame=frame)
        assert se > 0 and abs(est - closed) <= 3 * se

    def test_one_sample_refused(self, plane_instance):
        # one sample has no standard error; it must not report 0
        x = np.array([0.3, 0.35, 0.0])
        frame = contender_frame_at(plane_instance, x)
        with pytest.raises(ValueError, match="n_samples >= 2"):
            smoothed_value_mc(plane_instance, x, MCBudget(1, 0))
        assert smoothed_value_mc(plane_instance, x, MCBudget(2, 0), contender_frame=frame)[1] > 0

    def test_deterministic_given_budget(self, plane_instance):
        x = np.array([0.3, 0.35, 0.0])
        frame = contender_frame_at(plane_instance, x)
        a = smoothed_value_mc(plane_instance, x, MCBudget(5_000, 9), contender_frame=frame)
        b = smoothed_value_mc(plane_instance, x, MCBudget(5_000, 9), contender_frame=frame)
        assert a == b


class TestSmoothedGradient:
    def test_affine_region_recovers_direction(self, plane_instance):
        x = np.array([0.5, 0.0, 0.0])
        g, err = smoothed_gradient_mc(plane_instance, x, MCBudget(60_000, 3))
        assert np.linalg.norm(g - unit(3, 0)) <= 3 * err

    def test_abs_kink_symmetry_gives_zero(self):
        p = params_deterministic(4, 1)
        inst = abs_instance(p)
        g, _ = sampled_gradient(inst, np.zeros(p.d), MCBudget(20_000, 4))
        assert np.linalg.norm(g) <= 1e-12

    def test_matches_value_finite_differences_near_tie(self, plane_instance):
        x = np.array([0.25, 0.30, 0.0])  # exact tie of both pieces
        g, gerr = smoothed_gradient_mc(plane_instance, x, MCBudget(200_000, 6))
        h = plane_instance.params.delta / 1000.0
        fd, fderr = fd_gradient_crn(plane_instance, x, h, 200_000, seed=60)
        r = plane_instance.params.T
        trunc = math.sqrt(r) * (r / plane_instance.params.delta) * h / 2.0
        assert np.linalg.norm(g - fd) <= 3.0 * (gerr + fderr) + trunc


# The sampled gradient (sampled_gradient, the bits smoothed_gradient_mc
# gave before two-piece points were answered in closed form) on the
# two-piece plane instance (delta 0.005) at the tie x = (0.3, 0.35, 0),
# MCBudget(1_000, 7): coordinates and error as float.hex. The pieces are the coordinate axes, so the projections are
# exact and the bits depend only on the draws and the estimator's
# arithmetic.
PINNED_GRADIENTS = {
    1: (["0x1.edaba79bcec8bp-2", "0x1.087dd72b221a6p-1", "0x0.0p+0"], "0x1.0328a51e4fbcep-5"),
    2: (["0x1.f12df597c762fp-2", "0x1.11cb62e4e95e1p-1", "0x0.0p+0"], "0x1.73f7ed798034dp-5"),
}


@pytest.mark.parametrize("k", sorted(PINNED_GRADIENTS))
def test_gradient_bits_pinned(k):
    params = InstanceParams(T=2, k=k, m=2, d=3, gamma=0.1, delta=0.005, mode=DETERMINISTIC)
    inst = HardInstance.from_basis(params, OrthonormalBasis(np.eye(3)[:2]))
    g, err = sampled_gradient(inst, np.array([0.3, 0.35, 0.0]), MCBudget(1_000, 7))
    coords, error = PINNED_GRADIENTS[k]
    assert [float(v).hex() for v in g] == coords
    assert float(err).hex() == error


class _WorkStarted(Exception):
    """Raised by a patched evaluator name: work began where none should."""


def _refuse_work(*args, **kwargs):
    raise _WorkStarted


def _exact_affine_point(T: int, k: int, seed: int):
    """A standard completed instance, a point of its unit ball, the
    point's piece values and its locally_affine_index. params_deterministic
    refuses T = 2, so T >= 3."""
    inst = audit_instance(T, k, seed)
    x = sample_ball(inst.basis.dim, stream(seed, "exact-affine-point"))
    values, _ = affine_regime(inst, x)
    return inst, x, values, locally_affine_index(inst, x, values)


@given(st.integers(3, 12), st.integers(1, 3), st.integers(0, 2**31), st.sampled_from([2, 20_000]))
@settings(max_examples=60, deadline=None)
def test_estimators_answer_exact_affine_points_in_closed_form(T, k, seed, scale):
    inst, x, values, idx = _exact_affine_point(T, k, seed)
    assume(idx is not None)
    row = inst.piece_matrix[idx - 1]
    budget = MCBudget(scale * 2 ** (k + 1), seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "stream", _refuse_work)  # no sample is drawn
        value, value_err = smoothed_value_mc(inst, x, budget)
        grad, grad_err = smoothed_gradient_mc(inst, x, budget)
        tensors = [_tensor_coords_mc(inst, x, j, budget) for j in range(1, k + 1)]
    assert np.float64(value).tobytes() == values.shifted[idx - 1].tobytes()
    assert grad.tobytes() == row.tobytes()
    # in the sole contender's frame, its own row, where its coordinate is 1
    assert tensors[0][0].tolist() == [1.0]
    for j, (tensor, _, _) in enumerate(tensors[1:], start=2):
        assert tensor.shape == (1,) * j and not tensor.any()
    assert all(frame.tobytes() == row.tobytes() for _, _, frame in tensors)
    assert value_err == grad_err == 0.0
    assert all(err == 0.0 for _, err, _ in tensors)


@given(st.integers(3, 12), st.integers(1, 3), st.integers(0, 2**31), st.data())
@settings(max_examples=40, deadline=None)
def test_gates_refuse_an_exact_affine_point_before_any_work(T, k, seed, data):
    inst, x, _, idx = _exact_affine_point(T, k, seed)
    assume(idx is not None)
    _assert_gates_refuse_before_any_work(inst, x, seed, data)


def _assert_gates_refuse_before_any_work(inst: HardInstance, x: np.ndarray, seed: int, data) -> None:
    """Every gate of the three estimators (no pieces, n_samples, order,
    dimension) refuses at x before the point is evaluated or sampled."""
    k = inst.params.k
    order = data.draw(st.integers(1, k))
    bad_order = data.draw(st.sampled_from([0, k + 1]))
    empty = HardInstance.empty(inst.params)
    many = MCBudget(1_000, seed)
    gates = [
        (lambda: smoothed_value_mc(inst, x, MCBudget(1, seed)), "n_samples >= 2"),
        (lambda: smoothed_gradient_mc(inst, x, MCBudget(3, seed)), "n_samples >= 4"),
        (
            lambda: _tensor_coords_mc(inst, x, order, MCBudget(2 ** (order + 1) - 1, seed)),
            f"n_samples >= {2 ** (order + 1)}",
        ),
        (lambda: _tensor_coords_mc(inst, x, bad_order, many), "order must lie"),
        (lambda: smoothed_value_mc(empty, x, many), "no pieces"),
        (lambda: smoothed_gradient_mc(empty, x, many), "no pieces"),
        (lambda: _tensor_coords_mc(empty, x, order, many), "no pieces"),
    ]
    late = ("affine_regime", "piece_values", "_contender_frame", "stream")
    with pytest.MonkeyPatch.context() as patch:
        for name in late:
            patch.setattr(evaluator, name, _refuse_work)
        for call, message in gates:
            with pytest.raises(ValueError, match=message):
                call()
    # the dimension check is piece_values' own: only later work is patched
    wide = np.append(x, 0.0)
    with pytest.MonkeyPatch.context() as patch:
        for name in late[2:]:
            patch.setattr(evaluator, name, _refuse_work)
        for call in (smoothed_value_mc, smoothed_gradient_mc, partial(_tensor_coords_mc, order=order)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                call(inst, wide, budget=many)


def _two_contender_point(T: int, k: int, seed: int, u: float) -> tuple[HardInstance, np.ndarray, np.ndarray]:
    """audit_instance(T, k, seed) with norm_denom 1, a point where two of
    its pieces, i and j, sit about 0.3 - gamma or more above the rest (far
    beyond 2 k delta) and piece j sits u 2 k delta below piece i, and the
    pair (i, j) in index order."""
    inst = audit_instance(T, k, seed)
    inst = dataclasses.replace(inst, params=dataclasses.replace(inst.params, norm_denom=1.0))
    i, j = stream(seed, "two-contender-point").choice(T, 2, replace=False)
    a, b = inst.piece_matrix, inst.piece_shifts
    x = 0.3 * a[i] + (0.3 + b[i] - b[j] - u * 2 * k * inst.params.delta) * a[j]
    return inst, x, np.sort([i, j])


@given(st.integers(3, 12), st.integers(1, 2), st.integers(0, 2**31), st.floats(0.0, 0.999), st.data())
@settings(max_examples=40, deadline=None)
def test_estimators_answer_two_contender_points_in_closed_form(T, k, seed, u, data):
    # at k <= 2 each estimator returns the two-piece answer's field (norm_denom
    # 1), bit for bit, and draws no sample
    inst, x, pair = _two_contender_point(T, k, seed, u)
    values, keep = affine_regime(inst, x)
    assert keep.tolist() == pair.tolist()
    answer = regime_answer(inst, x, values, keep)
    budget = MCBudget(2 ** (k + 1), seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "stream", _refuse_work)
        value, value_err = smoothed_value_mc(inst, x, budget)
        grad, grad_err = smoothed_gradient_mc(inst, x, budget)
        tensors = [_tensor_coords_mc(inst, x, j, budget) for j in range(1, k + 1)]
    assert np.float64(value).tobytes() == np.float64(answer.value).tobytes()
    assert value_err == answer.value_stderr > 0
    assert grad.tobytes() == answer.gradient.tobytes() and grad_err == answer.gradient_error > 0
    (coords, coords_err, frame), *rest = tensors
    assert frame.tobytes() == inst.piece_matrix[pair].tobytes()
    assert (frame.T @ coords).tobytes() == answer.gradient.tobytes() and coords_err == answer.gradient_error
    if k == 2:
        (hess, hess_err, _), closed = rest[0], answer.hessian()
        assert hess.tobytes() == (np.zeros((2, 2)) if closed.is_zero else closed.tensor).tobytes()
        assert hess_err == closed.error_bound
    _assert_gates_refuse_before_any_work(inst, x, seed, data)
    # at k = 3 the same pair still contends, and is sampled
    deeper = dataclasses.replace(inst, params=dataclasses.replace(inst.params, k=3))
    assert affine_regime(deeper, x)[1].tolist() == pair.tolist()
    for estimate in (smoothed_value_mc, smoothed_gradient_mc, partial(_tensor_coords_mc, order=3)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluator, "stream", _refuse_work)
            with pytest.raises(_WorkStarted):
                estimate(deeper, x, budget=MCBudget(16, seed))


def _standard_point(T: int, k: int, seed: int, u: float, kind: str) -> tuple[HardInstance, np.ndarray]:
    """audit_instance(T, k, seed) and a point of one kind: pieces i and j
    about 0.3 - gamma or more above the rest, j sitting (1.5 + u) 2 k delta
    below i ("exact") or u 2 k delta below it ("two-piece"), a third piece
    l tied with i as well ("three-way"), or a NaN coordinate, where every
    piece contends ("nan")."""
    inst = audit_instance(T, k, seed)
    i, j, l = stream(seed, "standard-point").choice(T, 3, replace=False)
    a, b = inst.piece_matrix, inst.piece_shifts
    gap = (1.5 + u if kind == "exact" else u) * 2 * k * inst.params.delta
    x = 0.3 * a[i] + (0.3 + b[i] - b[j] - gap) * a[j]
    if kind == "three-way":
        x += (0.3 + b[i] - b[l]) * a[l]
    if kind == "nan":
        x[0] = math.nan
    return inst, x


def _draws(call) -> tuple[bool, object]:
    """Whether call() draws from a stream of evaluator's, and its result."""
    drawn = []
    real = evaluator.stream
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "stream", lambda *args: drawn.append(args) or real(*args))
        result = call()
    return bool(drawn), result


def _bits(estimate) -> bytes:
    return b"".join(np.asarray(part).tobytes() for part in estimate)


@given(st.integers(3, 12), st.integers(1, 3), st.integers(0, 2**31), st.floats(0.0, 0.999),
       st.sampled_from(["exact", "two-piece", "three-way", "nan"]))
@settings(max_examples=80, deadline=None)
def test_an_estimate_samples_exactly_where_the_answer_does(T, k, seed, u, kind):
    # answers and estimates share one tie-band rule; where it gives a closed
    # form, the estimates are the answer's value and gradient before
    # norm_denom, bit for bit
    inst, x = _standard_point(T, k, seed, u, kind)
    values, keep = affine_regime(inst, x)
    budget = MCBudget(2 ** (k + 1), seed)
    sampled, answer = _draws(lambda: regime_answer(inst, x, values, keep, budget))
    assert sampled == (kind in ("three-way", "nan") or (kind == "two-piece" and k == 3))
    estimates = [partial(smoothed_value_mc, inst, x, budget), partial(smoothed_gradient_mc, inst, x, budget)]
    estimates += [partial(_tensor_coords_mc, inst, x, j, budget) for j in range(1, k + 1)]
    (value_drawn, (value, _)), (gradient_drawn, (gradient, _)), *tensors = map(_draws, estimates)
    assert value_drawn == gradient_drawn == sampled
    assert all(drawn == sampled for drawn, _ in tensors)
    if not sampled:
        denom = inst.params.norm_denom
        assert denom > 1.0
        assert _f64(answer.value) == _f64(value / denom)
        assert answer.gradient.tobytes() == (gradient / denom).tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_without_a_law_a_two_piece_tie_is_sampled(monkeypatch, k):
    # _two_piece_law alone says where the closed form applies: where it
    # gives none, the answer and every estimate carry the samplers' bits
    inst, x = _standard_point(9, k, 0, 0.5, "two-piece")
    values, keep = affine_regime(inst, x)
    frame = _contender_frame(inst, values, keep)
    budget = MCBudget(64, 1)
    monkeypatch.setattr(evaluator, "_two_piece_law", lambda *args: None)
    drawn, answer = _draws(lambda: regime_answer(inst, x, values, keep, budget))
    assert drawn and answer.mismatch(monte_carlo_answer(inst, x, budget, frame)) == ""
    pairs = [
        (partial(smoothed_value_mc, inst, x, budget),
         smoothed_value_mc(inst, x, budget, contender_frame=frame)),
        (partial(smoothed_gradient_mc, inst, x, budget), sampled_gradient(inst, x, budget)),
    ]
    pairs += [(partial(_tensor_coords_mc, inst, x, j, budget), sampled_tensor_coords(inst, x, j, budget))
              for j in range(1, k + 1)]
    for estimate, sampler in pairs:
        drawn, result = _draws(estimate)
        assert drawn and _bits(result) == _bits(sampler)


class TestDerivativeTensors:
    def test_abs_hessian_closed_form(self):
        # f = |x_1| smoothed twice: f'' = (2 delta - |x_1|) / (2 delta^2) inside
        # |x_1| < 2 delta, 0 beyond. With r = 1 the sphere is {-1, 1}, so the
        # sign flips of every draw visit the four points x + delta(+-1 +-1):
        # the estimate is exact up to rounding, its reported error 0 up to
        # the rounding of the second moments.
        p = params_deterministic(4, 2)
        inst = abs_instance(p)
        delta = p.delta
        for t, frac in enumerate((-1.7, -0.6, 0.0, 0.3, 1.2, 1.99, 2.5, -3.0)):
            x = frac * delta * unit(p.d, 0)
            exact = max(0.0, (2.0 * delta - abs(x[0])) / (2.0 * delta**2))
            tensor, err, _ = sampled_tensor_coords(inst, x, 2, MCBudget(400, t))
            assert tensor.shape == (1, 1)
            assert tensor[0, 0] == pytest.approx(exact, rel=1e-9, abs=1e-9 / delta)
            assert err <= 1e-6 / delta
            if abs(frac) < 2.0:
                resp = oracle_answer(inst, x, budget=MCBudget(200, t))
                assert resp.regime == MONTE_CARLO
                hess = resp.hessian()
                assert hess.tensor[0, 0] * p.norm_denom == pytest.approx(exact, rel=1e-9)

    def test_one_draw_refused(self, plane_instance):
        # order j needs two draws of 2^j evaluations for a standard error
        x = np.array([0.3, 0.35, 0.0])
        with pytest.raises(ValueError, match="n_samples >= 4"):
            smoothed_gradient_mc(plane_instance, x, MCBudget(3, 0))
        assert sampled_gradient(plane_instance, x, MCBudget(4, 0))[1] > 0
        params = InstanceParams(
            T=2, k=3, m=2, d=3, gamma=0.1, delta=0.001, mode=DETERMINISTIC, norm_denom=1.0
        )
        inst = HardInstance.from_basis(params, plane_instance.basis)
        for order, minimum in ((1, 4), (2, 8), (3, 16)):
            with pytest.raises(ValueError, match=f"n_samples >= {minimum}"):
                _tensor_coords_mc(inst, x, order, MCBudget(minimum - 1, 0))
            assert np.isfinite(_tensor_coords_mc(inst, x, order, MCBudget(minimum, 0))[1])

    def test_rank_deficient_two_piece_zero_hessian_is_sized_by_the_frame(self):
        # pieces a and -a span one frame row. At x = 2 delta e_1 both
        # contend (a margin of exactly 2 k delta) and t = k exactly, beyond
        # the law's reach: the zero Hessian has one row per frame row, not
        # one per contender
        inst = abs_instance(params_deterministic(4, 2))
        x = 2.0 * inst.params.delta * unit(inst.params.d, 0)
        assert affine_regime(inst, x)[1].tolist() == [0, 1]
        tensor, err, frame = _tensor_coords_mc(inst, x, 2, MCBudget(8, 0))
        assert tensor.shape == (1, 1) and not tensor.any() and err == 0.0
        assert len(frame) == 1

    def test_order_outside_range(self):
        inst = abs_instance(params_deterministic(4, 2))
        for order in (0, 3):
            with pytest.raises(ValueError, match="order"):
                _tensor_coords_mc(inst, np.zeros(inst.params.d), order, MCBudget(100, 0))


def _tie_hessian(r: int, delta: float) -> np.ndarray:
    """Hessian of max(a_1.x + s_1, a_2.x + s_2), a_1 and a_2 orthonormal,
    smoothed twice over radius-delta balls of R^r, at a point where the two
    tie, in the coordinates of (a_1, a_2).

    The max is linear plus |c.x|/2 with c = e_1 - e_2, so the Hessian is
    dens(0) c c^T, dens being the density of c.(delta (v_1 + v_2)). A unit
    vector's coordinate on the uniform r-ball has density
    q(s) = C (1 - s^2)^((r - 1)/2), and the integral of q^2 is
    C^2 B(1/2, r).
    """
    const = math.gamma(r / 2 + 1) / (math.sqrt(math.pi) * math.gamma((r + 1) / 2))
    q2 = const**2 * math.sqrt(math.pi) * math.gamma(r) / math.gamma(r + 0.5)
    c = np.array([1.0, -1.0])
    return q2 / (math.sqrt(2.0) * delta) * np.outer(c, c)


def test_tie_client_answers_are_the_exact_tie():
    """Every answer after the first is a two-piece closed form (see
    _tie_client) at t = 0: its gradient is (a_1 + a_t) / (2 norm_denom)
    and its Hessian c c^T p_S(0) / (delta |c| norm_denom), c = a_t - a_1
    in the coordinates of its frame (a_1, a_t) and S the sum of two
    marginals of the T-ball, each within its reported error, which is
    below a millionth of the quantity and not zero."""
    oracle, _, answers = _tie_client()
    p = oracle.params
    final = oracle.instance
    a1 = final.pieces[0].a
    for t, resp in enumerate(answers[1:], start=2):
        assert resp.regime == MONTE_CARLO and resp.affine_index is None
        g_ref = (a1 + final.pieces[t - 1].a) / (2.0 * p.norm_denom)
        assert 0 < resp.gradient_error < 1e-6 * np.linalg.norm(g_ref)
        assert np.linalg.norm(resp.gradient - g_ref) <= resp.gradient_error
        hess = resp.hessian()
        norm = float(np.linalg.norm(hess.tensor))
        assert 0 < hess.error_bound < 1e-6 * norm
        exact = _tie_hessian(p.T, p.delta) / p.norm_denom
        assert np.linalg.norm(hess.tensor - exact) <= hess.error_bound
        assert resp.basis_matrix.tobytes() == final.piece_matrix[[0, t - 1]].tobytes()


# SHA-256 of the tie client's transcript (_tie_client, then finalize),
# written with every vector: the bytes of eight two-piece answers.
PINNED_TIE_TRANSCRIPT = "f66587c4772eebe14190976554c5e93f6714194fa574303d50f2e5dc19d3ba29"
# the same bytes with every event_e_margin value blanked (margins_masked)
PINNED_TIE_TRANSCRIPT_MASKED = "5b21f8ed1a1098896529768b8dde6e0924b0a2616758a20f68da080a8205d08e"


def _tie_transcript(tmp_path) -> bytes:
    oracle, _, _ = _tie_client()
    _, report = oracle.finalize()
    assert report.all_equal
    path = tmp_path / "tie.jsonl"
    oracle.transcript.to_jsonl(path, dump_vectors=True)
    return path.read_bytes()


def test_tie_client_transcript_bytes_pinned(tmp_path):
    assert hashlib.sha256(_tie_transcript(tmp_path)).hexdigest() == PINNED_TIE_TRANSCRIPT


def test_tie_client_transcript_bytes_but_margins_pinned(tmp_path):
    masked = margins_masked(_tie_transcript(tmp_path))
    assert hashlib.sha256(masked).hexdigest() == PINNED_TIE_TRANSCRIPT_MASKED


def _f64(v: float) -> bytes:
    return np.float64(v).tobytes()


@pytest.mark.parametrize("s", [0.37, 1e-3])
def test_rescaled_tie_answers_scale_every_field(s):
    # the tie client's queries sent to an oracle of the same seed at
    # rescale s: value, gradient and Hessian are the rescale-1 fields
    # times s and every error field times |s|, bit for bit; the frame is
    # unchanged and the rescaled run replays equal
    _, xs, answers = _tie_client()
    oracle = AdaptiveOracle(params_deterministic(9, 2), seed=0, rescale=s)
    for x, base in zip(xs, answers):
        resp = oracle.query(x)
        assert resp.affine_index == base.affine_index
        assert _f64(resp.value) == _f64(base.value * s)
        assert resp.gradient.tobytes() == (base.gradient * s).tobytes()
        assert _f64(resp.value_stderr) == _f64(base.value_stderr * abs(s))
        assert _f64(resp.gradient_error) == _f64(base.gradient_error * abs(s))
        (hess,), (ref,) = resp.higher, base.higher
        assert hess.order == ref.order == 2 and hess.is_zero == ref.is_zero
        assert _f64(hess.error_bound) == _f64(ref.error_bound * abs(s))
        if not ref.is_zero:
            assert hess.tensor.tobytes() == (ref.tensor * s).tobytes()
            assert resp.basis_matrix.tobytes() == base.basis_matrix.tobytes()
    assert sum(not resp.hessian().is_zero for resp in answers) == 8
    assert oracle.finalize()[1].all_equal


def test_tie_law_is_computed_once_and_reused_by_the_replay():
    # every tie answer asks _sum_law for its law: the queries miss once
    # per distinct key, and each replayed tie hits
    keys = []
    cached = evaluator._sum_law

    def recording(*args):
        keys.append(args)
        return cached(*args)

    cached.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "_sum_law", recording)
        oracle, _, _ = _tie_client()
        asked = len(keys)
        after_queries = cached.cache_info()
        _, report = oracle.finalize()
    assert report.all_equal
    queried, replayed = keys[:asked], keys[asked:]
    assert len(queried) == len(replayed) == oracle.params.T - 1
    assert after_queries.misses == len(set(queried)) < len(queried)
    after_replay = cached.cache_info()
    assert after_replay.misses == after_queries.misses
    assert after_replay.hits == after_queries.hits + len(replayed)


def _dyadic_tie(r: int, k: int) -> tuple[HardInstance, np.ndarray]:
    """r axis pieces in R^(r+1), smoothed over their span (T = r), shifts
    2 (1 - i/16) and delta = 1/64, at x = (1/4, 3/8, 0, ...): pieces 1 and
    2 tie exactly at 17/8 and the rest sit 1/2 or more below, out of
    reach."""
    params = InstanceParams(T=r, k=k, m=16, d=r + 1, gamma=2.0, delta=1.0 / 64.0, mode=DETERMINISTIC)
    inst = HardInstance.from_basis(params, OrthonormalBasis(np.eye(r + 1)[:r]))
    x = np.zeros(r + 1)
    x[:2] = 0.25, 0.375
    return inst, x


@pytest.mark.parametrize("r, excess, density", [(3, (9, 35), (3, 5)), (5, (50, 231), (5, 7))])
def test_two_piece_tie_pins_exact_rationals(r, excess, density):
    # at an exact tie S = S_1 + S_2 has E[S_+] and p_S(0) rational for odd
    # r; value, gradient and Hessian each hold them within their errors
    inst, x = _dyadic_tie(r, 2)
    values = piece_values(inst, x)
    assert values.shifted[0] == values.shifted[1] == 2.125
    assert contenders(inst, values).tolist() == [0, 1]
    resp = oracle_answer(inst, x)
    sigma = inst.params.delta * math.sqrt(2.0)
    assert abs(resp.value - (2.125 + sigma * excess[0] / excess[1])) <= resp.value_stderr
    assert np.linalg.norm(resp.gradient - (unit(r + 1, 0) + unit(r + 1, 1)) / 2) <= resp.gradient_error
    c = np.array([-1.0, 1.0])  # a_2 - a_1 in their frame (a_1, a_2)
    exact = np.outer(c, c) * (density[0] / density[1] / sigma)
    hess = resp.hessian()
    assert np.linalg.norm(hess.tensor - exact) <= hess.error_bound
    law, err = _sum_law(r, 2, 0.0, evaluator.TWO_PIECE_NODES)
    assert law[0] == 0.5 and err[0] == 0.0


def _two_piece_cases(k: int):
    """(name, instance, x) where exactly two pieces contend at k: on
    axis pieces (an identity frame, an exact lift) and on non-orthonormal
    custom pieces (a Gram-Schmidt frame), each at an exact tie (t = 0)
    and a near one (0 < t < k), and on a random orthonormal basis at a
    near tie (t about 0.3)."""
    inst, x = _two_piece_point(4, k, 0.0)
    yield "axes-tie", inst, x
    yield "axes-near", *_two_piece_point(4, k, 0.2)
    params = InstanceParams(T=4, k=k, m=16, d=5, gamma=2.0, delta=1.0 / 64.0, mode=DETERMINISTIC)
    directions = np.zeros((3, 5))
    directions[0, :2], directions[1, :2], directions[2, 2] = (0.6, 0.8), (0.8, 0.6), 1.0
    custom = HardInstance.custom(params, directions, [0.0, 0.0, -0.5])
    yield "custom-tie", custom, np.array([0.25, 0.25, 0.0, 0.0, 0.0])
    yield "custom-near", custom, np.array([0.25, 0.26, 0.0, 0.0, 0.0])
    rotated = audit_instance(4, k, 0)
    a, s = rotated.piece_matrix, rotated.piece_shifts
    gap = 0.3 * rotated.params.delta * math.sqrt(2.0)
    yield "rotated-near", rotated, 0.2 * a[0] + (0.2 + s[0] - s[1] - gap) * a[1]


def _hex(v) -> list[str] | str | None:
    if v is None:
        return None
    if np.ndim(v):
        return [float(e).hex() for e in np.ravel(v)]
    return float(v).hex()


def _two_piece_fields(inst: HardInstance, x: np.ndarray) -> dict:
    """Every field of the two-piece answer at x and every two-piece
    estimate there, as float.hex."""
    budget = MCBudget(1_000, 0)
    resp = oracle_answer(inst, x)
    got = {
        "value": _hex(resp.value),
        "value_stderr": _hex(resp.value_stderr),
        "gradient": _hex(resp.gradient),
        "gradient_error": _hex(resp.gradient_error),
        "higher": [[h.order, _hex(h.tensor), _hex(h.error_bound)] for h in resp.higher],
        "basis_matrix": _hex(resp.basis_matrix),
        "value_mc": _hex(smoothed_value_mc(inst, x, budget)),
        "gradient_mc": [_hex(v) for v in smoothed_gradient_mc(inst, x, budget)],
    }
    for order in range(1, inst.params.k + 1):
        got[f"tensor_mc_{order}"] = [_hex(v) for v in _tensor_coords_mc(inst, x, order, budget)]
    return got


# Every field of the two-piece answer and estimates at _two_piece_cases,
# as float.hex, one entry per case and k: tests/two_piece_bits.json.
PINNED_TWO_PIECE = json.loads((Path(__file__).parent / "two_piece_bits.json").read_text())


@pytest.mark.parametrize("k", [1, 2])
def test_two_piece_fields_pinned(k):
    for name, inst, x in _two_piece_cases(k):
        values = piece_values(inst, x)
        assert contenders(inst, values).tolist() == [0, 1]
        tie = values.shifted[0] == values.shifted[1]
        assert tie == name.endswith("-tie")
        assert _two_piece_fields(inst, x) == PINNED_TWO_PIECE[f"{name}-k{k}"], name


def _float_fields(resp) -> list:
    return [resp.value, resp.value_stderr, resp.gradient_error, *(h.error_bound for h in resp.higher)]


def test_float_fields_are_floats_in_every_regime():
    # exact, two-piece and sampled answers (T = 9, k = 2, seed 0) carry
    # every float field as a float, and so does the order-2 estimate's
    # error: an answer whose floats are read back from JSON has the bits
    # and the types of the fresh one, so mismatch, which compares types,
    # finds none
    oracle = AdaptiveOracle(params_deterministic(9, 2), seed=0, mc_samples=1_000)
    oracle.query(three_way_tie(oracle))
    answers = [rec.response for rec in oracle.transcript.records]
    assert [resp.affine_index is None for resp in answers] == [False, True, True]
    assert [len(resp.basis_matrix) for resp in answers[1:]] == [2, 3]  # two-piece, sampled
    for resp in answers:
        floats = _float_fields(resp)
        assert all(type(v) is float for v in floats)
        read = [json.loads(json.dumps(v)) for v in floats]
        higher = tuple(dataclasses.replace(h, error_bound=e) for h, e in zip(resp.higher, read[3:]))
        back = dataclasses.replace(
            resp, value=read[0], value_stderr=read[1], gradient_error=read[2], higher=higher
        )
        assert resp.mismatch(back) == ""
    final, _ = oracle.finalize()
    for rec in oracle.transcript.records:
        _, err, _ = _tensor_coords_mc(final, rec.x, 2, MCBudget(1_000, 0))
        assert type(err) is float


def _two_piece_point(r: int, k: int, u: float) -> tuple[HardInstance, np.ndarray]:
    """The r-piece instance of _dyadic_tie, and a point where piece 2 sits
    t sigma below piece 1, t = u sqrt(2) k: inside the tie band for u < 1,
    beyond the law of S (t >= k) for u >= 1/sqrt(2)."""
    inst, x = _dyadic_tie(r, k)
    x[1] -= u * k * 2.0 * inst.params.delta
    return inst, x


@given(st.integers(2, 12), st.sampled_from([1, 2]), st.floats(0.0, 0.999), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sampled_estimators_cover_the_two_piece_closed_form(r, k, u, seed):
    # the closed form is the truth the samplers estimate: each sampled
    # value, gradient and Hessian lies within 4 of its reported errors
    # (plus the closed form's own) of it. The samplers are called over the
    # contender frame, where the estimators would answer in closed form.
    inst, x = _two_piece_point(r, k, u)
    values = piece_values(inst, x)
    assert contenders(inst, values).tolist() == [0, 1]
    exact = oracle_answer(inst, x)
    assert exact.regime == MONTE_CARLO
    frame = contender_frame_at(inst, x)
    value, verr = smoothed_value_mc(inst, x, MCBudget(20_000, seed), contender_frame=frame)
    assert abs(value - exact.value) <= 4.0 * verr + exact.value_stderr
    grad, gerr = sampled_gradient(inst, x, MCBudget(20_000, seed))
    assert np.linalg.norm(grad - exact.gradient) <= 4.0 * gerr + exact.gradient_error
    if k == 2:
        hess, herr, _ = sampled_tensor_coords(inst, x, 2, MCBudget(20_000, seed))
        closed = exact.hessian()  # zero beyond t = k, both in the pair's frame
        tensor = np.zeros((2, 2)) if closed.is_zero else closed.tensor
        assert np.linalg.norm(hess - tensor) <= 4.0 * herr + closed.error_bound


@given(st.integers(2, 12), st.floats(0.0, 0.7))
@settings(max_examples=40, deadline=None)
def test_doubling_the_nodes_moves_no_output_beyond_its_error(r, u):
    inst, x = _two_piece_point(r, 2, u)
    base = oracle_answer(inst, x)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "TWO_PIECE_NODES", 2 * evaluator.TWO_PIECE_NODES)
        finer = oracle_answer(inst, x)
    assert abs(finer.value - base.value) <= base.value_stderr
    assert np.linalg.norm(finer.gradient - base.gradient) <= base.gradient_error
    hb, hf = base.hessian(), finer.hessian()
    assert np.linalg.norm(hf.tensor - hb.tensor) <= hb.error_bound


@pytest.mark.parametrize("k", [1, 2])
def test_two_piece_answer_on_the_abs_kink_is_the_uniform_sum_law(k):
    # r = 1: S is uniform on [-1, 1] (k = 1) or triangular on [-2, 2]
    # (k = 2). On |x_1| at x_1 = t delta, c = -2 and sigma = 2 delta, so
    # value and gradient are polynomials in t
    p = params_deterministic(4, k)
    inst = abs_instance(p)
    delta, denom = p.delta, p.norm_denom
    for t in (0.0, 0.3, 0.9, 1.5, 1.99):
        if t >= k:
            continue
        resp = oracle_answer(inst, t * delta * unit(p.d, 0))
        tail, excess = ((1 - t) / 2, (1 - t) ** 2 / 4) if k == 1 else ((2 - t) ** 2 / 8, (2 - t) ** 3 / 24)
        assert abs(resp.value - (t * delta + 2 * delta * excess) / denom) <= resp.value_stderr
        assert abs(resp.gradient[0] - (1 - 2 * tail) / denom) <= resp.gradient_error
        assert np.all(resp.gradient[1:] == 0.0)


@given(st.integers(1, 12), st.floats(0.05, 1.9))
@settings(max_examples=40, deadline=None)
def test_two_piece_law_is_self_consistent(r, t):
    # the tail, the excess and the density are three separate integrals;
    # d/dt E[(S - t)_+] = -P(S > t) and d/dt P(S > t) = -p_S(t) tie them
    h = 1e-4
    (tail, _, density), _ = _sum_law(r, 2, t, evaluator.TWO_PIECE_NODES)
    lo, _ = _sum_law(r, 2, t - h, evaluator.TWO_PIECE_NODES)
    hi, _ = _sum_law(r, 2, t + h, evaluator.TWO_PIECE_NODES)
    assert abs((lo[1] - hi[1]) / (2 * h) - tail) <= 1e-7
    assert abs((lo[0] - hi[0]) / (2 * h) - density) <= 1e-7 * max(density, 1.0)


def _reference_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


def _reference_marginal(r: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    half = math.pi / 2 if r % 2 == 0 else 1.0
    for n in range(2 + r % 2, r + 1, 2):
        half *= (n - 1) / n
    wallis = 2.0 * half
    cos2 = (1.0 - u) * (1.0 + u)
    cos = np.sqrt(cos2)
    integral, power = (u, cos2) if r % 2 else (np.arcsin(u), cos)
    for n in range(2 + r % 2, r + 1, 2):
        integral = power * u / n + (n - 1) / n * integral
        power = power * cos2
    tail = 0.5 - integral / wallis
    return tail, power / ((r + 1) * wallis) - u * tail, cos ** (r - 1) / wallis


def _graded_rule(a: float, b: float, r: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    knots = np.linspace(a, b, max(2, math.ceil(math.sqrt(r))) + 1)
    ratios = evaluator._GRADING_RATIO ** np.arange(evaluator._GRADED_ELEMENTS, 0, -1)
    edges = np.concatenate(
        [[a], a + (knots[1] - a) * ratios, knots[1:-1], b - (b - knots[-2]) * ratios[::-1], [b]]
    )
    nodes, weights = _reference_gauss_legendre(n)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half + half * nodes).ravel(), (half * weights).ravel()


def _convolved_law(r: int, t: float, n: int) -> np.ndarray:
    s, w = _graded_rule(t - 1.0, 1.0, r, n)
    tail, _, density = _reference_marginal(r, s)
    tail_2, excess_2, density_2 = _reference_marginal(r, t - s)
    between = w @ (density * ((1.0 - tail) - tail_2))
    law = [0.0, w @ (density * excess_2), w @ (density * density_2)]
    if t > 0.0:
        s, w = _graded_rule(-1.0, t - 1.0, r, n)
        tail, _, density = _reference_marginal(r, s)
        between += w @ (density * (1.0 - tail))
    law[0] = 0.5 - between
    return np.array(law)


@given(st.integers(1, 40), st.floats(0.0, 2.0, exclude_max=True))
@example(9, 0.0)
@example(1, 1e-12)
@example(40, 1.0)
@example(2, 2.0 - 1e-9)
@settings(max_examples=300, deadline=None)
def test_sum_law_is_the_per_rule_quadrature_bit_for_bit(r, t):
    # the reference is the quadrature as first written: each rule on its
    # own graded nodes, one marginal evaluation per interval and argument;
    # one grid for both rules and one marginal pass give the same bytes
    nodes = evaluator.TWO_PIECE_NODES
    coarse, fine = _convolved_law(r, t, nodes), _convolved_law(r, t, 2 * nodes)
    law, err = _sum_law(r, 2, t, nodes)
    assert law.tobytes() == fine.tobytes()
    assert err.tobytes() == np.abs(fine - coarse).tobytes()


@given(st.integers(1, 40), st.sampled_from([1, 2]), st.floats(0.0, 1.0))
@example(9, 2, 0.0)
@example(4, 1, 1.0)
@settings(max_examples=60, deadline=None)
def test_cached_sum_law_is_the_computation_read_only(r, k, u):
    # the cache hands out the law as computed, bit for bit, in arrays that
    # refuse writes; a doubled node count is a key of its own, so raising
    # TWO_PIECE_NODES asks for the finer rule, not the cached one
    t = u * k
    nodes = evaluator.TWO_PIECE_NODES
    _sum_law.cache_clear()
    for n in (nodes, 2 * nodes):
        law, err = _sum_law(r, k, t, n)
        reference = _sum_law.__wrapped__(r, k, t, n)
        assert (law.tobytes(), err.tobytes()) == tuple(a.tobytes() for a in reference)
        assert _sum_law(r, k, t, n)[0] is law
        for array in (law, err):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
    assert _sum_law.cache_info().currsize == 2


@pytest.mark.parametrize("k", [1, 2])
def test_two_piece_errors_are_nonzero_and_small(k):
    # up to t = 0.99 k: beyond t = k the Hessian is the zero tensor
    for u in (0.0, 1e-9, 0.01, 0.3, 0.7 / math.sqrt(2.0)):
        inst, x = _two_piece_point(4, k, u)
        resp = oracle_answer(inst, x)
        fields = [(resp.value, resp.value_stderr), (np.linalg.norm(resp.gradient), resp.gradient_error)]
        if k == 2:
            hess = resp.hessian()
            fields.append((np.linalg.norm(hess.tensor), hess.error_bound))
        for quantity, error in fields:
            assert 0 < error <= 1e-9 * quantity + 1e-14


def test_two_piece_beyond_the_law_is_the_top_piece():
    # contenders need only be within 2 k delta; with nearly parallel
    # directions (|c| small) t passes k, where S cannot reach: the answer
    # is piece 1 itself, with a zero Hessian
    params = InstanceParams(T=2, k=2, m=2, d=3, gamma=0.1, delta=0.01, mode=DETERMINISTIC)
    a2 = np.array([1.0, 0.01, 0.0]) / math.hypot(1.0, 0.01)
    inst = HardInstance.custom(params, np.vstack([unit(3, 0), a2]), np.array([0.05, 0.05]))
    x = np.array([0.3, -0.5, 0.0])
    values = piece_values(inst, x)
    pair = contenders(inst, values)
    assert pair.tolist() == [0, 1]
    resp = regime_answer(inst, x, values, pair)
    assert resp.value == values.shifted[0]
    np.testing.assert_allclose(resp.gradient, unit(3, 0), atol=1e-15)
    assert resp.hessian().is_zero and resp.basis_matrix is None


@pytest.mark.parametrize("k", [1, 2])
def test_identical_directions_answer_the_shared_piece(k):
    # a custom instance may repeat a direction: c = 0, so the smoothing
    # sees one affine function, the top piece, whose Hessian is zero
    params = InstanceParams(T=2, k=k, m=2, d=3, gamma=0.1, delta=0.01, mode=DETERMINISTIC)
    a = np.array([0.6, 0.8, 0.0])
    for shifts in ([0.05, 0.05], [0.05, 0.05 - params.delta], [0.05 - params.delta, 0.05]):
        inst = HardInstance.custom(params, np.vstack([a, a]), np.array(shifts))
        assert len(inst.basis) == 1
        x = np.array([0.1, -0.2, 0.3])
        values = piece_values(inst, x)
        assert contenders(inst, values).tolist() == [0, 1]
        resp = oracle_answer(inst, x)
        assert resp.regime == MONTE_CARLO
        assert resp.value == values.shifted.max()
        assert 0 < resp.gradient_error and np.linalg.norm(resp.gradient - a) <= resp.gradient_error
        assert [h.is_zero for h in resp.higher] == [True] * (k - 1)
        assert resp.basis_matrix is None
        frame = contender_frame_at(inst, x)  # sampled, not the closed form again
        est, se = smoothed_value_mc(inst, x, MCBudget(4_000, 1), contender_frame=frame)
        assert abs(est - resp.value) <= 4.0 * se + resp.value_stderr


class TestMonteCarloAnswer:
    """A sampled answer: three or more contenders, or k >= 3."""

    def test_answer_is_the_estimators_one_by_one(self):
        # a three-way tie answered on the oracle's own budget, and the same
        # point answered directly: the bits of the three estimators called
        # in turn on the answer's child seeds
        p = params_deterministic(9, 2)
        oracle = AdaptiveOracle(p, seed=0, mc_samples=20_000)
        x = three_way_tie(oracle)
        answer = oracle.query(x)
        inst, denom = oracle.instance, p.norm_denom
        assert len(contenders(inst, piece_values(inst, x))) == 3
        budget = MCBudget(20_000, child_seed(0, "mc", 3))
        seed, n = budget.seed, budget.n_samples
        value, stderr = smoothed_value_mc(inst, x, MCBudget(n, child_seed(seed, "value")))
        grad, gerr, frame = _tensor_coords_mc(inst, x, 1, MCBudget(2 * n, child_seed(seed, "gradient")))
        hess, herr, _ = _tensor_coords_mc(inst, x, 2, MCBudget(2 * n, child_seed(seed, "tensor", 2)))
        for resp in (monte_carlo_answer(inst, x, budget, contender_frame_at(inst, x)), answer):
            assert resp.regime == MONTE_CARLO
            assert np.float64(resp.value).tobytes() == np.float64(value / denom).tobytes()
            assert np.float64(resp.value_stderr).tobytes() == np.float64(stderr / denom).tobytes()
            assert resp.gradient.tobytes() == (frame.T @ grad / denom).tobytes()
            assert np.float64(resp.gradient_error).tobytes() == np.float64(gerr / denom).tobytes()
            assert resp.hessian().tensor.tobytes() == (hess / denom).tobytes()
            assert np.float64(resp.hessian().error_bound).tobytes() == np.float64(herr / denom).tobytes()

    def test_pieces_evaluated_once_per_sampled_answer(self, monkeypatch):
        # the regime test's piece values also build the one contender frame
        # that the value, gradient and Hessian estimates share; each piece
        # is evaluated at x once: the query evaluates the 2 revealed pieces,
        # the answer only the new third, given the first two
        oracle = AdaptiveOracle(params_deterministic(9, 2), seed=0, mc_samples=2_000)
        x = three_way_tie(oracle)
        calls = []
        real = evaluator.piece_values

        def counting(instance, x, coords=None):
            calls.append((len(instance.piece_matrix), None if coords is None else len(coords)))
            return real(instance, x, coords)

        monkeypatch.setattr(evaluator, "piece_values", counting)
        monkeypatch.setattr(oracles, "piece_values", counting)
        answer = oracle.query(x)
        assert calls == [(2, None), (3, 2)]
        assert answer.regime == MONTE_CARLO and len(contenders(oracle.instance, real(oracle.instance, x))) == 3

    def test_value_error_wins(self, monkeypatch, plane_instance):
        # the value is estimated first: its error is raised, and no
        # derivative is estimated
        calls = []

        def failing(*args, **kwargs):
            calls.append("value")
            raise RuntimeError("value estimate failed")

        def derivative(*args, **kwargs):
            calls.append("derivative")
            raise RuntimeError("derivative estimate failed")

        monkeypatch.setattr(evaluator, "smoothed_value_mc", failing)
        monkeypatch.setattr(evaluator, "_sampled_tensor_coords", derivative)
        with pytest.raises(RuntimeError, match="^value estimate failed$"):
            x = np.array([0.3, 0.35, 0.0])
            monte_carlo_answer(plane_instance, x, MCBudget(400, 0), contender_frame_at(plane_instance, x))
        assert calls == ["value"]


class TestOracleAnswer:
    def test_fresh_instance_origin(self):
        p = params_deterministic(4, 2)
        a1 = stream(8, "dir").standard_normal(p.d)
        a1 /= np.linalg.norm(a1)
        inst = HardInstance.from_basis(p, OrthonormalBasis(a1[None, :]))
        resp = oracle_answer(inst, np.zeros(p.d))
        assert resp.regime == EXACT_AFFINE and resp.affine_index == 1
        assert resp.value == (1.0 - 1.0 / p.m) * p.gamma / p.norm_denom
        np.testing.assert_array_equal(resp.gradient, a1 / p.norm_denom)
        assert resp.value_stderr == 0.0 and resp.gradient_error == 0.0
        assert [h.order for h in resp.higher] == [2]
        assert all(h.is_zero for h in resp.higher)
        assert np.linalg.norm(resp.gradient) * p.norm_denom == pytest.approx(1.0, abs=1e-12)

    def test_tie_answers_monte_carlo(self, plane_instance):
        resp = oracle_answer(plane_instance, np.array([0.3, 0.35, 0.0]), budget=MCBudget(4_000, 1))
        assert resp.regime == MONTE_CARLO
        assert resp.value_stderr > 0
        assert resp.affine_index is None

    def test_gradient_lies_in_span(self, plane_instance):
        resp = oracle_answer(plane_instance, np.array([0.25, 0.30, 0.0]), budget=MCBudget(4_000, 2))
        residual = perp_component(resp.gradient, plane_instance.basis)
        assert np.linalg.norm(residual) <= 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_short_budgets_refused_at_a_three_way_tie_before_any_draw(self, k):
        # a sampled answer of order k needs n_samples >= max(2, 2^k): the
        # value's two draws, and order k's two draws of 2^k evaluations out
        # of its 2 n_samples; every shorter budget is refused before any
        # stream is drawn from, one sample by the value's gate
        inst = _lattice_instance(k)
        x = np.array([0.25, 0.3125, 0.375, 0.0])
        assert contenders(inst, piece_values(inst, x)).tolist() == [0, 1, 2]
        least = max(2, 2**k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluator, "stream", _refuse_work)
            for n in range(1, least):
                with pytest.raises(ValueError, match=f"n_samples >= {2 if n == 1 else 2 ** (k + 1)} "):
                    oracle_answer(inst, x, budget=MCBudget(n, 0))
        resp = oracle_answer(inst, x, budget=MCBudget(least, 0))
        assert resp.regime == MONTE_CARLO and np.isfinite(resp.value)
        assert [h.order for h in resp.higher] == list(range(2, k + 1))

    def test_two_piece_tie_takes_no_budget(self, plane_instance):
        # two contenders are answered in closed form: the budget is never
        # called, so no sample count is checked
        def refuse():
            raise AssertionError("budget derived")

        resp = oracle_answer(plane_instance, np.array([0.3, 0.35, 0.0]), budget=refuse)
        assert resp.regime == MONTE_CARLO and resp.value_stderr > 0

    def test_unnormalized_exact_gradient_is_the_piece_row(self):
        # norm_denom 1 (randomized mode): the gradient is the frozen row,
        # not a copy of it
        p = params_randomized(4, 1, 0.2)
        oracle = RandomizedOracle(p, seed=12)
        row = oracle.instance.basis.matrix[0]
        resp = oracle.query(0.3 * row)
        assert resp.regime == EXACT_AFFINE and resp.affine_index == 1
        assert not resp.gradient.flags.writeable
        assert np.shares_memory(resp.gradient, row)
        assert resp.gradient.tobytes() == row.tobytes()
        # deterministic mode divides by norm_denom > 1, bits unchanged
        det = AdaptiveOracle(params_deterministic(9, 1), seed=1)
        resp = det.query(np.zeros(det.params.d))
        a = det.instance.pieces[0].a
        assert det.params.norm_denom > 1.0
        assert resp.gradient.tobytes() == (a / det.params.norm_denom).tobytes()
        assert not np.shares_memory(resp.gradient, a)
        x = np.zeros(det.params.d)
        values, keep = affine_regime(det.instance, x)
        assert regime_answer(det.instance, x, values, keep).gradient.tobytes() == resp.gradient.tobytes()

    def test_infeasible_query(self, plane_instance):
        with pytest.raises(ValueError, match="unit ball"):
            oracle_answer(plane_instance, np.array([1.5, 0.0, 0.0]))

    def test_hessian_ambient_symmetric(self):
        params = InstanceParams(
            T=2, k=2, m=2, d=3, gamma=0.1, delta=0.005, mode=DETERMINISTIC
        )
        basis = OrthonormalBasis(np.vstack([unit(3, 0), unit(3, 1)]))
        inst = HardInstance.from_basis(params, basis)
        resp = oracle_answer(inst, np.array([0.3, 0.35, 0.0]), budget=MCBudget(2_000, 3))
        b = resp.basis_matrix
        hess = b.T @ resp.hessian().tensor @ b
        assert hess.shape == (3, 3)
        np.testing.assert_allclose(hess, hess.T, atol=1e-12)
        # invariant subspace excludes e3
        np.testing.assert_allclose(hess @ unit(3, 2), np.zeros(3), atol=1e-12)

    def test_third_order_tensor_estimated(self):
        params = InstanceParams(
            T=2, k=3, m=2, d=3, gamma=0.1, delta=0.005, mode=DETERMINISTIC
        )
        basis = OrthonormalBasis(np.vstack([unit(3, 0), unit(3, 1)]))
        inst = HardInstance.from_basis(params, basis)
        # one delta off the tie: inside the 2*k*delta band, third derivative non-zero
        resp = oracle_answer(inst, np.array([0.3, 0.345, 0.0]), budget=MCBudget(500, 4))
        assert resp.regime == MONTE_CARLO
        orders = {h.order: h for h in resp.higher}
        assert set(orders) == {2, 3}
        cubic = orders[3]
        assert not cubic.is_zero
        assert cubic.tensor.shape == (2, 2, 2)
        assert np.all(np.isfinite(cubic.tensor))
        # symmetrized over axis permutations
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            np.testing.assert_allclose(cubic.tensor, np.transpose(cubic.tensor, perm), atol=1e-9)
        assert cubic.error_bound > orders[2].error_bound
        # at the exact tie the smoothed function minus its tangent plane is
        # even, so the third derivative vanishes and the sign flips of each
        # draw cancel it
        tie = oracle_answer(inst, np.array([0.3, 0.35, 0.0]), budget=MCBudget(500, 4))
        assert np.abs(tie.higher[1].tensor).max() <= 1e-6
    def test_scaled_response(self, plane_instance):
        resp = oracle_answer(plane_instance, np.array([0.5, 0.0, 0.0]))
        scaled = resp.scaled(0.25)
        assert scaled.value == 0.25 * resp.value
        np.testing.assert_array_equal(scaled.gradient, 0.25 * resp.gradient)
        assert scaled.regime == resp.regime
        assert resp.scaled(1.0) is resp

    def test_json_serialization_carries_regime_and_errors(self, plane_instance):
        # what a transcript row is written from: the regime, which follows
        # from affine_index, and the reported errors
        resp = oracle_answer(plane_instance, np.array([0.3, 0.35, 0.0]), budget=MCBudget(2_000, 9))
        assert resp.regime == MONTE_CARLO and resp.affine_index is None
        assert resp.value_stderr > 0 and resp.gradient_error > 0
        assert resp.gradient.shape == (3,)
        exact = oracle_answer(plane_instance, np.array([0.5, 0.0, 0.0]))
        assert exact.regime == EXACT_AFFINE and exact.affine_index == 1


class TestRescale:
    def test_k1_t4(self):
        assert rescale_to_smoothness(1.0, 1, 4) == pytest.approx(0.003125, rel=1e-15)

    def test_inverse_scaling(self):
        L = (10.0 * 2) ** 2 * 9.0**5
        assert rescale_to_smoothness(L, 2, 9) == pytest.approx(1.0, rel=1e-12)

    def test_floor_combination(self):
        s = rescale_to_smoothness(1.0, 1, 4)
        assert s / (2.0 * math.sqrt(4)) == 0.00078125

    def test_positive_target_required(self):
        with pytest.raises(ValueError):
            rescale_to_smoothness(0.0, 1, 4)


class TestSuboptimalityCertificate:
    def test_first_query_level(self):
        # any x with f_tilde(x) >= (1 - 1/T) gamma clears the documented level
        inst = audit_instance(4, 1)
        p = inst.params
        x = np.zeros(p.d)  # f_tilde(0) = (3/4) gamma
        cert = suboptimality_certificate(inst, x)
        level = ((3.0 / 4.0) * p.gamma - p.k * p.delta + 0.5 - p.gamma - 2 * p.k * p.delta) / p.norm_denom
        assert level == pytest.approx(0.3704, abs=2e-4)
        assert cert >= level
        assert cert >= 0.25

    def test_near_zero_at_witness(self):
        inst = audit_instance(4, 1)
        p = inst.params
        xhat, _ = pessimal_point(inst)
        cert = suboptimality_certificate(inst, xhat)
        assert cert <= 2 * p.k * p.delta * (1.0 + 1.0 / p.norm_denom) + 1e-9

    def test_nonnegative_f_tilde_level_t9_k2(self):
        inst = audit_instance(9, 2)
        p = inst.params
        x = np.zeros(p.d)
        assert piece_values(inst, x).f_tilde >= 0.0
        cert = suboptimality_certificate(inst, x)
        floor_for_nonneg = (1.0 / 3.0 - 1.0 / 9.0 - 4.0 / 486.0) / p.norm_denom
        assert floor_for_nonneg == pytest.approx(0.195, abs=1e-3)
        assert cert >= floor_for_nonneg >= 1.0 / 6.0

    def test_requires_completed_instance(self):
        p = params_deterministic(4, 1)
        inst = HardInstance.from_basis(p, OrthonormalBasis(unit(p.d, 0)[None, :]))
        with pytest.raises(ValueError, match="completed"):
            suboptimality_certificate(inst, np.zeros(p.d))
        assert suboptimality_certificate(inst, np.zeros(p.d), allow_partial=True) > 0


class TestFunctionProperties:
    def test_subspace_invariance_exact_pairs(self):
        inst = audit_instance(4, 1)
        rng = stream(21, "inv")
        for _ in range(10):
            x = rng.standard_normal(inst.params.d)
            x /= 2.0 * np.linalg.norm(x)
            y = perp_component(rng.standard_normal(inst.params.d), inst.basis)
            y = perp_component(y, inst.basis)
            y *= 0.3 / np.linalg.norm(y)
            ia = locally_affine_index(inst, x)
            ib = locally_affine_index(inst, x + y)
            if ia is None or ib is None:
                continue
            assert ia == ib
            va = piece_values(inst, x).f_tilde
            vb = piece_values(inst, x + y).f_tilde
            assert abs(va - vb) <= 1e-10

    def test_subspace_invariance_monte_carlo_pair(self, plane_instance):
        x = np.array([0.25, 0.30, 0.0])
        y = np.array([0.0, 0.0, 0.4])  # orthogonal to the piece span
        va, ea = smoothed_value_mc(plane_instance, x, MCBudget(40_000, 31))
        vb, eb = smoothed_value_mc(plane_instance, x + y, MCBudget(40_000, 32))
        assert abs(va - vb) <= 6.0 * math.sqrt(ea * ea + eb * eb)

    def test_sandwich_against_f_tilde(self):
        inst = audit_instance(9, 2)
        p = inst.params
        rng = stream(5, "sandwich")
        for _ in range(50):
            x = rng.standard_normal(p.d)
            x /= max(1.0, np.linalg.norm(x))
            est, se = smoothed_value_mc(inst, x, MCBudget(2_000, int(rng.integers(2**31))))
            ft = piece_values(inst, x).f_tilde
            assert est <= ft + p.k * p.delta + 3 * se
            # smoothing a convex max cannot decrease it; 4 sigma across 50 draws
            assert est >= ft - 4 * se

    def test_value_lipschitz_pairs(self):
        inst = audit_instance(4, 1)
        rng = stream(6, "lip")
        for trial in range(20):
            x = rng.standard_normal(inst.params.d)
            x /= max(1.0, np.linalg.norm(x))
            y = rng.standard_normal(inst.params.d)
            y /= max(1.0, np.linalg.norm(y))
            dist = np.linalg.norm(x - y)
            if dist < 10 * inst.params.delta:
                continue
            vx, ex = smoothed_value_mc(inst, x, MCBudget(4_000, 2 * trial))
            vy, ey = smoothed_value_mc(inst, y, MCBudget(4_000, 2 * trial + 1))
            assert abs(vx - vy) <= dist + 3 * (ex + ey)
