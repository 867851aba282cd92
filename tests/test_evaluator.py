import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resistor import evaluator
from resistor.evaluator import (
    EXACT_AFFINE,
    MONTE_CARLO,
    MCBudget,
    _tensor_coords_mc,
    contenders,
    exact_answer,
    locally_affine_index,
    monte_carlo_answer,
    oracle_answer,
    piece_values,
    rescale_to_smoothness,
    smoothed_gradient_mc,
    smoothed_value_mc,
    suboptimality_certificate,
)
from resistor.geometry import OrthonormalBasis, perp_component
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

from conftest import abs_instance, dense_tensor_coords_mc, dense_value_mc, fd_gradient_crn, unit


class TestPieceValues:
    def test_origin(self, plane_instance):
        pv = piece_values(plane_instance, np.zeros(3))
        assert pv.f_tilde == pytest.approx(0.05, rel=1e-15)  # (1 - 1/m) gamma
        assert int(np.argmax(pv.shifted)) == 0

    def test_pessimal_linear_value(self):
        inst = audit_instance(9, 2)
        xhat, _ = pessimal_point(inst)
        pv = piece_values(inst, xhat)
        assert pv.f_linear == pytest.approx(-1.0 / 3.0, abs=1e-10)

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
        chain.append(append_piece(chain[-1], x / np.linalg.norm(x), stream(seed, "piece", t)))
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
            inst = append_piece(inst, x / np.linalg.norm(x), stream(seed, "piece", t))
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
        a = inst.basis.lift(rng.standard_normal(inst.smoothing_dim))
        a /= np.linalg.norm(a)
        shift = values.shifted.max() - a @ x - band - gap
        bigger = HardInstance.custom(params, np.vstack([rows, a]), np.append(np.zeros(r), shift))
        assert bigger.smoothing_dim == inst.smoothing_dim
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
    # Two contenders out of r = 9 pieces. Over fixed seeds the estimates
    # agree with the full-span estimator within 4 combined errors, and the
    # gradient and Hessian errors are no larger (Rao-Blackwell). The value
    # estimator has the same law either way, so its standard error agrees
    # only up to sampling noise.
    oracle, xs, _ = _tie_client()
    inst, x = oracle.instance, xs[t - 1]
    assert len(contenders(inst, piece_values(inst, x))) == 2 and inst.smoothing_dim == 9
    for seed in range(4):
        budget = MCBudget(20_000, seed)
        value, verr = smoothed_value_mc(inst, x, budget)
        ref, ref_err = dense_value_mc(inst, x, budget)
        assert abs(value - ref) <= 4 * math.hypot(verr, ref_err)
        assert verr <= 1.05 * ref_err
        for order in (1, 2):
            tensor, err = _tensor_coords_mc(inst, x, order, budget)
            ref, ref_err = dense_tensor_coords_mc(inst, x, order, budget)
            assert np.linalg.norm(tensor - ref) <= 4 * math.hypot(err, ref_err)
            assert err <= ref_err


# oracle_answer on the lattice instance (k = 2) at x = (1/4, 5/16, 0, 0),
# where pieces 1 and 2 tie and piece 3 sits 3/8 below, out of reach:
# MCBudget(1_000, 7), every field as float.hex.
PINNED_ANSWER = {
    "value": "0x1.c5aca11fe10b6p-2",
    "value_stderr": "0x1.0756ba24c4419p-12",
    "gradient": ["0x1.fe31b246207bap-2", "0x1.ff89609d983d7p-2", "0x0.0p+0", "0x0.0p+0"],
    "gradient_error": "0x1.2e363dbe8231cp-5",
    "hessian": [
        "0x1.75ebbd549fc51p+4", "-0x1.906dfcee6e4eap+4", "0x0.0p+0",
        "-0x1.906dfcee6e4eap+4", "0x1.8870c77daf9f5p+4", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ],
    "hessian_error": "0x1.32c7a1a7699e8p+2",
}


def test_pruned_answer_bits_pinned():
    inst = _lattice_instance(2)
    x = np.array([0.25, 0.3125, 0.0, 0.0])
    values = piece_values(inst, x)
    assert values.shifted.tolist() == [0.4375, 0.4375, 0.0625]
    assert contenders(inst, values).tolist() == [0, 1]
    resp = oracle_answer(inst, x, budget=MCBudget(1_000, 7))
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
    assert np.all(hess.tensor[2] == 0.0) and np.all(hess.tensor[:, 2] == 0.0)


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


class TestSmoothedValue:
    def test_one_piece_unbiased(self):
        p = params_deterministic(4, 1)
        inst = HardInstance.from_basis(p, OrthonormalBasis(unit(p.d, 0)[None, :]))
        x = 0.4 * unit(p.d, 0) - 0.2 * unit(p.d, 1)
        exact = piece_values(inst, x).f_tilde
        est, se = smoothed_value_mc(inst, x, MCBudget(20_000, 5))
        assert se > 0
        assert abs(est - exact) <= 4 * se

    def test_abs_kink_half_delta(self):
        p = params_deterministic(4, 1)
        inst = abs_instance(p)
        est, se = smoothed_value_mc(inst, np.zeros(p.d), MCBudget(100_000, 11))
        assert abs(est - p.delta / 2.0) <= 3 * se

    def test_exact_path_consistency(self, plane_instance):
        x = np.array([0.5, 0.0, 0.0])
        idx = locally_affine_index(plane_instance, x)
        assert idx == 1
        closed = piece_values(plane_instance, x).shifted[idx - 1]
        est, se = smoothed_value_mc(plane_instance, x, MCBudget(30_000, 2))
        assert abs(est - closed) <= 3 * se

    def test_one_sample_refused(self, plane_instance):
        # one sample has no standard error; it must not report 0
        x = np.array([0.3, 0.35, 0.0])
        with pytest.raises(ValueError, match="n_samples >= 2"):
            smoothed_value_mc(plane_instance, x, MCBudget(1, 0))
        assert smoothed_value_mc(plane_instance, x, MCBudget(2, 0))[1] > 0

    def test_deterministic_given_budget(self, plane_instance):
        x = np.array([0.3, 0.35, 0.0])
        a = smoothed_value_mc(plane_instance, x, MCBudget(5_000, 9))
        b = smoothed_value_mc(plane_instance, x, MCBudget(5_000, 9))
        assert a == b


class TestSmoothedGradient:
    def test_affine_region_recovers_direction(self, plane_instance):
        x = np.array([0.5, 0.0, 0.0])
        g, err = smoothed_gradient_mc(plane_instance, x, MCBudget(60_000, 3))
        assert np.linalg.norm(g - unit(3, 0)) <= 3 * err

    def test_abs_kink_symmetry_gives_zero(self):
        p = params_deterministic(4, 1)
        inst = abs_instance(p)
        g, _ = smoothed_gradient_mc(inst, np.zeros(p.d), MCBudget(20_000, 4))
        assert np.linalg.norm(g) <= 1e-12

    def test_matches_value_finite_differences_near_tie(self, plane_instance):
        x = np.array([0.25, 0.30, 0.0])  # exact tie of both pieces
        g, gerr = smoothed_gradient_mc(plane_instance, x, MCBudget(200_000, 6))
        h = plane_instance.params.delta / 1000.0
        fd, fderr = fd_gradient_crn(plane_instance, x, h, 200_000, seed=60)
        r = plane_instance.smoothing_dim
        trunc = math.sqrt(r) * (r / plane_instance.params.delta) * h / 2.0
        assert np.linalg.norm(g - fd) <= 3.0 * (gerr + fderr) + trunc


# smoothed_gradient_mc on the two-piece plane instance (delta 0.005) at the
# tie x = (0.3, 0.35, 0), MCBudget(1_000, 7): coordinates and error as
# float.hex. The pieces are the coordinate axes, so the projections are
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
    g, err = smoothed_gradient_mc(inst, np.array([0.3, 0.35, 0.0]), MCBudget(1_000, 7))
    coords, error = PINNED_GRADIENTS[k]
    assert [float(v).hex() for v in g] == coords
    assert float(err).hex() == error


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
            tensor, err = _tensor_coords_mc(inst, x, 2, MCBudget(400, t))
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
        assert smoothed_gradient_mc(plane_instance, x, MCBudget(4, 0))[1] > 0
        params = InstanceParams(
            T=2, k=3, m=2, d=3, gamma=0.1, delta=0.001, mode=DETERMINISTIC, norm_denom=1.0
        )
        inst = HardInstance.from_basis(params, plane_instance.basis)
        for order, minimum in ((1, 4), (2, 8), (3, 16)):
            with pytest.raises(ValueError, match=f"n_samples >= {minimum}"):
                _tensor_coords_mc(inst, x, order, MCBudget(minimum - 1, 0))
            assert np.isfinite(_tensor_coords_mc(inst, x, order, MCBudget(minimum, 0))[1])

    def test_order_outside_range(self):
        inst = abs_instance(params_deterministic(4, 2))
        for order in (0, 3):
            with pytest.raises(ValueError, match="order"):
                _tensor_coords_mc(inst, np.zeros(inst.params.d), order, MCBudget(100, 0))


def _tie_hessian(r: int, delta: float) -> np.ndarray:
    """Hessian of max(a_1.x + s_1, a_r.x + s_r), a_i the basis axes, smoothed
    twice over radius-delta balls of R^r, at a point where the two tie.

    The max is linear plus |c.x|/2 with c = e_1 - e_r, so the Hessian is
    dens(0) c c^T, dens being the density of c.(delta (v_1 + v_2)). A unit
    vector's coordinate on the uniform r-ball has density
    q(s) = C (1 - s^2)^((r - 1)/2), and the integral of q^2 is
    C^2 B(1/2, r).
    """
    const = math.gamma(r / 2 + 1) / (math.sqrt(math.pi) * math.gamma((r + 1) / 2))
    q2 = const**2 * math.sqrt(math.pi) * math.gamma(r) / math.gamma(r + 0.5)
    c = np.zeros(r)
    c[0], c[-1] = 1.0, -1.0
    return q2 / (math.sqrt(2.0) * delta) * np.outer(c, c)


def test_tie_client_hessians_have_useful_honest_errors():
    """Every answer after the first is Monte Carlo with a closed-form
    Hessian (see _tie_client). Each reported error must be below a tenth
    of the Hessian's norm and cover the distance to the closed form."""
    oracle, _, answers = _tie_client()
    p = oracle.params
    for t, resp in enumerate(answers[1:], start=2):
        assert resp.regime == MONTE_CARLO
        hess = resp.hessian()
        norm = float(np.linalg.norm(hess.tensor))
        assert hess.error_bound < 0.1 * norm
        exact = _tie_hessian(t, p.delta) / p.norm_denom
        assert np.linalg.norm(hess.tensor - exact) <= 3.0 * hess.error_bound


class TestMonteCarloAnswerThreads:
    """The value estimate runs on a helper thread beside the derivatives."""

    def test_answer_is_the_estimators_one_by_one(self):
        # the t = 9 tie of the tie client, answered with 100k samples on
        # the oracle's own budget: the same bits as the three estimators
        # called in turn on the answer's child seeds
        oracle, xs, answers = _tie_client()
        inst, x, denom = oracle.instance, xs[8], oracle.params.norm_denom
        budget = MCBudget(100_000, child_seed(0, "mc", 9))
        seed, n = budget.seed, budget.n_samples
        value, stderr = smoothed_value_mc(inst, x, MCBudget(n, child_seed(seed, "value")))
        grad, gerr = _tensor_coords_mc(inst, x, 1, MCBudget(2 * n, child_seed(seed, "gradient")))
        hess, herr = _tensor_coords_mc(inst, x, 2, MCBudget(2 * n, child_seed(seed, "tensor", 2)))
        for resp in (monte_carlo_answer(inst, x, budget=budget), answers[8]):
            assert resp.regime == MONTE_CARLO
            assert np.float64(resp.value).tobytes() == np.float64(value / denom).tobytes()
            assert np.float64(resp.value_stderr).tobytes() == np.float64(stderr / denom).tobytes()
            assert resp.gradient.tobytes() == (inst.basis.lift(grad) / denom).tobytes()
            assert np.float64(resp.gradient_error).tobytes() == np.float64(gerr / denom).tobytes()
            assert resp.hessian().tensor.tobytes() == (hess / denom).tobytes()
            assert np.float64(resp.hessian().error_bound).tobytes() == np.float64(herr / denom).tobytes()

    def test_helper_error_raised_in_caller(self, monkeypatch, plane_instance):
        baseline = threading.active_count()
        caller = threading.get_ident()
        raised_on = []

        def failing(*args):
            raised_on.append(threading.get_ident())
            raise RuntimeError("value estimate failed")

        monkeypatch.setattr(evaluator, "smoothed_value_mc", failing)
        with pytest.raises(RuntimeError, match="^value estimate failed$"):
            oracle_answer(plane_instance, np.array([0.3, 0.35, 0.0]), budget=MCBudget(400, 0))
        assert len(raised_on) == 1 and raised_on[0] != caller
        assert threading.active_count() == baseline

    def test_exact_answers_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        report = run_experiment(RunConfig(mode=DETERMINISTIC, T=25, k=1, method="psg", seed=0))
        assert report.passed and len(report.rows) == 25
        assert {row.regime for row in report.rows} == {EXACT_AFFINE}
        assert started == []


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

    def test_one_sample_budget_refused_near_tie(self, plane_instance):
        with pytest.raises(ValueError, match="n_samples >= 2"):
            oracle_answer(plane_instance, np.array([0.3, 0.35, 0.0]), budget=MCBudget(1, 0))

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
        values = piece_values(det.instance, np.zeros(det.params.d))
        assert exact_answer(det.instance, values, 1).gradient.tobytes() == resp.gradient.tobytes()

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
