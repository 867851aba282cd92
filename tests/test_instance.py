import dataclasses
import json
import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resistor import geometry
from resistor import instance as instance_module
from resistor.evaluator import MCBudget, smoothed_value_mc
from resistor.geometry import OrthonormalBasis
from resistor.instance import (
    QUERY_NORM_SLACK,
    HardInstance,
    check_in_ball,
    append_piece,
    from_json,
    params_deterministic,
    params_randomized,
    pessimal_point,
    randomized_dimension,
    shift_of,
    to_json,
    validate,
)
from resistor.oracles import AdaptiveOracle, RandomizedOracle
from resistor.streams import stream

from conftest import unit


class TestDeterministicParams:
    def test_schedule_t9_k2(self):
        p = params_deterministic(9, 2)
        assert p.gamma == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert p.delta == pytest.approx(1.0 / 486.0, rel=1e-15)
        assert 2 * p.k * p.delta <= p.gamma / p.m
        assert p.m == 9 and p.d == 10
        assert p.norm_denom == pytest.approx(1.0 + (8.0 / 9.0) / 9.0, rel=1e-15)

    def test_schedule_t4_k1(self):
        p = params_deterministic(4, 1)
        assert p.gamma == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert p.delta == pytest.approx(1.0 / 72.0, rel=1e-15)

    def test_uncertifiable_budget_errors(self):
        # the closed-form certificate cannot clear 1/(2 sqrt(T)) below T=3
        with pytest.raises(ValueError, match="floor"):
            params_deterministic(2, 1)
        with pytest.raises(ValueError, match="floor"):
            params_deterministic(1, 1)

    @pytest.mark.parametrize("k", [1, 3, 10**6])
    def test_an_uncertifiable_budget_is_refused_as_T_at_any_order(self, k):
        # the floor rule reads T alone: k is named only where T passes at k = 1
        with pytest.raises(ValueError, match="^T must give a usable deterministic schedule .*floor"):
            params_deterministic(2, k)

    @pytest.mark.parametrize("T, k, name", [(4.5, 1, "T"), (True, 1, "T"), (4, 1.5, "k"), (4, False, "k")])
    def test_schedules_refuse_a_budget_or_order_that_is_not_an_integer(self, T, k, name):
        for schedule in (params_deterministic, lambda T, k: params_randomized(T, k, 0.2)):
            with pytest.raises(TypeError, match=f"^{name} must be an integer"):
                schedule(T, k)
        p = params_deterministic(np.int64(4), np.int64(1))
        assert (type(p.T), type(p.k), type(p.m), type(p.d)) == (int, int, int, int)

    def test_dimension_override_upward_only(self):
        assert params_deterministic(4, 1, d=50).d == 50
        with pytest.raises(ValueError, match="d > T"):
            params_deterministic(4, 1, d=4)

    @pytest.mark.parametrize("d", [math.nan, math.inf, 10.5, 12.0, True, "12", Fraction(12)])
    def test_dimension_must_be_an_integer(self, d):
        # a NaN, an infinity or a fraction would pass the d > T gate and
        # fail later, inside numpy, without naming d
        with pytest.raises(TypeError, match="^d must be an integer"):
            params_deterministic(9, 1, d=d)
        assert type(params_deterministic(9, 1, d=np.int64(12)).d) is int

    def test_constructors_validate_clean(self):
        for T in (4, 9, 16, 25):
            for k in (1, 2):
                assert validate(params_deterministic(T, k)) == []
        assert validate(params_randomized(4, 1, 0.2)) == []


class TestRandomizedParams:
    def test_schedule_t4(self):
        p = params_randomized(4, 1, 0.2)
        assert p.gamma == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert p.delta == pytest.approx(1.0 / 160.0, rel=1e-15)
        assert p.norm_denom == 1.0

    def test_dimension_satisfies_union_bound(self):
        # smallest d with T exp(-(1/(20 T^1.5))^2 (d-T)/2) <= fail/T
        T, fail = 4, 0.2
        d = randomized_dimension(T, fail)
        rate = (1.0 / (20.0 * T**1.5)) ** 2 / 2.0
        assert T * math.exp(-rate * (d - T)) <= fail / T
        assert d - T - 1 < 800 * T**3 * math.log(T * T / fail) <= d - T
        p = params_randomized(T, 1, fail)
        assert p.d == d

    def test_schedule_t8_k2(self):
        p = params_randomized(8, 2, 0.5)
        assert p.delta == pytest.approx(1.0 / (40.0 * 8**1.5), rel=1e-12)
        assert p.delta == pytest.approx(0.001105, abs=1e-6)

    def test_fail_prob_domain(self):
        with pytest.raises(ValueError, match="fail_prob"):
            params_randomized(4, 1, 0.0)
        with pytest.raises(ValueError, match="fail_prob"):
            params_randomized(4, 1, 1.0)

    @pytest.mark.parametrize("fail_prob", ["0.2", None, 0.2j, [0.2]])
    def test_fail_prob_must_be_a_real_number(self, fail_prob):
        with pytest.raises(TypeError, match="^fail_prob must be a real number"):
            params_randomized(4, 1, fail_prob)
        for bad in (math.nan, math.inf, True):
            with pytest.raises(ValueError, match="fail_prob must lie in"):
                params_randomized(4, 1, bad)
        assert params_randomized(4, 1, Fraction(1, 5)).d == params_randomized(4, 1, 0.2).d

    def test_fail_prob_is_kept_as_its_float(self):
        # a Fraction gives the params of its float, so they serialize
        assert params_randomized(4, 1, Fraction(1, 5)) == params_randomized(4, 1, 0.2)
        # one in (0, 1) whose float rounds to 0 is refused as 0.0 is
        with pytest.raises(ValueError, match="fail_prob must lie in"):
            params_randomized(4, 1, Fraction(1, 10**400))

    def test_instance_of_a_fraction_fail_prob_round_trips(self):
        inst = RandomizedOracle(params_randomized(4, 1, Fraction(1, 5))).instance
        back = from_json(to_json(inst))
        assert back.params == inst.params and type(back.params.fail_prob) is float
        assert back.piece_matrix.tobytes() == inst.piece_matrix.tobytes()
        assert back.piece_shifts.tobytes() == inst.piece_shifts.tobytes()


class TestShiftOf:
    def test_values(self):
        p = params_deterministic(9, 2)
        assert shift_of(p, 1) == pytest.approx(8.0 / 81.0, rel=1e-12)
        assert shift_of(p, p.m) == 0.0

    def test_plain_arithmetic(self):
        p = dataclasses.replace(params_deterministic(4, 1), m=2, gamma=0.1)
        assert shift_of(p, 1) == pytest.approx(0.05, rel=1e-15)

    def test_out_of_range(self):
        p = params_deterministic(4, 1)
        for i in (0, 5):
            with pytest.raises(ValueError, match="out of range"):
                shift_of(p, i)

    def test_strictly_decreasing(self):
        p = params_deterministic(16, 1)
        shifts = [shift_of(p, i) for i in range(1, p.m + 1)]
        assert all(a > b for a, b in zip(shifts, shifts[1:]))


class TestShiftLadder:
    def test_ladder_has_the_bits_of_shift_of(self):
        # 900 schedules: T = 3..299, 400, 1600 and 4096 at k = 1, 2, 3
        for T in [*range(3, 300), 400, 1600, 4096]:
            for k in (1, 2, 3):
                p = params_deterministic(T, k)
                expected = np.array([shift_of(p, i) for i in range(1, T + 1)])
                assert instance_module._shifts_of(p, T).tobytes() == expected.tobytes()

    def test_ladder_is_built_lazily_and_shared(self):
        # no O(T) work where an oracle is built; every instance of the
        # params reads one read-only ladder, without a copy
        p = params_deterministic(9, 1)
        oracle = AdaptiveOracle(p, seed=0)
        assert "_shift_ladder" not in vars(p)
        oracle.query(np.zeros(p.d))
        oracle.query(np.zeros(p.d))
        ladder = vars(p)["_shift_ladder"]
        assert not ladder.flags.writeable
        shifts = oracle.instance.piece_shifts
        assert shifts.tobytes() == ladder[:2].tobytes()
        assert np.shares_memory(shifts, ladder)
        fixed = HardInstance.from_basis(p, OrthonormalBasis(np.eye(p.d)[:3]))
        assert np.shares_memory(fixed.piece_shifts, ladder)

    def test_pieces_beyond_m_are_refused(self):
        p = dataclasses.replace(params_deterministic(4, 1), m=2)
        with pytest.raises(ValueError, match="out of range"):
            HardInstance.from_basis(p, OrthonormalBasis(np.eye(p.d)[:3]))


class TestAppendPiece:
    def test_degenerate_origin_gets_random_unit(self):
        p = params_deterministic(4, 1)
        inst = append_piece(HardInstance.empty(p), np.zeros(p.d), partial(stream, 3, "piece", 1))
        assert inst.num_pieces == 1
        a = inst.pieces[0].a
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        # reproducible from the same stream
        again = append_piece(HardInstance.empty(p), np.zeros(p.d), partial(stream, 3, "piece", 1))
        np.testing.assert_array_equal(a, again.pieces[0].a)

    def test_unit_query_kept_as_direction(self):
        p = params_deterministic(4, 1)
        inst = append_piece(HardInstance.empty(p), unit(p.d, 0), partial(stream, 0, "piece"))
        np.testing.assert_allclose(inst.pieces[0].a, unit(p.d, 0), atol=1e-15)
        assert inst.pieces[0].shift == shift_of(p, 1)

    def test_gram_schmidt_against_existing(self):
        p = params_deterministic(4, 1)
        inst = append_piece(HardInstance.empty(p), unit(p.d, 0), partial(stream, 0, "piece"))
        x = (unit(p.d, 0) + unit(p.d, 1)) / np.sqrt(2)
        inst = append_piece(inst, x, partial(stream, 0, "piece", 2))
        np.testing.assert_allclose(inst.pieces[1].a, unit(p.d, 1), atol=1e-12)

    def test_budget_exhausted(self):
        p = params_deterministic(4, 1)
        inst = HardInstance.empty(p)
        for t in range(4):
            inst = append_piece(inst, np.zeros(p.d), partial(stream, 0, "piece", t))
        with pytest.raises(ValueError, match="budget"):
            append_piece(inst, np.zeros(p.d), partial(stream, 0, "piece", 5))

    def test_appending_twice_leaves_earlier_instances_unchanged(self):
        p = params_deterministic(4, 1)
        base = append_piece(HardInstance.empty(p), unit(p.d, 0), partial(stream, 0, "piece", 1))
        first = append_piece(base, unit(p.d, 1), partial(stream, 0, "piece", 2))
        seen = first.basis.matrix.copy()
        second = append_piece(base, unit(p.d, 2), partial(stream, 0, "piece", 2))
        third = append_piece(first, unit(p.d, 3), partial(stream, 0, "piece", 3))
        np.testing.assert_array_equal(first.basis.matrix, seen)
        np.testing.assert_array_equal(first.pieces[1].a, unit(p.d, 1))
        np.testing.assert_array_equal(second.pieces[1].a, unit(p.d, 2))
        np.testing.assert_array_equal(third.basis.matrix[:2], seen)
        assert base.num_pieces == 1 and len(base.basis) == 1
        np.testing.assert_array_equal(base.basis.matrix, unit(p.d, 0)[None, :])
        # the newest instance of a chain is extended in place, others copy
        assert np.shares_memory(third.basis.matrix, first.basis.matrix)
        assert not np.shares_memory(second.basis.matrix, first.basis.matrix)
        assert not first.pieces[1].a.flags.writeable


class TestPessimalPoint:
    def test_four_orthonormal_pieces(self):
        p = params_deterministic(4, 1)
        basis = OrthonormalBasis(np.eye(p.d)[:4])
        inst = HardInstance.from_basis(p, basis)
        xhat, _ = pessimal_point(inst)
        assert abs(np.linalg.norm(xhat) - 1.0) < 1e-10
        values = inst.piece_matrix @ xhat
        np.testing.assert_allclose(values, -0.5 * np.ones(4), atol=1e-12)

    def test_single_piece_bound(self):
        p = params_deterministic(4, 1)
        inst = HardInstance.from_basis(p, OrthonormalBasis(unit(p.d, 0)[None, :]))
        xhat, bound = pessimal_point(inst)
        np.testing.assert_allclose(xhat, -unit(p.d, 0), atol=1e-15)
        assert bound * p.norm_denom == pytest.approx(-1.0 + p.gamma + p.k * p.delta, rel=1e-12)

    def test_t4_numeric_bound(self):
        p = params_deterministic(4, 1)
        inst = HardInstance.from_basis(p, OrthonormalBasis(np.eye(p.d)[:4]))
        _, bound = pessimal_point(inst)
        assert bound == pytest.approx((-0.5 + 1.0 / 6.0 + 1.0 / 72.0) / 1.125, rel=1e-12)
        assert bound == pytest.approx(-0.319444 / 1.125, abs=1e-6)

    def test_empty_instance_errors(self):
        p = params_deterministic(4, 1)
        with pytest.raises(ValueError, match="no pieces"):
            pessimal_point(HardInstance.empty(p))


class TestValidate:
    def test_broken_smoothing_radius(self):
        p = dataclasses.replace(params_deterministic(9, 2), delta=0.01)
        problems = validate(p)
        assert any("2k*delta <= gamma/m violated: 0.04 >" in v for v in problems)

    def test_too_small_dimension(self):
        p = dataclasses.replace(params_deterministic(4, 1), d=3)
        assert any("d > T violated" in v for v in validate(p))

    def test_randomized_margin_condition(self):
        p = dataclasses.replace(params_randomized(4, 1, 0.2), delta=0.02)
        assert any("1/(10*T^1.5)" in v for v in validate(p))

    def test_randomized_dimension_check(self):
        p = dataclasses.replace(params_randomized(4, 1, 0.2), d=100)
        assert any("violated: d = 100" in v for v in validate(p))

    @pytest.mark.parametrize("field", ["gamma", "delta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scales_fail(self, field, bad):
        for params in (params_deterministic(9, 1), params_randomized(4, 1, 0.2)):
            assert validate(dataclasses.replace(params, **{field: bad})) != []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fail_prob_fails(self, bad):
        p = dataclasses.replace(params_randomized(4, 1, 0.2), fail_prob=bad)
        assert any("fail_prob" in v for v in validate(p))

    def test_nan_norm_denom_fails_floor_check(self):
        p = dataclasses.replace(params_deterministic(9, 1), norm_denom=math.nan)
        assert any("not certifiable" in v for v in validate(p))

    @pytest.mark.parametrize("norm_denom", [0.0, -1.0])
    def test_a_norm_denom_of_at_most_0_is_listed(self, norm_denom):
        # the floor margin divided by 0 and raised a ZeroDivisionError
        p = dataclasses.replace(params_deterministic(9, 1), norm_denom=norm_denom)
        assert validate(p) == ["norm_denom > 0 violated"]

    @pytest.mark.parametrize("field", ["T", "k", "m", "d"])
    def test_an_integer_past_the_float_range_is_listed(self, field):
        # the float arithmetic on it raised an OverflowError naming nothing
        for params in (params_deterministic(4, 1), params_randomized(4, 1, 0.2)):
            assert f"{field} past the float range" in validate(dataclasses.replace(params, **{field: 10**400}))
        with pytest.raises(ValueError, match=f"^invalid params: {field} past the float range"):
            RandomizedOracle(dataclasses.replace(params_randomized(4, 1, 0.2), **{field: 10**400}))

    @pytest.mark.parametrize("fail_prob", [0.2, 5e-324])
    def test_randomized_rates_past_the_float_range_are_listed(self, fail_prob):
        # T^1.5, or the dimension's T^3 * log(T^2 / fail_prob), overflows
        p = dataclasses.replace(params_randomized(4, 1, 0.2), T=10**250, fail_prob=fail_prob)
        assert any("randomized rates past the float range" in v for v in validate(p))


@given(st.integers(1, 10**400), st.integers(1, 10**400), st.sampled_from(["det", "rand"]))
@example(4, 10**308, "det")
@example(10**300, 10**10, "det")
@example(4, 10**308, "rand")
@example(10**103, 1, "rand")
@example(2, 3, "det")
@settings(max_examples=200, deadline=None)
def test_a_schedule_is_usable_or_refused_by_name(T, k, mode):
    # every schedule passes validate, with a positive delta (a tie band),
    # or is refused naming T or k; no error of the float arithmetic escapes
    try:
        params = params_deterministic(T, k) if mode == "det" else params_randomized(T, k, 0.2)
    except (ValueError, TypeError) as exc:
        assert str(exc).startswith(("T must", "k must"))
        return
    assert validate(params) == [] and params.delta > 0


@given(st.integers(0, 2**31), st.integers(3, 7))
@settings(max_examples=25, deadline=None)
def test_appended_pieces_stay_orthonormal(seed, T):
    p = params_deterministic(T, 1)
    rng = stream(seed, "queries")
    inst = HardInstance.empty(p)
    for t in range(1, T + 1):
        x = rng.standard_normal(p.d)
        x = x / max(1.0, np.linalg.norm(x))
        if rng.random() < 0.3:
            x = np.zeros(p.d)  # force the degenerate branch sometimes
        inst = append_piece(inst, x, partial(stream, seed, "piece", t))
    gram = inst.piece_matrix @ inst.piece_matrix.T
    np.testing.assert_allclose(gram, np.eye(T), atol=1e-9)
    xhat, _ = pessimal_point(inst)
    assert abs(np.linalg.norm(xhat) - 1.0) < 1e-10


class TestPieceMatrix:
    def test_basis_rows_are_not_copied(self):
        p = params_deterministic(4, 1)
        from_basis = HardInstance.from_basis(p, OrthonormalBasis(np.eye(p.d)[:3]))
        assert from_basis.piece_matrix is from_basis.basis.matrix
        inst = HardInstance.empty(p)
        for t in range(1, 4):
            inst = append_piece(inst, np.zeros(p.d), partial(stream, 0, "piece", t))
        assert inst.piece_matrix is inst.basis.matrix

    def test_append_chain_shares_the_basis_matrix(self):
        # every instance of the chain gets the basis matrix and the shifts
        # from its constructor, equal to what the pieces themselves give
        p = params_deterministic(400, 1)
        rng = stream(3, "queries")
        inst = HardInstance.empty(p)
        assert inst.piece_matrix.shape == (0, p.d) and inst.piece_shifts.shape == (0,)
        for t in range(1, p.T + 1):
            x = rng.standard_normal(p.d)
            inst = append_piece(inst, x / np.linalg.norm(x), partial(stream, 3, "piece", t))
            assert inst.piece_matrix is inst.basis.matrix
            assert inst.piece_shifts.tobytes() == np.array([pc.shift for pc in inst.pieces]).tobytes()
        from_basis = HardInstance.from_basis(p, inst.basis)
        assert from_basis.piece_matrix is inst.basis.matrix
        assert from_basis.piece_shifts.tobytes() == inst.piece_shifts.tobytes()

    def test_custom_pieces_are_stacked(self):
        p = params_deterministic(4, 1)
        a = unit(p.d, 0)
        inst = HardInstance.custom(p, np.vstack([a, -a]), [0.0, 0.0])
        assert inst.piece_matrix is not inst.basis.matrix
        np.testing.assert_array_equal(inst.piece_matrix, np.vstack([a, -a]))
        # orthonormal custom rows are their own basis, as from_json reads them
        axes = HardInstance.custom(p, np.eye(p.d)[:2], [0.0, 0.0])
        assert axes.piece_matrix is axes.basis.matrix
        standard = HardInstance.from_basis(p, OrthonormalBasis(np.eye(p.d)[:3]))
        back = from_json(to_json(standard))
        # orthonormal rows read back are their own basis, as in a standard instance
        assert back.piece_matrix is back.basis.matrix
        assert back.piece_matrix.tobytes() == standard.piece_matrix.tobytes()


def _json_of(p, rows, indices=None) -> str:
    indices = range(1, len(rows) + 1) if indices is None else indices
    return json.dumps({
        "params": dataclasses.asdict(p),
        "pieces": [{"index": i, "shift": 0.0, "a": list(row)} for i, row in zip(indices, rows)],
    })


class TestConstructorChecks:
    @pytest.mark.parametrize("scale", [2.0, 0.5, 1e200, 0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_custom_and_from_json_reject_non_unit_direction(self, scale, position):
        # the piece is named, and the row is refused before any arithmetic
        # on it can warn (inf - inf inside the Gram-Schmidt, or an overflow)
        p = params_deterministic(4, 1)
        rows = np.eye(p.d)[:3]
        rows[position, position] = scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"piece {position + 1} direction must be unit"):
                HardInstance.custom(p, rows, np.zeros(3))
            with pytest.raises(ValueError, match=f"piece {position + 1} direction must be unit"):
                from_json(_json_of(p, rows.tolist()))

    @pytest.mark.parametrize("indices", [[2, 3], [1, 1], [0, 1], [1, 3]])
    def test_from_json_needs_indices_one_to_r(self, indices):
        p = params_deterministic(4, 1)
        with pytest.raises(ValueError, match="piece indices must be 1..2"):
            from_json(_json_of(p, np.eye(p.d)[:2].tolist(), indices))
        assert from_json(_json_of(p, np.eye(p.d)[:2].tolist(), [2, 1])).num_pieces == 2

    def test_custom_copies_writable_directions(self):
        p = params_deterministic(4, 1)
        rows, shifts = np.eye(p.d)[:2], np.array([0.1, 0.0])
        inst = HardInstance.custom(p, rows, shifts)
        rows[0, 0], shifts[0] = 5.0, 5.0
        assert inst.piece_matrix[0, 0] == 1.0 and inst.piece_shifts[0] == 0.1
        assert not inst.piece_matrix.flags.writeable and not inst.piece_shifts.flags.writeable

    def test_from_basis_rejects_non_orthonormal_basis(self):
        p = params_deterministic(4, 1)
        skew = np.vstack([unit(p.d, 0), (unit(p.d, 0) + unit(p.d, 1)) / np.sqrt(2.0)])
        with pytest.raises(ValueError, match="not orthonormal"):
            HardInstance.from_basis(p, OrthonormalBasis(skew))
        with pytest.raises(ValueError, match="not orthonormal"):
            HardInstance.from_basis(p, OrthonormalBasis(np.full((1, p.d), np.nan)))

    def test_custom_and_from_json_reject_piece_outside_span(self, monkeypatch):
        p = params_deterministic(4, 1)
        skew = np.vstack([unit(p.d, 0), (unit(p.d, 0) + unit(p.d, 1)) / np.sqrt(2.0)])
        text = _json_of(p, skew.tolist())
        assert from_json(text).num_pieces == 2
        # a Gram-Schmidt step that drops every direction leaves the pieces
        # outside the basis span, which both constructors must notice
        monkeypatch.setattr(instance_module, "orthonormal_extend", lambda basis, row: (basis, None))
        with pytest.raises(ValueError, match="piece 1 does not lie in the basis span"):
            HardInstance.custom(p, skew, [0.0, 0.0])
        with pytest.raises(ValueError, match="piece 1 does not lie in the basis span"):
            from_json(text)
        # one that keeps only the first direction: the second piece is named
        extend = geometry.orthonormal_extend
        monkeypatch.setattr(
            instance_module,
            "orthonormal_extend",
            lambda basis, row: (basis, None) if len(basis) else extend(basis, row),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="piece 2 does not lie in the basis span"):
                HardInstance.custom(p, skew, [0.0, 0.0])
            with pytest.raises(ValueError, match="piece 2 does not lie in the basis span"):
                from_json(text)


def _representation_instance(kind: str, seed: int, r: int) -> HardInstance:
    """r pieces: an adaptive chain (degenerate queries included), a
    from_basis instance, a custom instance with unit directions that are
    not orthogonal, or the JSON round trip of one of those three."""
    p = params_deterministic(12, 1, d=20)
    rng = stream(seed, "representation")
    if kind.endswith("json"):
        return from_json(to_json(_representation_instance(kind[:-5], seed, r)))
    if kind == "adaptive":
        inst = HardInstance.empty(p)
        for t in range(1, r + 1):
            x = rng.standard_normal(p.d) if rng.random() < 0.7 else np.zeros(p.d)
            inst = append_piece(inst, x / max(1.0, np.linalg.norm(x)), partial(stream, seed, "piece", t))
        return inst
    rows = rng.standard_normal((r, p.d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    if kind == "from_basis":
        return HardInstance.from_basis(p, OrthonormalBasis(np.linalg.qr(rows.T)[0].T))
    return HardInstance.custom(p, rows, rng.standard_normal(r))


def test_four_fields():
    names = [f.name for f in dataclasses.fields(HardInstance)]
    assert names == ["params", "piece_matrix", "piece_shifts", "basis"]


def test_instances_and_bases_compare_and_hash_by_identity():
    p = params_deterministic(4, 1)
    a, b = HardInstance.empty(p), HardInstance.empty(p)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    full = append_piece(a, unit(p.d, 0), partial(stream, 0, "piece", 1))
    assert full.basis == full.basis and full.basis != b.basis
    assert len({a.basis, b.basis, full.basis}) == 3


@given(
    st.sampled_from(
        ["adaptive", "from_basis", "custom", "adaptive_json", "from_basis_json", "custom_json"]
    ),
    st.integers(0, 2**31),
    st.integers(0, 12),
)
@example("custom", 0, 1)  # one direction: its own basis both ways
@settings(max_examples=60, deadline=None)
def test_pieces_are_views_of_the_matrix_and_shifts(kind, seed, r):
    if r == 0 and kind.startswith("custom"):
        r = 1  # a custom instance needs a direction
    inst = _representation_instance(kind, seed, r)
    assert inst.num_pieces == len(inst.pieces) == len(inst.piece_shifts) == r
    assert inst.piece_matrix.shape == (r, inst.basis.dim)
    assert not inst.piece_matrix.flags.writeable and not inst.piece_shifts.flags.writeable
    for i, piece in enumerate(inst.pieces):
        index, a, shift = piece
        assert index == i + 1
        assert np.shares_memory(a, inst.piece_matrix)
        assert a.tobytes() == inst.piece_matrix[i].tobytes() and not a.flags.writeable
        assert np.float64(shift).tobytes() == inst.piece_shifts[i].tobytes()
    standard = not kind.startswith("custom")
    if standard:
        assert inst.piece_matrix is inst.basis.matrix
    if not kind.endswith("json"):
        # every kind reads back bit for bit, custom included: its basis is
        # rebuilt from the rows exactly as it was built
        back = from_json(to_json(inst))
        assert back.piece_matrix.tobytes() == inst.piece_matrix.tobytes()
        assert back.piece_shifts.tobytes() == inst.piece_shifts.tobytes()
        assert back.basis.matrix.tobytes() == inst.basis.matrix.tobytes()
        if r:
            x = np.zeros(inst.basis.dim)
            budget = MCBudget(64, seed)
            assert smoothed_value_mc(back, x, budget) == smoothed_value_mc(inst, x, budget)


def test_json_round_trip():
    p = params_deterministic(4, 2)
    inst = HardInstance.from_basis(
        p, OrthonormalBasis(np.linalg.qr(stream(5, "q").standard_normal((p.d, 4)))[0].T)
    )
    back = from_json(to_json(inst))
    assert back.params == inst.params
    assert back.num_pieces == inst.num_pieces
    for a, b in zip(inst.pieces, back.pieces):
        assert a.index == b.index and a.shift == b.shift
        np.testing.assert_array_equal(a.a, b.a)
    np.testing.assert_array_equal(back.basis.matrix, inst.basis.matrix)


def _norm_check(x):
    """The ball check as np.linalg.norm states it: the reference for
    check_in_ball's refusals and messages."""
    norm = np.linalg.norm(x)
    if not (norm <= 1.0 + QUERY_NORM_SLACK):
        raise ValueError(f"query outside the unit ball: ||x|| = {norm}")


def _outcome(check, x) -> str | None:
    try:
        check(x)
    except ValueError as err:
        return str(err)
    return None


_EDGE = (1.0 + QUERY_NORM_SLACK) * unit(4, 0)


@pytest.mark.parametrize(
    "x, message",
    [
        (np.zeros(4), None),
        (np.zeros(0), None),
        (_EDGE, None),
        (np.nextafter(_EDGE, 2.0), "||x|| = 1.0000000010000003"),
        (np.array([math.nan, 0.0, 0.0]), "||x|| = nan"),
        (np.array([0.0, -math.inf]), "||x|| = inf"),
        (np.array([1e200, 1e200]), "||x|| = inf"),
        (np.full((2, 3), 0.5), "||x|| = 1.224744871391589"),  # a wrong shape is measured whole
        (np.asfortranarray(np.full((2, 2), 0.4)), None),
        (np.array([[0.6], [0.8]]), None),
        ([0.6, 0.8, 0.1], "||x|| = 1.004987562112089"),
        (np.array([1, 1]), "||x|| = 1.4142135623730951"),
    ],
)
def test_ball_check_keeps_its_refusals_and_messages(x, message):
    # check_in_ball takes the norm as sqrt of a dot product; it passes and
    # refuses what np.linalg.norm's check does, with the same message
    with np.errstate(over="ignore"):
        got, want = _outcome(check_in_ball, x), _outcome(_norm_check, x)
    assert got == want
    assert got == (None if message is None else f"query outside the unit ball: {message}")
