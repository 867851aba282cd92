import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resistor import evaluator, oracles
from resistor.evaluator import (
    EXACT_AFFINE,
    MONTE_CARLO,
    MCBudget,
    OracleResponse,
    monte_carlo_answer,
    oracle_answer,
)
from resistor.geometry import OrthonormalBasis, orthonormal_extend
from resistor.instance import (
    QUERY_NORM_SLACK,
    HardInstance,
    params_deterministic,
    params_randomized,
    shift_of,
)
from resistor.oracles import (
    AdaptiveOracle,
    OracleExhaustedError,
    QueryRecord,
    RandomizedOracle,
    Transcript,
    event_e_check,
)
from resistor.optimizers import run_method, run_projected_subgradient
from resistor.streams import stream


def unit_perp(a: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the unit vector a."""
    e = np.zeros(len(a))
    e[np.argmin(np.abs(a))] = 1.0
    e -= (e @ a) * a
    return e / np.linalg.norm(e)


def small_randomized_params():
    return params_randomized(4, 1, 0.2)


def _tie_after_first(oracle) -> np.ndarray:
    """After one query, a point where pieces 1 and 2 tie exactly, so that
    the next answer is Monte Carlo."""
    p = oracle.params
    a1 = oracle.instance.pieces[0].a
    if isinstance(oracle, AdaptiveOracle):
        # piece 2 is built along the query, perpendicular to a_1
        return (shift_of(p, 1) - shift_of(p, 2)) * unit_perp(a1)
    a2 = oracle.instance.pieces[1].a
    return (0.2 - p.gamma / p.T) * a1 + 0.2 * a2


class TestAdaptiveOracle:
    def test_origin_first_query(self):
        p = params_deterministic(4, 1)
        oracle = AdaptiveOracle(p, seed=2)
        resp = oracle.query(np.zeros(p.d))
        assert resp.regime == EXACT_AFFINE
        assert resp.value == (1.0 - 1.0 / p.T) * p.gamma / p.norm_denom
        a1 = oracle.instance.pieces[0].a
        np.testing.assert_array_equal(resp.gradient, a1 / p.norm_denom)
        # the origin lies in the (empty) revealed span, so the piece is random
        assert abs(np.linalg.norm(a1) - 1.0) < 1e-12

    def test_replay_same_seed_identical(self):
        p = params_deterministic(9, 1)
        t1 = run_projected_subgradient(AdaptiveOracle(p, seed=5))
        t2 = run_projected_subgradient(AdaptiveOracle(p, seed=5))
        assert len(t1) == len(t2) == 9
        for a, b in zip(t1.records, t2.records):
            np.testing.assert_array_equal(a.x, b.x)
            assert a.response.value == b.response.value
            np.testing.assert_array_equal(a.response.gradient, b.response.gradient)

    def test_construction_queries_exact_affine(self):
        p = params_deterministic(16, 2)
        oracle = AdaptiveOracle(p, seed=7)
        run_method(oracle, "agd")
        assert all(r.response.regime == EXACT_AFFINE for r in oracle.transcript.records)

    def test_infeasible_query_rejected(self):
        p = params_deterministic(4, 1)
        oracle = AdaptiveOracle(p, seed=0)
        with pytest.raises(ValueError, match="unit ball"):
            oracle.query(np.full(p.d, 1.0))

    def test_consistency_replay_all_equal(self):
        p = params_deterministic(9, 2)
        oracle = AdaptiveOracle(p, seed=1)
        run_projected_subgradient(oracle)
        final, report = oracle.finalize()
        assert final.complete
        assert report.all_equal and not report.partial
        assert report.first_mismatch is None

    def test_deterministic_event_margins_vanish(self):
        p = params_deterministic(9, 1)
        oracle = AdaptiveOracle(p, seed=3)
        run_projected_subgradient(oracle)
        oracle.finalize()
        # pieces j > i never correlate with query i: a_j was built
        # orthogonal to a span containing x_i
        for rec in oracle.transcript.records:
            assert rec.event_e_margin is not None
            assert rec.event_e_margin <= 1e-12

    def test_recorded_values_respect_schedule_floor(self):
        p = params_deterministic(16, 1)
        oracle = AdaptiveOracle(p, seed=4)
        run_projected_subgradient(oracle)
        for rec in oracle.transcript.records:
            i = rec.index
            lower = ((1.0 - i / p.T) * p.gamma - p.k * p.delta) / p.norm_denom
            assert rec.response.value >= lower

    def test_raising_query_reveals_no_piece(self, monkeypatch):
        # a tie query whose value estimate raises; the piece it would have
        # added must not stay behind
        p = params_deterministic(9, 2)
        oracle = AdaptiveOracle(p, seed=4, mc_samples=1_000)
        a1 = oracle.query(np.zeros(p.d)).gradient * p.norm_denom
        e = unit_perp(a1)

        def refuse(*args):
            raise ValueError("value estimate refused")

        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "smoothed_value_mc", refuse)
            with pytest.raises(ValueError, match="value estimate refused"):
                oracle.query((shift_of(p, 1) - shift_of(p, 2)) * e)
        assert oracle.instance.num_pieces == len(oracle.transcript) == 1
        # the next query is answered as by an oracle that never saw it
        fresh = AdaptiveOracle(p, seed=4, mc_samples=1_000)
        fresh.query(np.zeros(p.d))
        y = 0.5 * e
        got, expected = oracle.query(y), fresh.query(y)
        assert (got.regime, got.affine_index, got.value) == (
            expected.regime, expected.affine_index, expected.value
        )
        assert got.gradient.tobytes() == expected.gradient.tobytes()
        assert oracle.instance.piece_matrix.tobytes() == fresh.instance.piece_matrix.tobytes()
        assert oracle.instance.num_pieces == len(oracle.transcript) == 2
        assert oracle.finalize()[1].all_equal

    def test_broken_smoothing_radius_names_failing_index(self):
        # deliberately violate 2*k*delta <= gamma/m: locality collapses
        # and the replay comparison must point at the first bad query
        p = dataclasses.replace(params_deterministic(9, 1), delta=0.02)
        oracle = AdaptiveOracle(p, seed=2)
        run_projected_subgradient(oracle)
        _, report = oracle.finalize()
        assert not report.all_equal
        assert report.first_mismatch is not None
        entry = report.entries[report.first_mismatch - 1]
        assert entry.reason != ""


@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
def test_monte_carlo_budget_derived_only_for_monte_carlo_answers(monkeypatch, mode):
    # query 1 (the origin) is exact; query 2 ties pieces 1 and 2, so it
    # is answered by Monte Carlo on the streams of child_seed(seed, "mc", 2)
    derived = []
    real = oracles.child_seed

    def counting(seed, purpose, index=0):
        derived.append((purpose, index))
        return real(seed, purpose, index)

    monkeypatch.setattr(oracles, "child_seed", counting)
    if mode == "deterministic":
        oracle = AdaptiveOracle(params_deterministic(4, 1), seed=3, mc_samples=2_000)
    else:
        oracle = RandomizedOracle(small_randomized_params(), seed=3, mc_samples=2_000)
    first = oracle.query(np.zeros(oracle.dim))
    x = _tie_after_first(oracle)
    second = oracle.query(x)
    assert first.regime == EXACT_AFFINE and second.regime == MONTE_CARLO
    assert derived == [("mc", 2)]
    expected = monte_carlo_answer(oracle.instance, x, budget=MCBudget(2_000, real(3, "mc", 2)))
    assert second.value == expected.value
    assert second.gradient.tobytes() == expected.gradient.tobytes()


class TestRandomizedOracle:
    def test_pieces_orthonormal(self):
        oracle = RandomizedOracle(small_randomized_params(), seed=0)
        gram = oracle.instance.piece_matrix @ oracle.instance.piece_matrix.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)

    def test_same_seed_same_instance(self):
        p = small_randomized_params()
        a = RandomizedOracle(p, seed=9).instance.piece_matrix
        b = RandomizedOracle(p, seed=9).instance.piece_matrix
        np.testing.assert_array_equal(a, b)

    def test_pieces_nearly_orthogonal_to_explicit_directions(self):
        # each piece's entries a . e_i along the T + 1 explicit directions
        # are N(0, 1/d) up to O(1/d): none beyond 6/sqrt(d), and their
        # root mean square over 25 seeds (500 entries) is 1/sqrt(d) to 20%
        p = small_randomized_params()
        entries = []
        for seed in range(1000, 1025):
            oracle = RandomizedOracle(p, seed=seed)
            assert oracle.dim == 2 * p.T + 1
            entries.append(oracle.instance.piece_matrix[:, : p.T + 1])
        scaled = np.abs(np.array(entries)) * math.sqrt(p.d)
        assert scaled.max() <= 6.0
        assert 0.8 <= math.sqrt((scaled**2).mean()) <= 1.2

    def test_setup_peak_memory_below_1mb(self):
        # d = 3.5e6 at T = 9; the basis lives in 2T + 1 = 19 coordinates
        p = params_randomized(9, 1, 0.2)
        RandomizedOracle(p, seed=1)  # a first construction imports modules lazily
        tracemalloc.start()
        try:
            oracle = RandomizedOracle(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert oracle.dim == 19 and oracle.instance.basis.violations() == []
        assert peak < 2**20

    def test_zero_query_margin_zero(self):
        oracle = RandomizedOracle(small_randomized_params(), seed=3)
        oracle.query(np.zeros(oracle.dim))
        assert oracle.transcript.records[0].event_e_margin == 0.0

    def test_cheating_query_violates_event(self):
        p = small_randomized_params()
        oracle = RandomizedOracle(p, seed=4)
        hidden = oracle.instance.pieces[-1].a
        oracle.query(hidden)
        check = event_e_check(oracle.transcript, p)
        assert oracle.transcript.records[0].event_e_margin > 0.99
        assert not check.held and check.first_violation == 1

    def test_honest_subgradient_run_holds_event(self):
        p = small_randomized_params()
        oracle = RandomizedOracle(p, seed=5)
        run_projected_subgradient(oracle)
        check = event_e_check(oracle.transcript, p)
        assert check.held
        assert check.max_margin <= 1.0 / (20.0 * p.T**1.5)

    def test_finalize_full_replay_bitwise(self):
        p = small_randomized_params()
        oracle = RandomizedOracle(p, seed=6)
        run_projected_subgradient(oracle)
        _, report = oracle.finalize()
        assert report.all_equal

    def test_mode_mismatch(self):
        with pytest.raises(ValueError, match="randomized"):
            RandomizedOracle(params_deterministic(4, 1), seed=0)
        with pytest.raises(ValueError, match="deterministic"):
            AdaptiveOracle(small_randomized_params(), seed=0)


def _protocol_oracle(cls):
    """A k = 2 oracle at T = 4, so Monte-Carlo answers carry a Hessian."""
    if cls is AdaptiveOracle:
        return AdaptiveOracle(params_deterministic(4, 2), seed=0, mc_samples=2_000)
    return RandomizedOracle(params_randomized(4, 2, 0.2), seed=0, mc_samples=2_000)


@pytest.mark.parametrize("cls", [AdaptiveOracle, RandomizedOracle], ids=lambda c: c.__name__)
class TestSharedProtocol:
    """What both oracle classes get from their one query protocol."""

    def test_exhaustion_leaves_transcript_and_instance(self, cls):
        oracle = _protocol_oracle(cls)
        run_projected_subgradient(oracle)
        instance, records = oracle.instance, list(oracle.transcript.records)
        with pytest.raises(OracleExhaustedError):
            oracle.query(np.zeros(oracle.dim))
        assert oracle.instance is instance
        assert oracle.transcript.records == records  # the same record objects
        assert oracle.queries_left == 0

    def test_early_finalize_is_partial(self, cls):
        oracle = _protocol_oracle(cls)
        oracle.query(np.zeros(oracle.dim))
        final, report = oracle.finalize()
        assert final is oracle.instance
        assert report.partial and report.all_equal and len(report.entries) == 1

    @pytest.mark.parametrize("mc_samples", [1, 3, 2.5, math.nan, True])
    def test_too_few_or_non_integer_samples_refused_at_construction(self, cls, mc_samples):
        # a k = 2 Monte-Carlo answer needs 4 samples: 2 for the value's
        # standard error, two draws at 4 sign flips for the Hessian
        params = params_deterministic(4, 2) if cls is AdaptiveOracle else params_randomized(4, 2, 0.2)
        with pytest.raises((TypeError, ValueError)):
            cls(params, seed=0, mc_samples=mc_samples)

    @pytest.mark.parametrize("seed", [2.9, 2.0, math.nan, True])
    def test_seed_that_is_not_an_integer_refused_at_construction(self, cls, seed):
        # int(2.9) would run on the draws of seed 2 while reporting 2.9
        params = params_deterministic(4, 2) if cls is AdaptiveOracle else params_randomized(4, 2, 0.2)
        with pytest.raises(TypeError, match="seed"):
            cls(params, seed=seed)

    def test_numpy_integer_seed_has_the_bits_of_its_int(self, cls):
        params = params_deterministic(4, 2) if cls is AdaptiveOracle else params_randomized(4, 2, 0.2)
        a, b = cls(params, seed=np.int64(2)), cls(params, seed=2)
        assert type(a.seed) is int and a.seed == 2
        for oracle in (a, b):
            oracle.query(np.zeros(oracle.dim))
            oracle.query(_tie_after_first(oracle))
        for ra, rb in zip(a.transcript.records, b.transcript.records, strict=True):
            assert ra.response.gradient.tobytes() == rb.response.gradient.tobytes()
            assert ra.response.value == rb.response.value

    def test_fewest_samples_answer_a_tie(self, cls):
        params = params_deterministic(4, 2) if cls is AdaptiveOracle else params_randomized(4, 2, 0.2)
        oracle = cls(params, seed=0, mc_samples=np.int64(4))
        assert type(oracle.mc_samples) is int and oracle.mc_samples == 4
        if cls is AdaptiveOracle:
            a1 = oracle.query(np.zeros(oracle.dim)).gradient * params.norm_denom
            x = (shift_of(params, 1) - shift_of(params, 2)) * unit_perp(a1)
        else:
            a = oracle.instance.piece_matrix
            x = (shift_of(params, 1) - shift_of(params, 2)) / 2 * (a[1] - a[0])
        answer = oracle.query(x)
        assert answer.regime == MONTE_CARLO and answer.hessian().error_bound >= 0

    def test_dim_is_the_instance_working_dimension(self, cls):
        oracle = _protocol_oracle(cls)
        assert oracle.dim == oracle.instance.basis.dim
        run_projected_subgradient(oracle)
        assert oracle.dim == oracle.instance.basis.dim

    def test_regime_follows_affine_index(self, cls):
        oracle = _protocol_oracle(cls)
        oracle.query(np.zeros(oracle.dim))
        oracle.query(_tie_after_first(oracle))
        run_projected_subgradient(oracle)
        regimes = [rec.response.regime for rec in oracle.transcript.records]
        assert regimes[:2] == [EXACT_AFFINE, MONTE_CARLO]
        for rec in oracle.transcript.records:
            index = rec.response.affine_index
            assert rec.response.regime == (MONTE_CARLO if index is None else EXACT_AFFINE)

    def test_responses_and_records_compare_by_identity(self, cls):
        # numpy fields would make a generated __eq__ raise
        a, b = _protocol_oracle(cls), _protocol_oracle(cls)
        for oracle in (a, b):
            oracle.query(np.zeros(oracle.dim))
            oracle.query(_tie_after_first(oracle))
        for ra, rb in zip(a.transcript.records, b.transcript.records):
            assert ra.response != rb.response and ra.response == ra.response
            assert ra != rb and len({ra.response, rb.response}) == 2
            (ha,), (hb,) = ra.response.higher, rb.response.higher
            assert ha != hb and len({ha, hb}) == 2
        assert not a.transcript.records[1].response.higher[0].is_zero


# (kind, position, seed, excess) -> a query that both oracles must refuse
BAD_QUERIES = st.tuples(
    st.sampled_from(["nan", "inf", "-inf", "short", "long", "matrix", "norm"]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31),
    st.floats(1e-8, 1e-3),
)


def _bad_query(d: int, spec) -> np.ndarray:
    kind, position, seed, excess = spec
    x = np.random.default_rng(seed).standard_normal(d)
    x /= np.linalg.norm(x)
    i = min(int(position * d), d - 1)
    if kind == "nan":
        x[i] = math.nan
    elif kind in ("inf", "-inf"):
        x[i] = float(kind)
    elif kind == "short":
        x = 0.5 * x[:-1]
    elif kind == "long":
        x = 0.5 * np.append(x, 0.0)
    elif kind == "matrix":
        x = 0.5 * x[None, :]
    else:
        x *= (1.0 + QUERY_NORM_SLACK) * (1.0 + excess)
    return x


def _assert_refused(oracle, x) -> None:
    instance, answered = oracle.instance, len(oracle.transcript)
    with pytest.raises(ValueError):
        oracle.query(x)
    assert oracle.instance is instance
    assert len(oracle.transcript) == answered


def test_adaptive_oracle_refuses_bad_queries():
    p = params_deterministic(4, 1)
    fresh = AdaptiveOracle(p, seed=0)
    used = AdaptiveOracle(p, seed=0)
    used.query(np.zeros(p.d))

    @given(BAD_QUERIES)
    @settings(max_examples=60, deadline=None)
    def check(spec):
        for oracle in (fresh, used):
            _assert_refused(oracle, _bad_query(p.d, spec))

    check()


def test_randomized_oracle_refuses_bad_queries():
    oracle = RandomizedOracle(small_randomized_params(), seed=0)

    @given(BAD_QUERIES)
    @settings(max_examples=30, deadline=None)
    def check(spec):
        _assert_refused(oracle, _bad_query(oracle.dim, spec))

    check()


class TestEventECheck:
    def _transcript(self, params, margins):
        dummy = OracleResponse(
            value=0.0,
            gradient=np.zeros(3),
            higher=(),
            affine_index=1,
            value_stderr=0.0,
            gradient_error=0.0,
        )
        t = Transcript(params)
        for i, m in enumerate(margins, start=1):
            t.records.append(QueryRecord(i, np.zeros(3), dummy, m))
        return t

    def test_all_zero_held(self):
        p = small_randomized_params()
        check = event_e_check(self._transcript(p, [0.0] * 4), p)
        assert check.held and check.first_violation is None

    def test_exact_threshold_counts_as_held(self):
        p = small_randomized_params()
        thr = 1.0 / (20.0 * p.T**1.5)
        check = event_e_check(self._transcript(p, [thr, 0.0]), p)
        assert check.held

    def test_violation_indexed(self):
        p = small_randomized_params()
        thr = 1.0 / (20.0 * p.T**1.5)
        check = event_e_check(self._transcript(p, [0.0, 2 * thr, 3 * thr]), p)
        assert not check.held and check.first_violation == 2

    def test_nan_margin_violates(self):
        p = small_randomized_params()
        check = event_e_check(self._transcript(p, [0.0, math.nan, 0.0]), p)
        assert not check.held and check.first_violation == 2
        assert math.isnan(check.max_margin)

    def test_wrong_mode_rejected(self):
        p = params_deterministic(4, 1)
        t = Transcript(p)
        with pytest.raises(ValueError, match="randomized"):
            event_e_check(t, p)


class TestTailResampling:
    """Answers under the low-correlation event depend only on the pieces
    revealed so far: resampling the not-yet-relevant tail of the basis
    (common random numbers) must not change them."""

    def _resampled_tail(self, instance, keep):
        basis = OrthonormalBasis(instance.basis.matrix[:keep])
        rng = stream(999, "resample")
        while len(basis) < instance.params.T:
            basis, _ = orthonormal_extend(basis, rng.standard_normal(instance.basis.dim))
        return HardInstance.from_basis(instance.params, basis)

    def test_exact_affine_answer_bitwise_stable(self):
        p = small_randomized_params()
        inst = RandomizedOracle(p, seed=12).instance
        other = self._resampled_tail(inst, keep=2)
        x = 0.3 * inst.pieces[0].a
        r1 = oracle_answer(inst, x)
        r2 = oracle_answer(other, x)
        assert r1.regime == r2.regime == EXACT_AFFINE
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.gradient, r2.gradient)

    def test_monte_carlo_answer_stable_to_tolerance(self):
        p = small_randomized_params()
        inst = RandomizedOracle(p, seed=13).instance
        other = self._resampled_tail(inst, keep=3)
        a1, a2 = inst.pieces[0].a, inst.pieces[1].a
        # tie pieces 1 and 2 while keeping |a_j . x| tiny for j >= 3
        x = (0.2 - p.gamma / p.T) * a1 + 0.2 * a2
        budget = MCBudget(20_000, 77)
        r1 = oracle_answer(inst, x, budget=budget)
        r2 = oracle_answer(other, x, budget=budget)
        assert r1.regime == r2.regime == "monte_carlo"
        assert abs(r1.value - r2.value) <= 1e-10
        # identical draws give identical coordinates; only the estimator's
        # noise components along the resampled tail directions can differ,
        # and those are bounded by the reported error
        keep = 3
        c1 = inst.basis.coords(r1.gradient)
        c2 = other.basis.coords(r2.gradient)
        np.testing.assert_allclose(c1[:keep], c2[:keep], atol=1e-9)
        np.testing.assert_allclose(c1[keep:], c2[keep:], atol=1e-9)
        assert np.linalg.norm(c1[keep:]) <= 5.0 * r1.gradient_error


class TestTranscriptSerialization:
    def test_jsonl_fields(self, tmp_path):
        p = params_deterministic(4, 1)
        oracle = AdaptiveOracle(p, seed=1)
        run_projected_subgradient(oracle)
        oracle.finalize()
        path = tmp_path / "t.jsonl"
        oracle.transcript.to_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        row = json.loads(lines[0])
        assert set(row) == {"i", "x_norm", "value", "grad_norm", "regime", "event_e_margin", "locality_ok"}
        assert "x" not in row
        for line in lines:
            row = json.loads(line)
            assert row["locality_ok"] == (row["regime"] == EXACT_AFFINE)

    def test_jsonl_with_vectors(self, tmp_path):
        p = params_deterministic(4, 1)
        oracle = AdaptiveOracle(p, seed=1)
        oracle.query(np.zeros(p.d))
        path = tmp_path / "t.jsonl"
        oracle.transcript.to_jsonl(path, dump_vectors=True)
        row = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert len(row["x"]) == p.d
        assert len(row["gradient"]) == p.d
