import dataclasses
import hashlib
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resistor import evaluator, geometry, oracles
from resistor import instance as instance_module
from resistor.evaluator import (
    EXACT_AFFINE,
    MONTE_CARLO,
    MCBudget,
    OracleResponse,
    affine_regime,
    monte_carlo_answer,
    oracle_answer,
    regime_answer,
)
from resistor.geometry import (
    DEGENERACY_TOL,
    OrthonormalBasis,
    orthonormal_extend,
    perp_component,
    sample_ball,
)
from resistor.instance import (
    QUERY_NORM_SLACK,
    RANDOMIZED,
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

from conftest import contender_frame_at, three_way_tie


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

    @pytest.mark.parametrize("scale", [2.0, math.nan, math.inf])
    def test_query_outside_the_ball_reveals_no_piece(self, scale):
        # the norm is checked before the piece is built, so no piece is
        # revealed, on an empty instance and on one with pieces
        p = params_deterministic(4, 1)
        oracle = AdaptiveOracle(p, seed=0)
        x = np.zeros(p.d)
        x[1] = scale
        for pieces in (0, 1):
            with pytest.raises(ValueError, match="unit ball"):
                oracle.query(x)
            assert oracle.instance.num_pieces == len(oracle.transcript) == pieces
            oracle.query(np.zeros(p.d))

    def test_answer_on_an_instance_without_pieces_names_the_cause(self):
        p = params_deterministic(4, 1)
        with pytest.raises(ValueError, match="instance has no pieces"):
            oracle_answer(HardInstance.empty(p), np.zeros(p.d))

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
        # a three-way tie query whose value estimate raises; the piece it
        # would have added must not stay behind
        p = params_deterministic(9, 2)
        oracle = AdaptiveOracle(p, seed=4, mc_samples=1_000)
        x = three_way_tie(oracle)

        def refuse(*args, **kwargs):
            raise ValueError("value estimate refused")

        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "smoothed_value_mc", refuse)
            with pytest.raises(ValueError, match="value estimate refused"):
                oracle.query(x)
        assert oracle.instance.num_pieces == len(oracle.transcript) == 2
        # the next query is answered as by an oracle that never saw it
        fresh = AdaptiveOracle(p, seed=4, mc_samples=1_000)
        three_way_tie(fresh)
        y = 0.5 * unit_perp(oracle.instance.pieces[0].a)
        got, expected = oracle.query(y), fresh.query(y)
        assert (got.regime, got.affine_index, got.value) == (
            expected.regime, expected.affine_index, expected.value
        )
        assert got.gradient.tobytes() == expected.gradient.tobytes()
        assert oracle.instance.piece_matrix.tobytes() == fresh.instance.piece_matrix.tobytes()
        assert oracle.instance.num_pieces == len(oracle.transcript) == 3
        # the replay re-answers every record, the tie answer included, and
        # matches each bit for bit
        reasons = [entry.reason for entry in oracle.finalize()[1].entries]
        assert reasons == ["", "", ""]

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


# (affine_index, value bytes, sha256 of the gradient bytes) of each answer,
# and sha256 of the final piece matrix, as when every query built its
# piece stream
PINNED_PIECE_STREAM = (
    [
        (1, "1cc7711cc771bc3f", "5f4742cfc0990f1b"),
        (2, "b7ec8b4b5e83d33f", "e7945a134a943190"),
        (1, "1cc7711cc771bc3f", "5f4742cfc0990f1b"),
    ],
    "88ca6c22193dccf8e455c8f7330fe391c7d291f194e4f57a42983871781e309a",
)


def test_piece_stream_built_only_for_a_degenerate_query(monkeypatch):
    # queries 1 and 3 (the origin) lie in the revealed span, so their
    # pieces are drawn from stream(seed, "piece", t); query 2 does not lie
    # there and builds no stream. The bits are those of an oracle that
    # built the stream on every query
    built = []
    real = oracles.stream

    def counting(seed, purpose, index=0):
        built.append((purpose, index))
        return real(seed, purpose, index)

    monkeypatch.setattr(oracles, "stream", counting)
    p = params_deterministic(4, 1)
    oracle = AdaptiveOracle(p, seed=3)
    answers, streams = [], []
    for x in (np.zeros(p.d), 0.3 * np.eye(p.d)[0], np.zeros(p.d)):
        resp = oracle.query(x)
        answers.append(
            (
                resp.affine_index,
                np.float64(resp.value).tobytes().hex(),
                hashlib.sha256(resp.gradient.tobytes()).hexdigest()[:16],
            )
        )
        streams.append(list(built))
    assert streams == [[("piece", 1)], [("piece", 1)], [("piece", 1), ("piece", 3)]]
    matrix = hashlib.sha256(oracle.instance.piece_matrix.tobytes()).hexdigest()
    assert (answers, matrix) == PINNED_PIECE_STREAM


@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
def test_monte_carlo_budget_derived_only_for_monte_carlo_answers(monkeypatch, mode):
    # query 1 (the origin) is exact and query 2 a two-piece tie, answered
    # in closed form: neither derives a budget. Query 3 ties three pieces,
    # so it is sampled on the streams of child_seed(seed, "mc", 3), the
    # value's and the gradient's derived from it
    derived = []
    real = evaluator.child_seed

    def counting(seed, purpose, index=0):
        derived.append((purpose, index))
        return real(seed, purpose, index)

    monkeypatch.setattr(evaluator, "child_seed", counting)
    if mode == "deterministic":
        oracle = AdaptiveOracle(params_deterministic(4, 1), seed=3, mc_samples=2_000)
    else:
        oracle = RandomizedOracle(small_randomized_params(), seed=3, mc_samples=2_000)
    x = three_way_tie(oracle)
    assert derived == []
    third = oracle.query(x)
    regimes = [rec.response.regime for rec in oracle.transcript.records]
    assert regimes == [EXACT_AFFINE, MONTE_CARLO, MONTE_CARLO]
    assert derived == [("mc", 3), ("value", 0), ("gradient", 0)]
    expected = monte_carlo_answer(
        oracle.instance, x, MCBudget(2_000, real(3, "mc", 3)), contender_frame_at(oracle.instance, x)
    )
    assert third.value == expected.value
    assert third.gradient.tobytes() == expected.gradient.tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_randomized_two_piece_answers_replay_bit_for_bit(k):
    # a q = 2 record is re-answered through the same dispatch in replay
    oracle = RandomizedOracle(params_randomized(4, k, 0.2), seed=5)
    oracle.query(np.zeros(oracle.dim))
    answer = oracle.query(_tie_after_first(oracle))
    assert answer.regime == MONTE_CARLO and answer.value_stderr > 0
    _, report = oracle.finalize()
    assert [e.reason for e in report.entries] == ["", ""] and report.all_equal


def _next_up(v):
    """v, of its own type, with its first entry one binary64 step larger
    (an array is copied)."""
    if not isinstance(v, np.ndarray):
        return type(v)(np.nextafter(v, np.inf))
    v = np.array(v)
    v.flat[0] = np.nextafter(v.flat[0], np.inf)
    return v


def test_replay_names_every_field_that_differs():
    # every field of a recorded answer is compared bit for bit: one unit
    # in the last place of any one of them, or the frame's rows reordered,
    # fails the replay with a reason naming that field
    oracle = AdaptiveOracle(params_deterministic(9, 2), seed=0)
    three_way_tie(oracle)
    exact, tie = oracle.transcript.records
    hess = tie.response.hessian()
    assert exact.response.affine_index == 1 and tie.response.regime == MONTE_CARLO and not hess.is_zero
    cases = [
        (tie, "value", _next_up(tie.response.value)),
        (tie, "gradient", _next_up(tie.response.gradient)),
        (tie, "higher", (dataclasses.replace(hess, tensor=_next_up(hess.tensor)),)),
        (tie, "higher", (dataclasses.replace(hess, error_bound=_next_up(hess.error_bound)),)),
        (exact, "affine_index", 2),
        (tie, "value_stderr", _next_up(tie.response.value_stderr)),
        (tie, "gradient_error", _next_up(tie.response.gradient_error)),
        (tie, "basis_matrix", tie.response.basis_matrix[::-1]),
    ]
    assert {name for _, name, _ in cases} == {f.name for f in dataclasses.fields(OracleResponse)}
    for rec, name, changed in cases:
        recorded = rec.response
        rec.response = dataclasses.replace(recorded, **{name: changed})
        try:
            reasons = [e.reason for e in oracle.finalize()[1].entries]
        finally:
            rec.response = recorded
        assert reasons == [f"{name}_mismatch" if r is rec else "" for r in (exact, tie)]
    assert oracle.finalize()[1].all_equal


def test_a_numpy_rescale_answers_in_python_floats():
    # an oracle built with rescale np.float64(0.5) answers what one built
    # with 0.5 answers, each float field a float, so the two compare equal
    # (an exact, a two-piece and a sampled answer)
    probe = AdaptiveOracle(params_deterministic(9, 2), seed=0)
    last = three_way_tie(probe)
    xs = [rec.x for rec in probe.transcript.records] + [last]

    def answers(rescale):
        oracle = AdaptiveOracle(params_deterministic(9, 2), seed=0, rescale=rescale)
        return [oracle.query(x) for x in xs]

    for a, b in zip(answers(0.5), answers(np.float64(0.5))):
        floats = [b.value, b.value_stderr, b.gradient_error, *(h.error_bound for h in b.higher)]
        assert all(type(v) is float for v in floats)
        assert a.mismatch(b) == ""


@pytest.mark.parametrize("cls", [AdaptiveOracle, RandomizedOracle])
@pytest.mark.parametrize("rescale", [10**400, Fraction(10**400), Fraction(1, 10**400)])
def test_a_rescale_outside_the_float_range_is_refused_by_name(cls, rescale):
    # float() of the first two overflows and of the last is 0: the oracle
    # would keep no finite positive scale, and float()'s own error names
    # no argument
    params = params_deterministic(4, 1) if cls is AdaptiveOracle else params_randomized(4, 1, 0.2)
    with pytest.raises(ValueError, match="rescale must lie in the range of positive floats"):
        cls(params, rescale=rescale)
    assert cls(params, rescale=Fraction(sys.float_info.max)).rescale == sys.float_info.max


@pytest.mark.parametrize("k, minimum", [(1, 2), (2, 4), (3, 8)])
def test_the_sample_floor_is_max_2_and_2_to_the_k(k, minimum):
    params = params_deterministic(9, k)
    assert AdaptiveOracle(params, mc_samples=minimum).budget.n_samples == minimum
    for short in (minimum - 1, 1, 0, -minimum):
        with pytest.raises(ValueError, match=f"^mc_samples must be at least {minimum} for .* order {k}, got"):
            AdaptiveOracle(params, mc_samples=short)


def test_the_sample_floor_of_a_large_order_is_refused_unbuilt():
    # the floor 2^k was built and printed: a 10^8-bit integer, past the
    # digit limit, whose text raised an error that named nothing
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^mc_samples must be at least 2\^100000000 for .*, got 100000$"):
        AdaptiveOracle(params_deterministic(4, 10**8))
    assert time.perf_counter() - start < 1.0


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
        oracle.finalize()
        assert oracle.transcript.records[0].event_e_margin == 0.0

    def test_cheating_query_violates_event(self):
        p = small_randomized_params()
        oracle = RandomizedOracle(p, seed=4)
        hidden = oracle.instance.pieces[-1].a
        oracle.query(hidden)
        oracle.finalize()
        check = event_e_check(oracle.transcript, p)
        assert oracle.transcript.records[0].event_e_margin > 0.99
        assert not check.held and check.first_violation == 1

    def test_honest_subgradient_run_holds_event(self):
        p = small_randomized_params()
        oracle = RandomizedOracle(p, seed=5)
        run_projected_subgradient(oracle)
        oracle.finalize()
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
        a, b = cls(params, seed=np.int64(2), mc_samples=2_000), cls(params, seed=2, mc_samples=2_000)
        assert type(a.seed) is int and a.seed == 2
        for oracle in (a, b):
            oracle.query(three_way_tie(oracle))
        for ra, rb in zip(a.transcript.records, b.transcript.records, strict=True):
            assert ra.response.gradient.tobytes() == rb.response.gradient.tobytes()
            assert ra.response.value == rb.response.value

    def test_fewest_samples_answer_a_tie(self, cls):
        params = params_deterministic(4, 2) if cls is AdaptiveOracle else params_randomized(4, 2, 0.2)
        oracle = cls(params, seed=0, mc_samples=np.int64(4))
        assert type(oracle.budget.n_samples) is int and oracle.budget.n_samples == 4
        answer = oracle.query(three_way_tie(oracle))
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


def test_refused_query_leaves_the_row_store_shared():
    # the unit ball is checked before the piece is built, so a refused
    # query writes no row of the store that the accepted bases share
    p = params_deterministic(4, 1)
    oracle = AdaptiveOracle(p, seed=0)
    oracle.query(np.zeros(p.d))
    first = oracle.instance
    with pytest.raises(ValueError, match="unit ball"):
        oracle.query(np.full(p.d, 1.0))
    assert oracle.instance is first and len(oracle.transcript) == 1
    oracle.query(np.zeros(p.d))
    assert np.shares_memory(oracle.instance.basis.matrix, first.basis.matrix)


QUERY_KINDS = ("origin", "span", "fresh", "repeat", "near")


def _adaptive_query(kind: str, oracle: AdaptiveOracle, previous: list, rng) -> np.ndarray:
    """A query of the given kind: the origin, a combination of the revealed
    rows, a fresh direction, the last query again, or a combination plus a
    perpendicular just above DEGENERACY_TOL."""
    d, rows, basis = oracle.dim, oracle.instance.piece_matrix, oracle.instance.basis
    if kind == "repeat" and previous:
        return previous[-1]
    if kind == "fresh":
        x = rng.standard_normal(d)
        return rng.uniform(0.1, 1.0) * x / np.linalg.norm(x)
    x = np.zeros(d)
    if kind in ("span", "near") and len(rows):
        x = rng.uniform(-1.0, 1.0, len(rows)) @ rows
        x *= rng.uniform(0.1, 0.9) / max(1.0, np.linalg.norm(x))
    if kind == "near" and len(rows) < d:
        e = perp_component(perp_component(rng.standard_normal(d), basis), basis)
        x = x + rng.uniform(2.0, 10.0) * DEGENERACY_TOL * e / np.linalg.norm(e)
    return x


def test_adaptive_query_sequences_keep_the_basis_orthonormal(monkeypatch):
    # any mix of degenerate and fresh queries builds an orthonormal basis
    # and replays exactly; the examples reach both branches of
    # arbitrary_perp_unit: one projection of its Gaussian, and two
    projections = []
    branches = set()
    real_perp, real_arbitrary = geometry.perp_component, instance_module.arbitrary_perp_unit

    def counting_perp(x, basis):
        projections.append(1)
        return real_perp(x, basis)

    def arbitrary(basis, rng):
        before = len(projections)
        unit = real_arbitrary(basis, rng)
        branches.add(len(projections) - before)
        return unit

    monkeypatch.setattr(geometry, "perp_component", counting_perp)
    monkeypatch.setattr(instance_module, "arbitrary_perp_unit", arbitrary)

    @given(
        st.integers(3, 12),
        st.integers(1, 2),
        st.integers(0, 2**31),
        st.lists(st.sampled_from(QUERY_KINDS), min_size=12, max_size=12),
    )
    @example(12, 1, 0, ["origin"] * 12)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def check(T, k, seed, kinds):
        oracle = AdaptiveOracle(params_deterministic(T, k), seed=seed, mc_samples=2_000)
        rng = np.random.default_rng(seed)
        previous = []
        for kind in kinds[:T]:
            previous.append(_adaptive_query(kind, oracle, previous, rng))
            oracle.query(previous[-1])
        final, report = oracle.finalize()
        assert final.basis.violations() == []
        assert report.all_equal and not report.partial

    check()
    assert branches == {1, 2}


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


def _as_randomized(transcript: Transcript) -> Transcript:
    """The transcript with randomized-mode params, which event_e_check reads
    whatever mode its records come from."""
    return Transcript(dataclasses.replace(transcript.params, mode=RANDOMIZED), transcript.records)


@pytest.mark.parametrize("cls", [AdaptiveOracle, RandomizedOracle], ids=lambda c: c.__name__)
def test_margins_are_none_until_finalize_and_the_check_says_so(cls):
    oracle = _protocol_oracle(cls)
    oracle.query(np.zeros(oracle.dim))
    oracle.query(0.5 * oracle.instance.piece_matrix[0])
    assert [rec.event_e_margin for rec in oracle.transcript.records] == [None, None]
    with pytest.raises(ValueError, match=r"^record 1 has no event margin yet: finalize\(\) fills the margins$"):
        event_e_check(_as_randomized(oracle.transcript), oracle.params)
    oracle.finalize()
    assert all(type(rec.event_e_margin) is float for rec in oracle.transcript.records)
    assert event_e_check(_as_randomized(oracle.transcript), oracle.params).held


def _mixed_query(kind: str, oracle, previous: list, rng) -> np.ndarray:
    """The origin, a combination of the pieces revealed so far, a fresh
    direction or the last query again, inside the unit ball."""
    revealed = oracle.instance.piece_matrix[: len(oracle.transcript)]
    if kind == "repeat" and previous:
        return previous[-1]
    if kind == "fresh":
        x = rng.standard_normal(oracle.dim)
        return rng.uniform(0.1, 1.0) * x / np.linalg.norm(x)
    if kind == "span" and len(revealed):
        x = rng.uniform(-1.0, 1.0, len(revealed)) @ revealed
        return x * rng.uniform(0.1, 0.9) / max(1.0, np.linalg.norm(x))
    return np.zeros(oracle.dim)


@given(
    st.sampled_from([AdaptiveOracle, RandomizedOracle]),
    st.integers(3, 12),
    st.integers(1, 2),
    st.integers(0, 2**31),
    st.lists(st.sampled_from(["origin", "span", "fresh", "repeat"]), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_replay_margins_are_the_unseen_pieces_products(cls, T, k, seed, kinds):
    # each margin is max |a_j . x_i| over the pieces query i had not seen
    # (j >= i randomized, j > i deterministic), by np.vecdot bit for bit,
    # 0.0 where there is none; the event verdict is the one of the
    # per-record matrix products finalize took before, runs finished early
    # included
    params = params_deterministic(T, k) if cls is AdaptiveOracle else params_randomized(T, k, 0.2)
    oracle = cls(params, seed=seed, mc_samples=16)
    rng = np.random.default_rng(seed)
    previous = []
    for kind in kinds[:T]:
        previous.append(_mixed_query(kind, oracle, previous, rng))
        oracle.query(previous[-1])
    final, report = oracle.finalize()
    assert report.all_equal
    unseen = 1 if cls is RandomizedOracle else 0
    products = Transcript(params)
    for rec in oracle.transcript.records:
        rows = final.piece_matrix[rec.index - unseen:]
        expected = float(np.abs(np.vecdot(rows, rec.x)).max()) if len(rows) else 0.0
        assert np.float64(rec.event_e_margin).tobytes() == np.float64(expected).tobytes()
        product = float(np.abs(rows @ rec.x).max()) if len(rows) else 0.0
        products.records.append(dataclasses.replace(rec, event_e_margin=product))
    verdict = event_e_check(_as_randomized(oracle.transcript), params)
    before = event_e_check(_as_randomized(products), params)
    assert (verdict.held, verdict.first_violation) == (before.held, before.first_violation)


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
        a1, a2, a3 = (piece.a for piece in inst.pieces[:3])
        # tie pieces 1, 2 and 3 (a sampled answer) while keeping |a_j . x|
        # tiny for j >= 4
        x = (0.2 - p.gamma / p.T) * a1 + 0.2 * a2 + (0.2 + p.gamma / p.T) * a3
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


def _tie_client(oracle, rng) -> None:
    """The origin, then for t >= 2 a point where piece t ties piece 1
    exactly and every other piece sits gamma/T or more below: along a new
    direction for the adaptive oracle, along a_1 and a_t for the
    randomized one."""
    p = oracle.params
    known = [oracle.query(np.zeros(oracle.dim)).gradient * p.norm_denom]
    for t in range(2, p.T + 1):
        gap = shift_of(p, 1) - shift_of(p, t)
        if isinstance(oracle, AdaptiveOracle):
            e = rng.standard_normal(oracle.dim)
            for _ in range(2):
                for u in known:
                    e -= (u @ e) * u
            e /= np.linalg.norm(e)
            known.append(e)
            oracle.query(gap * e)
        else:
            a = oracle.instance.piece_matrix
            oracle.query(0.2 * a[0] + (0.2 + gap) * a[t - 1])


CLIENTS = {
    "tie": _tie_client,
    "tie3": lambda oracle, rng: oracle.query(three_way_tie(oracle)),
    "ball": lambda oracle, rng: [oracle.query(sample_ball(oracle.dim, rng)) for _ in range(oracle.params.T)],
}


@given(
    st.sampled_from([AdaptiveOracle, RandomizedOracle]),
    st.sampled_from(sorted(CLIENTS)),
    st.integers(4, 9),
    st.integers(1, 2),
    st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_every_answer_is_the_final_instances_answer(cls, client, T, k, seed):
    # every tie-band answer depends only on its contenders and T: it is,
    # bit for bit, the final instance's answer at the same point, each
    # tensor in the q contender coordinates of its basis_matrix
    params = params_deterministic(T, k) if cls is AdaptiveOracle else params_randomized(T, k, 0.2)
    oracle = cls(params, seed=seed, mc_samples=2_000)
    CLIENTS[client](oracle, np.random.default_rng(seed))
    final, report = oracle.finalize()
    assert report.all_equal
    ties = 0
    for rec in oracle.transcript.records:
        values, keep = affine_regime(final, rec.x)
        if len(keep) == 1:
            continue
        ties += 1
        budget = oracle.budget.child("mc", rec.index)
        resp, again = rec.response, regime_answer(final, rec.x, values, keep, budget)
        assert resp.regime == again.regime == MONTE_CARLO
        assert (resp.value, resp.value_stderr) == (again.value, again.value_stderr)
        assert resp.gradient.tobytes() == again.gradient.tobytes()
        assert resp.gradient_error == again.gradient_error
        q = len(keep)
        for h, h_again in zip(resp.higher, again.higher, strict=True):
            assert h.is_zero == h_again.is_zero
            if not h.is_zero:
                assert h.tensor.shape == (q,) * h.order
                assert h.tensor.tobytes() == h_again.tensor.tobytes()
                assert resp.basis_matrix.shape == (q, oracle.dim)
    assert ties > 0 or client == "ball"


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
