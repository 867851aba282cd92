"""Stateful adversarial query protocols.

Both modes share one query protocol: a query within the budget T is
answered against an instance, recorded with its event margin, and
finalize() replays the whole transcript against the final instance,
re-answering every record and comparing bit for bit. The modes differ
only in where a query's instance comes from and when its event margin
is recorded. The adaptive oracle appends one affine piece per query and
answers with respect to the pieces revealed so far. Every answer depends
only on the query's contenders and T (see evaluator), and no later piece
contends, so those answers are the completed instance's answers at the
same points; finalize() backfills the margins and re-checks that as a
runtime assertion instead of trusting it. The randomized oracle fixes a
hidden random basis up front and records, at query time, how strongly
each query correlates with the not-yet-relevant directions. A response's
regime follows from its affine_index.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .evaluator import (
    DEFAULT_VALUE_SAMPLES,
    MCBudget,
    OracleResponse,
    affine_regime,
    locally_affine_index,  # noqa: F401 - a name perfbench/tracer.py wraps
    oracle_answer,
    piece_values,
    regime_answer,
)
from .geometry import random_orthonormal_basis, vector_norm
from .instance import (
    DETERMINISTIC,
    RANDOMIZED,
    HardInstance,
    InstanceParams,
    append_piece,
    check_in_ball,
    validate,
)
from .streams import FLOAT_MAX, as_integer, refusal, stream


class OracleExhaustedError(RuntimeError):
    """The query budget T has been spent."""


@dataclass(eq=False)
class QueryRecord:
    """One query/response pair with its per-query flags.

    event_e_margin is max_{j>=i} |a_j . x_i| in randomized mode
    (recorded at query time); in deterministic mode pieces j > i do not
    exist yet, so finalize() fills max_{j>i} |a_j . x_i| as a
    cross-check (zero by construction, up to roundoff).
    """

    index: int
    x: np.ndarray
    response: OracleResponse
    event_e_margin: float | None


@dataclass
class Transcript:
    params: InstanceParams
    records: list[QueryRecord] = field(default_factory=list)

    @property
    def mode(self) -> str:
        return self.params.mode

    def __len__(self) -> int:
        return len(self.records)

    def jsonl_records(self, dump_vectors: bool = False) -> list[dict]:
        rows = []
        for rec in self.records:
            row = {
                "i": rec.index,
                "x_norm": float(np.linalg.norm(rec.x)),
                "value": rec.response.value,
                "grad_norm": vector_norm(rec.response.gradient),
                "regime": rec.response.regime,
                "event_e_margin": rec.event_e_margin,
                "locality_ok": rec.response.affine_index is not None,
            }
            if dump_vectors:
                row["x"] = rec.x.tolist()
                row["gradient"] = rec.response.gradient.tolist()
            rows.append(row)
        return rows

    def to_jsonl(self, path, dump_vectors: bool = False) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.jsonl_records(dump_vectors):
                fh.write(json.dumps(row) + "\n")


@dataclass
class ReplayEntry:
    """One replayed record; f_tilde is the replay instance's max of the
    shifted pieces at the recorded query, computed once and shared with
    its certificate."""

    index: int
    reason: str
    f_tilde: float

    @property
    def exact_equal(self) -> bool:
        return self.reason == ""


@dataclass
class ConsistencyReport:
    """Recorded-versus-replayed comparison against the final instance."""

    all_equal: bool
    partial: bool
    entries: list[ReplayEntry]

    @property
    def first_mismatch(self) -> int | None:
        for entry in self.entries:
            if not entry.exact_equal:
                return entry.index
        return None


def replay_consistency(
    instance: HardInstance, transcript: Transcript, rescale: float, budget: MCBudget
) -> ConsistencyReport:
    """Replay every recorded query against `instance` and compare.

    A record whose regime the replay contradicts is a regime_mismatch.
    Otherwise the query is answered again through regime_answer, the
    dispatch that answered it, on its query-time budget
    budget.child("mc", index), and the two answers must match bit for bit
    in every field, in either mode; the reason names the first that
    differs (OracleResponse.mismatch).
    """
    entries = []
    for rec in transcript.records:
        values, keep = affine_regime(instance, rec.x)
        if (rec.response.affine_index is not None) != (len(keep) == 1):
            reason = "regime_mismatch"
        else:
            replayed = regime_answer(instance, rec.x, values, keep, budget.child("mc", rec.index)).scaled(rescale)
            reason = rec.response.mismatch(replayed)
        entries.append(ReplayEntry(rec.index, reason, values.f_tilde))
    return ConsistencyReport(
        all_equal=all(e.exact_equal for e in entries),
        partial=len(transcript) < transcript.params.T,
        entries=entries,
    )


class _ResistingOracle:
    """The query protocol both modes share.

    A query is checked against the budget T, copied, answered against the
    instance its mode serves it from (normalized by norm_denom, then
    scaled by rescale) and recorded; finalize replays the transcript
    against the final instance. seed and mc_samples are checked here,
    once, into the root budget MCBudget(mc_samples, seed): mc_samples
    against the fewest samples a Monte-Carlo answer takes, 2 for a value
    with a standard error, 2^k for the order-k tensor's two draws at 2^k
    sign flips each, out of its 2 * mc_samples evaluations. Query t's
    budget, when answered and replayed, is budget.child("mc", t). rescale
    must be a positive finite real number (not a bool) whose float is
    positive and finite: any other would answer NaN, inf, 0 or flipped
    values. It is kept as a float, so every answer's scalars are floats.
    """

    def __init__(
        self,
        params: InstanceParams,
        seed: int,
        mc_samples: int,
        rescale: float,
        instance: HardInstance,
    ):
        if isinstance(rescale, bool) or not isinstance(rescale, numbers.Real):
            raise TypeError(refusal("rescale", "be a real number", rescale))
        if not (0.0 < rescale < math.inf):
            raise ValueError(refusal("rescale", "be positive and finite", rescale))
        # 0 for an integer or Fraction past the largest float, or so small
        # that it rounds to 0 (its text may be too long to print)
        scale = float(rescale) if rescale <= FLOAT_MAX else 0.0
        if scale == 0.0:
            raise ValueError(f"rescale must lie in the range of positive floats, up to {FLOAT_MAX!r}")
        mc_samples = as_integer(mc_samples, "mc_samples")
        minimum = max(2, 2**params.k)
        if mc_samples < minimum:
            requirement = f"be at least {minimum} for a Monte-Carlo answer of order {params.k}"
            raise ValueError(refusal("mc_samples", requirement, mc_samples))
        self.params = params
        self.budget = MCBudget(mc_samples, seed)
        self.rescale = scale
        self.transcript = Transcript(params)
        self._instance = instance

    @property
    def seed(self) -> int:
        return self.budget.seed

    @property
    def instance(self) -> HardInstance:
        return self._instance

    @property
    def dim(self) -> int:
        """Coordinates of a query: the working dimension of the instance."""
        return self._instance.basis.dim

    @property
    def queries_left(self) -> int:
        return self.params.T - len(self.transcript)

    def _next(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """A fresh float copy of the query and its 1-based index."""
        if self.queries_left <= 0:
            raise OracleExhaustedError(f"query budget T = {self.params.T} exhausted")
        return np.array(x, dtype=float), len(self.transcript) + 1

    def _answer(
        self, instance: HardInstance, x: np.ndarray, t: int, coords: np.ndarray | None = None
    ) -> OracleResponse:
        budget = self.budget.child("mc", t)
        return oracle_answer(instance, x, budget=budget, coords=coords).scaled(self.rescale)

    def _record(
        self, t: int, x: np.ndarray, response: OracleResponse, margin: float | None
    ) -> OracleResponse:
        self.transcript.records.append(QueryRecord(t, x, response, margin))
        return response

    def _replay(self) -> tuple[HardInstance, ConsistencyReport]:
        return self._instance, replay_consistency(self._instance, self.transcript, self.rescale, self.budget)


class AdaptiveOracle(_ResistingOracle):
    """Deterministic-mode resisting oracle: builds pieces as queries land.

    Each query appends one piece (from the query's perpendicular
    component, or a random perpendicular direction from the stream
    (seed, "piece", t), built only when the query is already in the
    revealed span) and is answered against the current partial instance.
    Queries have the law dimension d as coordinates.

    A query is checked against the unit ball first, so a refused query
    builds no piece and writes nothing. It is then evaluated against the
    r revealed pieces once, by np.vecdot: those values are its
    coordinates for the new piece's perpendicular (append_piece) and the
    first r piece values of its answer (oracle_answer), which evaluates
    only the new row and keeps the bits it would have if it evaluated
    every row, so replays stay exact. A query in the span (every query of psg,
    agd and cubic in this mode) makes four passes over the r x d rows
    while r <= 3d/4, six beyond (see geometry.arbitrary_perp_unit).

    The params are not validated here: params_deterministic refuses a
    schedule that cannot certify the floor, and hand-built broken ones,
    e.g. a smoothing radius violating 2*k*delta <= gamma/m, run on
    purpose, finalize() then exposing where locality failed.
    """

    def __init__(
        self,
        params: InstanceParams,
        seed: int = 0,
        mc_samples: int = DEFAULT_VALUE_SAMPLES,
        rescale: float = 1.0,
    ):
        if params.mode != DETERMINISTIC:
            raise ValueError("AdaptiveOracle requires deterministic-mode params")
        super().__init__(params, seed, mc_samples, rescale, HardInstance.empty(params))

    def query(self, x: np.ndarray) -> OracleResponse:
        x, t = self._next(x)
        check_in_ball(x)
        coords = piece_values(self._instance, x).linear
        rng = partial(stream, self.seed, "piece", t)
        instance = append_piece(self._instance, x, rng, coords)
        response = self._answer(instance, x, t, coords)
        # the piece is revealed only with an answer, so a query that
        # raises leaves the instance as it was
        self._instance = instance
        return self._record(t, x, response, None)

    def finalize(self) -> tuple[HardInstance, ConsistencyReport]:
        """Final instance plus the recorded-vs-replayed comparison.

        Early finalize (fewer than T queries) is permitted; the report
        carries partial=True. Also backfills the deterministic-mode
        event margins max_{j>i} |a_j . x_i|.
        """
        matrix = self._instance.piece_matrix
        for rec in self.transcript.records:
            later = matrix[rec.index:]
            rec.event_e_margin = (
                float(np.abs(later @ rec.x).max()) if len(later) else 0.0
            )
        return self._replay()


class RandomizedOracle(_ResistingOracle):
    """Fixed hidden-basis oracle: all T pieces drawn up front.

    The pieces are a Haar-random orthonormal set in R^d (d = params.d),
    written in the coordinates of E + span(pieces), E being T + 1 explicit
    directions: as many as deterministic mode has dimensions. Queries are
    vectors of those T + 1 + T coordinates (see
    geometry.random_orthonormal_basis).

    Records, per query i, the correlation margin max_{j>=i} |a_j . x_i|
    that the low-correlation event bounds by 1/(20 T^1.5).
    """

    def __init__(
        self,
        params: InstanceParams,
        seed: int = 0,
        mc_samples: int = DEFAULT_VALUE_SAMPLES,
        rescale: float = 1.0,
    ):
        if params.mode != RANDOMIZED:
            raise ValueError("RandomizedOracle requires randomized-mode params")
        problems = validate(params)
        if problems:
            raise ValueError("invalid params: " + "; ".join(problems))
        basis = random_orthonormal_basis(params.d, params.T, stream(seed, "basis"), params.T + 1)
        instance = HardInstance.from_basis(params, basis)
        super().__init__(params, seed, mc_samples, rescale, instance)

    def query(self, x: np.ndarray) -> OracleResponse:
        x, i = self._next(x)
        response = self._answer(self._instance, x, i)
        # after the answer, which refuses a malformed x
        margin = float(np.abs(self._instance.piece_matrix[i - 1:] @ x).max())
        return self._record(i, x, response, margin)

    def finalize(self) -> tuple[HardInstance, ConsistencyReport]:
        """The (fixed) instance plus a full replay of the transcript."""
        return self._replay()


@dataclass(frozen=True)
class EventECheck:
    held: bool
    first_violation: int | None
    threshold: float
    max_margin: float


def event_e_check(transcript: Transcript, params: InstanceParams) -> EventECheck:
    """Did every recorded margin stay at or below 1/(20 T^1.5)?

    The event is non-strict (margins exactly at the threshold count as
    held); a margin that is not a number violates it, and max_margin is
    then NaN. Only meaningful for randomized-mode transcripts.
    """
    if transcript.mode != RANDOMIZED:
        raise ValueError("event-E check applies to randomized-mode transcripts")
    threshold = 1.0 / (20.0 * params.T**1.5)
    first = None
    margins = [0.0]
    for rec in transcript.records:
        margin = rec.event_e_margin
        if margin is None:
            raise ValueError(f"record {rec.index} is missing its event margin")
        margins.append(margin)
        if not (margin <= threshold) and first is None:
            first = rec.index
    return EventECheck(
        held=first is None,
        first_violation=first,
        threshold=threshold,
        max_margin=float(np.max(margins)),
    )
