"""Stateful adversarial query protocols.

Both modes share one query protocol: a query within the budget T is
answered against an instance, recorded with its event margin, and
finalize() replays the whole transcript against the final instance. The
modes differ only in where a query's instance comes from and when its
event margin is recorded. The adaptive oracle appends one affine piece
per query and answers with respect to the pieces revealed so far;
locality of the ball smoothing makes those answers coincide with the
completed instance's answers at the same points, and finalize() backfills
the margins and re-checks that coincidence as a runtime assertion
instead of trusting it. The randomized oracle fixes a hidden random
basis up front and records, at query time, how strongly each query
correlates with the not-yet-relevant directions. A response's regime
follows from its affine_index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .evaluator import (
    DEFAULT_VALUE_SAMPLES,
    MCBudget,
    OracleResponse,
    PieceValues,
    affine_regime,
    exact_answer,
    locally_affine_index,  # noqa: F401 - a name perfbench/tracer.py wraps
    monte_carlo_answer,
    oracle_answer,
)
from .geometry import random_orthonormal_basis
from .instance import (
    DETERMINISTIC,
    RANDOMIZED,
    HardInstance,
    InstanceParams,
    append_piece,
    validate,
)
from .streams import as_integer, child_seed, stream


def _mc_budget(mc_samples: int, seed: int, index: int) -> MCBudget:
    """Monte-Carlo budget of query `index`, the same at query time and in
    replay."""
    return MCBudget(mc_samples, child_seed(seed, "mc", index))


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
                "grad_norm": float(np.linalg.norm(rec.response.gradient)),
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
    """One replayed record; values are the replay instance's piece values
    at the recorded query, computed once and shared with its certificate."""

    index: int
    reason: str = ""
    values: PieceValues | None = field(default=None, repr=False, compare=False)

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


def _responses_equal(a: OracleResponse, b: OracleResponse) -> str:
    """Empty string if bit-identical, else the first differing field."""
    if a.affine_index != b.affine_index:
        return "affine_index_changed"
    if a.value != b.value or a.value_stderr != b.value_stderr:
        return "value_mismatch"
    if not np.array_equal(a.gradient, b.gradient):
        return "gradient_mismatch"
    if len(a.higher) != len(b.higher):
        return "higher_mismatch"
    for ha, hb in zip(a.higher, b.higher):
        if ha.order != hb.order or ha.is_zero != hb.is_zero:
            return "higher_mismatch"
        if not ha.is_zero and not np.array_equal(ha.tensor, hb.tensor):
            return "higher_mismatch"
    return ""


def replay_consistency(
    instance: HardInstance,
    transcript: Transcript,
    rescale: float = 1.0,
    mc_samples: int = DEFAULT_VALUE_SAMPLES,
    seed: int = 0,
) -> ConsistencyReport:
    """Replay every recorded query against `instance` and compare.

    Exact-affine pairs must match bit for bit. A recorded Monte-Carlo
    response is re-run (same streams) only for a randomized-mode
    transcript, whose records were all answered by `instance` itself;
    under the adaptive protocol the partial and final instances smooth
    over different subspace sizes, so MC records are flagged instead.
    """
    replay_monte_carlo = transcript.mode == RANDOMIZED
    entries = []
    for rec in transcript.records:
        values, idx = affine_regime(instance, rec.x)
        recorded = rec.response
        if (recorded.affine_index is None) != (idx is None):
            reason = "regime_mismatch"
        elif idx is not None:
            replayed = exact_answer(instance, values, idx).scaled(rescale)
            reason = _responses_equal(recorded, replayed)
        elif replay_monte_carlo:
            budget = _mc_budget(mc_samples, seed, rec.index)
            replayed = monte_carlo_answer(instance, rec.x, budget=budget).scaled(rescale)
            reason = _responses_equal(recorded, replayed)
        else:
            reason = "monte_carlo_regime"
        entries.append(ReplayEntry(index=rec.index, reason=reason, values=values))
    partial = len(transcript) < transcript.params.T
    return ConsistencyReport(
        all_equal=all(e.exact_equal for e in entries), partial=partial, entries=entries
    )


class _ResistingOracle:
    """The query protocol both modes share.

    A query is checked against the budget T, copied, answered against the
    instance its mode serves it from (normalized by norm_denom, then
    scaled by rescale) and recorded; finalize replays the transcript
    against the final instance. The Monte-Carlo budget of query t is
    derived only when its answer needs one. Both integers are checked
    here, once, before any query: seed and mc_samples by
    streams.as_integer, and mc_samples against the fewest samples such
    an answer takes: 2 for a value with a standard error, 2^k for the
    order-k tensor's two draws at 2^k sign flips each, out of its
    2 * mc_samples evaluations.
    """

    def __init__(
        self,
        params: InstanceParams,
        seed: int,
        mc_samples: int,
        rescale: float,
        instance: HardInstance,
    ):
        seed = as_integer(seed, "seed")
        mc_samples = as_integer(mc_samples, "mc_samples")
        minimum = max(2, 2**params.k)
        if mc_samples < minimum:
            raise ValueError(
                f"a Monte-Carlo answer of order {params.k} needs mc_samples >= {minimum}, "
                f"got {mc_samples}"
            )
        self.params = params
        self.seed = seed
        self.mc_samples = mc_samples
        self.rescale = rescale
        self.transcript = Transcript(params)
        self._instance = instance

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

    def _answer(self, instance: HardInstance, x: np.ndarray, t: int) -> OracleResponse:
        budget = partial(_mc_budget, self.mc_samples, self.seed, t)
        return oracle_answer(instance, x, budget=budget).scaled(self.rescale)

    def _record(
        self, t: int, x: np.ndarray, response: OracleResponse, margin: float | None
    ) -> OracleResponse:
        self.transcript.records.append(QueryRecord(t, x, response, margin))
        return response

    def _replay(self) -> tuple[HardInstance, ConsistencyReport]:
        report = replay_consistency(
            self._instance,
            self.transcript,
            rescale=self.rescale,
            mc_samples=self.mc_samples,
            seed=self.seed,
        )
        return self._instance, report


class AdaptiveOracle(_ResistingOracle):
    """Deterministic-mode resisting oracle: builds pieces as queries land.

    Each query appends one piece (from the query's perpendicular
    component, or a seeded random perpendicular direction when the query
    is already in the revealed span) and is answered against the current
    partial instance. Queries have the law dimension d as coordinates.

    Parameter validity is the caller's concern (the harness validates);
    deliberately broken schedules, e.g. a smoothing radius violating
    2*k*delta <= gamma/m, still run, and finalize() then exposes where
    locality failed.
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
        instance = append_piece(self._instance, x, stream(self.seed, "piece", t))
        response = self._answer(instance, x, t)
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
        """The (fixed) instance plus a full replay, Monte-Carlo included.

        The instance never changes here, so replays rerun the exact same
        streams and must match bit for bit in both regimes.
        """
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
