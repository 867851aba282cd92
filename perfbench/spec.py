"""Names and units of the benchmark's workloads and metrics.

Imported by the parent process (run.py), the tracer and the self-test;
it imports nothing from the library, so the parent stays light.
"""

WORKLOADS = ("adaptive_t400", "hidden_t9", "near_tie_k2", "audit_k2")

# Untraced runs (--trace 0). op_ms_p50 is the median latency of one
# operation: an oracle query timed at its `query` boundary, or on
# audit_k2 one gradient estimate made by an audit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# Span names with their time kind: "self" is a span's duration minus that
# of its direct child spans, "total" its whole duration. Each gives a time
# metric (see time_metric) and a <span name>_calls count.
TIMED = (
    ("geometry.random_basis", "self"),
    ("geometry.orthonormal_extend", "self"),
    ("instance.append_piece", "self"),
    ("instance.from_basis", "self"),
    ("evaluator.piece_values", "self"),
    ("evaluator.locally_affine", "self"),
    ("evaluator.answer_exact", "total"),
    ("evaluator.answer_mc", "total"),
    ("evaluator.value_mc", "self"),
    ("evaluator.certificate", "self"),
    ("oracles.query", "self"),
    ("oracles.finalize", "self"),
    ("oracles.replay", "self"),
    ("optimizers.client", "self"),
    ("harness.witness_check", "self"),
    ("harness.emit", "self"),
    ("harness.lipschitz_o0", "self"),
    ("harness.lipschitz_o1", "self"),
    ("harness.lipschitz_o2", "self"),
    ("harness.invariance", "self"),
    ("harness.locality", "self"),
)
# Layers whose metric names spell out that they are self time.
SELF_SUFFIX = {"oracles.query", "optimizers.client"}


def time_metric(span_name: str) -> str:
    return span_name + ("_self_s" if span_name in SELF_SUFFIX else "_s")


def calls_metric(span_name: str) -> str:
    return span_name + "_calls"


# Traced runs (--trace 1).
PER_LAYER = {
    **{time_metric(name): "s" for name, _ in TIMED},
    **{calls_metric(name): "count" for name, _ in TIMED},
    "evaluator.answer_mc_self_s": "s",
    "evaluator.piece_values_per_query": "calls/query",
    "evaluator.locally_affine_per_query": "calls/query",
    "evaluator.mc_share": "ratio",
    "evaluator.value_mc_samples": "count",
    "oracles.replay_equal_frac": "ratio",
    "instance.basis_mb": "MB",
    "instance.rss_over_basis": "ratio",
    "trace_overhead_s": "s",
}
