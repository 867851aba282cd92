"""The library names the benchmark under perfbench/ looks up.

perfbench/patch.py swaps a name through vars(owner)[name], the owner's
own namespace. A refactor that renames such a name, or moves it into a
base class or another module, would crash an untraced benchmark run or
silently drop a traced layer; these tests, which only import the
benchmark's tables, fail instead.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

from resistor import evaluator, harness  # noqa: E402
from resistor.harness import RunConfig, run_experiment  # noqa: E402

from conftest import three_way_tie  # noqa: E402


@pytest.mark.parametrize("wrap", tracer.WRAPS, ids=lambda w: f"{w.module}.{w.attr}")
def test_traced_names_are_their_owners_own(wrap):
    owner, name = tracer._resolve(wrap.module, wrap.attr)
    assert name in vars(owner)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_timed_names_are_their_owners_own(workload):
    for owner, name, _ in workloads.WORKLOADS[workload].hooks():
        assert name in vars(owner), f"{owner.__name__}.{name}"


def test_tie_client_reads_pieces_and_replay_flags():
    # the near_tie_k2 checks read final.pieces[i].a and the replay's
    # reasons, the tracer its exact_equal flags
    oracle = workloads._tie_oracle(4, 0, tiny=True)
    workloads.tie_client(oracle, np.random.default_rng(0))
    final, replay = oracle.finalize()
    for i, piece in enumerate(final.pieces):
        assert piece.index == i + 1
        assert piece.a.tobytes() == final.piece_matrix[i].tobytes()
    assert [e.exact_equal for e in replay.entries] == [e.reason == "" for e in replay.entries]
    gaps = [evaluator.suboptimality_certificate(final, rec.x) for rec in oracle.transcript.records]
    flags, info = workloads.tie_failures(final, oracle.transcript, replay, gaps)
    assert not any(flags) and info["mc_answers"] == 3


def test_traced_layers_fire_in_both_modes():
    # the names exist (above) and are looked up at call time: an oracle
    # that bound oracle_answer at import would drop evaluator.answer
    trace = tracer.Tracer()
    trace.install()
    try:
        for mode in ("deterministic", "randomized"):
            run_experiment(RunConfig(mode=mode, T=4, k=1, method="psg", seed=0))
    finally:
        trace.uninstall()
    spans = Counter(span[0] for span in trace.spans)
    assert trace.missing == []
    assert spans["oracles.query"] == spans["evaluator.answer_exact"] == 8
    assert spans["instance.append_piece"] == 4
    assert spans["oracles.finalize"] == spans["oracles.replay"] == 2
    assert spans["geometry.random_basis"] == 1


def test_tie_run_under_the_tracer_balances_its_stack():
    # every tie-client answer is a two-piece closed form: no value
    # estimate runs, and every pushed span is popped
    trace = tracer.Tracer()
    trace.install()
    try:
        oracle = workloads._tie_oracle(4, 0, tiny=True)
        workloads.tie_client(oracle, np.random.default_rng(0))
        oracle.finalize()
    finally:
        trace.uninstall()
    assert trace._stack == []
    spans = Counter(span[0] for span in trace.spans)
    assert spans["evaluator.answer_mc"] == 3 and spans["evaluator.value_mc"] == 0


def test_sampled_answer_nests_its_value_span_under_the_answer():
    # a three-way tie is sampled, on the calling thread: its value span's
    # parent is its answer span
    oracle = workloads._tie_oracle(4, 0, tiny=True)
    x = three_way_tie(oracle)
    trace = tracer.Tracer()
    trace.install()
    try:
        oracle.query(x)
    finally:
        trace.uninstall()
    assert trace._stack == []
    (value,) = [span for span in trace.spans if span[0] == "evaluator.value_mc"]
    assert trace.spans[value[3]][0] == "evaluator.answer_mc"


def test_audit_k2_runs_through_its_timed_hooks(monkeypatch):
    # audit_k2 times harness.smoothed_gradient_mc as its operation and
    # harness.audit_instance as its set-up: verify all at T = 9, k = 2
    # must still call each through the harness namespace, the estimator
    # once per order-1 point (x and y of 30 pairs), the set-up once
    calls = Counter()
    for name in ("smoothed_gradient_mc", "audit_instance"):
        real = getattr(harness, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    harness.run_verification("all", T=9, k=2, seed=0)
    assert calls == {"smoothed_gradient_mc": 60, "audit_instance": 1}


def test_benchmark_selftest_passes():
    # the benchmark's own checks, run as its README runs them: every
    # workload at a tiny size, untraced and traced, the fail-closed output
    # checks, a vanished traced name and a missing library source
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
