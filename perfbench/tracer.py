"""Span tracer for the benchmark's traced runs.

A span is made by swapping a name that a library module looks up (a
module function, or a method on a class) for a wrapper that records
[name, start, end, parent, run] around the original call; `run` is the
repeat the span belongs to (one per traced process). Spans stay in
memory until write().

A wrapped name that the library no longer has is skipped and listed in
`missing`; a layer none of whose names exist is `absent`, and every
metric that needs an absent layer is left out instead of failing the
run. Only traced runs import this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from resistor.evaluator import EXACT_AFFINE, MCBudget
from patch import Patches
from spec import TIMED, calls_metric, time_metric


@dataclass(frozen=True)
class Wrap:
    """module + attr ("func" or "Class.method") names what to wrap.

    layer: span name, unless name(parent_name, args, kwargs) picks one
    (None: call through without a span). done(tracer, span, args, kwargs,
    result) may rename the span or add to counters after the call.
    """

    module: str
    attr: str
    layer: str
    name: Callable | None = None
    done: Callable | None = None


def _answer_name(parent, args, kwargs):
    # Answers to queries only: replay re-answers belong to the replay.
    return "evaluator.answer" if parent == "oracles.query" else None


def _answer_done(tracer, span, args, kwargs, result):
    exact = result.regime == EXACT_AFFINE
    span[0] = "evaluator.answer_exact" if exact else "evaluator.answer_mc"


def _value_mc_done(tracer, span, args, kwargs, result):
    budget = args[2] if len(args) > 2 else kwargs.get("budget")
    n = (budget or MCBudget()).n_samples
    tracer.counters["value_mc_samples"] += n


def _witness_name(parent, args, kwargs):
    # Inside an audit the estimator is part of the audit.
    return "harness.witness_check" if parent is None else None


def _replay_done(tracer, span, args, kwargs, result):
    tracer.counters["replay_entries"] += len(result.entries)
    tracer.counters["replay_equal"] += sum(e.exact_equal for e in result.entries)


def _lipschitz_name(parent, args, kwargs):
    order = args[1] if len(args) > 1 else kwargs["order"]
    return f"harness.lipschitz_o{order}"


WRAPS = [
    Wrap("resistor.oracles", "random_orthonormal_basis", "geometry.random_basis"),
    Wrap("resistor.harness", "random_orthonormal_basis", "geometry.random_basis"),
    Wrap("resistor.geometry", "orthonormal_extend", "geometry.orthonormal_extend"),
    Wrap("resistor.instance", "orthonormal_extend", "geometry.orthonormal_extend"),
    Wrap("resistor.oracles", "append_piece", "instance.append_piece"),
    Wrap("resistor.instance", "HardInstance.from_basis", "instance.from_basis"),
    Wrap("resistor.evaluator", "piece_values", "evaluator.piece_values"),
    Wrap("resistor.evaluator", "locally_affine_index", "evaluator.locally_affine"),
    Wrap("resistor.oracles", "locally_affine_index", "evaluator.locally_affine"),
    Wrap("resistor.oracles", "oracle_answer", "evaluator.answer", _answer_name, _answer_done),
    Wrap("resistor.evaluator", "smoothed_value_mc", "evaluator.value_mc", done=_value_mc_done),
    Wrap("resistor.harness", "smoothed_value_mc", "harness.witness_check", _witness_name),
    Wrap("resistor.evaluator", "suboptimality_certificate", "evaluator.certificate"),
    Wrap("resistor.harness", "suboptimality_certificate", "evaluator.certificate"),
    Wrap("resistor.oracles", "AdaptiveOracle.query", "oracles.query"),
    Wrap("resistor.oracles", "RandomizedOracle.query", "oracles.query"),
    Wrap("resistor.oracles", "AdaptiveOracle.finalize", "oracles.finalize"),
    Wrap("resistor.oracles", "RandomizedOracle.finalize", "oracles.finalize"),
    Wrap("resistor.oracles", "replay_consistency", "oracles.replay", done=_replay_done),
    Wrap("resistor.harness", "run_method", "optimizers.client"),
    Wrap("resistor.harness", "emit_report", "harness.emit"),
    Wrap("resistor.oracles", "Transcript.to_jsonl", "harness.emit"),
    Wrap("resistor.harness", "verify_lipschitz", "harness.lipschitz", _lipschitz_name),
    Wrap("resistor.harness", "verify_invariance", "harness.invariance"),
    Wrap("resistor.harness", "verify_locality", "harness.locality"),
]


def _layer_of(span_name: str) -> str:
    """The Wrap.layer that produces spans of this name."""
    for prefix in ("evaluator.answer", "harness.lipschitz"):
        if span_name.startswith(prefix):
            return prefix
    return span_name


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (layers it needs, function of (calls by span name, counters)).
RATIOS = {
    "evaluator.piece_values_per_query": (
        ("evaluator.piece_values", "oracles.query"),
        lambda c, k: _per(c["evaluator.piece_values"], c["oracles.query"]),
    ),
    "evaluator.locally_affine_per_query": (
        ("evaluator.locally_affine", "oracles.query"),
        lambda c, k: _per(c["evaluator.locally_affine"], c["oracles.query"]),
    ),
    "evaluator.mc_share": (
        ("evaluator.answer",),
        lambda c, k: _per(
            c["evaluator.answer_mc"], c["evaluator.answer_mc"] + c["evaluator.answer_exact"]
        ),
    ),
    "evaluator.value_mc_samples": (
        ("evaluator.value_mc",),
        lambda c, k: float(k["value_mc_samples"]),
    ),
    "oracles.replay_equal_frac": (
        ("oracles.replay",),
        lambda c, k: _per(k["replay_equal"], k["replay_entries"]),
    ),
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.run = 0
        self.missing: list[str] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches = Patches()

    def install(self) -> None:
        present = set()
        for wrap in self.wraps:
            try:
                owner, name = _resolve(wrap.module, wrap.attr)
                # KeyError if the name is gone from its owner.
                self._patches.swap(owner, name, functools.partial(self._wrapper, wrap))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{wrap.module}.{wrap.attr}")
                continue
            present.add(wrap.layer)
        self.absent = {wrap.layer for wrap in self.wraps} - present

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrapper(self, wrap: Wrap, original):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrapper(wrap, original.__func__))
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if wrap.name is None:
                name = wrap.layer
            else:
                name = wrap.name(spans[parent][0] if parent is not None else None, args, kwargs)
                if name is None:
                    return original(*args, **kwargs)
            span = [name, 0.0, 0.0, parent, self.run]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if wrap.done is not None:
                wrap.done(self, span, args, kwargs, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Every layer metric whose layers are present, over all spans."""
        child = [0.0] * len(self.spans)
        mc_value = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
                if name == "evaluator.value_mc":
                    mc_value[parent] += end - start
        own, total, calls = Counter(), Counter(), Counter()
        mc_self = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            total[name] += end - start
            calls[name] += 1
            if name == "evaluator.answer_mc":
                mc_self += end - start - mc_value[i]
        out = {}
        for span_name, kind in TIMED:
            if _layer_of(span_name) not in self.absent:
                out[time_metric(span_name)] = float((own if kind == "self" else total)[span_name])
                out[calls_metric(span_name)] = float(calls[span_name])
        if "evaluator.answer" not in self.absent:
            out["evaluator.answer_mc_self_s"] = mc_self
        for metric, (layers, fn) in RATIOS.items():
            if not self.absent.intersection(layers):
                out[metric] = fn(calls, self.counters)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                ) + "\n")
