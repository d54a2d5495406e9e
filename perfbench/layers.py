"""Per-layer accounting for the traced benchmark run.

Two sources feed it, both outside ``src/``:

* the spans and counters the program already emits through
  :mod:`repro.obs` (featurize, MapReduce, shards, run store, LF mining,
  graph build, propagation, vectorizer);
* spans this module opens around public entry points that carry no
  span of their own (LF application, label-model EM, fusion-model fit
  and predict, MLP fit, run-store reads and writes, micro-batch
  scoring, resilience-policy calls).  :class:`LayerProbe` installs them
  for the duration of a traced run and restores the originals after.

:data:`LAYER_METRICS` is the benchmark's per-layer table: each metric
with its unit, which end-to-end metric it should move, and the
workloads where it matters.  ``BENCHMARK.json`` lists the same names;
``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.core import pipeline as pipeline_module
from repro.labeling.label_model import GenerativeLabelModel
from repro.models.fusion import EarlyFusion
from repro.models.mlp import MLPClassifier
from repro.resilience.policy import ResiliencePolicy
from repro.runs.store import RunStore
from repro.serving.server import ModelServer

__all__ = [
    "COUNT_METRICS",
    "LAYER_METRICS",
    "LayerProbe",
    "LayerSpec",
    "harvest_trace",
    "unattributed_s",
]


@dataclass(frozen=True)
class LayerSpec:
    name: str
    unit: str
    better: str
    moves: str
    workloads: str


_PIPES = "pipeline-exact; serve-mixed deploy run; not while serving"
_ALL = "all"
_STORE = "serve-mixed deploy run and its resumes; not pipeline-exact"
_SERVE = "serve-mixed; not pipeline-exact"

#: metric -> unit, direction, the end-to-end metric it should move, and
#: where it matters.  A layer a workload does not exercise reports 0
#: there: that is the prediction that it does not move.
LAYER_METRICS: tuple[LayerSpec, ...] = (
    LayerSpec("datagen.generate_s", "s", "lower", "setup_s", _ALL),
    LayerSpec("datagen.points", "count", "lower", "setup_s", _ALL),
    LayerSpec("resources.suite_build_s", "s", "lower", "setup_s", _ALL),
    LayerSpec("resources.featurize_s", "s", "lower", "pipeline_s", _PIPES),
    LayerSpec("resources.service_calls", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("resources.call_us", "us", "lower", "pipeline_s", _PIPES),
    LayerSpec("dataflow.records_mapped", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("dataflow.retried_records", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("dataflow.failed_records", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("shards.featurize_s", "s", "lower", "setup_s, peak_rss_mb", _STORE),
    LayerSpec("shards.self_s", "s", "lower", "setup_s, peak_rss_mb", _STORE),
    LayerSpec("shards.computed", "count", "lower", "setup_s", _STORE),
    LayerSpec("runs.save_s", "s", "lower", "setup_s", _STORE),
    LayerSpec("runs.bytes_written", "bytes", "lower", "setup_s", _STORE),
    LayerSpec("runs.artifacts_saved", "count", "lower", "setup_s", _STORE),
    LayerSpec("runs.load_s", "s", "lower", "setup_s (load), resume_s", _STORE),
    LayerSpec("runs.bytes_read", "bytes", "lower", "setup_s (load), resume_s", _STORE),
    LayerSpec("mining.lf_generation_s", "s", "lower", "pipeline_s", _PIPES),
    LayerSpec("mining.candidates", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("mining.n_lfs", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("labeling.apply_lfs_s", "s", "lower", "pipeline_s", _PIPES),
    LayerSpec("labeling.vote_cells", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("labeling.em_s", "s", "lower", "pipeline_s", _PIPES),
    LayerSpec("labeling.em_iterations", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("propagation.channels_s", "s", "lower", "pipeline_s", _PIPES),
    LayerSpec("propagation.score_s", "s", "lower", "pipeline_s",
              "pipeline-exact (largest kernel); serve-mixed deploy run"),
    LayerSpec("propagation.symmetrize_s", "s", "lower", "pipeline_s", _PIPES),
    LayerSpec("propagation.blocks", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("propagation.propagate_s", "s", "lower", "pipeline_s", _PIPES),
    LayerSpec("features.vectorize_s", "s", "lower", "pipeline_s", _PIPES),
    LayerSpec("features.cells", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("models.fit_s", "s", "lower", "pipeline_s", _PIPES),
    LayerSpec("models.epochs_x_rows", "count", "lower", "pipeline_s", _PIPES),
    LayerSpec("models.predict_ms", "ms", "lower",
              "pipeline_s; op_cpu_ms (serve), request_p50_ms.low, sustained_qps",
              "pipeline-exact (evaluate); serve-mixed (per request)"),
    LayerSpec("models.auprc", "1", "higher",
              "none: model quality, deterministic per seed", _ALL),
    LayerSpec("serving.load_s", "s", "lower", "setup_s",
              _SERVE),
    LayerSpec("serving.warm_entries", "count", "lower", "setup_s",
              _SERVE),
    LayerSpec("serving.queue_wait_ms.p50", "ms", "lower",
              "request_p50_ms.low, request_p99_ms.low", _SERVE),
    LayerSpec("serving.queue_wait_ms.p99", "ms", "lower",
              "request_p50_ms.low, request_p99_ms.low", _SERVE),
    LayerSpec("serving.decide_batch_ms.p50", "ms", "lower",
              "op_cpu_ms (serve), request_p50_ms.high, request_p99_ms.high, sustained_qps",
              _SERVE),
    LayerSpec("serving.decide_batch_ms.p99", "ms", "lower",
              "op_cpu_ms (serve), request_p50_ms.high, request_p99_ms.high, sustained_qps",
              _SERVE),
    LayerSpec("serving.batch_size_mean", "count", "higher",
              "request_p50_ms.high, sustained_qps", _SERVE),
    LayerSpec("serving.timeout_flush_ratio", "1", "lower",
              "request_p50_ms.low", _SERVE),
    LayerSpec("serving.cache_hit_ratio", "1", "higher",
              "request_p99_ms.low, request_p99_ms.high", _SERVE),
    LayerSpec("resilience.attempts", "count", "lower",
              "request_p99_ms.low, request_p99_ms.high", _SERVE),
    LayerSpec("resilience.retries", "count", "lower",
              "request_p99_ms.low, request_p99_ms.high", _SERVE),
    LayerSpec("resilience.fallbacks", "count", "lower",
              "request_p99_ms.low, request_p99_ms.high", _SERVE),
    LayerSpec("resilience.policy_call_us", "us", "lower",
              "request_p99_ms.low, request_p99_ms.high", _SERVE),
    LayerSpec("obs.trace_overhead_ratio", "1", "lower",
              "validity of the traced run", _ALL),
    LayerSpec("obs.untraced_base_s", "s", "lower",
              "base of obs.trace_overhead_ratio", _ALL),
    LayerSpec("obs.unattributed_s", "s", "lower",
              "validity of the traced run", _ALL),
    LayerSpec("loadgen.late_ms.p99", "ms", "lower",
              "validity of the open loop", _SERVE),
    LayerSpec("loadgen.sent", "count", "higher",
              "validity of the open loop", _SERVE),
    LayerSpec("loadgen.completed", "count", "higher",
              "validity of the open loop", _SERVE),
    LayerSpec("loadgen.failed", "count", "lower",
              "validity of the open loop", _SERVE),
)

#: machine-independent work counts: two runs of one workload and seed
#: must report them identically (micro-batch sizes are left out: they
#: depend on how arrivals happen to interleave with the batch timer)
COUNT_METRICS: tuple[str, ...] = (
    "datagen.points",
    "resources.service_calls",
    "dataflow.records_mapped",
    "dataflow.retried_records",
    "dataflow.failed_records",
    "shards.computed",
    "runs.bytes_written",
    "runs.artifacts_saved",
    "runs.bytes_read",
    "mining.candidates",
    "mining.n_lfs",
    "labeling.vote_cells",
    "labeling.em_iterations",
    "propagation.blocks",
    "features.cells",
    "models.epochs_x_rows",
    "serving.warm_entries",
    "resilience.attempts",
    "resilience.retries",
    "resilience.fallbacks",
    "loadgen.sent",
    "loadgen.completed",
    "loadgen.failed",
)

#: spans that count as a measured layer when accounting for wall time
_LAYER_SPANS = frozenset({
    "bench.datagen.generate",
    "bench.resources.suite_build",
    "featurize_corpus",
    "shards.featurize",
    "mining.lf_generation",
    "bench.labeling.apply_lfs",
    "bench.labeling.em",
    "graph.build_knn",
    "graph.propagate",
    "vectorize.transform",
    "bench.models.fit",
    "bench.models.predict",
    "bench.runs.put_bytes",
    "bench.runs.get_bytes",
})


@dataclass
class _Patch:
    owner: object
    attr: str
    original: Callable


@dataclass
class LayerProbe:
    """Spans around untraced entry points, plus serving-path samples.

    Use as a context manager around traced work only: the wrappers cost
    a span per call.  ``batches`` collects ``(start, end, payload ids)``
    for every micro-batch scored, ``policy_calls_s`` the duration of
    every resilience-policy call; both are appended from server threads.
    """

    batches: list[tuple[float, float, list[int]]] = field(default_factory=list)
    policy_calls_s: list[float] = field(default_factory=list)
    _patches: list[_Patch] = field(default_factory=list)

    def __enter__(self) -> "LayerProbe":
        self._wrap(pipeline_module, "apply_lfs", self._apply_lfs)
        self._wrap(GenerativeLabelModel, "fit", self._em_fit)
        self._wrap(EarlyFusion, "fit", self._span_method("bench.models.fit"))
        self._wrap(EarlyFusion, "predict_proba",
                   self._span_method("bench.models.predict"))
        self._wrap(MLPClassifier, "fit", self._mlp_fit)
        self._wrap(RunStore, "put_bytes", self._span_method("bench.runs.put_bytes"))
        self._wrap(RunStore, "get_bytes", self._span_method("bench.runs.get_bytes"))
        self._wrap(ModelServer, "decide_batch", self._decide_batch)
        self._wrap(ResiliencePolicy, "call", self._policy_call)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._patches:
            patch = self._patches.pop()
            setattr(patch.owner, patch.attr, patch.original)

    def _wrap(self, owner: object, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._patches.append(_Patch(owner, attr, original))
        setattr(owner, attr, make(original))

    # -- wrappers --------------------------------------------------------
    @staticmethod
    def _span_method(name: str) -> Callable:
        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                with obs.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    @staticmethod
    def _apply_lfs(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with obs.span("bench.labeling.apply_lfs") as sp:
                matrix = original(*args, **kwargs)
                sp.add_counter("vote_cells", int(matrix.votes.size))
            return matrix

        return wrapper

    @staticmethod
    def _em_fit(original: Callable) -> Callable:
        def wrapper(self, *args, **kwargs):
            with obs.span("bench.labeling.em") as sp:
                out = original(self, *args, **kwargs)
                sp.add_counter("em_iterations", self.info_.n_iterations)
            return out

        return wrapper

    @staticmethod
    def _mlp_fit(original: Callable) -> Callable:
        def wrapper(self, X, *args, **kwargs):
            with obs.span("bench.models.mlp_fit") as sp:
                out = original(self, X, *args, **kwargs)
                sp.add_counter("epochs_x_rows", len(self.loss_history_) * len(X))
            return out

        return wrapper

    def _decide_batch(self, original: Callable) -> Callable:
        batches = self.batches

        def wrapper(server, points):
            start = time.perf_counter()
            out = original(server, points)
            batches.append((start, time.perf_counter(), [id(p) for p in points]))
            return out

        return wrapper

    def _policy_call(self, original: Callable) -> Callable:
        samples = self.policy_calls_s

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - start)

        return wrapper


# ----------------------------------------------------------------------
# harvesting
# ----------------------------------------------------------------------
def _total_s(tracer: obs.Tracer, name: str) -> float:
    return float(sum(s.duration for s in tracer.find_spans(name)))


def _counter(tracer: obs.Tracer, span_name: str, key: str) -> float:
    return float(sum(s.counters.get(key, 0) for s in tracer.find_spans(span_name)))


def harvest_trace(tracer: obs.Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced unit of work (times in s)."""
    totals = tracer.total_counters()
    featurize = tracer.find_spans("featurize_corpus")
    calls = 0
    call_total_s = 0.0
    for sp in featurize:
        for key, hist in sp.histograms.items():
            if key.startswith("latency_s/"):
                calls += hist.count
                call_total_s += hist.total
    shard_spans = tracer.find_spans("shards.featurize")
    shard_inner = sum(
        child.duration
        for sp in shard_spans
        for child in sp.walk()
        if child.name == "featurize_corpus"
    )
    return {
        "datagen.generate_s": _total_s(tracer, "bench.datagen.generate"),
        "resources.suite_build_s": _total_s(tracer, "bench.resources.suite_build"),
        "resources.featurize_s": sum(s.duration for s in featurize),
        "resources.service_calls": calls,
        "resources.call_us": call_total_s / calls * 1e6 if calls else 0.0,
        "dataflow.records_mapped": _counter(tracer, "mapreduce.map", "records_mapped"),
        "dataflow.retried_records": _counter(tracer, "mapreduce.map", "retried_records"),
        "dataflow.failed_records": _counter(tracer, "mapreduce.map", "failed_records"),
        "shards.featurize_s": sum(s.duration for s in shard_spans),
        "shards.self_s": sum(s.duration for s in shard_spans) - shard_inner,
        "shards.computed": _counter(tracer, "shards.featurize", "shards_computed"),
        "runs.save_s": _total_s(tracer, "bench.runs.put_bytes"),
        "runs.bytes_written": float(totals.get("runs.artifact_bytes_saved", 0)),
        "runs.artifacts_saved": float(totals.get("runs.artifacts_saved", 0)),
        "runs.load_s": _total_s(tracer, "bench.runs.get_bytes"),
        "runs.bytes_read": float(totals.get("runs.artifact_bytes_loaded", 0)),
        "mining.lf_generation_s": _total_s(tracer, "mining.lf_generation"),
        "mining.candidates": _counter(tracer, "mining.lf_generation", "candidates"),
        "mining.n_lfs": _counter(tracer, "mining.lf_generation", "lfs_positive")
        + _counter(tracer, "mining.lf_generation", "lfs_negative"),
        "labeling.apply_lfs_s": _total_s(tracer, "bench.labeling.apply_lfs"),
        "labeling.vote_cells": _counter(tracer, "bench.labeling.apply_lfs", "vote_cells"),
        "labeling.em_s": _total_s(tracer, "bench.labeling.em"),
        "labeling.em_iterations": _counter(tracer, "bench.labeling.em", "em_iterations"),
        "propagation.channels_s": _total_s(tracer, "graph.channels"),
        "propagation.score_s": _total_s(tracer, "graph.score"),
        "propagation.symmetrize_s": _total_s(tracer, "graph.symmetrize"),
        "propagation.blocks": _counter(tracer, "graph.build_knn", "blocks"),
        "propagation.propagate_s": _total_s(tracer, "graph.propagate"),
        "features.vectorize_s": _total_s(tracer, "vectorize.transform"),
        "features.cells": _counter(tracer, "vectorize.transform", "cells"),
        "models.fit_s": _total_s(tracer, "bench.models.fit"),
        "models.epochs_x_rows": _counter(tracer, "bench.models.mlp_fit", "epochs_x_rows"),
        "models.predict_ms": _median_ms(
            [s.duration for s in tracer.find_spans("bench.models.predict")]
        ),
    }


def _median_ms(durations_s: list[float]) -> float:
    return float(np.median(durations_s) * 1e3) if durations_s else 0.0


def unattributed_s(tracer: obs.Tracer, start_wall: float, end_wall: float) -> float:
    """Wall time in ``[start_wall, end_wall]`` no measured layer covers."""
    intervals = sorted(
        (sp.start_wall, sp.start_wall + sp.duration)
        for sp in tracer.root.walk()
        if sp.name in _LAYER_SPANS
    )
    covered = 0.0
    cursor = start_wall
    for lo, hi in intervals:
        lo, hi = max(lo, cursor), min(hi, end_wall)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, (end_wall - start_wall) - covered)
