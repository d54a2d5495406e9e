"""The benchmark's two workloads.

Each workload builds its inputs from ``seed`` alone, times calls into
the program's public API from outside it, checks the program's outputs,
and returns a :class:`Report`.  With ``trace=False`` the report holds
the end-to-end metrics; with ``trace=True`` it holds the per-layer
metrics of :data:`perfbench.layers.LAYER_METRICS`, gathered from a
separate traced pass over the same work.

* ``pipeline-exact`` — the default in-memory pipeline, serial executor,
  exact kNN graph: the run users do by default, dominated by exact
  graph scoring.
* ``serve-mixed`` — a model server deployed from a small sharded,
  checkpointed run (verified by resuming it), driven by a seeded open
  loop of warm-cache requests and exactly one cold request in ten.
  The batch kernels do not run while it serves.

Operations are timed in process CPU time (``time.process_time``) for the
bounded metrics, so that time spent waiting for a CPU on a shared host
does not count; the wall-clock figures go on the summary line.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.core.config import PipelineConfig
from repro.core.pipeline import CrossModalPipeline
from repro.datagen.tasks import classification_task, generate_task_corpora
from repro.resources.service_sets import build_resource_suite
from repro.runs import RunCheckpointer
from repro.runs.manifest import RunManifest
from repro.serving import ModelServer, ServingArtifacts, ServingConfig

from perfbench.blas import default_threads
from perfbench.layers import (
    COUNT_METRICS,
    LAYER_METRICS,
    LayerProbe,
    harvest_trace,
    unattributed_s,
)
from perfbench.openloop import max_senders, poisson_offsets, run_open_loop

__all__ = ["END_TO_END", "Report", "Sizes", "WORKLOADS", "run_workload"]

TASK = "CT1"
#: the catalog history every experiment builds with
N_HISTORY = 10_000
STAGES = ("featurize", "curate", "train", "evaluate")

#: end-to-end metrics every workload reports, with their units: set-up
#: time, the CPU time of the workload's user-facing operation and memory.
#: What each means per workload is in README.md; the wall-clock numbers
#: (pipeline_s, resume_s, per-rate request percentiles, ...) go on the
#: summary line.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "op_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}


#: pipeline seeds the untraced pipeline-exact run takes its reps over
PIPELINE_SEEDS = 8
#: scale of the serve-mixed world: small, so its deploy run is quick
SERVE_SCALE = 0.03
#: open-loop rate ladder (req/s): the first rate is "low", the second
#: "high", the last is above capacity and measures saturation throughput
RATES = (150.0, 250.0, 1000.0)
#: sustained_qps is the highest rate whose p99 meets this limit
P99_LIMIT_MS = 100.0
#: share of requests that name points the batch run never featurized
COLD_SHARE = 0.1


@dataclass(frozen=True)
class Sizes:
    """How much work one run does.  ``smoke()`` is the self-test size."""

    exact_scale: float = 0.1
    shard_size: int = 256
    #: set-ups per run; setup_s is their median
    setup_reps: int = 2
    #: least untraced pipeline repetitions per pipeline seed, whatever
    #: the window
    min_reps: int = 1
    #: resumes of the deploy run; resume_s is their median
    resumes: int = 3
    requests_per_rate: int = 1000

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(
            exact_scale=0.03, shard_size=64, setup_reps=1, min_reps=1, resumes=1,
            requests_per_rate=150,
        )


@dataclass
class Report:
    """What one run found: its result line and its summary line."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: workload-specific end-to-end numbers for the summary line
    summary: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def put_end_to_end(self, **values: float) -> None:
        for name, unit in END_TO_END.items():
            self.put(name, values[name], unit)

    def note(self, name: str, value: float, unit: str) -> None:
        self.summary[name] = (float(value), unit)

    def summary_line(self) -> dict:
        return {
            **self.notes,
            "summary": {n: {"value": v, "unit": u} for n, (v, u) in self.summary.items()},
        }

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
@dataclass
class World:
    world: object
    task: object
    splits: object
    catalog: object

    @property
    def n_points(self) -> int:
        s = self.splits
        return sum(
            len(c) for c in (s.text_labeled, s.image_unlabeled, s.image_test,
                             s.image_labeled_pool)
        )

    @property
    def n_featurized(self) -> int:
        """Points one pipeline run takes from corpus to features."""
        s = self.splits
        return len(s.text_labeled) + len(s.image_unlabeled) + len(s.image_test)

    def fingerprint(self) -> tuple:
        s = self.splits
        return tuple(
            (len(c), sum(c.point_ids)) for c in (
                s.text_labeled, s.image_unlabeled, s.image_test,
                s.image_labeled_pool)
        ) + (tuple(r.name for r in self.catalog),)

    def pipeline(self, config: PipelineConfig) -> CrossModalPipeline:
        return CrossModalPipeline(self.world, self.task, self.catalog, config)


def _build_world(scale: float, seed: int) -> World:
    with obs.span("bench.datagen.generate"):
        world, task, splits = generate_task_corpora(
            classification_task(TASK), scale=scale, seed=seed
        )
    with obs.span("bench.resources.suite_build"):
        catalog = build_resource_suite(world, task, n_history=N_HISTORY, seed=seed)
    return World(world, task, splits, catalog)


@contextmanager
def _traced(on: bool) -> Iterator[obs.Tracer | None]:
    """A fresh active tracer (or nothing) for one unit of work."""
    if not on:
        yield None
        return
    tracer = obs.Tracer("perfbench")
    obs.enable(tracer)
    try:
        yield tracer
    finally:
        obs.disable()


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _set_up(report: Report, scale: float, seeds: list[int], trace: bool):
    """Build one world per seed, in order.

    Returns ``(worlds, set-up seconds per build, layer numbers per build)``
    with one world per distinct seed.  A seed built again replaces its
    world, which is dropped first so that peak memory holds one copy,
    and must give identical corpora.
    """
    worlds: dict[int, World] = {}
    fingerprints: dict[int, tuple] = {}
    times: list[float] = []
    layers: list[dict[str, float]] = []
    for world_seed in seeds:
        worlds.pop(world_seed, None)
        gc.collect()
        with _traced(trace) as tracer:
            start = time.perf_counter()
            world = _build_world(scale, world_seed)
            times.append(time.perf_counter() - start)
        if tracer is not None:
            layers.append(harvest_trace(tracer))
        report.attempted += 1
        if fingerprints.setdefault(world_seed, world.fingerprint()) != world.fingerprint():
            report.fail("set-up is not deterministic: corpora differ between builds")
        worlds[world_seed] = world
    return list(worlds.values()), times, layers


def _average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision, computed independently of ``repro.models.metrics``."""
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    s = np.asarray(scores, dtype=float)[order]
    y = np.asarray(labels, dtype=float)[order]
    n_pos = y.sum()
    if n_pos == 0:
        return 0.0
    total = 0.0
    tp = fp = 0.0
    i = 0
    while i < len(s):
        j = i
        group_pos = 0.0
        while j < len(s) and s[j] == s[i]:
            group_pos += y[j]
            j += 1
        tp += group_pos
        fp += (j - i) - group_pos
        total += (group_pos / n_pos) * (tp / (tp + fp))
        i = j
    return total


def _check_pipeline_output(report: Report, result, world: World, reference) -> None:
    """Output checks on one pipeline result; a failure counts once."""
    labels = np.asarray(world.splits.image_test.labels)
    metrics = result.metrics
    if metrics.get("n_test") != float(len(labels)):
        report.fail(f"evaluated {metrics.get('n_test')} test rows, expected {len(labels)}")
    elif abs(_average_precision(result.test_scores, labels) - metrics["auprc"]) > 1e-9:
        report.fail("reported auprc disagrees with the test scores")
    elif reference is not None and metrics != reference:
        report.fail(f"pipeline is not deterministic: {metrics} != {reference}")


def _manifest_digest(run_dir: Path) -> str:
    """Digest of every stage's recorded artifact hashes."""
    manifest = RunManifest.load(run_dir)
    hashes = {
        stage: {key: ref.hash for key, ref in sorted(rec.artifacts.items())}
        for stage, rec in sorted(manifest.stages.items())
    }
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counts_agree(report: Report, per_rep: list[dict[str, float]], what: str) -> None:
    """Work counts must repeat exactly between reps of the same work."""
    for rep in per_rep[1:]:
        diff = {
            k: (per_rep[0].get(k), rep.get(k))
            for k in COUNT_METRICS
            if per_rep[0].get(k) != rep.get(k)
        }
        if diff:
            report.fail(f"{what}: work counts differ between reps: {diff}")


def _layer_report(report: Report, layers: dict[str, float]) -> None:
    for spec in LAYER_METRICS:
        report.put(spec.name, layers.get(spec.name, 0.0), spec.unit)


def _median_layers(per_rep: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for rep in per_rep for k in rep}
    return {k: _median([rep.get(k, 0.0) for rep in per_rep]) for k in keys}


def _setup_layers(per_rep: list[dict[str, float]], world: World) -> dict[str, float]:
    """The set-up layers' numbers: median over set-up builds."""
    keys = ("datagen.generate_s", "resources.suite_build_s")
    medians = _median_layers(per_rep)
    return {**{k: medians[k] for k in keys}, "datagen.points": float(world.n_points)}


# ----------------------------------------------------------------------
# pipeline workload
# ----------------------------------------------------------------------
def pipeline_exact(report: Report, sizes: Sizes, seed: int, seconds: float,
                   trace: bool, workdir: Path) -> None:
    (world,), setup_times, setup_layers = _set_up(
        report, sizes.exact_scale, [seed] * sizes.setup_reps, trace
    )
    report.notes["scale"] = sizes.exact_scale
    # the pipeline's own seed (LF mining, label model, model fit) moves
    # its cost by up to 50% on one world, so the untraced run takes its
    # reps over several pipeline seeds in turn; the traced run uses the
    # first only, so its work counts repeat
    configs = [
        PipelineConfig(seed=seed * PIPELINE_SEEDS + j)
        for j in range(1 if trace else PIPELINE_SEEDS)
    ]
    reference: dict[int, dict] = {}

    def run_once(w: int, traced: bool) -> tuple[float, float, dict[str, float] | None]:
        """One checked pipeline run with pipeline seed ``w``: its wall and
        CPU seconds and, traced, its layers."""
        config = configs[w]
        with _traced(traced) as tracer, LayerProbe() if traced else nullcontext():
            t_wall = time.time()
            start = time.perf_counter()
            cpu_start = time.process_time()
            result = world.pipeline(config).run(world.splits)
            cpu = time.process_time() - cpu_start
            elapsed = time.perf_counter() - start
            t_end = time.time()
        report.attempted += 1
        _check_pipeline_output(report, result, world, reference.get(w))
        reference.setdefault(w, result.metrics)
        report.note("auprc", _median([m["auprc"] for m in reference.values()]), "1")
        if tracer is None:
            return elapsed, cpu, None
        layers = harvest_trace(tracer)
        layers["obs.unattributed_s"] = unattributed_s(tracer, t_wall, t_end)
        layers["models.auprc"] = result.metrics["auprc"]
        return elapsed, cpu, layers

    # the first run in a process is 15-40% slower than the next ones on
    # the reference box (first touch of fresh memory), so it is a checked
    # warm-up outside the window; peak memory is read after it, which is
    # what a user running the pipeline holds
    warmup_s, _, _ = run_once(0, False)
    peak_rss_mb = _peak_rss_mb()
    #: untraced (wall, CPU) seconds per pipeline seed
    times: list[list[tuple[float, float]]] = [[] for _ in configs]
    traced_times: list[float] = []
    traced_layers: list[dict[str, float]] = []
    window_start = time.perf_counter()
    while True:
        untraced = sum(len(t) for t in times)
        elapsed = time.perf_counter() - window_start
        typical = _median([warmup_s, *(t for ts in times for t, _ in ts), *traced_times])
        done = (
            min(untraced, len(traced_times)) >= 2 if trace
            else min(len(t) for t in times) >= sizes.min_reps
        )
        if done and elapsed + typical > seconds:
            break
        # the traced run alternates untraced and traced runs, so both
        # see the same machine state and their ratio is the overhead;
        # the untraced run takes the pipeline seeds in turn
        traced = trace and untraced > len(traced_times)
        w = untraced % len(configs)
        # each run starts from the same collector state, not from the
        # previous run's garbage
        gc.collect()
        run_s, cpu_s, layers = run_once(w, traced)
        if traced:
            traced_times.append(run_s)
            traced_layers.append(layers)
        else:
            times[w].append((run_s, cpu_s))

    report.notes["reps_s"] = [[round(t, 4) for t, _ in ts] for ts in times]
    report.notes["reps_cpu_s"] = [[round(c, 4) for _, c in ts] for ts in times]
    if not trace:
        # per pipeline seed the median rep, then the mean over the seeds
        pipeline_s = float(np.mean([_median([t for t, _ in ts]) for ts in times]))
        cpu_s = float(np.mean([_median([c for _, c in ts]) for ts in times]))
        report.note("pipeline_s", pipeline_s, "s")
        report.note("throughput_per_s", world.n_featurized / pipeline_s, "1/s")
        # one more run, outside the window, with the BLAS threading the
        # program gets when nothing pins it
        gc.collect()
        with default_threads() as unpinned:
            if unpinned:
                report.note("pipeline_s_default_blas", run_once(0, False)[0], "s")
        report.put_end_to_end(
            setup_s=_median(setup_times),
            op_cpu_ms=cpu_s * 1e3,
            peak_rss_mb=peak_rss_mb,
        )
        return
    _counts_agree(report, traced_layers, "pipeline")
    layers = {**_median_layers(traced_layers), **_setup_layers(setup_layers, world)}
    base = _median([t for t, _ in times[0]])
    layers["obs.untraced_base_s"] = base
    layers["obs.trace_overhead_ratio"] = _median(traced_times) / base
    _layer_report(report, layers)


# ----------------------------------------------------------------------
# serving workload
# ----------------------------------------------------------------------
@dataclass
class _Phase:
    rate: float
    offsets: np.ndarray
    payloads: list


def _schedules(sizes: Sizes, seed: int, test_points: list, pool_points: list) -> list[_Phase]:
    """One seeded request schedule per rate.

    Hot requests name test-split points (featurized by the batch run,
    so warm-cache hits); cold ones name labeled-pool points, which the
    batch run never featurizes, each at most once per phase.  Every
    request is its own copy of the point, so the server's batches can
    be matched back to the requests in them.
    """
    pool_order = np.random.default_rng([seed, 0]).permutation(len(pool_points))
    phases = []
    for k, rate in enumerate(RATES):
        rng = np.random.default_rng([seed, k + 1])
        n = sizes.requests_per_rate
        # exactly the cold share, at seeded positions, so the mix of
        # dear and cheap requests is the same in every run
        cold = np.zeros(n, dtype=bool)
        cold[rng.permutation(n)[:round(COLD_SHARE * n)]] = True
        if cold.sum() > len(pool_points):
            raise ValueError("labeled pool too small for the cold-request share")
        hot_pick = rng.integers(len(test_points), size=n)
        cold_iter = iter(pool_order)
        payloads = [
            copy.copy(pool_points[next(cold_iter)] if c else test_points[h])
            for c, h in zip(cold, hot_pick)
        ]
        phases.append(_Phase(rate, poisson_offsets(rate, n, rng), payloads))
    return phases


def _deploy_config(sizes: Sizes, seed: int) -> PipelineConfig:
    """The default pipeline, featurized through the sharded data plane."""
    return PipelineConfig(seed=seed, shard_size=sizes.shard_size)


def _checkpoint(run_dir: Path, seed: int, resume: bool = False) -> RunCheckpointer:
    return RunCheckpointer(
        run_dir, context={"benchmark": "serve-mixed", "seed": seed}, resume=resume
    )


@dataclass
class _PhaseOutcome:
    p50_ms: float
    p99_ms: float
    backlog: bool
    failed: int
    #: requests completed per second of the phase's wall time
    qps: float
    #: CPU seconds the process spent serving the phase
    cpu_s: float
    completed: int

    def meets(self, limit_ms: float) -> bool:
        return self.p99_ms <= limit_ms and not self.backlog and self.failed == 0


def _check_decisions(report: Report, phase: _Phase, result, reference: dict) -> int:
    """Every request must return the reference decision; count misses."""
    failed = 0
    for i, payload in enumerate(phase.payloads):
        report.attempted += 1
        if i in result.errors:
            failed += 1
            report.fail(f"request {i} at {phase.rate}/s raised {result.errors[i]}")
        elif result.results[i].key != reference[payload.point_id]:
            failed += 1
            report.fail(
                f"request {i} at {phase.rate}/s: decision {result.results[i].key} "
                f"!= reference {reference[payload.point_id]}"
            )
    return failed


def _phase_outcome(result, failed: int, limit_ms: float, cpu_s: float) -> _PhaseOutcome:
    latency_ms = result.latency_s[np.isfinite(result.latency_s)] * 1e3
    qps = result.completed / result.wall_s
    if not len(latency_ms):
        return _PhaseOutcome(float("inf"), float("inf"), True, failed, qps, cpu_s,
                             result.completed)
    # a backlog that keeps growing leaves the last requests sent late
    tail = result.late_s[-max(1, len(result.late_s) // 10):]
    return _PhaseOutcome(
        p50_ms=float(np.percentile(latency_ms, 50)),
        p99_ms=float(np.percentile(latency_ms, 99)),
        backlog=float(np.median(tail)) * 1e3 > limit_ms / 2,
        failed=failed,
        qps=qps,
        cpu_s=cpu_s,
        completed=result.completed,
    )


class _ServingTally:
    """Per-layer serving numbers summed over the measured phases."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {
            "queue_wait": [], "decide": [], "late": [], "policy": [], "predict": [],
        }
        self.counts: dict[str, float] = dict.fromkeys(
            ("sent", "completed", "failed", "batches", "requests", "timeout_flushes",
             "fresh", "lookups", "attempts", "retries", "fallbacks", "warmed"), 0)

    def add(self, phase: _Phase, result, failed: int, probe: LayerProbe,
            tracer: obs.Tracer, stats: dict) -> None:
        index_of = {id(p): i for i, p in enumerate(phase.payloads)}
        for b_start, b_end, ids in probe.batches:
            self.samples["decide"].append(b_end - b_start)
            for pid in ids:
                self.samples["queue_wait"].append(b_start - result.sent_at[index_of[pid]])
        self.samples["late"].extend(result.late_s[np.isfinite(result.late_s)])
        self.samples["policy"].extend(probe.policy_calls_s)
        self.samples["predict"].extend(
            sp.duration for sp in tracer.find_spans("bench.models.predict"))
        cache, batcher, c = stats["cache"], stats["batcher"], self.counts
        c["sent"] += result.sent
        c["completed"] += result.completed
        c["failed"] += failed
        c["batches"] += batcher["batches"]
        c["requests"] += batcher["requests"]
        c["timeout_flushes"] += batcher["timeout_flushes"]
        c["fresh"] += cache["fresh_hits"]
        c["lookups"] += cache["fresh_hits"] + cache["stale_hits"] + cache["misses"]
        c["attempts"] += stats["attempts"]
        c["retries"] += stats["retries"]
        c["fallbacks"] += stats["fallbacks"]
        c["warmed"] = stats["warmed"]

    def layers(self) -> dict[str, float]:
        def pct_ms(name: str, q: float) -> float:
            values = self.samples[name]
            return float(np.percentile(values, q) * 1e3) if values else 0.0

        c = self.counts
        return {
            "serving.warm_entries": c["warmed"],
            "serving.queue_wait_ms.p50": pct_ms("queue_wait", 50),
            "serving.queue_wait_ms.p99": pct_ms("queue_wait", 99),
            "serving.decide_batch_ms.p50": pct_ms("decide", 50),
            "serving.decide_batch_ms.p99": pct_ms("decide", 99),
            "serving.batch_size_mean": c["requests"] / max(c["batches"], 1),
            "serving.timeout_flush_ratio": c["timeout_flushes"] / max(c["batches"], 1),
            "serving.cache_hit_ratio": c["fresh"] / max(c["lookups"], 1),
            "resilience.attempts": c["attempts"],
            "resilience.retries": c["retries"],
            "resilience.fallbacks": c["fallbacks"],
            "resilience.policy_call_us": _median(self.samples["policy"]) * 1e6,
            "models.predict_ms": _median(self.samples["predict"]) * 1e3,
            "loadgen.late_ms.p99": pct_ms("late", 99),
            "loadgen.sent": c["sent"],
            "loadgen.completed": c["completed"],
            "loadgen.failed": c["failed"],
        }


def serve_mixed(report: Report, sizes: Sizes, seed: int, seconds: float,
                trace: bool, workdir: Path) -> None:
    (world,), setup_times, setup_layers = _set_up(
        report, SERVE_SCALE, [seed] * sizes.setup_reps, trace
    )
    layers: dict[str, float] = {}
    deploy_times: list[float] = []
    resume_times: list[float] = []
    load_times: list[float] = []
    first: dict = {}

    def deploy(k: int, traced: bool):
        """Checkpoint the run into a fresh directory, resume it, load it.

        Each resume must replay all four stages, hash-verified, and
        reproduce the fresh run's metrics and artifact hashes.
        """
        run_dir = workdir / f"deploy-{k}"
        config = _deploy_config(sizes, seed)
        with _traced(traced) as tracer, LayerProbe() if traced else nullcontext():
            t_wall = time.time()
            start = time.perf_counter()
            batch = world.pipeline(config).run(world.splits, checkpoint=_checkpoint(run_dir, seed))
            deploy_times.append(time.perf_counter() - start)
            t_end = time.time()
            digest = _manifest_digest(run_dir)
            for _ in range(sizes.resumes):
                start = time.perf_counter()
                replay = world.pipeline(config).run(
                    world.splits, checkpoint=_checkpoint(run_dir, seed, resume=True)
                )
                resume_times.append(time.perf_counter() - start)
                report.attempted += 1
                if tuple(replay.resumed_stages) != STAGES:
                    report.fail(f"resume replayed {replay.resumed_stages}, not all of {STAGES}")
                elif replay.metrics != batch.metrics:
                    report.fail("resumed metrics differ from the fresh run's")
                elif _manifest_digest(run_dir) != digest:
                    report.fail("resume changed the manifest's artifact hashes")
            start = time.perf_counter()
            artifacts = ServingArtifacts.load(run_dir)
            load_times.append(time.perf_counter() - start)
        report.attempted += 1
        _check_pipeline_output(report, batch, world, first.get("metrics"))
        first.setdefault("metrics", batch.metrics)
        if first.setdefault("digest", digest) != digest:
            report.fail("deploy runs of one config recorded different artifact hashes")
        if tracer is not None:
            layers.update(harvest_trace(tracer))
            layers["obs.unattributed_s"] = unattributed_s(tracer, t_wall, t_end)
            layers["models.auprc"] = batch.metrics["auprc"]
        report.notes["manifest_digest"] = digest
        return run_dir, batch, artifacts

    # the deploy run is the one served.  In a traced run it is traced and
    # comes after two untraced ones: a warm-up, because the first run in
    # a process is slower, then the base of the overhead ratio
    if trace:
        for k in (2, 1):
            shutil.rmtree(deploy(k, False)[0], ignore_errors=True)
    _, batch, artifacts = deploy(0, trace)
    report.note("auprc", batch.metrics["auprc"], "1")
    load_s = load_times[-1]

    resources = list(world.catalog)
    phases = _schedules(sizes, seed, list(world.splits.image_test.points),
                        list(world.splits.image_labeled_pool.points))
    # reference decisions: cold cache, batch of one, one client, no faults
    wanted = {p.point_id: p for ph in phases for p in ph.payloads}
    with ModelServer(
        artifacts, resources,
        ServingConfig(warm_cache=False, max_batch_size=1, max_wait_s=0.0),
    ) as oracle:
        reference = {pid: oracle.decide(p).key for pid, p in sorted(wanted.items())}

    senders = max_senders()
    warm_times: list[float] = []
    outcomes: list[_PhaseOutcome] = []
    tally = _ServingTally()
    for k, phase in enumerate(phases):
        # only the low and high phases feed the per-layer numbers: their
        # request counts are fixed, so the work counts repeat exactly
        measured = trace and k < 2
        probe = LayerProbe() if measured else nullcontext()
        # the probe wraps decide_batch, which the server's batcher binds
        # at construction, so it goes in first; each phase gets a fresh
        # server, so every phase starts from the same cache state
        with _traced(measured) as tracer, probe:
            start = time.perf_counter()
            server = ModelServer(artifacts, resources, ServingConfig())
            warm_times.append(time.perf_counter() - start)
            # the garbage of the previous phase and deploy run is not
            # this phase's to collect
            gc.collect()
            with server:
                cpu_start = time.process_time()
                result = run_open_loop(server.decide, phase.payloads, phase.offsets,
                                       senders)
                cpu_s = time.process_time() - cpu_start
                stats = server.stats()
        failed = _check_decisions(report, phase, result, reference)
        outcomes.append(_phase_outcome(result, failed, P99_LIMIT_MS, cpu_s))
        if measured:
            tally.add(phase, result, failed, probe, tracer, stats)

    if trace:
        base, traced_s = deploy_times[-2:]
        layers["obs.untraced_base_s"] = base
        layers["obs.trace_overhead_ratio"] = traced_s / base
        layers.update(_setup_layers(setup_layers, world))
        layers.update(tally.layers())
        layers["serving.load_s"] = load_s
        _layer_report(report, layers)
        return
    low, high = outcomes[0], outcomes[1]
    sustained = max(
        (ph.rate for ph, out in zip(phases, outcomes) if out.meets(P99_LIMIT_MS)),
        default=0.0,
    )
    for tag, out in (("low", low), ("high", high)):
        report.note(f"request_p50_ms.{tag}", out.p50_ms, "ms")
        report.note(f"request_p99_ms.{tag}", out.p99_ms, "ms")
    report.note("sustained_qps", sustained, "req/s")
    report.notes["rates"] = {
        ph.rate: {"p50_ms": out.p50_ms, "p99_ms": out.p99_ms, "qps": out.qps,
                  "backlog": out.backlog,
                  "cpu_ms_per_request": out.cpu_s * 1e3 / max(out.completed, 1)}
        for ph, out in zip(phases, outcomes)
    }
    deploy_s = deploy_times[-1]
    report.note("pipeline_s", deploy_s, "s")
    report.note("resume_s", _median(resume_times), "s")
    # the last rate is above capacity, so the requests it completes per
    # second are the server's saturation throughput
    report.note("throughput_per_s", outcomes[-1].qps, "1/s")
    report.put_end_to_end(
        setup_s=_median(setup_times) + deploy_s + load_s + _median(warm_times),
        # CPU per request at the low and high rates; above capacity the
        # batch sizes, and so the cost per request, swing with the machine
        op_cpu_ms=1e3 * (low.cpu_s + high.cpu_s) / (low.completed + high.completed),
        peak_rss_mb=_peak_rss_mb(),
    )


WORKLOADS: dict[str, Callable[..., None]] = {
    "pipeline-exact": pipeline_exact,
    "serve-mixed": serve_mixed,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, root: Path) -> Report:
    """Run one workload in a scratch directory under ``root``."""
    report = Report()
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{os.getpid()}-", dir=work_root))
    try:
        WORKLOADS[name](report, sizes, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still has its directory here
    return report
