"""``python -m repro.experiments scrub`` — audit and repair a run's store.

The library-level scrubber (:mod:`repro.runs.scrub`) knows how to audit
any manifest; *repair* needs an experiment-specific replay recipe.  This
module supplies the ``end_to_end`` one: :func:`rebuild_end_to_end`
reconstructs the run's exact pipeline (task / scale / seed from the
manifest context, per-stage knobs from the recorded stage configs) so
:meth:`~repro.core.pipeline.CrossModalPipeline.recompute_stage` replays
each damaged stage bit-identically, and the content hash in every
artifact reference acts as the acceptance oracle.

A ``BENCH_scrub.json`` artifact records the audit counts and wall time
so store health is diffable across CI runs like every other benchmark.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import repro.obs as obs
from repro.core.config import PipelineConfig, from_asdict
from repro.core.exceptions import RepairError
from repro.experiments.end_to_end import build_pipeline_for_run
from repro.obs.bench import BenchArtifact
from repro.runs import RepairEngine, RunManifest, RunStore, ScrubReport, scrub_run

__all__ = ["recorded_config", "rebuild_end_to_end", "make_repair_engine", "run_scrub"]


def recorded_config(manifest: RunManifest) -> PipelineConfig:
    """The :class:`PipelineConfig` a recorded run was launched with,
    restored from its merged stage configs (slices of it).  Raises
    :class:`RepairError` when they do not fit this build's schema."""
    merged: dict = {}
    for record in manifest.stages.values():
        if isinstance(record.config, dict):
            merged.update(record.config)
    try:
        return from_asdict(PipelineConfig, merged)
    except TypeError as exc:
        raise RepairError(
            f"recorded stage configs do not match this build's config schema "
            f"({exc}); the run was written by an incompatible version"
        ) from exc


def rebuild_end_to_end(manifest: RunManifest):
    """Reconstruct the pipeline + splits of a recorded ``end_to_end`` run.

    The manifest context pins task / scale / seed; every knob that
    changes artifact bytes comes back from the recorded stage configs
    (:func:`recorded_config`), so a run launched with non-default flags
    replays faithfully.  Raises :class:`RepairError` for manifests this
    build cannot replay (other experiments, incompatible config schemas).
    """
    context = manifest.context
    if context.get("experiment") != "end_to_end":
        raise RepairError(
            f"scrub repair only knows how to replay 'end_to_end' runs; this "
            f"manifest records experiment={context.get('experiment')!r}"
        )
    try:
        task = str(context["task"])
        scale = float(context["scale"])
        seed = int(context["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RepairError(
            f"run context {context!r} lacks a usable task/scale/seed: {exc}"
        ) from exc
    return build_pipeline_for_run(task, scale, seed, recorded_config(manifest))


def make_repair_engine(
    run_dir: str | Path, store: RunStore | None = None
) -> RepairEngine:
    """A :class:`RepairEngine` for a checkpointed ``end_to_end`` run.

    Pipeline reconstruction (corpus generation, catalog build) is
    deferred to the first stage replay, so building an engine for a
    healthy store costs nothing beyond loading the manifest.
    """
    run_dir = Path(run_dir)
    manifest = RunManifest.load(run_dir)
    if store is None:
        store = RunStore(run_dir)
    state: dict = {}

    def recompute(record):
        if "pipeline" not in state:
            state["pipeline"] = rebuild_end_to_end(manifest)
        pipeline, splits = state["pipeline"]
        return pipeline.recompute_stage(record.name, manifest, store, splits)

    return RepairEngine(manifest, store, recompute)


def run_scrub(
    run_dir: str | Path,
    repair: bool = False,
    out_dir: str | None = None,
) -> ScrubReport:
    """Audit every artifact the run references; optionally repair.

    Writes ``BENCH_scrub.json`` (audit counts, wall time) into
    ``out_dir`` / ``$REPRO_BENCH_DIR`` / the run directory.
    """
    run_dir = Path(run_dir)
    t0 = time.perf_counter()
    with obs.span("experiments.scrub", run_dir=str(run_dir), repair=repair):
        engine = make_repair_engine(run_dir) if repair else None
        report = scrub_run(run_dir, engine=engine, repair=repair)
    wall = time.perf_counter() - t0

    context = (
        engine.manifest.context if engine is not None else RunManifest.load(run_dir).context
    )
    artifact = BenchArtifact(
        "scrub",
        scale=float(context.get("scale", 0.0) or 0.0),
        seed=int(context.get("seed", 0) or 0),
    )
    artifact.time("wall_seconds", wall)
    artifact.record(
        run_dir=str(run_dir),
        repair=repair,
        store_healthy=report.healthy,
        **{f"n_{status}": count for status, count in report.counts.items()},
    )
    bench_dir = out_dir or os.environ.get("REPRO_BENCH_DIR") or str(run_dir)
    artifact.write(bench_dir)
    return report
