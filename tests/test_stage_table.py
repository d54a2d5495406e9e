"""Readers of a recorded run go through the stage table: replay reads
each artifact once, the recorded stage configs restore the run's
config, and serving selects model features by the pipeline's rule."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import CurationConfig, PipelineConfig, TrainingConfig
from repro.core.exceptions import RepairError
from repro.core.pipeline import STAGES, CrossModalPipeline
from repro.datagen.entities import Modality
from repro.experiments.scrub import recorded_config
from repro.resilience import (
    FallbackChain,
    FaultInjector,
    FaultSpec,
    ResiliencePolicy,
    RetryConfig,
    build_substitute_map,
)
from repro.resources.catalog import ResourceCatalog
from repro.runs import RunCheckpointer, RunManifest
from repro.runs.store import RunStore
from repro.serving import ModelServer, ServingArtifacts

_SMALL_GRAPH = {"max_seed_nodes": 600, "max_dev_nodes": 300}


def _run(pipeline, splits, run_dir, resume=False):
    ck = RunCheckpointer(run_dir, context={"task": "CT1"}, resume=resume)
    return ck, pipeline.run(splits, checkpoint=ck)


def test_resumed_sharded_run_reads_each_artifact_once(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path, monkeypatch
):
    config = PipelineConfig(
        seed=7, curation=CurationConfig(**_SMALL_GRAPH), shard_size=97
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    _, first = _run(pipeline, tiny_splits, tmp_path)

    reads: list[str] = []
    get_bytes = RunStore.get_bytes

    def counting_get_bytes(store, ref):
        reads.append(ref.hash)
        return get_bytes(store, ref)

    monkeypatch.setattr(RunStore, "get_bytes", counting_get_bytes)
    ck, resumed = _run(pipeline, tiny_splits, tmp_path, resume=True)

    assert resumed.resumed_stages == [spec.name for spec in STAGES]
    assert resumed.metrics == first.metrics
    recorded = [
        ref.hash
        for record in ck.manifest.stages.values()
        for ref in record.artifacts.values()
    ]
    shards = [k for k in ck.manifest.stages["featurize"].artifacts if "/" in k]
    assert len(shards) > 3
    assert Counter(reads) == Counter(recorded)


def test_resume_auto_repairs_a_damaged_shard_while_decoding(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path
):
    config = PipelineConfig(
        seed=7, curation=CurationConfig(**_SMALL_GRAPH), shard_size=97
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    first_ck, first = _run(pipeline, tiny_splits, tmp_path)
    featurize = first_ck.manifest.stages["featurize"].artifacts
    victim = featurize[sorted(k for k in featurize if k.endswith(".dense"))[-1]]
    first_ck.store.path_for(victim).write_bytes(b"tampered shard")

    ck = RunCheckpointer(
        tmp_path, context={"task": "CT1"}, resume=True, auto_repair=True
    )
    resumed = pipeline.run(tiny_splits, checkpoint=ck)

    assert ck.repaired_stages == ["featurize"]
    assert resumed.resumed_stages == [spec.name for spec in STAGES]
    assert resumed.metrics == first.metrics
    assert ck.store.check(victim) == "healthy"


def test_recorded_config_restores_a_non_default_run(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path
):
    config = PipelineConfig(
        seed=7,
        curation=CurationConfig(graph_backend="lsh", **_SMALL_GRAPH),
        training=TrainingConfig(hidden_sizes=(16,)),
        model_service_sets=("A", "B"),
        include_image_features=False,
        shard_size=97,
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    _run(pipeline, tiny_splits, tmp_path)

    assert recorded_config(RunManifest.load(tmp_path)) == config


def test_recorded_config_rejects_an_incompatible_schema(tmp_path):
    manifest = RunManifest.create(tmp_path, {"seed": 7})
    manifest.record_stage("train", "f" * 64, {"training": {"hidden_sizes": 16}}, {})
    with pytest.raises(RepairError, match="incompatible version"):
        recorded_config(manifest)


def _faulty_pipeline(world, task, catalog, shard_size):
    injector = FaultInjector(FaultSpec(transient_rate=0.4), seed=5)
    wrapped = injector.wrap_all(list(catalog))
    policy = ResiliencePolicy(
        retry=RetryConfig(max_attempts=3),
        fallback=FallbackChain(substitutes=build_substitute_map(wrapped)),
        seed=11,
    )
    config = PipelineConfig(
        seed=7, curation=CurationConfig(**_SMALL_GRAPH), shard_size=shard_size
    )
    pipeline = CrossModalPipeline(
        world, task, ResourceCatalog(wrapped), config, resilience=policy
    )
    return pipeline, policy


def test_sharded_featurize_under_resilience_matches_unsharded(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path
):
    outcomes = {}
    for shard_size in (None, 7):
        pipeline, policy = _faulty_pipeline(
            tiny_world, tiny_task, tiny_catalog, shard_size
        )
        ck, _ = _run(pipeline, tiny_splits, tmp_path / str(shard_size))
        hashes = {
            name: ck.manifest.stages[name].artifacts[key].hash
            for name, key in (
                ("curate", "curation"),
                ("train", "model"),
                ("evaluate", "evaluation"),
            )
        }
        outcomes[shard_size] = (hashes, policy.health_report().total_fallbacks)

    (unsharded, fallbacks), (sharded, sharded_fallbacks) = outcomes.values()
    assert fallbacks > 0
    assert sharded == unsharded
    assert sharded_fallbacks == fallbacks


@pytest.mark.parametrize(
    "selection",
    [{}, {"model_service_sets": ("A", "B"), "include_image_features": False}],
    ids=["defaults", "AB-no-image"],
)
def test_server_selects_model_features_like_the_pipeline(
    tiny_world, tiny_task, tiny_catalog, selection
):
    pipeline = CrossModalPipeline(
        tiny_world, tiny_task, tiny_catalog, PipelineConfig(seed=7, **selection)
    )
    artifacts = ServingArtifacts(
        model=None,
        featurize_seed=0,
        feature_names=[r.name for r in tiny_catalog],
        model_service_sets=pipeline.config.model_service_sets,
        include_image_features=pipeline.config.include_image_features,
    )
    with ModelServer(artifacts, list(tiny_catalog)) as server:
        for modality in Modality:
            assert (
                server.model_schema(modality).names
                == pipeline.model_feature_schema(modality).names
            )
