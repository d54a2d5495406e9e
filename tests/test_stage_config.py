"""Golden stage configs for the checkpointed pipeline.

Every checkpointed stage fingerprints a config slice; a run directory
resumes only while those slices stay byte-identical.  These tests pin
the recorded ``StageRecord.config`` of all four stages — unsharded and
sharded — so a refactor of how the slices are assembled cannot silently
orphan existing run directories.  Input hashes are replaced by their
keys (the keys carry the chaining structure; the hashes themselves
depend on floating-point output), while the featurize fingerprint,
which has no inputs, is pinned literally.
"""

from __future__ import annotations

import pytest

from repro.core.config import CurationConfig, PipelineConfig
from repro.core.pipeline import CrossModalPipeline
from repro.runs import RunCheckpointer
from repro.runs.manifest import RunManifest

_FEATURES = [
    "content_category", "generic_embedding", "image_quality",
    "keyword_risk_score", "keywords", "landing_quality", "language",
    "named_entities", "objects", "org_embedding", "page_categories",
    "page_entities", "page_risk_score", "page_topics", "topic_sensitivity",
    "topics", "url_category", "url_risk_score", "user_report_count",
]
_SERVICE_SETS = ["A", "B", "C", "D"]

_CURATE = {
    "curation": {
        "blend_propagation": True, "dev_fraction": 0.3,
        "drop_uncovered": True, "graph_backend": "exact",
        "graph_embedding_weight": 6.0, "graph_k": 20, "max_dev_nodes": 300,
        "max_order": 1, "max_seed_nodes": 600, "min_lift": 3.0,
        "min_precision": 0.15, "min_recall": 0.005,
        "propagation_negative_precision": 0.995,
        "propagation_positive_precision": 0.7,
        "streaming_propagation": False, "use_generative_model": True,
        "use_mined_lfs": True, "use_propagation": True,
    },
    "derived_seed": 4037223330,
    "graph": {
        "backend": "exact", "block_size": 512,
        "feature_weights": {"org_embedding": 6.0}, "features": None,
        "k": 20, "lsh_band_rows": 2, "lsh_bits": 8, "lsh_bucket_cap": 128,
        "lsh_max_candidates": 128, "lsh_tables": 12, "min_weight": 0.05,
        "nnd_iters": 8, "nnd_sample": 12, "nnd_tol": 0.002,
        "seed": 162518449,
    },
    "inputs": {"image": "image", "text": "text"},
    "lf_service_sets": _SERVICE_SETS,
    "seed": 7,
}

_TRAIN = {
    "derived_seed": 3623895726,
    "drop_uncovered": True,
    "include_image_features": True,
    "inputs": {
        "curation": "curation", "image": "image", "test": "test",
        "text": "text",
    },
    "model_service_sets": _SERVICE_SETS,
    "training": {
        "batch_size": 256, "fusion": "early", "hidden_sizes": [64, 32],
        "l2": 1e-05, "learning_rate": 0.001, "max_vocab": 512,
        "model": "mlp", "n_epochs": 40, "n_tuning_trials": 8, "tune": False,
    },
}

_EVALUATE = {
    "include_image_features": True,
    "inputs": {"model": "model", "test": "test"},
    "model_service_sets": _SERVICE_SETS,
}


def _featurize(shard_size):
    config = {"derived_seed": 3010365770, "features": _FEATURES, "seed": 7}
    if shard_size is not None:
        config["shard_size"] = shard_size
    return config


#: shard_size -> featurize stage fingerprint under context {"task": "CT1"}
_FEATURIZE_FINGERPRINTS = {
    None: "7538efefe104449bc4d116c3aad74539e7bad5006e5bc7a231843c832edcf260",
    97: "d271f7a8ab6de238f6ae81d7a22a5e0fae2c55a1a0821c1ed5a07ae29e8cda8c",
}


def _keyed_inputs(config: dict) -> dict:
    """``config`` with every input hash replaced by its artifact key."""
    if "inputs" not in config:
        return config
    return {**config, "inputs": {key: key for key in config["inputs"]}}


@pytest.fixture(scope="module", params=[None, 97], ids=["unsharded", "shard97"])
def recorded_run(request, tiny_world, tiny_task, tiny_catalog, tiny_splits,
                 tmp_path_factory):
    shard_size = request.param
    config = PipelineConfig(
        seed=7,
        curation=CurationConfig(max_seed_nodes=600, max_dev_nodes=300),
        shard_size=shard_size,
    )
    run_dir = tmp_path_factory.mktemp("golden-run")
    CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config).run(
        tiny_splits,
        checkpoint=RunCheckpointer(run_dir, context={"task": "CT1"}),
    )
    return shard_size, RunManifest.load(run_dir)


def test_recorded_stage_configs_are_golden(recorded_run):
    shard_size, manifest = recorded_run
    assert list(manifest.stages) == ["featurize", "curate", "train", "evaluate"]
    expected = {
        "featurize": _featurize(shard_size),
        "curate": _CURATE,
        "train": _TRAIN,
        "evaluate": _EVALUATE,
    }
    for name, config in expected.items():
        assert _keyed_inputs(manifest.stages[name].config) == config, name


def test_featurize_fingerprint_is_golden(recorded_run):
    shard_size, manifest = recorded_run
    assert (
        manifest.stages["featurize"].fingerprint
        == _FEATURIZE_FINGERPRINTS[shard_size]
    )
