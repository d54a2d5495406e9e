"""Tests for the bar-chart renderer and end-to-end determinism."""

import pytest

from repro.experiments.reporting import no_cliff, render_bars


class TestRenderBars:
    def test_basic_shape(self):
        text = render_bars(["a", "bb"], [1.0, 0.5], title="T", width=10)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a ")
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_reference_marker(self):
        text = render_bars(["a"], [2.0], width=10, reference=1.0)
        # reference at half scale -> marker in the bar region
        assert "+" in text or "|" in text

    def test_empty_values(self):
        assert render_bars([], [], title="empty") == "empty"

    def test_alignment_mismatch(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0])

    def test_zero_values(self):
        text = render_bars(["z"], [0.0], width=8)
        assert text.count("#") == 0


class TestDeterminism:
    """Same seed => bit-identical pipeline results (regression guard for
    the repo's reproducibility claim)."""

    def test_pipeline_metrics_reproducible(self, tiny_world, tiny_task,
                                           tiny_catalog, tiny_splits):
        from repro.core.config import CurationConfig, PipelineConfig, TrainingConfig
        from repro.core.pipeline import CrossModalPipeline

        def run():
            config = PipelineConfig(
                seed=21,
                curation=CurationConfig(max_seed_nodes=400, max_dev_nodes=200),
                training=TrainingConfig(n_epochs=8),
            )
            pipeline = CrossModalPipeline(
                tiny_world, tiny_task, tiny_catalog, config
            )
            return pipeline.run(tiny_splits).metrics["auprc"]

        assert run() == run()


@pytest.mark.parametrize(
    "levels, values, graceful",
    [
        ([1.0, 0.8, 0.6], [0.40, 0.35, 0.28], True),
        # one step losing more than half is a cliff
        ([1.0, 0.8, 0.6], [0.40, 0.38, 0.08], False),
        # total loss above half is fine when no single step is a cliff
        ([1.0, 0.8, 0.6], [0.40, 0.24, 0.15], True),
        # levels are walked from highest to lowest, whatever the input order
        ([0.6, 1.0, 0.8], [0.08, 0.40, 0.38], False),
        ([0.6, 1.0, 0.8], [0.28, 0.40, 0.35], True),
        # a zero value has nothing left to lose; a zero level sorts last
        ([1.0, 0.5, 0.0], [0.40, 0.0, 0.0], False),
        ([1.0, 0.5, 0.0], [0.0, 0.0, 0.3], True),
        ([0.0, 1.0], [0.1, 0.40], False),
        ([1.0], [0.40], True),
    ],
)
def test_no_cliff_gate(levels, values, graceful):
    assert no_cliff(levels, values) is graceful
