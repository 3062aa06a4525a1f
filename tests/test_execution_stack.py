"""The execution stack end to end: one reference, one fast path.

A compiled model runs through exactly two executors — the per-sample
:class:`~repro.runtime.executor.QuantizedExecutor` (the reference) and
the emitted batch function (what ``repro serve`` runs).  This suite
pins the contract between them: the emitted code returns the
reference's bits on the models the service serves, at the batch sizes
it serves them; and both rungs of the robustness ladder land on the
reference with the healthy run's outputs and a recorded degradation.

Random-DAG parity fuzzing lives in ``test_codegen_parity_fuzz.py``, the
emitter's own properties in ``test_codegen_emit.py``.
"""

import pytest

from repro.compiler import compile_model
from repro.harness import compile_cached, example_feeds
from repro.runtime import InferenceEngine
from repro.serve.pool import EnginePool
from repro.verify.runtime import verify_engine_parity
from tests.conftest import assert_outputs_equal, chain_graph, small_cnn


def _engine(compiled):
    engine = InferenceEngine(compiled, seed=0)
    engine.calibrate(example_feeds(compiled.graph, count=2, seed=99))
    return engine


def _pool(compiled):
    return EnginePool(
        compiled,
        size=1,
        calibration_feeds=example_feeds(compiled.graph, count=2, seed=99),
    )


# The two models the end-to-end benchmark serves over the socket.
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("model_name", ["mobilenet_v3", "decoder_tiny"])
def test_served_model_matches_reference(model_name, batch):
    engine = _engine(compile_cached(model_name))
    feeds = example_feeds(engine.compiled.graph, count=batch, seed=7)
    report = verify_engine_parity(engine, feeds)
    assert report["samples"] == batch
    assert report["outputs"] >= batch


class TestOneEngineManyBatches:
    def test_varying_batch_sizes(self):
        # One emitted function serves every batch size.
        engine = _engine(compile_model(small_cnn()))
        feeds = example_feeds(engine.compiled.graph, count=5, seed=7)
        for count in (1, 3, 5):
            verify_engine_parity(engine, feeds[:count])
        assert engine.diagnostics.codegen_batches == 3
        assert engine.emitted().fingerprint == (
            engine.diagnostics.codegen_fingerprint
        )

    def test_outputs_survive_the_next_batch(self):
        # Results handed to a caller must not be views of storage a
        # later batch writes.
        engine = _engine(compile_model(chain_graph(length=5)))
        graph = engine.compiled.graph
        first = engine.run_batch(example_feeds(graph, count=4, seed=7))
        snapshot = [
            {key: value.copy() for key, value in sample.items()}
            for sample in first
        ]
        engine.run_batch(example_feeds(graph, count=4, seed=1234))
        assert_outputs_equal(first, snapshot)

    def test_batch_fault_hook_fires_and_engine_stays_usable(self):
        engine = _engine(compile_model(small_cnn()))
        feeds = example_feeds(engine.compiled.graph, count=2, seed=7)
        seen = []

        def hook(node):
            seen.append(node.name)
            if len(seen) == 3:
                raise RuntimeError("chaos")

        engine.batch_fault_hook = hook
        with pytest.raises(RuntimeError):
            engine.run_batch(feeds)
        assert len(seen) == 3
        engine.batch_fault_hook = None
        verify_engine_parity(engine, feeds)


class TestLadder:
    """Each rung lands on the per-sample reference: the healthy run's
    outputs, the rung's wire labels, the degradation recorded."""

    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_model(small_cnn())

    @pytest.fixture(scope="class")
    def feeds(self, compiled):
        return example_feeds(compiled.graph, count=3, seed=7)

    @pytest.fixture(scope="class")
    def healthy(self, compiled, feeds):
        response = _pool(compiled).infer(feeds)
        assert response["mode"] == "batched"
        assert response["degradations"] == []
        return response["outputs"]

    def test_emission_failure_serves_per_sample_inside_the_engine(
        self, compiled, feeds, healthy, broken_emitter
    ):
        pool = _pool(compiled)
        response = pool.infer(feeds)
        assert_outputs_equal(response["outputs"], healthy)
        assert response["mode"] == "batched"
        (step,) = response["degradations"]
        assert (step["from"], step["to"]) == ("codegen", "interpreter")
        assert "chaos-emit" in step["reason"]
        assert step == pool.startup_degradations[0]
        assert pool.engine.diagnostics.codegen_batches == 0
        assert pool.rebuilds == 0

    def test_mid_batch_fault_reruns_per_sample_and_rebuilds(
        self, compiled, feeds, healthy
    ):
        pool = _pool(compiled)
        broken = pool.engine

        def die(node):
            raise RuntimeError("chaos-batch")

        broken.batch_fault_hook = die
        response = pool.infer(feeds)
        assert_outputs_equal(response["outputs"], healthy)
        assert response["mode"] == "per-sample"
        (step,) = response["degradations"]
        assert (step["from"], step["to"]) == ("batched", "per-sample")
        assert "chaos-batch" in step["reason"]
        assert pool.rebuilds == 1
        fresh = pool.engine
        assert fresh is not broken
        # The replacement serves emitted code again.
        again = pool.infer(feeds)
        assert again["mode"] == "batched"
        assert again["degradations"] == []
        assert_outputs_equal(again["outputs"], healthy)
        assert fresh.diagnostics.codegen_batches == 1
