"""Parity fuzzing for the emitted executor.

The codegen contract is *bit-identity*: for every graph the zoo or the
fuzzer can produce, the emitted straight-line code must return byte-for-
byte the interpreter's outputs.  Fuzz failures here mean a hot-path
divergence the bench gates would hide.
"""

import pytest

from repro.compiler import compile_model
from repro.harness import example_feeds
from repro.runtime import InferenceEngine, QuantizedExecutor
from repro.serve.pool import EnginePool
from repro.verify.runtime import verify_engine_parity
from tests.conftest import (
    assert_outputs_equal,
    chain_graph,
    kernel_reference,
    random_dag,
    small_cnn,
)

FUZZ_SEEDS = list(range(12))


def _prepared(graph, requests=3):
    compiled = compile_model(graph)
    executor = QuantizedExecutor(compiled, seed=0, kernel_mac_limit=0)
    calibration = executor.calibrate(
        example_feeds(compiled.graph, count=2, seed=99)
    )
    feeds = example_feeds(compiled.graph, count=requests, seed=7)
    return compiled, calibration, feeds


def _pool(compiled, size=2):
    return EnginePool(
        compiled,
        size=size,
        calibration_feeds=example_feeds(compiled.graph, count=2, seed=99),
    )


# The ids keep their `plain-` prefix — plain numpy temporaries, the one
# storage the emitted code has — so each seed's history stays one test.
@pytest.mark.parametrize(
    "seed", FUZZ_SEEDS, ids=[f"plain-{seed}" for seed in FUZZ_SEEDS]
)
def test_random_dag_bit_identical(seed):
    compiled, calibration, feeds = _prepared(random_dag(seed))
    engine = InferenceEngine(compiled, calibration, seed=0)
    report = verify_engine_parity(engine, feeds)
    assert report["outputs"] > 0


@pytest.mark.parametrize(
    "graph_factory",
    [small_cnn, lambda: chain_graph(length=5, size=12)],
    ids=["small_cnn", "chain"],
)
def test_named_graphs_bit_identical_both_modes(graph_factory):
    # The reference on both of its GEMM routes — the exact BLAS product
    # (0) and the instruction kernels (None) — against the one the
    # emitter has.
    compiled, calibration, feeds = _prepared(graph_factory(), requests=4)
    engine = InferenceEngine(compiled, calibration, seed=0)
    for kernel_mac_limit in (0, None):
        verify_engine_parity(
            engine,
            feeds,
            executor=kernel_reference(engine, kernel_mac_limit),
        )


class TestEmitFailureFuzz:
    """A broken emitter must never break serving — only degrade it."""

    def test_pool_records_startup_degradation_and_serves(
        self, broken_emitter
    ):
        compiled, calibration, feeds = _prepared(small_cnn())
        pool = _pool(compiled)
        assert pool.startup_degradations == [
            {
                "component": "inference",
                "from": "codegen",
                "to": "interpreter",
                "reason": pool.startup_degradations[0]["reason"],
            }
        ]
        assert "chaos-emit" in pool.startup_degradations[0]["reason"]
        response = pool.infer(feeds)
        assert response["mode"] == "batched"
        assert len(response["outputs"]) == len(feeds)
        # The response carries the degradation so callers see they
        # were served by the interpreter.
        assert any(
            entry["from"] == "codegen" and entry["to"] == "interpreter"
            for entry in response["degradations"]
        )

    def test_degraded_engine_is_still_bit_identical(self, broken_emitter):
        compiled, calibration, feeds = _prepared(small_cnn())
        engine = InferenceEngine(compiled, calibration, seed=0)
        degraded = engine.run_batch(feeds)
        assert engine.emission_error is not None
        broken_emitter()  # the emitter works again
        healthy = InferenceEngine(compiled, calibration, seed=0)
        assert_outputs_equal(degraded, healthy.run_batch(feeds))
        assert healthy.emission_error is None

    def test_healthy_pool_has_no_startup_degradations(self):
        compiled, calibration, feeds = _prepared(small_cnn())
        pool = _pool(compiled)
        assert pool.startup_degradations == []
        response = pool.infer(feeds)
        assert response["mode"] == "batched"
        assert response["degradations"] == []
