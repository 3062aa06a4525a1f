"""Hot-path caching regressions: weight levels and tensor liveness.

Two bugs the codegen work flushed out of the interpreter: weight int8
levels were re-quantized on every GEMM call, and every pool engine
re-ran the liveness pass over the same immutable graph.  These tests
pin the fixes — one weight quantization per (executor, node) lifetime
whether the engine serves emitted code or, degraded, per sample; one
liveness pass per emission, and one emission per served model.
"""

import repro.codegen.emit as emit_mod
from repro.compiler import compile_model
from repro.harness import example_feeds
from repro.runtime import InferenceEngine, QuantizedExecutor
from repro.runtime.executor import QuantizedExecutor as ExecutorClass
from repro.serve.pool import EnginePool
from tests.conftest import small_cnn


def _prepared(requests=3):
    compiled = compile_model(small_cnn())
    executor = QuantizedExecutor(compiled, seed=0, kernel_mac_limit=0)
    calibration = executor.calibrate(
        example_feeds(compiled.graph, count=2, seed=99)
    )
    feeds = example_feeds(compiled.graph, count=requests, seed=7)
    return compiled, calibration, feeds


def _spy_weight_computations(monkeypatch):
    """Record (executor-id, node-id) for every *computed* weight level.

    A cache hit never lands here, so duplicates mean the weight was
    re-quantized inside one executor's lifetime — the exact regression
    this file exists to catch.
    """
    computed = []
    original = ExecutorClass._levels_for_weight

    def spy(self, node, b_params, b_float):
        hit = node.node_id in self._weight_levels
        out = original(self, node, b_params, b_float)
        if not hit:
            computed.append((id(self), node.node_id))
        return out

    monkeypatch.setattr(ExecutorClass, "_levels_for_weight", spy)
    return computed


class TestWeightLevelCache:
    def test_one_quantization_per_weight_per_executor(self, monkeypatch):
        computed = _spy_weight_computations(monkeypatch)
        compiled, calibration, feeds = _prepared()
        executor = QuantizedExecutor(
            compiled, seed=0, kernel_mac_limit=0, calibration=calibration
        )
        for feed in feeds * 3:
            executor.run(feed)
        assert computed, "expected at least one weight-bearing GEMM"
        assert len(computed) == len(set(computed)), (
            "a weight was re-quantized within one executor lifetime: "
            f"{computed}"
        )

    def test_engine_batches_never_requantize_weights(
        self, monkeypatch, broken_emitter
    ):
        # The degraded engine (emission failed) serves every batch per
        # sample through its one reference executor.
        computed = _spy_weight_computations(monkeypatch)
        compiled, calibration, feeds = _prepared(requests=4)
        engine = InferenceEngine(compiled, calibration, seed=0)
        for _ in range(3):
            engine.run_batch(feeds)
        assert engine.emission_error is not None
        assert computed
        assert len(computed) == len(set(computed))

    def test_codegen_emission_reuses_interpreter_cache(self, monkeypatch):
        # Emission hoists weight levels to constants through the same
        # per-executor cache, so emit + serve still computes each
        # weight's levels at most once per executor.
        computed = _spy_weight_computations(monkeypatch)
        compiled, calibration, feeds = _prepared(requests=4)
        engine = InferenceEngine(compiled, calibration, seed=0)
        for _ in range(3):
            engine.run_batch(feeds)
        assert engine.emission_error is None
        assert engine.diagnostics.codegen_batches == 3
        assert computed
        assert len(computed) == len(set(computed))


class TestLivenessSharing:
    def test_pool_engines_share_one_liveness_pass(self, monkeypatch):
        compiled, calibration, feeds = _prepared()
        calls = {"count": 0}
        original = emit_mod.tensor_liveness

        def counting(graph):
            calls["count"] += 1
            return original(graph)

        # Patch *after* compile: the compile-time analysis passes are
        # allowed their own liveness runs; serving gets one per
        # emission, and a pool emits once whatever its size.
        monkeypatch.setattr(emit_mod, "tensor_liveness", counting)
        pool = EnginePool(
            compiled,
            size=3,
            calibration_feeds=example_feeds(
                compiled.graph, count=2, seed=99
            ),
        )
        for _ in range(pool.size):
            assert pool.infer(feeds)["mode"] == "batched"
        assert pool.engine.diagnostics.codegen_batches == pool.size
        assert calls["count"] == 1, (
            "serving a pool must run liveness once (one emission per "
            f"model), saw {calls['count']} passes"
        )
