"""The emitted per-model executor: source properties, diagnostics,
fingerprints, fallback seams."""

import pytest

from repro.codegen import emit_executor
from repro.compiler import compile_model
from repro.harness import example_feeds
from repro.runtime import InferenceEngine, QuantizedExecutor
from repro.verify.runtime import (
    RuntimeVerificationError,
    verify_engine_parity,
)
from tests.conftest import (
    assert_outputs_equal,
    chain_graph,
    kernel_reference,
    small_cnn,
)


def _codegen_engine(graph, requests=4):
    """(compiled, calibration, feeds, engine)."""
    compiled = compile_model(graph)
    executor = QuantizedExecutor(compiled, seed=0, kernel_mac_limit=0)
    calibration = executor.calibrate(
        example_feeds(compiled.graph, count=2, seed=99)
    )
    feeds = example_feeds(compiled.graph, count=requests, seed=7)
    engine = InferenceEngine(compiled, calibration, seed=0)
    return compiled, calibration, feeds, engine


class TestEmission:
    def test_emitted_source_is_straight_line_python(self):
        compiled, calibration, feeds, engine = _codegen_engine(small_cnn())
        engine.run_batch(feeds)
        emitted = engine.emitted()
        assert emitted is not None
        # One `# -- name (Op)` banner per graph node, in order.
        banners = [
            line.strip()
            for line in emitted.source.splitlines()
            if line.strip().startswith("# -- ")
        ]
        assert len(banners) == len(list(compiled.graph))
        # The emitted module compiles standalone.
        compile(emitted.source, "<emitted>", "exec")
        assert emitted.stacked_nodes + emitted.sample_nodes == len(banners)
        assert emitted.stacked_nodes > 0

    def test_fingerprint_is_stable_across_emissions(self):
        graph = small_cnn()
        _, _, _, first = _codegen_engine(graph)
        _, _, _, second = _codegen_engine(graph)
        assert first.emitted().fingerprint == second.emitted().fingerprint
        assert first.emitted().source == second.emitted().source

    def test_diagnostics_record_emit_time_and_fingerprint(self):
        _, _, feeds, engine = _codegen_engine(small_cnn())
        engine.run_batch(feeds)
        diag = engine.diagnostics
        assert diag.codegen_batches == 1
        assert diag.codegen_emit_ms is not None
        assert diag.codegen_emit_ms > 0
        assert diag.codegen_fingerprint == engine.emitted().fingerprint

    def test_parity_all_modes(self):
        # The emitter has one GEMM route, the exact BLAS product; the
        # *reference* picks its own: always BLAS (0), or a per-GEMM
        # size test between BLAS and the instruction kernels (a
        # positive limit; 2000 MACs splits small_cnn's GEMMs across
        # both).  `None` — always kernels — is the next test.
        _, _, feeds, engine = _codegen_engine(small_cnn())
        for kernel_mac_limit in (0, 2_000):
            report = verify_engine_parity(
                engine,
                feeds,
                executor=kernel_reference(engine, kernel_mac_limit),
            )
            assert report["samples"] == len(feeds)

    def test_parity_with_instruction_kernels(self):
        # kernel_mac_limit=None routes every reference GEMM through the
        # semantic-level instruction kernels — the emitted BLAS
        # products must be those integers.
        _, _, feeds, engine = _codegen_engine(
            chain_graph(length=4, size=8), requests=2
        )
        verify_engine_parity(
            engine, feeds, executor=kernel_reference(engine, None)
        )


class TestFallback:
    def test_emit_failure_degrades_to_interpreter(self, broken_emitter):
        compiled, calibration, feeds, engine = _codegen_engine(small_cnn())
        outputs = engine.run_batch(feeds)
        assert engine.emitted() is None
        assert "chaos-emit" in engine.emission_error
        assert engine.diagnostics.codegen_batches == 0
        assert any(
            "emission failed" in warning
            for warning in engine.diagnostics.warnings
        )
        # The degraded engine serves the per-sample reference's bits...
        reference = QuantizedExecutor(
            compiled, seed=0, kernel_mac_limit=0, calibration=calibration
        )
        assert_outputs_equal(outputs, [reference.run(f) for f in feeds])
        # ...but fails the gate, which demands emitted execution.
        with pytest.raises(RuntimeVerificationError):
            verify_engine_parity(engine, feeds)

    def test_recalibration_invalidates_emitted_code(self):
        compiled, _, feeds, engine = _codegen_engine(small_cnn())
        engine.run_batch(feeds)
        first = engine.emitted()
        assert first is not None
        engine.calibrate(example_feeds(compiled.graph, count=2, seed=11))
        second = engine.emitted()
        assert second is not first
        assert second.fingerprint != first.fingerprint
        verify_engine_parity(engine, feeds)

    def test_emit_failure_latches_until_recalibration(self, broken_emitter):
        compiled, _, feeds, engine = _codegen_engine(small_cnn())
        engine.run_batch(feeds)
        assert engine.emission_error is not None
        broken_emitter()  # the emitter works again
        # The error latches: no re-emission attempt per batch.
        engine.run_batch(feeds)
        assert engine.diagnostics.codegen_batches == 0
        assert len(engine.diagnostics.warnings) == 1
        # Recalibration clears it and emission succeeds.
        engine.calibrate(example_feeds(compiled.graph, count=2, seed=99))
        engine.run_batch(feeds)
        assert engine.emission_error is None
        assert engine.diagnostics.codegen_batches == 1


class TestDirectEmission:
    def test_emit_executor_runs_standalone(self):
        compiled = compile_model(small_cnn())
        executor = QuantizedExecutor(compiled, seed=0, kernel_mac_limit=0)
        calibration = executor.calibrate(
            example_feeds(compiled.graph, count=2, seed=99)
        )
        feeds = example_feeds(compiled.graph, count=3, seed=7)
        emitted = emit_executor(compiled, calibration, executor)
        outputs, rows = emitted.fn(list(feeds))
        assert rows > 0
        assert_outputs_equal(outputs, [executor.run(f) for f in feeds])
