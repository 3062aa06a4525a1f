"""The inference engine: bit-identity, calibration gate, diagnostics.

The engine's one non-negotiable claim is that its emitted batch code is
*transparent*: same bits as running the per-sample executor under the
same frozen calibration.  ``verify_engine_parity`` checks it
differentially, and these tests run that check across graph shapes
against the reference on both of its GEMM routes (instruction kernels
and the exact BLAS product the serving stack uses).
"""

import numpy as np
import pytest

from repro.compiler import compile_model
from repro.errors import SimulationError
from repro.harness import example_feeds
from repro.models import build_model
from repro.runtime.engine import InferenceDiagnostics, InferenceEngine
from repro.runtime.executor import QuantizedExecutor
from repro.verify.runtime import (
    RuntimeVerificationError,
    verify_engine_parity,
)
from tests.conftest import chain_graph, kernel_reference, small_cnn


def _calibrated_engine(compiled, samples=2, **kwargs):
    engine = InferenceEngine(compiled, **kwargs)
    engine.calibrate(example_feeds(compiled.graph, count=samples, seed=99))
    return engine


class TestBatchedParity:
    def test_small_cnn_kernel_path_is_bit_identical(self):
        # kernel_mac_limit=None on the reference: every one of its
        # GEMMs goes through the simulated instruction kernels, the
        # strictest target for the emitted BLAS products.
        compiled = compile_model(small_cnn())
        engine = _calibrated_engine(compiled)
        feeds = example_feeds(compiled.graph, count=4)
        report = verify_engine_parity(
            engine, feeds, executor=kernel_reference(engine, None)
        )
        assert report["samples"] == 4
        assert report["outputs"] >= 4

    @pytest.mark.parametrize("model_name", ["mobilenet_v3", "tinybert"])
    def test_zoo_models_are_bit_identical(self, model_name):
        # The default reference takes the engine's own BLAS route,
        # which keeps full models tractable; the kernel suite proves it
        # bit-identical to the kernels.
        compiled = compile_model(build_model(model_name))
        engine = _calibrated_engine(compiled)
        feeds = example_feeds(compiled.graph, count=3)
        report = verify_engine_parity(engine, feeds)
        assert report["samples"] == 3

    def test_batch_of_one_matches_executor(self):
        compiled = compile_model(small_cnn())
        engine = _calibrated_engine(compiled)
        (feeds,) = example_feeds(compiled.graph, count=1)
        (batched,) = engine.run_batch([feeds])
        single = QuantizedExecutor(
            compiled, calibration=engine.calibration
        ).run(feeds)
        for name in single:
            np.testing.assert_array_equal(batched[name], single[name])

    def test_parity_check_catches_divergence(self, monkeypatch):
        compiled = compile_model(small_cnn())
        engine = _calibrated_engine(compiled)
        feeds = example_feeds(compiled.graph, count=2)
        honest = engine.run_batch

        def corrupted(feeds_list):
            results = honest(feeds_list)
            for name in results[-1]:
                results[-1][name] = results[-1][name] + 1.0
            return results

        monkeypatch.setattr(engine, "run_batch", corrupted)
        with pytest.raises(RuntimeVerificationError) as exc:
            verify_engine_parity(engine, feeds)
        assert "sample" in str(exc.value.details)

    def test_batch_actually_stacks_gemm_rows(self):
        compiled = compile_model(small_cnn())
        engine = _calibrated_engine(compiled)
        feeds = example_feeds(compiled.graph, count=3)
        engine.run_batch(feeds)
        assert engine.diagnostics.batches == 1
        assert engine.diagnostics.stacked_gemm_rows > 0


class TestCalibrationGate:
    def test_run_batch_requires_calibration(self):
        engine = InferenceEngine(compile_model(small_cnn()))
        with pytest.raises(SimulationError) as exc:
            engine.run_batch(example_feeds(engine.compiled.graph))
        assert "calibrate" in str(exc.value)


class TestConvenienceConstructors:
    def test_compiled_model_spawns_executor_and_engine(self):
        compiled = compile_model(small_cnn())
        executor = compiled.executor(kernel_mac_limit=0)
        engine = compiled.engine()
        assert isinstance(executor, QuantizedExecutor)
        assert isinstance(engine, InferenceEngine)
        assert executor.compiled is compiled
        assert engine.compiled is compiled


class TestDiagnostics:
    def test_empty_diagnostics_are_calm(self):
        diag = InferenceDiagnostics()
        assert (diag.requests, diag.batches, diag.codegen_batches) == (0, 0, 0)
        assert diag.stacked_gemm_rows == 0
        assert diag.codegen_emit_ms is None
        assert diag.codegen_fingerprint is None
        assert diag.warnings == []

    def test_diagnostics_stay_constant_size_over_many_batches(self):
        # A `repro serve` process calls run_batch for its whole life:
        # nothing in the diagnostics may grow with the request count.
        compiled = compile_model(chain_graph(length=2, size=4))
        engine = _calibrated_engine(compiled)
        feeds = example_feeds(compiled.graph, count=1)
        engine.run_batch(feeds)

        def container_sizes():
            return {
                name: len(value)
                for name, value in vars(engine.diagnostics).items()
                if hasattr(value, "__len__") and not isinstance(value, str)
            }

        before = container_sizes()
        assert "warnings" in before
        for _ in range(1000):
            engine.run_batch(feeds)
        assert container_sizes() == before
        assert engine.diagnostics.batches == 1001
        assert engine.diagnostics.requests == 1001
