"""One GEMM route in the serving stack.

The emitter always takes the exact BLAS product; the simulated
instruction kernels are an option of the reference
``QuantizedExecutor`` alone.  This module pins the shape of that
decision — no serving layer accepts a routing knob, no emitted module
carries an instruction-kernel call or a row-major conv tail — and the
float ``Dense`` / ``MatMul`` nodes that used to be stacked into one BLAS
call (a gemm where the reference does a gemv per sample).
"""

import dataclasses
import inspect
import re

import pytest

from repro.codegen import emit_executor
from repro.compiler import CompilerOptions, compile_model
from repro.graph.builder import GraphBuilder
from repro.harness import compile_cached, example_feeds
from repro.isa.instructions import Opcode
from repro.runtime import InferenceEngine
from repro.runtime.engine import serving_reference
from repro.serve.app import ServeConfig
from repro.serve.pool import EnginePool
from repro.verify.runtime import verify_engine_parity
from tests.conftest import chain_graph, small_cnn


def _engine(compiled):
    engine = InferenceEngine(compiled, seed=0)
    engine.calibrate(example_feeds(compiled.graph, count=2, seed=99))
    return engine


class TestNoRoutingKnob:
    @pytest.mark.parametrize(
        "target", [emit_executor, InferenceEngine, EnginePool],
        ids=lambda target: target.__name__,
    )
    def test_callable_takes_no_kernel_mac_limit(self, target):
        assert "kernel_mac_limit" not in inspect.signature(target).parameters

    def test_serve_config_has_no_kernel_mac_limit(self):
        assert "kernel_mac_limit" not in {
            f.name for f in dataclasses.fields(ServeConfig)
        }

    def test_the_engine_reference_is_the_serving_reference(self):
        compiled = compile_model(small_cnn())
        assert serving_reference(compiled).kernel_mac_limit == 0
        engine = InferenceEngine(compiled, seed=0)
        assert engine._reference.kernel_mac_limit == 0
        assert not hasattr(engine, "kernel_mac_limit")


SOURCES = {
    "small_cnn": lambda: compile_model(small_cnn()),
    "chain": lambda: compile_model(chain_graph(length=5, size=12)),
    "mobilenet_v3": lambda: compile_cached("mobilenet_v3"),
    "decoder_tiny": lambda: compile_cached("decoder_tiny"),
}

#: The deleted row-major conv tail: NHWC product reshaped and
#: transposed back to NCHW.
_ROW_MAJOR_TAIL = re.compile(
    r"out = out\.reshape\(batch, .*\)\.transpose\(0, 3, 1, 2\)"
)


@pytest.mark.parametrize("name", list(SOURCES))
def test_emitted_module_has_no_instruction_kernel_route(name):
    emitted = _engine(SOURCES[name]()).emitted()
    assert "_mm32" not in emitted.source
    assert "_mm32" not in emitted.namespace
    assert not _ROW_MAJOR_TAIL.search(emitted.source)


def _dense(shape, units):
    b = GraphBuilder("float_dense")
    b.dense(b.input(shape, name="x"), units, name="op")
    return b.build()


def _matmul(shape, weight_shape):
    b = GraphBuilder("float_matmul")
    b.matmul(b.input(shape, name="x"), weight_shape=weight_shape, name="op")
    return b.build()


#: One-row-per-sample float GEMMs: stacked, they were a (batch, K) gemm
#: against the reference's (1, K) gemv — 8.9e-16 / 3.6e-15 apart at
#: batch >= 2.  The 3-D operand always passed; it pins that it still does.
FLOAT_GEMMS = {
    "dense-64": lambda: _dense((1, 64), 32),
    "dense-300": lambda: _dense((1, 300), 200),
    "matmul-64": lambda: _matmul((1, 64), (64, 32)),
    "matmul-300": lambda: _matmul((1, 300), (300, 200)),
    "matmul-20x48": lambda: _matmul((1, 20, 48), (48, 24)),
}


@pytest.mark.parametrize("case", list(FLOAT_GEMMS))
def test_float_gemm_nodes_are_bit_identical_at_every_batch(case):
    # Any plan outside vmpy/vmpa/vrmpy sends a compute-heavy node to
    # the emitter's float path.
    compiled = compile_model(
        FLOAT_GEMMS[case](),
        CompilerOptions(
            selection="uniform",
            uniform_instruction=Opcode.VMPYE,
            include_extensions=True,
        ),
    )
    engine = _engine(compiled)
    assert "_ref_eval(" in engine.emitted().source
    for batch in (1, 2, 3, 5):
        verify_engine_parity(
            engine, example_feeds(compiled.graph, count=batch, seed=7)
        )
