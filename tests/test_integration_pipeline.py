"""One end-to-end narrative test across every subsystem.

Build a model with the DSL -> serialize it to JSON -> load it back ->
compile it with the full GCD2 pipeline -> encode a kernel schedule to
binary and decode it -> run quantized inference through the selected
instruction kernels -> check numerics against the float reference ->
cross-check the selection against the exact solver.  If this passes,
the layers genuinely compose.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, GCD2Compiler
from repro.core.cost import CostModel
from repro.core.exhaustive import solve_exhaustive
from repro.graph.builder import GraphBuilder
from repro.graph.execute import ReferenceExecutor
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.isa.encoding import decode_program, encode_program
from repro.runtime.executor import QuantizedExecutor
from tests.conftest import assert_schedule_legal


def _build_network():
    b = GraphBuilder("integration_net")
    x = b.input((1, 4, 16, 16), name="image")
    stem = b.conv2d(x, 8, kernel=3, name="stem")
    stem = b.relu(stem, name="stem_act")
    left = b.conv2d(stem, 8, kernel=1, padding=0, name="left")
    right = b.depthwise_conv2d(stem, kernel=3, name="right")
    merged = b.add(left, right, name="merge")
    merged = b.relu(merged, name="merge_act")
    pooled = b.max_pool(merged, kernel=2, stride=2)
    flat = b.reshape(b.global_avg_pool(pooled), (1, 8), name="flatten")
    logits = b.dense(flat, 5, name="head")
    b.softmax(logits, name="probs")
    return b.build()


@pytest.fixture(scope="module")
def pipeline():
    original = _build_network()
    # Serialize / deserialize round trip first: the compiler must be
    # fed the *loaded* graph to prove the format carries everything.
    loaded = graph_from_dict(graph_to_dict(original))
    compiled = GCD2Compiler(CompilerOptions()).compile(loaded)
    return original, loaded, compiled


class TestEndToEnd:
    def test_serialization_preserved_structure(self, pipeline):
        original, loaded, _ = pipeline
        assert loaded.operator_count() == original.operator_count()
        assert loaded.total_macs() == original.total_macs()

    def test_selection_matches_exact_solver(self, pipeline):
        _, _, compiled = pipeline
        exact = solve_exhaustive(compiled.graph, CostModel())
        assert compiled.selection.cost == pytest.approx(
            exact.cost, rel=0.02
        )

    def test_every_kernel_schedule_is_legal(self, pipeline):
        _, _, compiled = pipeline
        for cn in compiled.nodes:
            assert_schedule_legal(cn.packets, cn.schedule_body)

    def test_schedules_survive_binary_roundtrip(self, pipeline):
        _, _, compiled = pipeline
        for cn in compiled.nodes:
            if not cn.packets:
                continue
            blob, names = encode_program(cn.packets)
            decoded = decode_program(blob, names)
            assert [len(p) for p in decoded] == [
                len(p) for p in cn.packets
            ]

    def test_quantized_inference_tracks_float(self, pipeline):
        _, _, compiled = pipeline
        feed = {
            "image": np.random.default_rng(0).normal(size=(1, 4, 16, 16))
        }
        quantized = QuantizedExecutor(compiled, seed=2).run(feed)
        reference = ReferenceExecutor(compiled.graph, seed=2).run(feed)
        assert np.argmax(quantized["probs"]) == np.argmax(
            reference["probs"]
        )
        assert np.abs(
            quantized["probs"] - reference["probs"]
        ).max() < 0.15

    def test_latency_model_is_consistent(self, pipeline):
        _, _, compiled = pipeline
        assert compiled.latency_ms > 0
        assert compiled.total_cycles == pytest.approx(
            compiled.kernel_cycles + compiled.transform_cycles
        )
        assert compiled.profile.packets >= compiled.total_packets
