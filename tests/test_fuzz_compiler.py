"""Fuzz tests: the full compiler pipeline over generated graphs.

Hypothesis drives graph generation (via the seeded random-DAG builder)
and checks the pipeline's global invariants on every one: complete
legal plans, solver cost sandwich, positive latency, legal schedules,
and quantized-vs-float numerical agreement on the small ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, compile_model
from repro.core.cost import CostModel
from repro.core.exhaustive import solve_exhaustive
from repro.core.local import solve_local
from repro.core.selection_common import aggregate_cost
from tests.conftest import assert_schedule_legal, random_dag


class TestCompilerInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pipeline_invariants_hold(self, seed):
        graph = random_dag(seed, nodes=7)
        compiled = compile_model(graph)

        # 1. Every real operator has a plan and a legal schedule.
        compiled_ids = {cn.node.node_id for cn in compiled.nodes}
        for node in compiled.graph:
            if node.op_type not in ("Input", "Constant"):
                assert node.node_id in compiled_ids
        for cn in compiled.nodes:
            assert_schedule_legal(cn.packets, cn.schedule_body)
            assert cn.cycles >= 0
            if cn.node.op.is_compute_heavy:
                assert cn.plan.instruction is not None

        # 2. Latency is positive and decomposes consistently.
        assert compiled.latency_ms > 0
        assert compiled.total_cycles >= compiled.kernel_cycles

        # 3. Selection cost equals the Equation 1 aggregate.
        model = CostModel()
        recomputed = aggregate_cost(
            compiled.graph, model, compiled.selection.assignment
        )
        assert compiled.selection.cost == pytest.approx(
            recomputed, rel=1e-6
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_solver_sandwich(self, seed):
        graph = random_dag(seed, nodes=6)
        model = CostModel()
        exact = solve_exhaustive(graph, model)
        local = solve_local(graph, model)
        gcd2 = compile_model(
            graph, CompilerOptions(graph_passes=False)
        ).selection
        assert exact.cost - 1e-6 <= gcd2.cost <= local.cost + 1e-6

    @given(seed=st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_quantized_execution_tracks_reference(self, seed):
        from repro.graph.execute import ReferenceExecutor
        from repro.runtime.executor import QuantizedExecutor

        graph = random_dag(seed, nodes=6)
        compiled = compile_model(graph)
        quantized = QuantizedExecutor(compiled, seed=seed).run()
        reference = ReferenceExecutor(compiled.graph, seed=seed).run()
        assert set(quantized) == set(reference)
        for name in reference:
            ref = reference[name]
            got = quantized[name]
            scale = max(1e-6, float(np.abs(ref).max()))
            assert np.abs(got - ref).max() / scale < 0.25, name
