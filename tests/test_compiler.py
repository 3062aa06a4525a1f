"""Tests for the end-to-end GCD2 compiler."""

import pytest

from repro.compiler import (
    CompiledModel,
    CompilerOptions,
    GCD2Compiler,
    compile_model,
)
from repro.core.packing.sda import SdaConfig
from repro.core.unroll import UnrollConfig
from repro.errors import ReproError
from repro.isa.instructions import Opcode
from tests.conftest import chain_graph, small_cnn


class TestOptions:
    def test_defaults_valid(self):
        CompilerOptions()

    def test_unknown_packer_rejected(self):
        with pytest.raises(ReproError):
            CompilerOptions(packing="bogus")

    def test_unknown_selection_rejected(self):
        with pytest.raises(ReproError):
            CompilerOptions(selection="bogus")

    def test_unknown_unrolling_rejected(self):
        with pytest.raises(ReproError):
            CompilerOptions(unrolling="bogus")

    def test_uniform_requires_instruction(self):
        with pytest.raises(ReproError):
            CompilerOptions(selection="uniform")
        CompilerOptions(
            selection="uniform", uniform_instruction=Opcode.VRMPY
        )

    def test_sda_config_must_be_typed(self):
        with pytest.raises(ReproError, match="sda_config"):
            CompilerOptions(sda_config={"w": 0.5})
        CompilerOptions(sda_config=SdaConfig(w=0.5))

    def test_unroll_config_must_be_typed(self):
        with pytest.raises(ReproError, match="unroll_config"):
            CompilerOptions(unroll_config=(8, 4))
        CompilerOptions(unroll_config=UnrollConfig(skinny_seed=(8, 4)))


class TestTuningConfigThreading:
    def test_unroll_config_reaches_kernel_plans(self):
        graph = small_cnn()
        default = GCD2Compiler().compile(graph)
        tuned = GCD2Compiler(
            CompilerOptions(unroll_config=UnrollConfig(skinny_seed=(1, 8)))
        ).compile(graph)
        default_shapes = {
            (n.node.node_id, n.kernel.trips, n.kernel.instruction_count)
            for n in default.nodes if n.kernel is not None
        }
        tuned_shapes = {
            (n.node.node_id, n.kernel.trips, n.kernel.instruction_count)
            for n in tuned.nodes if n.kernel is not None
        }
        assert default_shapes != tuned_shapes

    def test_sda_config_changes_schedules(self):
        # small graphs pack identically under every config; wdsr_b has
        # bodies with real soft-pair pressure, so neutering Equation 4
        # (w=0, no stall penalty) visibly degrades the schedules.
        from repro.models import build_model

        graph = build_model("wdsr_b")
        default = GCD2Compiler().compile(graph)
        tuned = GCD2Compiler(
            CompilerOptions(sda_config=SdaConfig(w=0.0, soft_penalty=0.0))
        ).compile(graph)
        assert tuned.total_packets != default.total_packets
        assert tuned.profile.cycles > default.profile.cycles

    def test_tuned_configs_share_one_result(self):
        # Same tuned options, two compiles: byte-stable simulated cost.
        graph = small_cnn()
        options = CompilerOptions(
            sda_config=SdaConfig(w=0.5),
            unroll_config=UnrollConfig(skinny_seed=(1, 8)),
        )
        a = GCD2Compiler(options).compile(graph)
        b = GCD2Compiler(options).compile(graph)
        assert a.profile.cycles + a.transform_cycles == \
            b.profile.cycles + b.transform_cycles


class TestCompilation:
    def test_compiles_small_model(self):
        compiled = compile_model(small_cnn())
        assert isinstance(compiled, CompiledModel)
        assert compiled.latency_ms > 0
        assert compiled.total_packets > 0
        assert compiled.total_cycles >= compiled.kernel_cycles

    def test_every_real_operator_compiled(self):
        compiled = compile_model(small_cnn())
        compiled_names = {cn.node.name for cn in compiled.nodes}
        for node in compiled.graph:
            if node.op_type not in ("Input", "Constant"):
                assert node.name in compiled_names

    def test_compute_nodes_have_instruction_plans(self):
        compiled = compile_model(small_cnn())
        for cn in compiled.nodes:
            if cn.node.op.is_compute_heavy:
                assert cn.plan.instruction is not None
                assert cn.packets

    def test_graph_passes_fuse_activations(self):
        with_passes = compile_model(
            small_cnn(), CompilerOptions(graph_passes=True)
        )
        without = compile_model(
            small_cnn(), CompilerOptions(graph_passes=False)
        )
        assert (
            with_passes.graph.operator_count()
            < without.graph.operator_count()
        )

    def test_profile_populated(self):
        compiled = compile_model(small_cnn())
        assert compiled.profile.packets > 0
        assert compiled.profile.macs > 0
        assert 0 < compiled.profile.slot_occupancy <= 1

    def test_diagnostics_record_search_effort(self):
        compiled = compile_model(
            small_cnn(), CompilerOptions(graph_passes=False)
        )
        diag = compiled.diagnostics
        assert diag.selection_expansions == compiled.selection.expansions > 0
        assert diag.to_dict()["selection_expansions"] == (
            diag.selection_expansions
        )
        assert (
            f"selection search: {diag.selection_expansions} expansion(s)"
            in diag.summary_lines()
        )
        # Effort is a count, not a wall time: it repeats exactly.
        again = compile_model(
            small_cnn(), CompilerOptions(graph_passes=False)
        )
        assert again.diagnostics.selection_expansions == (
            diag.selection_expansions
        )

    def test_diagnostics_record_packing_effort(self, tmp_path):
        options = CompilerOptions(cache_dir=str(tmp_path))
        diag = compile_model(small_cnn(), options).diagnostics
        assert diag.packing_bodies == diag.cache_misses > 0
        assert diag.packing_work > 0
        payload = diag.to_dict()
        assert payload["packing_bodies"] == diag.packing_bodies
        assert payload["packing_work"] == diag.packing_work
        assert (
            f"packing: {diag.packing_bodies} bodies, "
            f"{diag.packing_work} evaluations"
        ) in diag.summary_lines()
        # A count, not a wall time; and a warm cache packs nothing.
        fresh = compile_model(small_cnn()).diagnostics
        assert fresh.packing_work == diag.packing_work
        warm = compile_model(small_cnn(), options).diagnostics
        assert warm.packing_bodies == warm.packing_work == 0
        assert not any(
            line.startswith("packing:") for line in warm.summary_lines()
        )

    def test_solvers_that_do_not_search_report_no_expansions(self):
        compiled = compile_model(
            small_cnn(), CompilerOptions(selection="local")
        )
        assert compiled.diagnostics.selection_expansions == 0
        assert not any(
            line.startswith("selection search")
            for line in compiled.diagnostics.summary_lines()
        )

    def test_diagnostics_to_dict_is_json_ready(self):
        import json

        payload = compile_model(small_cnn()).diagnostics.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["fallbacks"] == []
        assert set(payload["stage_seconds"]) >= {"selection", "packing"}


class TestAblations:
    def test_local_selection_never_cheaper_than_gcd2(self):
        graph = small_cnn()
        gcd2 = compile_model(graph, CompilerOptions(selection="gcd2"))
        local = compile_model(graph, CompilerOptions(selection="local"))
        assert gcd2.selection.cost <= local.selection.cost + 1e-9

    def test_exhaustive_matches_gcd2_on_small_graph(self):
        graph = small_cnn()
        gcd2 = compile_model(graph, CompilerOptions(selection="gcd2"))
        exact = compile_model(graph, CompilerOptions(selection="exhaustive"))
        assert gcd2.selection.cost == pytest.approx(
            exact.selection.cost, rel=0.02
        )

    def test_chain_selection_on_chain(self):
        compiled = compile_model(
            chain_graph(length=6), CompilerOptions(selection="chain")
        )
        assert compiled.latency_ms > 0

    def test_pbqp_selection_runs(self):
        compiled = compile_model(
            small_cnn(), CompilerOptions(selection="pbqp")
        )
        assert compiled.latency_ms > 0

    def test_uniform_selection_assigns_one_instruction(self):
        compiled = compile_model(
            small_cnn(),
            CompilerOptions(
                selection="uniform", uniform_instruction=Opcode.VRMPY
            ),
        )
        for cn in compiled.nodes:
            if cn.node.op.is_compute_heavy:
                assert cn.plan.instruction is Opcode.VRMPY

    def test_weaker_packing_is_not_faster(self):
        graph = small_cnn()
        sda = compile_model(graph, CompilerOptions(packing="sda"))
        hard = compile_model(
            graph, CompilerOptions(packing="soft_to_hard")
        )
        assert hard.latency_ms >= sda.latency_ms * 0.999

    def test_kernel_efficiency_slows_compute(self):
        graph = small_cnn()
        fast = compile_model(graph, CompilerOptions())
        slow = compile_model(graph, CompilerOptions(kernel_efficiency=0.5))
        assert slow.latency_ms > fast.latency_ms

    def test_unrolling_modes_run(self):
        graph = small_cnn()
        for mode in ("none", "outer", "mid", "adaptive"):
            compiled = compile_model(
                graph, CompilerOptions(unrolling=mode)
            )
            assert compiled.latency_ms > 0

    def test_no_unrolling_not_faster_than_adaptive(self):
        graph = small_cnn()
        adaptive = compile_model(
            graph, CompilerOptions(unrolling="adaptive")
        )
        none = compile_model(graph, CompilerOptions(unrolling="none"))
        assert none.latency_ms >= adaptive.latency_ms * 0.999


class TestScheduleCache:
    def test_identical_bodies_share_schedules(self):
        compiler = GCD2Compiler(CompilerOptions())
        compiler.compile(small_cnn())
        cache_size = len(compiler.schedule_cache)
        compiler.compile(small_cnn("small_cnn_again"))
        # Same bodies -> cache barely grows.
        assert len(compiler.schedule_cache) <= cache_size + 2
