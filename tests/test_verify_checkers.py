"""Unit tests for the invariant checkers and their structured context."""

import math

import pytest

from repro.compiler import CompilerOptions, GCD2Compiler, compile_model
from repro.core.cost import CostModel
from repro.core.local import solve_local
from repro.errors import (
    GraphError,
    GraphVerificationError,
    LoweringVerificationError,
    ProfileVerificationError,
    ScheduleVerificationError,
    SelectionError,
    SelectionVerificationError,
    VerificationError,
)
from repro.verify import (
    verify_graph,
    verify_lowering,
    verify_profile,
    verify_schedule,
    verify_selection,
)
from repro.verify.checkers import COST_TOLERANCE
from tests.conftest import small_cnn


class TestVerifyGraph:
    def test_clean_graph_passes(self):
        verify_graph(small_cnn())

    def test_dangling_input_id(self):
        graph = small_cnn()
        victim = next(n for n in graph if n.inputs)
        victim.inputs = victim.inputs[:-1] + (4242,)
        with pytest.raises(GraphVerificationError) as excinfo:
            verify_graph(graph)
        error = excinfo.value
        assert error.stage == "graph"
        assert error.node == victim.name
        assert error.details["input_id"] == 4242

    def test_duplicate_node_name(self):
        graph = small_cnn()
        nodes = list(graph)
        nodes[2].name = nodes[1].name
        with pytest.raises(GraphVerificationError) as excinfo:
            verify_graph(graph)
        assert "duplicate" in str(excinfo.value)

    def test_uninferred_shape(self):
        graph = small_cnn()
        next(iter(graph)).output_shape = (0, -3)
        with pytest.raises(GraphVerificationError) as excinfo:
            verify_graph(graph)
        assert "shape" in str(excinfo.value)

    def test_verification_error_is_also_graph_error(self):
        # Callers catching the coarse subsystem error still work.
        graph = small_cnn()
        next(iter(graph)).output_shape = None
        with pytest.raises(GraphError):
            verify_graph(graph)


class TestVerifySelection:
    def _selection(self, graph):
        model = CostModel()
        return model, solve_local(graph, model)

    def test_clean_selection_passes(self):
        graph = small_cnn()
        model, selection = self._selection(graph)
        verify_selection(graph, model, selection)

    def test_skew_within_tolerance_passes(self):
        graph = small_cnn()
        model, selection = self._selection(graph)
        selection.cost *= 1.0 + COST_TOLERANCE / 10.0
        verify_selection(graph, model, selection)

    def test_skew_beyond_tolerance_fails(self):
        graph = small_cnn()
        model, selection = self._selection(graph)
        selection.cost *= 1.01
        with pytest.raises(SelectionVerificationError) as excinfo:
            verify_selection(graph, model, selection)
        details = excinfo.value.details
        assert details["reported"] != details["recomputed"]

    def test_dropped_plan_names_the_node(self):
        graph = small_cnn()
        model, selection = self._selection(graph)
        victim = next(
            node_id
            for node_id, plan in selection.assignment.items()
            if plan.instruction is not None
        )
        del selection.assignment[victim]
        with pytest.raises(SelectionVerificationError) as excinfo:
            verify_selection(graph, model, selection)
        assert excinfo.value.node == graph.node(victim).name

    def test_verification_error_is_also_selection_error(self):
        graph = small_cnn()
        model, selection = self._selection(graph)
        selection.cost = float("inf")
        with pytest.raises(SelectionError):
            verify_selection(graph, model, selection)


class TestVerifyLowering:
    @staticmethod
    def _kernels(compiled):
        return {cn.node.node_id: cn.kernel for cn in compiled.nodes}

    def test_clean_kernels_pass(self):
        compiled = compile_model(small_cnn())
        verify_lowering(compiled.graph, self._kernels(compiled))

    def test_bool_trip_count_rejected(self):
        # ``True`` is an ``int`` to isinstance, but not a trip count.
        compiled = compile_model(small_cnn())
        kernels = self._kernels(compiled)
        victim = compiled.nodes[0]
        victim.kernel.trips = True
        with pytest.raises(LoweringVerificationError) as excinfo:
            verify_lowering(compiled.graph, kernels)
        error = excinfo.value
        assert error.stage == "lowering"
        assert error.node == victim.node.name
        assert error.details["rule"] == "LINT-LW002"


class TestVerifySchedule:
    def test_clean_compiled_model_passes(self):
        compiled = compile_model(small_cnn())
        verify_schedule(compiled.nodes)

    def test_nan_cycles_rejected(self):
        compiled = compile_model(small_cnn())
        compiled.nodes[0].cycles = math.nan
        with pytest.raises(ScheduleVerificationError) as excinfo:
            verify_schedule(compiled.nodes)
        error = excinfo.value
        assert error.stage == "packing"
        assert error.node == compiled.nodes[0].node.name
        assert error.details["rule"] == "LINT-SC003"

    def test_shared_cached_schedules_checked_once(self):
        # Identical kernel bodies share one packet list through the
        # compiler cache; the checker still covers every *distinct*
        # schedule and passes.
        compiled = compile_model(small_cnn())
        schedule_ids = {id(cn.packets) for cn in compiled.nodes}
        assert len(schedule_ids) < len(compiled.nodes)
        verify_schedule(compiled.nodes)


class TestVerifyProfile:
    def test_clean_profile_passes(self):
        compiled = compile_model(small_cnn())
        verify_profile(compiled.profile)

    def test_negative_counter_rejected(self):
        compiled = compile_model(small_cnn())
        compiled.profile.bytes_loaded = -1
        with pytest.raises(ProfileVerificationError) as excinfo:
            verify_profile(compiled.profile)
        assert excinfo.value.stage == "profile"

    def test_slot_overflow_rejected(self):
        compiled = compile_model(small_cnn())
        profile = compiled.profile
        profile.issued_instructions = profile.packets * 4 + 1
        with pytest.raises(ProfileVerificationError):
            verify_profile(profile)


class TestErrorRendering:
    def test_structured_str_includes_stage_node_details(self):
        error = VerificationError(
            "invariant broken",
            stage="packing",
            node="conv_1",
            details={"uid": 7},
        )
        rendered = str(error)
        assert "[packing]" in rendered
        assert "node conv_1" in rendered
        assert "uid=7" in rendered

    def test_plain_message_unchanged(self):
        assert str(GraphError("just a message")) == "just a message"


class TestCompilerVerifySwitch:
    def test_verify_off_skips_verifier_timings(self):
        compiled = GCD2Compiler(
            CompilerOptions(verify=False)
        ).compile(small_cnn())
        assert compiled.diagnostics.verifier_seconds == {}
        assert compiled.diagnostics.stage_seconds
