"""Fault-injection suite: every fault is caught by its intended verifier.

Each :class:`~repro.verify.faultinject.Fault` corrupts one stage's
artefact the way a real compiler bug would; the parametrized matrix
below asserts the *intended* verifier raises the *exact* expected error
type with structured context.  The clean-compile tests prove the
verifiers produce zero false positives across the whole model zoo.
"""

import pytest

from repro.compiler import CompilerOptions, GCD2Compiler
from repro.errors import ReproError, VerificationError
from repro.lint import FAULT_RULES
from repro.models import build_model, model_names
from repro.verify.faultinject import FAULTS, hooks_for, inject
from tests.conftest import small_cnn


@pytest.fixture
def compiler():
    return GCD2Compiler(CompilerOptions())


class TestFaultMatrix:
    @pytest.mark.parametrize("fault_name", sorted(FAULTS))
    def test_fault_caught_by_intended_verifier(self, fault_name, compiler):
        fault = FAULTS[fault_name]
        with inject(compiler, fault):
            with pytest.raises(fault.expected) as excinfo:
                compiler.compile(small_cnn())
        error = excinfo.value
        # Exact type, not just a superclass of it.
        assert type(error) is fault.expected
        assert error.stage == fault.stage
        # The structured rendering names the stage.
        assert f"[{fault.stage}]" in str(error)
        # Lowering and packing are checked by the lint rules: the error
        # names the rule that caught the fault.
        if fault_name in FAULT_RULES:
            assert error.details["rule"] == FAULT_RULES[fault_name]

    @pytest.mark.parametrize("fault_name", sorted(FAULTS))
    def test_faults_escape_when_verification_is_off(
        self, fault_name
    ):
        # With verify=False the hooks still corrupt the artefact but no
        # checker stands in the way: the compile either silently
        # succeeds with a corrupted model or dies downstream — either
        # way, no VerificationError fires.  This is what the verifiers
        # buy us.
        fault = FAULTS[fault_name]
        compiler = GCD2Compiler(
            CompilerOptions(verify=False),
            fault_hooks=hooks_for(fault),
        )
        try:
            compiler.compile(small_cnn())
        except VerificationError:  # pragma: no cover - would be a bug
            pytest.fail("verifier ran despite verify=False")
        except Exception:
            pass  # downstream crash is acceptable without verification

    def test_registry_covers_at_least_eight_distinct_faults(self):
        assert len(FAULTS) >= 8
        stages = {fault.stage for fault in FAULTS.values()}
        assert stages >= {
            "graph", "selection", "unroll", "lowering", "packing",
            "profile",
        }

    def test_hooks_for_rejects_stage_collision(self):
        with pytest.raises(ValueError):
            hooks_for(
                FAULTS["selection_cost_nan"],
                FAULTS["selection_drop_plan"],
            )

    def test_inject_restores_previous_hooks(self, compiler):
        with inject(compiler, FAULTS["selection_cost_nan"]):
            assert "selection" in compiler.fault_hooks
        assert compiler.fault_hooks == {}


class TestCleanZoo:
    """Zero false positives: every zoo model compiles clean and strict."""

    @pytest.mark.parametrize("name", model_names())
    def test_zoo_model_compiles_strict_with_no_fallbacks(self, name):
        options = CompilerOptions(strict=True, verify=True)
        compiled = GCD2Compiler(options).compile(build_model(name))
        assert compiled.diagnostics.fallbacks == []
        assert not compiled.diagnostics.degraded
        assert compiled.profile.cycles > 0

    def test_verified_compile_matches_unverified(self):
        graph_a = small_cnn("a")
        graph_b = small_cnn("b")
        verified = GCD2Compiler(CompilerOptions(verify=True)).compile(
            graph_a
        )
        plain = GCD2Compiler(CompilerOptions(verify=False)).compile(
            graph_b
        )
        assert verified.total_cycles == plain.total_cycles
        assert verified.selection.cost == plain.selection.cost

    def test_diagnostics_record_stage_timings(self):
        compiled = GCD2Compiler().compile(small_cnn())
        stages = set(compiled.diagnostics.stage_seconds)
        assert stages == {
            "graph", "selection", "unroll", "lowering", "packing",
            "profile",
        }
        assert set(compiled.diagnostics.verifier_seconds) == stages
        summary = "\n".join(compiled.diagnostics.summary_lines())
        assert "fallbacks: none" in summary


class TestErrorContext:
    def test_fault_errors_carry_node_context(self, compiler):
        with inject(compiler, FAULTS["selection_drop_plan"]):
            with pytest.raises(ReproError) as excinfo:
                compiler.compile(small_cnn())
        error = excinfo.value
        assert error.node is not None
        assert error.details.get("solver")
