"""Robustness subsystem: verified passes, budgets, fault injection.

Four pillars, threaded through :class:`~repro.compiler.GCD2Compiler`:

* :mod:`repro.verify.passes` — the :class:`PassManager` that wraps the
  pipeline stages and runs invariant checkers after each one;
* :mod:`repro.verify.checkers` — the checkers themselves (graph
  well-formedness, selection completeness, profile sanity; kernel
  shape and schedule legality by running the :mod:`repro.lint` rules);
* :mod:`repro.verify.budget` — wall-clock/state budgets the exponential
  solvers enforce, feeding the compiler's graceful-degradation ladder;
* :mod:`repro.verify.faultinject` — stage-level corruption hooks that
  prove each verifier actually catches its fault class.
"""

from repro.verify.budget import (
    Deadline,
    SelectionBudget,
    budget_from_options,
)
from repro.verify.checkers import (
    verify_graph,
    verify_lowering,
    verify_profile,
    verify_schedule,
    verify_selection,
    verify_unrolls,
)
from repro.verify.diagnostics import (
    CompilationDiagnostics,
    DegradationRecord,
    FallbackRecord,
)
from repro.verify.passes import STAGES, PassManager

__all__ = [
    "Deadline",
    "SelectionBudget",
    "budget_from_options",
    "DegradationRecord",
    "verify_graph",
    "verify_selection",
    "verify_unrolls",
    "verify_lowering",
    "verify_schedule",
    "verify_profile",
    "CompilationDiagnostics",
    "FallbackRecord",
    "PassManager",
    "STAGES",
]
