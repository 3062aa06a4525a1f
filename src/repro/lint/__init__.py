"""repro.lint — static dataflow analysis and lint rules.

A rule-based static analyzer over the compiler's artefacts: packed VLIW
programs (``List[Packet]``), complete machine programs
(:class:`~repro.codegen.program.MatmulProgram`) and compiled graphs
(:class:`~repro.compiler.CompiledModel`).  Where :mod:`repro.verify`
checks *dynamically* (checkers run inside a compile, the simulator runs
the code), the lint layer proves properties *statically* — register
dataflow, packet hazard legality, schedule consistency, memory-map
discipline — and reports structured :class:`Diagnostic` objects instead
of raising on first failure.  The kernel-shape, packet-hazard and
schedule-consistency rules double as :mod:`repro.verify`'s ``lowering``
and ``packing`` checks: they are the only definition of those rules.

Entry points:

* :class:`StaticAnalyzer` / :func:`lint_model` — library API;
* :func:`verify_lint` — PassManager checker (``repro verify`` and
  ``CompilerOptions(lint=True)`` run it strictly);
* :func:`raise_first_error` — turns the first ERROR diagnostic into a
  stage's verification error; the compiler's ``lowering`` and
  ``packing`` checks (:mod:`repro.verify.checkers`) go through it too,
  so hardware legality is defined by these rules alone;
* ``repro lint MODEL`` — the CLI (see :mod:`repro.cli`);
* :data:`FAULT_RULES` — which lint rule catches which injected fault.

The rule catalog lives in :mod:`repro.lint.rules`; ``docs/LINT.md``
documents every rule.
"""

from repro.lint.analyzer import (
    FAULT_RULES,
    STATIC_STAGES,
    StaticAnalyzer,
    lint_model,
    raise_first_error,
    verify_lint,
)
from repro.lint.baseline import (
    baseline_from_report,
    load_baseline,
    save_baseline,
)
from repro.lint.dataflow import (
    DefUseChains,
    def_use_chains,
    lint_dataflow,
    live_out,
    reaching_definition,
)
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    Severity,
)
from repro.lint.graphlint import (
    lint_kernel_shape,
    lint_kernel_structure,
    lint_quant_params,
    lint_selection,
)
from repro.lint.hazards import (
    StallEstimate,
    estimate_stalls,
    lint_cycle_estimate,
    lint_packet,
    lint_schedule_consistency,
    stall_diagnostic,
)
from repro.lint.memory import Region, lint_memory_map, matmul_regions
from repro.lint.reporter import render, render_json, render_text
from repro.lint.rules import RULES, Rule, rule

__all__ = [
    "FAULT_RULES",
    "STATIC_STAGES",
    "StaticAnalyzer",
    "lint_model",
    "raise_first_error",
    "verify_lint",
    "baseline_from_report",
    "load_baseline",
    "save_baseline",
    "DefUseChains",
    "def_use_chains",
    "lint_dataflow",
    "live_out",
    "reaching_definition",
    "Diagnostic",
    "LintReport",
    "Location",
    "Severity",
    "lint_kernel_shape",
    "lint_kernel_structure",
    "lint_quant_params",
    "lint_selection",
    "StallEstimate",
    "estimate_stalls",
    "lint_cycle_estimate",
    "lint_packet",
    "lint_schedule_consistency",
    "stall_diagnostic",
    "Region",
    "lint_memory_map",
    "matmul_regions",
    "render",
    "render_json",
    "render_text",
    "RULES",
    "Rule",
    "rule",
]
