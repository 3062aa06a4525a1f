"""The static analyzer: rule orchestration over compiler artefacts.

:class:`StaticAnalyzer` is the front door of :mod:`repro.lint`.  It
wires the individual rule families (dataflow, packet hazards, schedule
consistency, stall estimation, memory map, graph/selection lints) onto
the three artefact shapes the compiler produces:

* a bare instruction sequence (kernel body or complete program);
* a packed schedule (``List[Packet]`` plus the body it implements);
* a :class:`~repro.compiler.CompiledModel` (everything at once).

``verify_lint`` adapts the analyzer to the
:class:`~repro.verify.PassManager` checker convention so ``repro
verify`` (and ``CompilerOptions(lint=True)``) runs it strictly:
error-severity diagnostics raise
:class:`~repro.errors.LintVerificationError` through
:func:`raise_first_error`, the same helper the compiler's ``lowering``
and ``packing`` checks raise through.

:data:`FAULT_RULES` is the cross-validation contract with
:mod:`repro.verify.faultinject`: every packing/codegen-stage fault in
the registry maps to the lint rule that must catch it statically.  The
tier-1 suite asserts the mapping is total and that each rule actually
fires on its fault.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Type,
)

from repro.codegen.lower import LoweredKernel
from repro.codegen.program import MatmulProgram
from repro.core.cost import CostModel
from repro.core.selection_common import SelectionResult
from repro.errors import LintVerificationError, VerificationError
from repro.graph.graph import ComputationalGraph
from repro.isa.instructions import Instruction
from repro.lint.dataflow import lint_dataflow
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.graphlint import (
    lint_kernel_structure,
    lint_selection,
)
from repro.lint.hazards import (
    estimate_stalls,
    lint_cycle_estimate,
    lint_packet,
    lint_schedule_consistency,
    stall_diagnostic,
)
from repro.lint.memory import Region, lint_memory_map, matmul_regions
from repro.machine.description import MachineDescription, resolve_machine
from repro.machine.packet import Packet

#: Fault-injection registry entry -> the lint rule that catches it
#: statically.  Covers every codegen-stage fault (stages ``lowering``
#: and ``packing``); earlier-stage faults corrupt artefacts the dynamic
#: verifiers own (see docs/LINT.md).
FAULT_RULES: Dict[str, str] = {
    "lowering_truncate_body": "LINT-LW001",
    "lowering_poison_trips": "LINT-LW002",
    "packing_copack_hard": "LINT-PK001",
    "packing_overfill_packet": "LINT-PK002",
    "packing_drop_packet": "LINT-SC001",
    "packing_duplicate_packet": "LINT-SC002",
    "packing_poison_cycles": "LINT-SC003",
}

#: Stages of the fault registry whose faults the analyzer must catch.
STATIC_STAGES = ("lowering", "packing")


class StaticAnalyzer:
    """Runs the registered lint rules over compiler artefacts.

    ``machine`` pins the packet/pipeline rules to one target
    description; ``None`` resolves the process default live, so the
    analyzer always judges schedules by the same machine model the
    compiler used.
    """

    def __init__(
        self, machine: Optional[MachineDescription] = None
    ) -> None:
        self.machine = resolve_machine(machine)

    def lint_program(
        self,
        instructions: Sequence[Instruction],
        *,
        loop_body: bool = False,
        live_in: FrozenSet[str] = frozenset(),
        regions: Optional[Sequence[Region]] = None,
        node: Optional[str] = None,
    ) -> LintReport:
        """Dataflow (and optionally memory-map) rules over a sequence."""
        report = LintReport()
        report.extend(
            lint_dataflow(
                instructions,
                loop_body=loop_body,
                live_in=live_in,
                node=node,
            )
        )
        if regions is not None:
            report.extend(
                lint_memory_map(instructions, regions, node=node)
            )
        return report

    def lint_schedule(
        self,
        packets: Sequence[Packet],
        body: Sequence[Instruction],
        *,
        node: Optional[str] = None,
        with_stalls: bool = True,
    ) -> LintReport:
        """Packet hazards + schedule consistency + stall estimate."""
        report = LintReport()
        for index, packet in enumerate(packets):
            report.extend(lint_packet(packet, index, node, self.machine))
        report.extend(lint_schedule_consistency(packets, body, node))
        if with_stalls:
            estimate = estimate_stalls(packets, self.machine)
            report.add(stall_diagnostic(estimate, node))
            report.metrics["packets"] = float(estimate.packets)
            report.metrics["soft_raw_pairs"] = float(
                estimate.soft_raw_pairs
            )
            report.metrics["stall_cycles"] = float(estimate.stall_cycles)
            report.metrics["estimated_cycles"] = float(
                estimate.total_cycles
            )
        return report

    def lint_matmul_program(self, program: MatmulProgram) -> LintReport:
        """Full straight-line analysis of a complete matmul program."""
        return self.lint_program(
            program.instructions,
            loop_body=False,
            regions=matmul_regions(program),
        )

    def lint_lowering(
        self,
        kernels: Mapping[int, LoweredKernel],
        graph: Optional[ComputationalGraph] = None,
    ) -> LintReport:
        """Structure rules over lowered kernels, keyed by node id."""
        report = LintReport()
        for node_id, kernel in kernels.items():
            name = (
                graph.node(node_id).name
                if graph is not None and node_id in graph
                else str(node_id)
            )
            report.extend(
                lint_kernel_structure(kernel.body, kernel.trips, name)
            )
        return report

    def lint_compiled(
        self,
        compiled_nodes: Sequence["CompiledNode"],
        *,
        graph: Optional[ComputationalGraph] = None,
        selection: Optional[SelectionResult] = None,
        model: Optional[CostModel] = None,
    ) -> LintReport:
        """Everything the analyzer knows, over compiled per-node artefacts."""
        report = LintReport()
        if (
            graph is not None
            and selection is not None
            and model is not None
        ):
            report.extend(lint_selection(graph, selection, model))
        for compiled in compiled_nodes:
            name = compiled.node.name
            report.extend(
                lint_kernel_structure(
                    compiled.kernel.body, compiled.kernel.trips, name
                )
            )
            report.merge(
                self.lint_program(
                    compiled.schedule_body, loop_body=True, node=name
                )
            )
            report.merge(
                self.lint_schedule(
                    compiled.packets, compiled.schedule_body, node=name
                )
            )
            report.extend(lint_cycle_estimate(compiled.cycles, name))
        return report


def lint_model(compiled: "CompiledModel") -> LintReport:
    """Lint a finished compile, selection lints included."""
    machine = getattr(compiled, "machine", None)
    model = CostModel(
        include_extensions=compiled.options.include_extensions,
        other_opts=compiled.options.other_opts,
        scalar_activations=compiled.options.scalar_activations,
        transform_bytes_per_cycle=(
            compiled.options.transform_bytes_per_cycle
        ),
        machine=machine,
    )
    return StaticAnalyzer(machine).lint_compiled(
        compiled.nodes,
        graph=compiled.graph,
        selection=compiled.selection,
        model=model,
    )


def raise_first_error(
    diagnostics: Iterable[Diagnostic],
    error_cls: Type[VerificationError],
    stage: str,
) -> None:
    """Raise ``error_cls`` for the first ERROR diagnostic, if any.

    The error names the first diagnostic's node and carries its
    ``rule`` and details, plus every failing rule id and the error
    count.  This is how the ``lowering``, ``packing`` and ``lint``
    PassManager checks turn lint findings into a failed stage.
    """
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if not errors:
        return
    first = errors[0]
    raise error_cls(
        f"static analysis found {len(errors)} error(s); first: "
        f"{first.render()}",
        stage=stage,
        node=first.location.node,
        details={
            "rule": first.rule_id,
            **first.details,
            "rules": sorted({d.rule_id for d in errors}),
            "count": len(errors),
        },
    )


def verify_lint(
    graph: ComputationalGraph,
    model: CostModel,
    selection: SelectionResult,
    compiled_nodes: Sequence["CompiledNode"],
    machine: Optional[MachineDescription] = None,
) -> None:
    """PassManager checker: raise on error-severity diagnostics."""
    report = StaticAnalyzer(machine).lint_compiled(
        compiled_nodes, graph=graph, selection=selection, model=model
    )
    raise_first_error(report, LintVerificationError, "lint")
