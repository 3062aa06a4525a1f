"""Compiled-graph and selection lints.

These rules operate above the instruction level, on the artefacts of
stages 1–4 of the pipeline: the selected plan assignment, the lowered
kernels and the quantization metadata.

* ``LINT-GR001`` — a layout-mismatch edge charged no transform cost;
* ``LINT-GR002`` — a plan pairing an instruction with a layout the
  instruction cannot consume (Figure 2);
* ``LINT-GR003`` — a ``vasr`` requantize shift outside ``[0, 31]``;
* ``LINT-GR004`` — invalid quantization scale/zero-point;
* ``LINT-LW001`` / ``LINT-LW002`` — lowered-kernel structure (empty
  body, non-positive trip count); :func:`lint_kernel_shape` runs just
  these two and is the compiler's ``lowering`` check.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.cost import CostModel
from repro.core.plans import INSTRUCTION_LAYOUT
from repro.core.selection_common import SelectionResult
from repro.graph import ops
from repro.graph.graph import ComputationalGraph
from repro.isa.instructions import Instruction, Opcode
from repro.lint.diagnostics import Diagnostic, Location
from repro.lint.rules import rule
from repro.quant.quantize import QuantParams

#: Hardware range of the vasr shift amount (32-bit accumulator).
VASR_SHIFT_RANGE = (0, 31)


def lint_selection(
    graph: ComputationalGraph,
    selection: SelectionResult,
    model: CostModel,
) -> List[Diagnostic]:
    """LINT-GR001/GR002 over one plan assignment."""
    diagnostics: List[Diagnostic] = []
    for node in graph:
        plan = selection.assignment.get(node.node_id)
        if plan is None:
            continue
        if (
            plan.instruction is not None
            and plan.layout is not INSTRUCTION_LAYOUT[plan.instruction]
        ):
            diagnostics.append(
                rule("LINT-GR002").diagnostic(
                    f"plan {plan.label} pairs {plan.instruction.value} "
                    f"with layout {plan.layout.value}, but the "
                    f"instruction consumes "
                    f"{INSTRUCTION_LAYOUT[plan.instruction].value}",
                    Location(node=node.name),
                    plan=plan.label,
                )
            )
    for src, dst in graph.edges():
        producer = graph.node(src)
        consumer = graph.node(dst)
        producer_plan = selection.assignment.get(src)
        consumer_plan = selection.assignment.get(dst)
        if producer_plan is None or consumer_plan is None:
            continue
        if producer_plan.layout is consumer_plan.layout:
            continue
        if isinstance(producer.op, ops.Constant):
            continue  # weights are packed at compile time, transform-free
        cost = model.edge_cost(
            graph, producer, producer_plan, consumer, consumer_plan
        )
        if cost <= 0.0:
            diagnostics.append(
                rule("LINT-GR001").diagnostic(
                    f"edge {producer.name} -> {consumer.name} changes "
                    f"layout {producer_plan.layout.value} -> "
                    f"{consumer_plan.layout.value} but is charged no "
                    f"transform",
                    Location(node=consumer.name),
                    producer=producer.name,
                )
            )
    return diagnostics


def lint_kernel_shape(
    body: Sequence[Instruction],
    trips: object,
    node: Optional[str] = None,
) -> List[Diagnostic]:
    """LINT-LW001/LW002 over one lowered kernel: the lowering check."""
    diagnostics: List[Diagnostic] = []
    if not body:
        diagnostics.append(
            rule("LINT-LW001").diagnostic(
                "kernel body is empty", Location(node=node)
            )
        )
    if not isinstance(trips, int) or isinstance(trips, bool) or trips < 1:
        diagnostics.append(
            rule("LINT-LW002").diagnostic(
                f"trip count is {trips!r} (must be a positive integer)",
                Location(node=node),
                trips=repr(trips),
            )
        )
    return diagnostics


def lint_kernel_structure(
    body: Sequence[Instruction],
    trips: object,
    node: Optional[str] = None,
) -> List[Diagnostic]:
    """LINT-LW001/LW002/GR003 over one lowered kernel."""
    diagnostics = lint_kernel_shape(body, trips, node)
    lo, hi = VASR_SHIFT_RANGE
    for position, inst in enumerate(body):
        if inst.opcode is not Opcode.VASR or not inst.imms:
            continue
        shift = inst.imms[0]
        if not (lo <= shift <= hi):
            diagnostics.append(
                rule("LINT-GR003").diagnostic(
                    f"vasr shift {shift} outside [{lo}, {hi}]",
                    Location(
                        node=node,
                        instruction_index=position,
                        uid=inst.uid,
                        opcode=inst.opcode.value,
                    ),
                    shift=shift,
                )
            )
    return diagnostics


def lint_quant_params(
    params: QuantParams, node: Optional[str] = None
) -> List[Diagnostic]:
    """LINT-GR004 over one tensor's quantization parameters."""
    diagnostics: List[Diagnostic] = []
    where = Location(node=node)
    scale = params.scale
    if not (isinstance(scale, (int, float)) and math.isfinite(scale)) or (
        scale <= 0
    ):
        diagnostics.append(
            rule("LINT-GR004").diagnostic(
                f"scale {scale!r} is not a finite positive number",
                where,
                scale=repr(scale),
            )
        )
    zero = params.zero_point
    if (
        not isinstance(zero, int)
        or isinstance(zero, bool)
        or not (-128 <= zero <= 127)
    ):
        diagnostics.append(
            rule("LINT-GR004").diagnostic(
                f"zero point {zero!r} leaves the int8 range [-128, 127]",
                where,
                zero_point=repr(zero),
            )
        )
    return diagnostics
