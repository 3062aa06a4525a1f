"""Invariant checkers run between compiler stages.

Each checker inspects one stage's artefact and raises a
:class:`~repro.errors.VerificationError` subclass carrying structured
context (stage, node, offending artefact) when an invariant is broken.

Two kinds of check live here:

* **dynamic** — ``verify_graph``, ``verify_selection``,
  ``verify_unrolls`` and ``verify_profile`` re-derive their stage's
  result independently (the selection checker re-aggregates
  ``Agg_Cost`` from the cost model, the profile checker bounds the
  counters by the machine's slots), so a bug in the producing stage
  cannot also hide itself in the check;
* **lint-backed** — ``verify_lowering`` and ``verify_schedule`` run the
  :mod:`repro.lint` rules (LW001/LW002; PK001–PK005 and SC001–SC005)
  and raise on the first ERROR diagnostic.  Those rules are the one
  definition of kernel-shape and schedule legality; they re-derive it
  pair by pair without trusting :class:`~repro.machine.packet.Packet`'s
  constructor, which the packer itself relies on.  ``repro.lint`` is
  imported on first call, so importing the compiler does not load the
  analyzer.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.errors import (
    GraphError,
    GraphVerificationError,
    LoweringVerificationError,
    ProfileVerificationError,
    ScheduleVerificationError,
    SelectionVerificationError,
)
from repro.graph.graph import ComputationalGraph
from repro.machine.description import resolve_machine

#: Relative tolerance for the recomputed-versus-reported cost check.
COST_TOLERANCE = 1e-6

#: Node kinds that never receive an execution plan or a kernel.
_PLACEHOLDER_OPS = ("Input", "Constant")


# ---------------------------------------------------------------------------
# graph well-formedness
# ---------------------------------------------------------------------------


def verify_graph(graph: ComputationalGraph) -> None:
    """Acyclic, no dangling input ids, unique names, shapes inferred.

    The per-node structural checks run before the whole-graph
    ``validate()`` so the raised error names the offending node, not
    just the graph.
    """
    names = set()
    known = {node.node_id for node in graph}
    for node in graph:
        for input_id in node.inputs:
            if input_id not in known:
                raise GraphVerificationError(
                    f"input edge references nonexistent node id {input_id}",
                    stage="graph",
                    node=node.name,
                    details={"input_id": input_id},
                )
        if node.name in names:
            raise GraphVerificationError(
                f"duplicate node name {node.name!r}",
                stage="graph",
                node=node.node_id,
            )
        names.add(node.name)
        shape = node.output_shape
        if not isinstance(shape, tuple) or not all(
            isinstance(dim, int) and dim > 0 for dim in shape
        ):
            raise GraphVerificationError(
                f"output shape not inferred: {shape!r}",
                stage="graph",
                node=node.name,
                details={"shape": shape},
            )
    try:
        graph.validate()
    except GraphError as exc:
        raise GraphVerificationError(
            str(exc), stage="graph", details={"graph": graph.name}
        ) from exc


# ---------------------------------------------------------------------------
# selection completeness / cost consistency
# ---------------------------------------------------------------------------


def verify_selection(
    graph: ComputationalGraph,
    model,
    selection,
    *,
    tolerance: float = COST_TOLERANCE,
) -> None:
    """Every operator has a plan and the reported cost is reproducible."""
    from repro.core.selection_common import aggregate_cost

    for node in graph:
        if node.op_type in _PLACEHOLDER_OPS:
            continue
        plan = selection.assignment.get(node.node_id)
        if plan is None:
            raise SelectionVerificationError(
                "no execution plan assigned",
                stage="selection",
                node=node.name,
                details={"solver": selection.solver},
            )
        if node.op.is_compute_heavy and plan.instruction is None:
            raise SelectionVerificationError(
                "compute-heavy operator selected without an instruction",
                stage="selection",
                node=node.name,
                details={"plan": plan.label, "solver": selection.solver},
            )
    cost = selection.cost
    if not math.isfinite(cost) or cost < 0.0:
        raise SelectionVerificationError(
            f"Agg_Cost is not finite and non-negative: {cost!r}",
            stage="selection",
            details={"solver": selection.solver},
        )
    recomputed = aggregate_cost(graph, model, selection.assignment)
    if abs(recomputed - cost) > tolerance * max(1.0, abs(recomputed)):
        raise SelectionVerificationError(
            "reported Agg_Cost does not match the recomputed objective",
            stage="selection",
            details={
                "solver": selection.solver,
                "reported": cost,
                "recomputed": recomputed,
            },
        )


# ---------------------------------------------------------------------------
# unroll / lowering structure
# ---------------------------------------------------------------------------


def verify_unrolls(graph: ComputationalGraph, unrolls: Mapping[int, object]) -> None:
    """Unroll factors are positive integers."""
    for node_id, unroll in unrolls.items():
        for attr in ("outer", "mid"):
            factor = getattr(unroll, attr)
            if not isinstance(factor, int) or factor < 1:
                raise LoweringVerificationError(
                    f"{attr} unroll factor must be a positive int, "
                    f"got {factor!r}",
                    stage="unroll",
                    node=graph.node(node_id).name,
                    details={"unroll": unroll},
                )


def verify_lowering(
    graph: ComputationalGraph, kernels: Mapping[int, object]
) -> None:
    """Lowered kernels have non-empty bodies and positive int trip counts."""
    from repro.lint import lint_kernel_shape, raise_first_error

    diagnostics = []
    for node_id, kernel in kernels.items():
        diagnostics += lint_kernel_shape(
            kernel.body, kernel.trips, graph.node(node_id).name
        )
    raise_first_error(diagnostics, LoweringVerificationError, "lowering")


# ---------------------------------------------------------------------------
# schedule legality
# ---------------------------------------------------------------------------


def verify_schedule(compiled_nodes: Iterable, machine=None) -> None:
    """Re-check every packed schedule against the hardware rules.

    Per compiled node: a finite non-negative cycle estimate (SC003),
    then — once per distinct schedule, since identical bodies share one
    cached packet list — every packet's slot / resource / store limits
    and hard pairs (PK001–PK005), and the body-to-schedule bijection and
    dependency order (SC001, SC002, SC004, SC005).  Limits come from
    the live machine description, the one the packer compiled against.
    """
    from repro.lint import (
        StaticAnalyzer,
        lint_cycle_estimate,
        raise_first_error,
    )

    analyzer = StaticAnalyzer(machine)
    diagnostics = []
    checked: set = set()
    for compiled in compiled_nodes:
        name = compiled.node.name
        diagnostics += lint_cycle_estimate(compiled.cycles, name)
        key = id(compiled.packets)
        if key in checked:
            continue
        checked.add(key)
        diagnostics += analyzer.lint_schedule(
            compiled.packets,
            compiled.schedule_body,
            node=name,
            with_stalls=False,
        )
    raise_first_error(diagnostics, ScheduleVerificationError, "packing")


# ---------------------------------------------------------------------------
# profile sanity
# ---------------------------------------------------------------------------


def verify_profile(profile, machine=None) -> None:
    """Counters are finite/non-negative and utilization lands in [0, 1]."""
    machine = resolve_machine(machine)
    for counter in (
        "cycles",
        "packets",
        "issued_instructions",
        "macs",
        "bytes_loaded",
        "bytes_stored",
    ):
        value = getattr(profile, counter)
        if not math.isfinite(value) or value < 0:
            raise ProfileVerificationError(
                f"profile counter {counter} is not finite and "
                f"non-negative: {value!r}",
                stage="profile",
                details={counter: value},
            )
    if profile.issued_instructions > (
        profile.packets * machine.max_packet_slots
    ):
        raise ProfileVerificationError(
            "profile reports more issued instructions than slots exist",
            stage="profile",
            details={
                "issued_instructions": profile.issued_instructions,
                "packets": profile.packets,
            },
        )
    for metric in ("slot_occupancy", "mac_utilization"):
        value = getattr(profile, metric)
        if not 0.0 <= value <= 1.0:
            raise ProfileVerificationError(
                f"{metric} out of [0, 1]: {value!r}",
                stage="profile",
                details={metric: value},
            )
