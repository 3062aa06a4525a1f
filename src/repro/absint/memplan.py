"""Static memory-arena planning over tensor liveness.

The planner turns the shared liveness facts
(:func:`repro.absint.liveness.tensor_liveness`) into a
:class:`MemoryPlan`: one byte offset per intermediate tensor inside a
single arena, assigned first-fit in address order so that tensors
whose live intervals overlap never share bytes.  The plan is a static
*analysis* — per-sample footprint, reuse factor and the ``LINT-MP*``
proofs that ``repro analyze`` and model registration report — not a
runtime storage mode: emitted code keeps its intermediates in plain
numpy temporaries.

Allocation is **allocate-before-free**: when planning node ``p``'s
output, only slots that died *strictly before* ``p`` are reusable — a
tensor read at ``p`` is still claimed while ``p`` runs, so a node's
output can never alias its own inputs.

Excluded from the arena:

* graph outputs (``keep``) — they outlive the batch;
* tensors with no consumers — they are never freed;
* ``Input``/``Constant`` values — feeds and weights are owned by the
  caller / the reference executor's cache.

:func:`verify_memory_plan` is the independent checker: it recomputes
liveness and proves no-overlap (``LINT-MP001``), sufficient slot
sizes (``LINT-MP002``) and plan/graph consistency (``LINT-MP003``)
without trusting anything the planner recorded beyond the offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.graph import ops
from repro.lint.diagnostics import Diagnostic, Location
from repro.lint.rules import rule

from repro.absint.liveness import TensorLiveness, tensor_liveness

#: Slot alignment in bytes (8 float64 elements — one HVX-friendly
#: stride, and enough that offset arithmetic stays cache-line clean).
ALIGNMENT = 64

#: Every tensor the runtime stores is float64.
ELEMENT_BYTES = 8


def _align(size: int) -> int:
    return (size + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def tensor_bytes(node) -> int:
    """Unaligned byte size of one sample of ``node``'s output."""
    elems = 1
    for dim in node.output_shape:
        elems *= int(dim)
    return elems * ELEMENT_BYTES


def plannable(node, liveness: TensorLiveness) -> bool:
    """Whether the tensor lives in the arena (see module docstring)."""
    if isinstance(node.op, (ops.Input, ops.Constant)):
        return False
    if node.node_id in liveness.keep:
        return False
    return liveness.use_counts.get(node.node_id, 0) > 0


@dataclass(frozen=True)
class ArenaSlot:
    """One tensor's byte range inside the arena."""

    node_id: int
    name: str
    offset: int
    size: int
    birth: int
    death: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "name": self.name,
            "offset": self.offset,
            "size": self.size,
            "birth": self.birth,
            "death": self.death,
        }


@dataclass(frozen=True)
class MemoryPlan:
    """A verified-by-construction arena layout for one graph."""

    arena_size: int
    slots: Mapping[int, ArenaSlot] = field(default_factory=dict)
    total_bytes: int = 0

    @property
    def reuse_factor(self) -> float:
        """How many bytes a no-reuse allocator would need per arena byte."""
        if self.arena_size == 0:
            return 1.0
        return self.total_bytes / self.arena_size

    def to_dict(self) -> Dict[str, object]:
        return {
            "arena_size": self.arena_size,
            "total_bytes": self.total_bytes,
            "reuse_factor": round(self.reuse_factor, 3),
            "slots": [
                slot.to_dict()
                for _, slot in sorted(self.slots.items())
            ],
        }


def plan_memory(
    graph, liveness: Optional[TensorLiveness] = None
) -> MemoryPlan:
    """First-fit arena assignment over the liveness intervals."""
    lv = liveness if liveness is not None else tensor_liveness(graph)
    active: List[ArenaSlot] = []
    slots: Dict[int, ArenaSlot] = {}
    arena_size = 0
    total = 0
    for pos, node_id in enumerate(lv.order):
        # Allocate-before-free: only slots dead strictly before this
        # position are reusable for its output.
        active = [slot for slot in active if slot.death >= pos]
        node = graph.node(node_id)
        if not plannable(node, lv):
            continue
        size = tensor_bytes(node)
        aligned = _align(size)
        offset = 0
        for slot in sorted(active, key=lambda s: s.offset):
            if offset + aligned <= slot.offset:
                break
            offset = max(offset, _align(slot.offset + slot.size))
        new = ArenaSlot(
            node_id=node_id,
            name=node.name,
            offset=offset,
            size=size,
            birth=pos,
            death=lv.death(node_id),
        )
        active.append(new)
        slots[node_id] = new
        arena_size = max(arena_size, offset + aligned)
        total += size
    return MemoryPlan(
        arena_size=arena_size, slots=slots, total_bytes=total
    )


def verify_memory_plan(
    graph,
    plan: MemoryPlan,
    liveness: Optional[TensorLiveness] = None,
) -> List[Diagnostic]:
    """Independently prove a plan safe; returns ``LINT-MP*`` findings.

    Liveness is recomputed from the graph — the verifier does not
    trust the birth/death positions recorded in the plan.
    """
    lv = liveness if liveness is not None else tensor_liveness(graph)
    findings: List[Diagnostic] = []
    known = {node.node_id: node for node in graph}

    def emit(rule_id: str, message: str, name: str, **details) -> None:
        findings.append(
            rule(rule_id).diagnostic(
                message, Location(node=name), **details
            )
        )

    for node_id, slot in sorted(plan.slots.items()):
        node = known.get(node_id)
        if node is None or node_id not in lv.position:
            emit(
                "LINT-MP003",
                "slot refers to a node the graph does not contain",
                slot.name,
                node_id=node_id,
            )
            continue
        if slot.offset < 0 or slot.offset + slot.size > plan.arena_size:
            emit(
                "LINT-MP003",
                "slot extends past the arena",
                slot.name,
                offset=slot.offset,
                size=slot.size,
                arena_size=plan.arena_size,
            )
        need = tensor_bytes(node)
        if slot.size < need:
            emit(
                "LINT-MP002",
                "slot is smaller than the tensor it holds",
                slot.name,
                size=slot.size,
                required=need,
            )

    for node_id, node in known.items():
        if plannable(node, lv) and node_id not in plan.slots:
            emit(
                "LINT-MP003",
                "plannable tensor is missing its arena slot",
                node.name,
                node_id=node_id,
            )

    # Pairwise interference: live intervals are inclusive of the death
    # position (allocate-before-free), so [birth, death] ranges that
    # intersect must occupy disjoint byte ranges.
    checked: List[Tuple[int, ArenaSlot]] = [
        (node_id, slot)
        for node_id, slot in sorted(plan.slots.items())
        if node_id in lv.position
    ]
    for i, (id_a, a) in enumerate(checked):
        birth_a = lv.position[id_a]
        death_a = lv.death(id_a)
        for id_b, b in checked[i + 1:]:
            birth_b = lv.position[id_b]
            death_b = lv.death(id_b)
            if birth_a > death_b or birth_b > death_a:
                continue
            if a.offset + a.size <= b.offset:
                continue
            if b.offset + b.size <= a.offset:
                continue
            emit(
                "LINT-MP001",
                f"slot bytes overlap with {b.name!r} while both live",
                a.name,
                other=b.name,
                offsets=(a.offset, b.offset),
                sizes=(a.size, b.size),
            )
    return findings
