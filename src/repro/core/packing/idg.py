"""Instruction Dependency Graph (IDG) construction and critical paths.

The IDG's vertices are instructions and its edges carry the hard/soft
classification of :mod:`repro.isa.dependencies`.  It exposes the
per-instruction attributes of Equation 4 — ``order`` (distance from the
entry), ``pred`` (predecessor count), ``lat`` (latency) — plus the
latency-weighted critical path the packer seeds packets from.

Building the graph is the quadratic part of packing, so it happens once
per basic block: the graph is immutable and every packer of the block
shares it (what is already packed is the packer's state, not the
graph's), together with its memo of pair kinds.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.dependencies import DependencyKind, classify_dependency
from repro.isa.instructions import Instruction


@dataclass
class PackingWork:
    """Exact effort counters of the packers run under :func:`packing_work`.

    ``classifications`` counts dependency classifications of an
    instruction pair, ``evaluations`` counts candidates tested against
    a partial packet.  Both repeat exactly from run to run, so they
    gate packing effort where wall time cannot
    (``tests/test_packing_golden.py``).
    """

    classifications: int = 0
    evaluations: int = 0

    @property
    def total(self) -> int:
        return self.classifications + self.evaluations


_ACTIVE_WORK: ContextVar[Optional[PackingWork]] = ContextVar(
    "packing_work", default=None
)


@contextmanager
def packing_work() -> Iterator[PackingWork]:
    """Count the packing effort spent inside the ``with`` block.

    The counter is context-local (one per thread or task), because the
    registry's packers are plain ``body -> packets`` callables with no
    channel for a second result.  Graphs built inside the block report
    to it; so do the packers that walk them.
    """
    work = PackingWork()
    token = _ACTIVE_WORK.set(work)
    try:
        yield work
    finally:
        _ACTIVE_WORK.reset(token)


@dataclass
class InstructionDependencyGraph:
    """Dependency DAG over one basic block's instructions.

    Edges run from producer (earlier) to consumer (later); each carries
    a :class:`DependencyKind`.  ``succ``, ``pred``, ``order`` and
    ``path_cost`` are indexed by position in ``instructions`` — program
    order, which is topological.
    """

    instructions: List[Instruction] = field(default_factory=list)

    def __post_init__(self) -> None:
        insts = self.instructions
        self.work = _ACTIVE_WORK.get() or PackingWork()
        self._index: Dict[int, int] = {
            inst.uid: i for i, inst in enumerate(insts)
        }
        #: ``succ[i]`` / ``pred[j]``: ``{position: kind}`` of every
        #: edge out of ``i`` / into ``j``, in program order.
        self.succ: List[Dict[int, DependencyKind]] = [{} for _ in insts]
        self.pred: List[Dict[int, DependencyKind]] = [{} for _ in insts]
        for i, first in enumerate(insts):
            succ = self.succ[i]
            for j in range(i + 1, len(insts)):
                kind = classify_dependency(first, insts[j])
                if kind is not DependencyKind.NONE:
                    succ[j] = self.pred[j][i] = kind
        self.work.classifications += len(insts) * (len(insts) - 1) // 2
        #: Equation 4's ``order``: longest edge-count path from an entry.
        self.order: List[int] = []
        #: Latency of the costliest path ending at each instruction;
        #: the critical path ends at the first maximum.
        self.path_cost: List[int] = []
        for inst, preds in zip(insts, self.pred):
            self.order.append(
                1 + max(self.order[p] for p in preds) if preds else 0
            )
            self.path_cost.append(
                inst.latency
                + max((self.path_cost[p] for p in preds), default=0)
            )
        # classify_dependency(later, earlier), which the packet
        # legality rule also asks about, filled in on first use.
        self._reverse: Dict[Tuple[int, int], DependencyKind] = {}

    # -- queries ------------------------------------------------------------

    def successors(self, inst: Instruction) -> Dict[Instruction, DependencyKind]:
        """Successors and their dependency kinds."""
        return {
            self.instructions[j]: kind
            for j, kind in self.succ[self._index[inst.uid]].items()
        }

    def predecessors(
        self, inst: Instruction
    ) -> Dict[Instruction, DependencyKind]:
        """Predecessors and their dependency kinds."""
        return {
            self.instructions[i]: kind
            for i, kind in self.pred[self._index[inst.uid]].items()
        }

    def order_of(self, inst: Instruction) -> int:
        """Equation 4's ``i.order``: distance from the entry vertex."""
        return self.order[self._index[inst.uid]]

    def pred_count(self, inst: Instruction) -> int:
        """Equation 4's ``i.pred``: the instruction's predecessor count."""
        return len(self.pred[self._index[inst.uid]])

    def edge_kind(
        self, producer: Instruction, consumer: Instruction
    ) -> DependencyKind:
        """Dependency kind of edge (producer, consumer), NONE if absent."""
        i = self._index.get(producer.uid)
        if i is None:
            return DependencyKind.NONE
        return self.succ[i].get(
            self._index.get(consumer.uid), DependencyKind.NONE
        )

    def kind(self, first: Instruction, second: Instruction) -> DependencyKind:
        """``classify_dependency(first, second)`` of two members, memoised.

        In program order that is the edge kind; the other way round it
        is classified once and remembered.
        """
        i, j = self._index[first.uid], self._index[second.uid]
        if i < j:
            return self.succ[i].get(j, DependencyKind.NONE)
        kind = self._reverse.get((i, j))
        if kind is None:
            kind = self._reverse[i, j] = classify_dependency(first, second)
            self.work.classifications += 1
        return kind

    def critical_path(self) -> List[Instruction]:
        """Longest path by total latency (ties by program order).

        The path starts at an entry vertex; the packer seeds its first
        packet with the path's *last* instruction.
        """
        if not self.instructions:
            return []
        cost = self.path_cost
        cursor: Optional[int] = cost.index(max(cost))
        path: List[Instruction] = []
        while cursor is not None:
            path.append(self.instructions[cursor])
            cursor = max(
                self.pred[cursor], key=cost.__getitem__, default=None
            )
        path.reverse()
        return path


def build_idg(
    instructions: Sequence[Instruction],
) -> InstructionDependencyGraph:
    """Build the IDG for one basic block."""
    return InstructionDependencyGraph(list(instructions))
