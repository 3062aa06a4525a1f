"""Tensor liveness over a computational graph — the one shared pass.

Three consumers need this information:

* the emitted executor (:mod:`repro.codegen.emit`) drops each dead
  intermediate right after its last consumer (:meth:`~TensorLiveness.
  frees_at`), so a batch's working set stays at the live tensors;
* :func:`repro.lint.dataflow.live_out` re-implemented the "last
  definition with no later read" scan over register def/use chains;
* the memory-arena planner (:mod:`repro.absint.memplan`) needs exactly
  the same birth/death intervals to build its interference relation.

This module is the single source of truth.  :func:`tensor_liveness`
computes the graph-level facts; :func:`last_use_positions` and
:func:`final_unread_definitions` are the generic position-scan
primitives, shared with the register-level analysis in
:mod:`repro.lint.dataflow` (same logic, different namespace — node ids
there are register names).

Freeing semantics: a tensor dies after its last consumer evaluates;
graph outputs (``keep``) and tensors with no consumers are live to the
end of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple, TypeVar

Key = TypeVar("Key")


def last_use_positions(
    uses: Mapping[Key, Sequence[int]],
) -> Dict[Key, int]:
    """Position of the final read per key; keys with no uses are absent."""
    return {
        key: max(positions)
        for key, positions in uses.items()
        if len(positions) > 0
    }


def final_unread_definitions(
    defs: Mapping[Key, Sequence[int]],
    uses: Mapping[Key, Sequence[int]],
) -> Dict[Key, int]:
    """Keys whose *last* definition is never read afterwards.

    Maps key -> position of that final unread definition.  This is the
    live-out scan :func:`repro.lint.dataflow.live_out` runs over
    register chains, lifted to any def/use position maps.
    """
    last_reads = last_use_positions(uses)
    result: Dict[Key, int] = {}
    for key, positions in defs.items():
        if not positions:
            continue
        last_def = max(positions)
        if last_reads.get(key, -1) <= last_def:
            result[key] = last_def
    return result


@dataclass(frozen=True)
class TensorLiveness:
    """Birth/death facts for every tensor of one graph.

    Positions index into ``order`` (topological).  A tensor is *born*
    at the position of its producing node and *dies* after the node at
    ``last_use[id]`` evaluates; ``keep`` tensors (graph outputs) and
    tensors with no consumers never die inside the schedule — their
    :meth:`death` is ``len(order)``, one past the last position.
    """

    order: Tuple[int, ...]
    position: Mapping[int, int]
    use_counts: Mapping[int, int]
    last_use: Mapping[int, int]
    keep: FrozenSet[int]
    _frees: Mapping[int, Tuple[int, ...]] = field(default=None, repr=False)

    @property
    def end(self) -> int:
        """The position one past the schedule: where survivors 'die'."""
        return len(self.order)

    def death(self, node_id: int) -> int:
        """Position after which the tensor's storage may be reused."""
        if node_id in self.keep or self.use_counts.get(node_id, 0) == 0:
            return self.end
        return self.last_use[node_id]

    def frees_at(self, position: int) -> Tuple[int, ...]:
        """Tensor ids whose storage dies after ``position`` evaluates.

        Exactly the deletions the emitted code performs: the ids
        whose last use is ``position`` and that are not kept.
        """
        return self._frees.get(position, ())

    def live_at(self, position: int) -> FrozenSet[int]:
        """Tensors whose storage is claimed while ``position`` runs.

        Includes the node's own output (allocated before its inputs
        are released — the arena's allocate-before-free rule) and
        every tensor read at ``position`` itself: storage dying at
        ``position`` is still claimed *while* the node runs and only
        becomes reusable at ``position + 1``.
        """
        return frozenset(
            node_id
            for node_id, born in self.position.items()
            if born <= position <= self.death(node_id)
        )


def tensor_liveness(graph) -> TensorLiveness:
    """Compute :class:`TensorLiveness` for a computational graph.

    ``graph`` is any object iterating :class:`~repro.graph.graph.Node`
    objects in topological order and exposing ``output_nodes()`` —
    the module deliberately has no repro imports so every layer
    (runtime, lint, absint) can depend on it without cycles.
    """
    order: List[int] = []
    position: Dict[int, int] = {}
    use_counts: Dict[int, int] = {}
    uses: Dict[int, List[int]] = {}
    for node in graph:
        pos = len(order)
        order.append(node.node_id)
        position[node.node_id] = pos
        for input_id in node.inputs:
            use_counts[input_id] = use_counts.get(input_id, 0) + 1
            uses.setdefault(input_id, []).append(pos)
    keep = frozenset(node.node_id for node in graph.output_nodes())
    last_use = last_use_positions(uses)
    frees: Dict[int, List[int]] = {}
    for node_id, last in last_use.items():
        if node_id not in keep:
            frees.setdefault(last, []).append(node_id)
    return TensorLiveness(
        order=tuple(order),
        position=position,
        use_counts=use_counts,
        last_use=last_use,
        keep=keep,
        _frees={pos: tuple(ids) for pos, ids in frees.items()},
    )
