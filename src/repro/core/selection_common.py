"""Shared types and the Agg_Cost objective (Equation 1) for all solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import SelectionError
from repro.core.cost import CostModel, tensor_2d_view
from repro.core.plans import ExecutionPlan
from repro.graph import ops
from repro.graph.graph import ComputationalGraph, Node
from repro.tensor.layout import Layout


@dataclass
class SelectionResult:
    """Outcome of one layout/instruction selection run.

    Attributes
    ----------
    assignment:
        Chosen :class:`ExecutionPlan` per node id.
    cost:
        ``Agg_Cost`` of the assignment (cycles).
    solver:
        Name of the algorithm that produced it.
    solve_seconds:
        Wall-clock search time (Figure 10b's quantity).
    expansions:
        Search-tree nodes the exhaustive solver tried (summed over
        partitions by GCD2(k)); zero for the solvers that do not
        search.  Unlike ``solve_seconds`` it repeats exactly, so it is
        what tests and CI gate search effort on.
    """

    assignment: Dict[int, ExecutionPlan]
    cost: float
    solver: str
    solve_seconds: float = 0.0
    expansions: int = 0

    def plan_for(self, node_id: int) -> ExecutionPlan:
        """The plan chosen for ``node_id``."""
        try:
            return self.assignment[node_id]
        except KeyError as exc:
            raise SelectionError(
                f"no plan assigned to node {node_id}"
            ) from exc


class CostTable:
    """One solve's memo of a :class:`CostModel` over one graph.

    Offers the model's ``plans``/``node_cost``/``boundary_cost``/
    ``edge_cost`` with the model's own signatures, so everything that
    takes a cost model (``partition``, the per-partition search tables,
    :func:`aggregate_cost`) takes a table unchanged and each Equation 1
    term is evaluated once per solve instead of once per use.  Edge
    transforms depend only on the producer's 2-D view and the two
    layouts, so they are shared across every edge with that shape.

    The memo lives exactly as long as the solve that created it and
    serves that solve's one graph: padded sizes depend on the model's
    machine and node ids are only unique within a graph, so a table must
    not be shared across either.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self._plans: Dict[int, Tuple[ExecutionPlan, ...]] = {}
        self._node: Dict[Tuple[int, ExecutionPlan], float] = {}
        self._boundary: Dict[Tuple[int, ExecutionPlan], float] = {}
        #: node id -> producer-side edge key: its 2-D view, or ``None``
        #: for constants (whose outgoing edges are all free).
        self._views: Dict[int, Optional[Tuple[int, int]]] = {}
        self._edge: Dict[
            Tuple[Optional[Tuple[int, int]], Layout, Layout], float
        ] = {}

    def plans(self, node: Node) -> Tuple[ExecutionPlan, ...]:
        plans = self._plans.get(node.node_id)
        if plans is None:
            plans = self._plans[node.node_id] = self.model.plans(node)
        return plans

    def node_cost(
        self, graph: ComputationalGraph, node: Node, plan: ExecutionPlan
    ) -> float:
        key = (node.node_id, plan)
        cost = self._node.get(key)
        if cost is None:
            cost = self._node[key] = self.model.node_cost(graph, node, plan)
        return cost

    def boundary_cost(
        self, graph: ComputationalGraph, node: Node, plan: ExecutionPlan
    ) -> float:
        key = (node.node_id, plan)
        cost = self._boundary.get(key)
        if cost is None:
            cost = self._boundary[key] = self.model.boundary_cost(
                graph, node, plan
            )
        return cost

    def edge_cost(
        self,
        graph: ComputationalGraph,
        producer: Node,
        producer_plan: ExecutionPlan,
        consumer: Node,
        consumer_plan: ExecutionPlan,
    ) -> float:
        try:
            view = self._views[producer.node_id]
        except KeyError:
            view = self._views[producer.node_id] = (
                None
                if isinstance(producer.op, ops.Constant)
                else tensor_2d_view(producer.output_shape)
            )
        key = (view, producer_plan.layout, consumer_plan.layout)
        cost = self._edge.get(key)
        if cost is None:
            cost = self._edge[key] = self.model.edge_cost(
                graph, producer, producer_plan, consumer, consumer_plan
            )
        return cost


def edge_transform_cost(
    graph: ComputationalGraph,
    model: CostModel,
    assignment: Dict[int, ExecutionPlan],
) -> float:
    """The second term of Equation 1 over a complete assignment."""
    total = 0.0
    for src, dst in graph.edges():
        total += model.edge_cost(
            graph,
            graph.node(src),
            assignment[src],
            graph.node(dst),
            assignment[dst],
        )
    return total


def aggregate_cost(
    graph: ComputationalGraph,
    model: CostModel,
    assignment: Dict[int, ExecutionPlan],
    *,
    include_boundary: bool = True,
) -> float:
    """``Agg_Cost(G)`` (Equation 1) for a complete plan assignment.

    Raises
    ------
    SelectionError
        If the assignment misses any node.
    """
    missing = [n.node_id for n in graph if n.node_id not in assignment]
    if missing:
        raise SelectionError(f"assignment misses nodes {missing}")
    total = 0.0
    for node in graph:
        plan = assignment[node.node_id]
        total += model.node_cost(graph, node, plan)
        if include_boundary:
            total += model.boundary_cost(graph, node, plan)
    total += edge_transform_cost(graph, model, assignment)
    return total


def cost_breakdown(
    graph: ComputationalGraph,
    model: CostModel,
    assignment: Dict[int, ExecutionPlan],
) -> Dict[str, float]:
    """Split ``Agg_Cost`` into its Equation 1 components.

    Returns ``{"nodes": ..., "edges": ..., "boundary": ..., "total": ...}``
    — the view the examples and CLI use to show *where* a selection
    policy spends its cycles (kernels versus layout transformation).
    """
    nodes = 0.0
    boundary = 0.0
    for node in graph:
        plan = assignment[node.node_id]
        nodes += model.node_cost(graph, node, plan)
        boundary += model.boundary_cost(graph, node, plan)
    edges = edge_transform_cost(graph, model, assignment)
    return {
        "nodes": nodes,
        "edges": edges,
        "boundary": boundary,
        "total": nodes + edges + boundary,
    }
