"""Exhaustive (exact) global plan selection.

The brute-force baseline of Section V-C's Figure 10: compares ``k^|V|``
options and always finds the global optimum.  The paper reports its
search time exceeding 80 hours at 25 operators; a branch-and-bound
variant (``prune=True``) keeps the same optimal answer practical for
the partition-sized subproblems GCD2 actually solves.

Implementation notes: all node/edge costs are tabulated up front as
plain float lists so the search loop is pure list lookups; pruning uses
a greedy warm start plus an admissible suffix lower bound — per
remaining node, its cheapest marginal *with every in-search edge at its
cheapest producer plan* — so subtrees that cannot beat the incumbent
are cut without losing optimality.  The search is an explicit-stack
loop: its depth is the number of searched nodes, which has no business
being bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SelectionError
from repro.core.cost import CostModel
from repro.core.plans import ExecutionPlan
from repro.core.selection_common import SelectionResult
from repro.graph.graph import ComputationalGraph, Node
from repro.verify.budget import SelectionBudget


class _SearchTables:
    """Tabulated costs for a restricted exhaustive search."""

    def __init__(
        self,
        graph: ComputationalGraph,
        model: CostModel,
        order: List[Node],
        fixed: Dict[int, ExecutionPlan],
        include_boundary: bool,
        lookahead_consumers: bool = False,
    ) -> None:
        self.order = order
        self.plan_sets: List[Tuple[ExecutionPlan, ...]] = [
            model.plans(node) for node in order
        ]
        index_of = {node.node_id: i for i, node in enumerate(order)}

        # node_costs[i][p]: node + boundary + edges from *fixed* preds,
        # plus (optionally) the best-case transform toward external
        # consumers that have not been assigned yet — the lookahead
        # that keeps partition-boundary choices from being myopic.
        self.node_costs: List[List[float]] = []
        # edge_costs[i]: list of (pred_index, matrix[pred_plan][plan]).
        self.edge_costs: List[List[Tuple[int, List[List[float]]]]] = []
        for i, node in enumerate(order):
            plans = self.plan_sets[i]
            preds = graph.predecessors(node.node_id)
            fixed_preds = [
                (pred, fixed[pred.node_id])
                for pred in preds
                if pred.node_id in fixed
            ]
            external = (
                [
                    consumer
                    for consumer in graph.successors(node.node_id)
                    if consumer.node_id not in index_of
                    and consumer.node_id not in fixed
                ]
                if lookahead_consumers
                else []
            )
            base: List[float] = []
            for plan in plans:
                cost = model.node_cost(graph, node, plan)
                if include_boundary:
                    cost += model.boundary_cost(graph, node, plan)
                for pred, pred_plan in fixed_preds:
                    cost += model.edge_cost(
                        graph, pred, pred_plan, node, plan
                    )
                for consumer in external:
                    cost += min(
                        model.edge_cost(graph, node, plan, consumer, cplan)
                        for cplan in model.plans(consumer)
                    )
                base.append(cost)
            self.node_costs.append(base)

            edges: List[Tuple[int, List[List[float]]]] = []
            for pred in preds:
                j = index_of.get(pred.node_id)
                if j is None:
                    continue
                edges.append(
                    (
                        j,
                        [
                            [
                                model.edge_cost(graph, pred, pp, node, plan)
                                for plan in plans
                            ]
                            for pp in self.plan_sets[j]
                        ],
                    )
                )
            self.edge_costs.append(edges)

        # Lower bound per node: the cheapest marginal it can have
        # whatever its in-search producers chose — each edge term
        # replaced by its minimum over producer plans, added in the
        # order ``marginal`` adds the real ones.  IEEE addition is
        # monotone in each operand, so ``node_min[i] <= marginal(i, p,
        # choices)`` holds exactly, not merely up to rounding.
        self.node_min: List[float] = []
        for costs, edges in zip(self.node_costs, self.edge_costs):
            cheapest = list(costs)
            for _, matrix in edges:
                for p, column in enumerate(zip(*matrix)):
                    cheapest[p] += min(column)
            self.node_min.append(min(cheapest))
        # suffix_min[i]: bound on everything from node i on.  (Summed
        # right to left while the search accumulates left to right, so
        # against a real total it is admissible up to the rounding of
        # one summation order versus the other — a few ulps, as with
        # any float branch-and-bound.)
        self.suffix_min: List[float] = [0.0] * (len(order) + 1)
        for i in range(len(order) - 1, -1, -1):
            self.suffix_min[i] = self.suffix_min[i + 1] + self.node_min[i]

    def marginal(self, i: int, p: int, choices: List[int]) -> float:
        """Cost of giving node ``i`` plan ``p`` given earlier choices."""
        cost = self.node_costs[i][p]
        for j, matrix in self.edge_costs[i]:
            cost += matrix[choices[j]][p]
        return cost

    def greedy(self) -> Tuple[List[int], float]:
        """Warm-start assignment: locally cheapest marginal per node."""
        choices: List[int] = []
        total = 0.0
        for i in range(len(self.order)):
            costs = [
                self.marginal(i, p, choices)
                for p in range(len(self.plan_sets[i]))
            ]
            best = min(range(len(costs)), key=costs.__getitem__)
            choices.append(best)
            total += costs[best]
        return choices, total


def solve_exhaustive(
    graph: ComputationalGraph,
    model: CostModel,
    *,
    node_ids: Optional[Iterable[int]] = None,
    fixed: Optional[Dict[int, ExecutionPlan]] = None,
    prune: bool = True,
    include_boundary: bool = True,
    lookahead_consumers: bool = False,
    max_expansions: Optional[int] = None,
    budget: Optional[SelectionBudget] = None,
) -> SelectionResult:
    """Find the minimum-``Agg_Cost`` assignment by exhaustive search.

    Parameters
    ----------
    graph, model:
        The computational graph and the cost policy.
    node_ids:
        Restrict the search to these nodes (used by the partitioned
        GCD2 solver); defaults to the whole graph.
    fixed:
        Already-decided plans for nodes outside the search set; edges
        from fixed producers into searched nodes are charged.
    prune:
        Branch-and-bound pruning against the incumbent assignment.
        Costs are non-negative, so pruning never loses the optimum;
        disable it to measure the raw ``k^|V|`` search (Figure 10b).
    include_boundary:
        Charge output-boundary transforms back to row-major.
    lookahead_consumers:
        Additionally charge, for each searched node, the cheapest
        possible transform toward consumers outside the search set —
        used by the partitioned GCD2 solver so boundary plans are not
        chosen myopically.  (The returned cost then includes these
        estimates; callers re-aggregate the true objective.)
    max_expansions:
        Optional safety valve on search-tree nodes; exceeded searches
        raise :class:`SelectionError` (the paper's "impracticable even
        when there are 25 operators" observation, made explicit).
    budget:
        Optional wall-clock/state budget; expansions charge it and an
        exceeded budget raises :class:`~repro.errors.BudgetExceeded`,
        which the compiler's fallback ladder turns into a downgrade
        instead of a failed compile.

    Returns
    -------
    SelectionResult
        Optimal assignment over the searched nodes; the reported cost
        covers the searched nodes' own costs, their internal edges and
        their edges from fixed producers.  Fixed plans are included in
        the returned assignment for convenience.
    """
    fixed = dict(fixed or {})
    selected = set(node_ids) if node_ids is not None else {
        n.node_id for n in graph
    }
    order: List[Node] = [n for n in graph if n.node_id in selected]
    if not order:
        return SelectionResult(dict(fixed), 0.0, "exhaustive", 0.0)

    start = time.perf_counter()
    tables = _SearchTables(
        graph, model, order, fixed, include_boundary, lookahead_consumers
    )
    if budget is not None:
        # Table construction already touched |V| x k cells; charge it so
        # state budgets bound total effort, not just the search loop.
        budget.charge(sum(len(plans) for plans in tables.plan_sets))

    if prune:
        best_choices, best_cost = tables.greedy()
    else:
        best_choices, best_cost = None, float("inf")

    n_nodes = len(order)
    plan_counts = [len(plans) for plans in tables.plan_sets]
    node_costs = tables.node_costs
    edge_costs = tables.edge_costs
    suffix_min = tables.suffix_min
    limit = float("inf") if max_expansions is None else max_expansions
    expansions = 0

    # Depth-first over (node index, plan index), one stack slot per
    # node: the plan chosen, the next plan to try, the cost of the
    # prefix above it.  Same visit order, same ``>=`` prune and same
    # strict-``<`` incumbent rule whatever the bound's strength, so a
    # tighter bound changes how much is visited, never what is found.
    choices = [0] * n_nodes
    next_plan = [0] * n_nodes
    prefix_cost = [0.0] * n_nodes
    depth = -1 if prune and suffix_min[0] >= best_cost else 0
    while depth >= 0:
        p = next_plan[depth]
        if p == plan_counts[depth]:
            depth -= 1
            continue
        next_plan[depth] = p + 1
        expansions += 1
        if expansions > limit:
            raise SelectionError(
                f"exhaustive search exceeded {max_expansions} expansions"
            )
        if budget is not None:
            budget.charge()
        # tables.marginal(depth, p, choices), inlined for the hot loop.
        marginal = node_costs[depth][p]
        for j, matrix in edge_costs[depth]:
            marginal += matrix[choices[j]][p]
        cost = prefix_cost[depth] + marginal
        if prune and cost + suffix_min[depth + 1] >= best_cost:
            continue
        choices[depth] = p
        depth += 1
        if depth == n_nodes:
            if cost < best_cost:
                best_cost = cost
                best_choices = list(choices)
            depth -= 1
            continue
        prefix_cost[depth] = cost
        next_plan[depth] = 0

    if best_choices is None:  # pragma: no cover - defensive
        raise SelectionError("exhaustive search found no assignment")

    assignment = dict(fixed)
    for i, (node, choice) in enumerate(zip(order, best_choices)):
        assignment[node.node_id] = tables.plan_sets[i][choice]
    elapsed = time.perf_counter() - start
    return SelectionResult(
        assignment, best_cost, "exhaustive", elapsed, expansions
    )
