"""GCD2's global layout & instruction selection heuristic.

The production algorithm of Section IV-B: partition the graph at
desirable partitioning edges (bounded to ``max_operators`` nodes per
partition), then solve each partition *exactly* with branch-and-bound
exhaustive search, processing partitions in topological order so every
cross-partition edge is charged against the already-fixed upstream
plan.  Figure 10 shows GCD2(13) matching the true global optimum on
ResNet-50 subgraphs while searching in seconds instead of hours.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.core.cost import CostModel
from repro.core.exhaustive import solve_exhaustive
from repro.core.chain_dp import is_in_tree, solve_chain
from repro.core.partition import partition
from repro.core.plans import ExecutionPlan
from repro.core.selection_common import (
    CostTable,
    SelectionResult,
    aggregate_cost,
)
from repro.graph.graph import ComputationalGraph
from repro.verify.budget import SelectionBudget


def solve_gcd2(
    graph: ComputationalGraph,
    model: CostModel,
    *,
    max_operators: int = 13,
    include_boundary: bool = True,
    budget: Optional[SelectionBudget] = None,
) -> SelectionResult:
    """Partitioned global selection — the paper's GCD2(k).

    Parameters
    ----------
    max_operators:
        Maximum operators optimized jointly per partition (13 and 17
        are the configurations evaluated in Figure 10).
    budget:
        Optional wall-clock/state budget shared across all partition
        searches; exceeding it raises
        :class:`~repro.errors.BudgetExceeded`.

    Notes
    -----
    When the whole graph is a chain/in-tree, the Equation 2 dynamic
    program is exact and cheaper than any partitioned search, so it is
    used directly — matching the paper's observation that the DP covers
    those cases optimally.
    """
    start = time.perf_counter()

    if is_in_tree(graph):
        result = solve_chain(graph, model, include_boundary=include_boundary)
        return SelectionResult(
            result.assignment,
            result.cost,
            f"gcd2({max_operators})/chain-dp",
            time.perf_counter() - start,
        )

    # One memo of the cost model for the whole solve: the partitioner's
    # profitability test, every partition's search tables and the
    # closing Agg_Cost all read the same Equation 1 terms.
    table = CostTable(model)
    assignment: Dict[int, ExecutionPlan] = {}
    expansions = 0
    for part in partition(graph, table, max_operators=max_operators):
        sub = solve_exhaustive(
            graph,
            table,
            node_ids=part,
            fixed=assignment,
            prune=True,
            include_boundary=include_boundary,
            lookahead_consumers=True,
            budget=budget,
        )
        assignment.update(sub.assignment)
        expansions += sub.expansions

    cost = aggregate_cost(
        graph, table, assignment, include_boundary=include_boundary
    )
    elapsed = time.perf_counter() - start
    return SelectionResult(
        assignment, cost, f"gcd2({max_operators})", elapsed, expansions
    )
