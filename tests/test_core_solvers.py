"""Tests for the selection solvers: DP, exhaustive, local, PBQP, GCD2.

The central invariants:

* chain DP == exhaustive optimum on chains/in-trees (Equation 2 is exact);
* branch-and-bound == raw enumeration (pruning is lossless);
* local >= GCD2(k) >= exhaustive optimum on any graph (cost sandwich);
* every solver returns a complete, legal assignment.
"""

import random
import sys

import pytest

from repro.core.chain_dp import is_in_tree, solve_chain
from repro.core.cost import CostModel
from repro.core.exhaustive import _SearchTables, solve_exhaustive
from repro.core.global_select import solve_gcd2
from repro.core.local import solve_local
from repro.core.pbqp import solve_pbqp
from repro.core.selection_common import (
    CostTable,
    SelectionResult,
    aggregate_cost,
)
from repro.errors import BudgetExceeded, SelectionError
from repro.graph.builder import GraphBuilder
from repro.machine.description import machine_names, resolve_machine
from repro.verify.budget import SelectionBudget
from tests.conftest import chain_graph, random_dag, small_cnn


def _assert_complete(graph, result: SelectionResult):
    for node in graph:
        assert node.node_id in result.assignment


class TestChainDp:
    @pytest.mark.parametrize("length", [1, 2, 4, 7])
    def test_matches_exhaustive_on_chains(self, length):
        graph = chain_graph(length=length)
        model = CostModel()
        dp = solve_chain(graph, model)
        exact = solve_exhaustive(graph, model)
        assert dp.cost == pytest.approx(exact.cost, rel=1e-9)

    def test_dp_cost_equals_aggregate_of_assignment(self):
        graph = chain_graph(length=5)
        model = CostModel()
        dp = solve_chain(graph, model)
        recomputed = aggregate_cost(graph, model, dp.assignment)
        assert dp.cost == pytest.approx(recomputed, rel=1e-9)

    def test_handles_in_trees(self):
        # Multiple inputs, each feeding exactly one consumer.
        b = GraphBuilder("tree")
        left = b.input((1, 4, 8, 8), name="left")
        right = b.input((1, 4, 8, 8), name="right")
        lc = b.conv2d(left, 4, name="lconv")
        rc = b.conv2d(right, 4, name="rconv")
        b.add(lc, rc, name="join")
        graph = b.build()
        assert is_in_tree(graph)
        model = CostModel()
        dp = solve_chain(graph, model)
        exact = solve_exhaustive(graph, model)
        assert dp.cost == pytest.approx(exact.cost, rel=1e-9)

    def test_deep_chain_does_not_overflow_recursion(self):
        # Regression: _backtrack recursed once per predecessor hop, so
        # chains longer than Python's recursion limit (default 1000)
        # crashed with RecursionError.  ~2000 nodes exercises the
        # iterative worklist rewrite.
        depth = 2000
        b = GraphBuilder("deep_chain")
        x = b.input((1, 8, 8, 8), name="in")
        for i in range(depth):
            x = b.relu(x, name=f"act_{i}")
        graph = b.build()
        result = solve_chain(graph, CostModel())
        # Input + every activation received a plan.
        assert len(result.assignment) == depth + 1
        for node in graph:
            assert node.node_id in result.assignment

    def test_rejects_fan_out(self):
        graph = small_cnn()  # residual: a node has two consumers
        with pytest.raises(SelectionError):
            solve_chain(graph, CostModel())

    def test_linear_time_scaling(self):
        # A 60-op chain solves instantly (would be 3^60 exhaustively).
        graph = chain_graph(length=60)
        result = solve_chain(graph, CostModel())
        _assert_complete(graph, result)


class TestExhaustive:
    @pytest.mark.parametrize("seed", range(4))
    def test_pruning_is_lossless(self, seed):
        graph = random_dag(seed, nodes=5)
        model = CostModel()
        pruned = solve_exhaustive(graph, model, prune=True)
        raw = solve_exhaustive(graph, model, prune=False)
        assert pruned.cost == pytest.approx(raw.cost, rel=1e-9)

    def test_cost_matches_aggregate(self):
        graph = random_dag(1, nodes=5)
        model = CostModel()
        result = solve_exhaustive(graph, model)
        assert result.cost == pytest.approx(
            aggregate_cost(graph, model, result.assignment), rel=1e-9
        )

    def test_subset_search_with_fixed_plans(self):
        graph = chain_graph(length=4)
        model = CostModel()
        nodes = [n.node_id for n in graph]
        first = solve_exhaustive(graph, model, node_ids=nodes[:3])
        second = solve_exhaustive(
            graph, model, node_ids=nodes[3:], fixed=first.assignment
        )
        _assert_complete(graph, second)

    def test_max_expansions_guard(self):
        graph = small_cnn()
        with pytest.raises(SelectionError):
            solve_exhaustive(
                graph, CostModel(), prune=False, max_expansions=100
            )

    def test_empty_selection(self):
        graph = chain_graph(length=2)
        result = solve_exhaustive(graph, CostModel(), node_ids=[])
        assert result.cost == 0.0

    def test_deep_chain_does_not_overflow_recursion(self):
        # Regression: the search recursed once per node, so more nodes
        # than Python's recursion limit (default 1000) crashed with a
        # bare RecursionError.
        graph = chain_graph(length=1100)
        model = CostModel()
        result = solve_exhaustive(graph, model)
        _assert_complete(graph, result)
        assert result.cost == pytest.approx(
            solve_chain(graph, model).cost, rel=1e-9
        )

    def test_deep_descent_does_not_overflow_recursion(self):
        # The chain above is settled at the root (the greedy start meets
        # the bound).  Here the greedy start keeps 1100 activations
        # row-major and pays the closing conv's transform; the bound
        # sees a free edge at every node, so the search has to walk all
        # the way down before it can prove the tie.
        depth = 1100
        b = GraphBuilder("deep_descent")
        x = b.input((1, 8, 8, 8), name="in")
        for i in range(depth):
            x = b.relu(x, name=f"act_{i}")
        b.conv2d(x, 8, kernel=3, name="tail")
        graph = b.build()
        model = CostModel()
        result = solve_exhaustive(graph, model)
        _assert_complete(graph, result)
        assert result.expansions > depth
        assert result.cost == pytest.approx(
            solve_chain(graph, model).cost, rel=1e-9
        )

    def test_expansions_counted_and_limited_exactly(self):
        graph = small_cnn()
        model = CostModel()
        raw = solve_exhaustive(graph, model, prune=False)
        pruned = solve_exhaustive(graph, model, prune=True)
        assert 0 < pruned.expansions < raw.expansions
        # The limit is inclusive: exactly enough passes, one fewer fails.
        solve_exhaustive(
            graph, model, prune=True, max_expansions=pruned.expansions
        )
        with pytest.raises(SelectionError):
            solve_exhaustive(
                graph,
                model,
                prune=True,
                max_expansions=pruned.expansions - 1,
            )

    def test_budget_charged_once_per_expansion(self):
        graph = small_cnn()
        model = CostModel()
        budget = SelectionBudget(solver="exhaustive")
        result = solve_exhaustive(graph, model, budget=budget)
        table_cells = sum(len(model.plans(node)) for node in graph)
        assert budget.states == table_cells + result.expansions
        tight = SelectionBudget(
            state_budget=budget.states - 1, solver="exhaustive"
        )
        with pytest.raises(BudgetExceeded):
            solve_exhaustive(graph, model, budget=tight)


def _bound_graphs():
    """Graphs of at most nine operators for the raw ``k^|V|`` search."""
    graphs = [
        random_dag(seed, nodes=nodes)
        for seed in range(40)
        for nodes in (3, 5, 7, 9)
    ]
    graphs += [chain_graph(length=length) for length in range(1, 10)]
    return graphs


def _whole_graph_tables(graph, model):
    return _SearchTables(graph, model, list(graph), {}, True)


class TestEdgeAwareBound:
    """The suffix bound prunes more, and changes nothing that is found."""

    @pytest.mark.parametrize("machine", machine_names())
    def test_pruned_search_returns_the_raw_optimum(self, machine):
        model = CostModel(machine=resolve_machine(machine))
        ties = 0
        for graph in _bound_graphs() + [small_cnn()]:
            raw = solve_exhaustive(graph, model, prune=False)
            pruned = solve_exhaustive(graph, model, prune=True)
            assert pruned.cost == raw.cost, graph.name  # exact, not approx
            assert pruned.expansions <= raw.expansions
            if pruned.assignment == raw.assignment:
                continue
            # The only licence to differ: the greedy warm start already
            # costs exactly the optimum, and an incumbent is replaced on
            # strict improvement only.
            ties += 1
            tables = _whole_graph_tables(graph, model)
            choices, greedy_cost = tables.greedy()
            assert greedy_cost == raw.cost, graph.name
            assert pruned.assignment == {
                node.node_id: tables.plan_sets[i][choice]
                for i, (node, choice) in enumerate(zip(graph, choices))
            }, graph.name
        assert ties < 8  # the rule above is the exception, not the test

    @pytest.mark.parametrize("machine", machine_names())
    def test_bound_is_admissible_along_the_optimum(self, machine):
        model = CostModel(machine=resolve_machine(machine))
        for graph in _bound_graphs() + [small_cnn()]:
            raw = solve_exhaustive(graph, model, prune=False)
            tables = _whole_graph_tables(graph, model)
            choices = [
                tables.plan_sets[i].index(raw.assignment[node.node_id])
                for i, node in enumerate(graph)
            ]
            # The suffix is summed right to left, the search's prefix
            # left to right: the two orders may round differently, by
            # at most one ulp of the total per addition.
            slack = raw.cost * len(choices) * sys.float_info.epsilon
            cost_so_far = 0.0
            for i in range(len(choices)):
                assert cost_so_far + tables.suffix_min[i] <= (
                    raw.cost + slack
                ), (graph.name, i)
                cost_so_far += tables.marginal(i, choices[i], choices)
            assert cost_so_far == raw.cost

    def test_node_bound_is_exact_under_any_producer_choice(self):
        # Per node there is no rounding slack at all: whatever the
        # in-search producers chose, no plan's marginal is below the
        # bound (exact float compare).
        model = CostModel()
        rnd = random.Random(7)
        for graph in _bound_graphs() + [small_cnn()]:
            tables = _whole_graph_tables(graph, model)
            for _ in range(8):
                choices = [
                    rnd.randrange(len(plans)) for plans in tables.plan_sets
                ]
                for i, plans in enumerate(tables.plan_sets):
                    for p in range(len(plans)):
                        assert tables.node_min[i] <= tables.marginal(
                            i, p, choices
                        ), (graph.name, i, p)

    def test_bound_counts_in_search_edges(self):
        # A node whose every plan must pay a transform from its producer
        # is bounded above its bare kernel cost.
        graph = small_cnn()
        tables = _whole_graph_tables(graph, CostModel())
        edge_blind = sum(min(costs) for costs in tables.node_costs)
        assert tables.suffix_min[0] > edge_blind
        assert tables.suffix_min[-1] == 0.0


class TestCostTable:
    def test_same_terms_as_the_model(self):
        graph = small_cnn()
        model = CostModel()
        table = CostTable(model)
        for _ in range(2):  # second pass is served from the memo
            for node in graph:
                assert table.plans(node) == model.plans(node)
                for plan in model.plans(node):
                    assert table.node_cost(
                        graph, node, plan
                    ) == model.node_cost(graph, node, plan)
                    assert table.boundary_cost(
                        graph, node, plan
                    ) == model.boundary_cost(graph, node, plan)
                    for pred in graph.predecessors(node.node_id):
                        for pred_plan in model.plans(pred):
                            assert table.edge_cost(
                                graph, pred, pred_plan, node, plan
                            ) == model.edge_cost(
                                graph, pred, pred_plan, node, plan
                            )

    def test_each_term_evaluated_once(self):
        calls = {"node": 0, "edge": 0}

        class Counting(CostModel):
            def node_cost(self, graph, node, plan):
                calls["node"] += 1
                return super().node_cost(graph, node, plan)

            def edge_cost(self, *args):
                calls["edge"] += 1
                return super().edge_cost(*args)

        graph = random_dag(3, nodes=9)
        model = Counting()
        solve_gcd2(graph, model, max_operators=4)
        pairs = sum(len(model.plans(node)) for node in graph)
        assert calls["node"] <= pairs
        # Edge transforms are shared by shape: at most one evaluation
        # per (producer view, layout, layout), far fewer than one per
        # (edge, plan, plan).
        edge_pairs = sum(
            len(model.plans(graph.node(src)))
            * len(model.plans(graph.node(dst)))
            for src, dst in graph.edges()
        )
        assert 0 < calls["edge"] < edge_pairs

    def test_aggregate_cost_accepts_a_table(self):
        graph = small_cnn()
        model = CostModel()
        assignment = solve_local(graph, model).assignment
        assert aggregate_cost(
            graph, CostTable(model), assignment
        ) == aggregate_cost(graph, model, assignment)


class TestLocal:
    def test_picks_per_node_cheapest(self):
        graph = chain_graph(length=4)
        model = CostModel()
        result = solve_local(graph, model)
        for node in graph:
            plan = result.assignment[node.node_id]
            best = min(
                model.plans(node),
                key=lambda p: model.node_cost(graph, node, p),
            )
            assert model.node_cost(graph, node, plan) == pytest.approx(
                model.node_cost(graph, node, best)
            )

    def test_never_beats_global(self):
        for seed in range(4):
            graph = random_dag(seed, nodes=6)
            model = CostModel()
            local = solve_local(graph, model)
            exact = solve_exhaustive(graph, model)
            assert local.cost >= exact.cost - 1e-9


class TestPbqp:
    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_exact_on_chains(self, length):
        # Chains reduce entirely via RI: PBQP is exact there.
        graph = chain_graph(length=length)
        model = CostModel()
        pbqp = solve_pbqp(graph, model)
        exact = solve_exhaustive(graph, model)
        assert pbqp.cost == pytest.approx(exact.cost, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_near_optimal_on_dags(self, seed):
        graph = random_dag(seed, nodes=6)
        model = CostModel()
        pbqp = solve_pbqp(graph, model)
        exact = solve_exhaustive(graph, model)
        local = solve_local(graph, model)
        assert pbqp.cost >= exact.cost - 1e-9
        assert pbqp.cost <= local.cost + 1e-9

    def test_complete_assignment(self):
        graph = small_cnn()
        result = solve_pbqp(graph, CostModel())
        _assert_complete(graph, result)


class TestGcd2:
    @pytest.mark.parametrize("seed", range(4))
    def test_cost_sandwich(self, seed):
        graph = random_dag(seed, nodes=7)
        model = CostModel()
        gcd2 = solve_gcd2(graph, model, max_operators=13)
        local = solve_local(graph, model)
        exact = solve_exhaustive(graph, model)
        assert exact.cost - 1e-9 <= gcd2.cost <= local.cost + 1e-9

    def test_uses_dp_on_chains(self):
        graph = chain_graph(length=5)
        result = solve_gcd2(graph, CostModel())
        assert "chain-dp" in result.solver
        exact = solve_exhaustive(graph, CostModel())
        assert result.cost == pytest.approx(exact.cost, rel=1e-9)

    def test_partition_budget_names_solver(self):
        graph = small_cnn()
        result = solve_gcd2(graph, CostModel(), max_operators=5)
        assert "gcd2(5)" in result.solver
        _assert_complete(graph, result)

    def test_matches_global_on_small_graphs(self):
        # The Figure 10 observation: GCD2(13) ~= the global optimum.
        graph = small_cnn()
        model = CostModel()
        gcd2 = solve_gcd2(graph, model, max_operators=13)
        exact = solve_exhaustive(graph, model)
        assert gcd2.cost <= exact.cost * 1.05

    def test_expansions_summed_over_partitions(self):
        graph = small_cnn()
        model = CostModel()
        whole = solve_gcd2(graph, model, max_operators=13)
        split = solve_gcd2(graph, model, max_operators=4)
        assert whole.expansions > 0 and split.expansions > 0
        assert solve_gcd2(chain_graph(length=5), model).expansions == 0
        assert solve_local(graph, model).expansions == 0


class TestSelectionResult:
    def test_plan_for_missing_raises(self):
        result = SelectionResult({}, 0.0, "test")
        with pytest.raises(SelectionError):
            result.plan_for(0)

    def test_aggregate_cost_requires_complete_assignment(self):
        graph = chain_graph(length=2)
        with pytest.raises(SelectionError):
            aggregate_cost(graph, CostModel(), {})
