"""The end-to-end GCD2 compiler (Section IV-D).

Pipeline, mirroring Figure 6:

1. graph-level optimization (constant folding, fusion) via
   :mod:`repro.graph.passes`;
2. global SIMD optimization — layout & instruction selection over the
   whole computational graph (:mod:`repro.core.global_select`);
3. other optimizations (division-to-LUT, folded into the cost model and
   the lowered kernels);
4. lowering to pseudo-assembly with shape-adaptive unrolling;
5. SDA VLIW packing and latency/profile estimation on the simulated
   machine.

Every stage has an ablation switch so the Figure 9/10/11/12 benchmarks
can turn individual optimizations off.

The pipeline runs under a :class:`~repro.verify.PassManager`: each
stage is timed, optionally corrupted by fault-injection hooks (tests
only) and then checked by invariant verifiers.  Selection runs on a
graceful-degradation ladder — if the requested solver blows through its
wall-clock/state budget, the compiler downgrades ``exhaustive ->
gcd2(k) -> gcd2(k/2) -> chain -> local`` and records every downgrade in
the compile's :class:`~repro.verify.CompilationDiagnostics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import BudgetExceeded, ReproError
from repro.cache import ScheduleCache, ScheduleEntry, kernel_fingerprint
from repro.core.cost import CostModel
from repro.core.chain_dp import is_in_tree, solve_chain
from repro.core.exhaustive import solve_exhaustive
from repro.core.global_select import solve_gcd2
from repro.core.local import solve_local
from repro.core.pbqp import solve_pbqp
from repro.core.plans import ExecutionPlan
from repro.core.selection_common import SelectionResult
from repro.core.unroll import (
    UnrollConfig,
    UnrollPlan,
    adaptive_unroll,
    exhaustive_unroll,
    kernel_cycles,
)
from repro.codegen.lower import LoweredKernel, lower_node
from repro.graph.graph import ComputationalGraph, Node
from repro.graph.passes import run_default_passes
from repro.isa.instructions import Opcode
from repro.machine.description import (
    HEXAGON_698,
    MachineDescription,
    resolve_machine,
)
from repro.machine.packet import Packet
from repro.machine.pipeline import PipelineModel, schedule_cycles
from repro.machine.profiler import ExecutionProfile, Profiler
from repro.core.packing import PACKERS, configured_packer, packing_work
from repro.core.packing.sda import SdaConfig
from repro.verify import (
    CompilationDiagnostics,
    Deadline,
    PassManager,
    budget_from_options,
    verify_graph,
    verify_lowering,
    verify_profile,
    verify_schedule,
    verify_selection,
    verify_unrolls,
)

#: Default modelled machine: Hexagon-698-like — 1.5 GHz, four HVX
#: contexts.  Kept as aliases; the live values come from the compile's
#: :class:`~repro.machine.description.MachineDescription`.
DEFAULT_PIPELINE = PipelineModel(clock_ghz=HEXAGON_698.clock_ghz)
VECTOR_CONTEXTS = HEXAGON_698.vector_contexts


@dataclass(frozen=True)
class CompilerOptions:
    """Ablation switches of the GCD2 pipeline.

    Attributes
    ----------
    selection:
        Layout/instruction selection algorithm: ``gcd2`` (partitioned
        global), ``local``, ``exhaustive``, ``pbqp`` or ``chain``.
    max_operators:
        Partition budget for ``gcd2`` — the GCD2(k) parameter.
    packing:
        VLIW packer: ``sda`` (production), ``sda_pure`` (Algorithm 1
        without the per-kernel empirical tuning), ``soft_to_hard``,
        ``soft_to_none``, or ``list`` (top-down list scheduling).
    unrolling:
        ``adaptive`` (shape heuristic), ``exhaustive``, ``outer``,
        ``mid`` or ``none``.
    other_opts:
        Division-to-LUT and related rewrites.
    graph_passes:
        Constant folding / fusion before selection.
    include_extensions:
        Offer vtmpy/vmpye plans.
    kernel_efficiency:
        Compute-side efficiency of the kernel library relative to
        GCD2's shape-specialised code generation (< 1 for the generic
        uniform-layout kernels of Hexagon NN; the gap the paper's
        Figure 9 attributes to instruction and layout selection).
    selection_time_budget_s / selection_state_budget:
        Wall-clock / state-count budgets each selection attempt must
        respect; ``None`` means unbounded.  An exceeded budget degrades
        down the solver ladder (or raises under ``strict``).
    strict:
        Turn any graceful degradation into a hard
        :class:`~repro.errors.BudgetExceeded` — what CI and the
        ``repro verify`` command use.
    verify:
        Run the invariant checkers after every pipeline stage.
    lint:
        Additionally run the :mod:`repro.lint` static analyzer over
        the compiled artefacts as a pipeline stage; error-severity
        diagnostics raise
        :class:`~repro.errors.LintVerificationError`.  Off by default
        (the dynamic checkers already gate correctness); ``repro
        verify`` and ``repro lint`` turn it on.
    jobs:
        Vestigial: only ``1`` is accepted.  Process-pool packing was
        removed (it was slower than in-process packing in every zoo x
        machine cell); the keyword survives because
        ``benchmarks/e2e/compile_workloads.py`` still passes ``jobs=1``.
    cache_dir:
        Directory for the persistent schedule cache (tier 2).  ``None``
        (the default) keeps the cache in-memory only; compiles never
        touch the filesystem unless asked to.
    cache_memory_entries:
        Capacity of the in-memory LRU tier.
    sda_config:
        Tuned :class:`~repro.core.packing.sda.SdaConfig` for the
        SDA-family packers; ``None`` means the paper's defaults.  The
        kernel-quality yardstick stays pinned to the *default* SDA
        reference, so a tuned config that packs tighter shows up as
        ``quality < 1``.
    unroll_config:
        Tuned :class:`~repro.core.unroll.UnrollConfig` for the
        shape-adaptive unrolling heuristic; ``None`` means the paper's
        constants.  Only consulted when ``unrolling="adaptive"``.
    tuned:
        Let :func:`compile_model` look up the best recorded
        configuration for this graph in the :mod:`repro.tune` trial
        database (under ``cache_dir``) and compile with it.  A graph
        with no recorded trials compiles with the options as given.
    machine:
        Target machine description: a registered name (``"hexagon698"``,
        ``"narrow64"``, ``"wide6"``), an explicit
        :class:`~repro.machine.description.MachineDescription`, or
        ``None`` for the process default (the Hexagon-698 unless a test
        swapped it).  Every stage — selection cost, unrolling, packing,
        packet legality, pipeline timing, lint, verify, profiling, the
        schedule cache and the tune DB — compiles against this one
        description.
    """

    selection: str = "gcd2"
    max_operators: int = 13
    packing: str = "sda"
    unrolling: str = "adaptive"
    other_opts: bool = True
    graph_passes: bool = True
    include_extensions: bool = False
    uniform_instruction: Optional["Opcode"] = None
    transform_bytes_per_cycle: float = 2.5
    kernel_efficiency: float = 1.0
    scalar_activations: bool = False
    selection_time_budget_s: Optional[float] = None
    selection_state_budget: Optional[int] = None
    strict: bool = False
    verify: bool = True
    lint: bool = False
    # ROADMAP 0(b) drops ``jobs=1`` from the benchmark, then this field.
    jobs: int = 1
    cache_dir: Optional[str] = None
    cache_memory_entries: int = 256
    sda_config: Optional[SdaConfig] = None
    unroll_config: Optional[UnrollConfig] = None
    tuned: bool = False
    machine: Optional[MachineDescription] = None

    def __post_init__(self) -> None:
        if self.machine is not None:
            # Normalize names to descriptions eagerly so an unknown
            # target fails at options construction, not mid-compile.
            object.__setattr__(
                self, "machine", resolve_machine(self.machine)
            )
        if self.sda_config is not None and not isinstance(
            self.sda_config, SdaConfig
        ):
            raise ReproError(
                f"sda_config must be an SdaConfig, "
                f"got {type(self.sda_config).__name__}"
            )
        if self.unroll_config is not None and not isinstance(
            self.unroll_config, UnrollConfig
        ):
            raise ReproError(
                f"unroll_config must be an UnrollConfig, "
                f"got {type(self.unroll_config).__name__}"
            )
        for switch in (
            "other_opts", "graph_passes", "include_extensions",
            "scalar_activations", "strict", "verify", "lint", "tuned",
        ):
            if not isinstance(getattr(self, switch), bool):
                raise ReproError(
                    f"{switch} must be a bool, "
                    f"got {getattr(self, switch)!r}"
                )
        if (
            not isinstance(self.max_operators, int)
            or isinstance(self.max_operators, bool)
            or self.max_operators < 1
        ):
            raise ReproError(
                f"max_operators must be an int >= 1, "
                f"got {self.max_operators!r}"
            )
        for rate in ("kernel_efficiency", "transform_bytes_per_cycle"):
            value = getattr(self, rate)
            if (
                not isinstance(value, (int, float))
                or not math.isfinite(value)
                or value <= 0
            ):
                raise ReproError(
                    f"{rate} must be a finite number > 0, got {value!r}"
                )
        if self.packing not in PACKERS:
            raise ReproError(f"unknown packer {self.packing!r}")
        if self.jobs != 1:
            raise ReproError(
                f"jobs={self.jobs!r}: parallel packing was removed; "
                f"only jobs=1 is accepted"
            )
        if self.cache_memory_entries < 1:
            raise ReproError("cache_memory_entries must be >= 1")
        if (
            self.selection_time_budget_s is not None
            and self.selection_time_budget_s <= 0
        ):
            raise ReproError("selection_time_budget_s must be positive")
        if (
            self.selection_state_budget is not None
            and self.selection_state_budget <= 0
        ):
            raise ReproError("selection_state_budget must be positive")
        if self.selection not in (
            "gcd2", "local", "exhaustive", "pbqp", "chain", "uniform"
        ):
            raise ReproError(f"unknown selection {self.selection!r}")
        if self.selection == "uniform" and self.uniform_instruction is None:
            raise ReproError(
                "uniform selection needs uniform_instruction set"
            )
        if self.unrolling not in (
            "adaptive", "exhaustive", "outer", "mid", "none"
        ):
            raise ReproError(f"unknown unrolling {self.unrolling!r}")


@dataclass
class CompiledNode:
    """Per-operator compilation artefacts.

    ``packets`` schedule ``schedule_body`` — the canonical instance of
    this kernel body (identical bodies across operators share one
    packed schedule through the compiler's cache, so ``schedule_body``
    may be a different-but-equivalent object than ``kernel.body``).
    """

    node: Node
    plan: ExecutionPlan
    unroll: UnrollPlan
    kernel: LoweredKernel
    schedule_body: List["Instruction"]
    packets: List[Packet]
    cycles: float

    @property
    def packet_count(self) -> int:
        return len(self.packets)


@dataclass
class CompiledModel:
    """A fully compiled model with its latency/profile estimates.

    ``diagnostics`` records what actually ran: solver fallbacks taken,
    warnings, and per-stage/verifier timings.
    """

    graph: ComputationalGraph
    options: CompilerOptions
    selection: SelectionResult
    nodes: List[CompiledNode]
    transform_cycles: float
    profile: ExecutionProfile
    pipeline: PipelineModel = DEFAULT_PIPELINE
    machine: MachineDescription = HEXAGON_698
    diagnostics: CompilationDiagnostics = field(
        default_factory=CompilationDiagnostics
    )

    @property
    def kernel_cycles(self) -> float:
        return sum(n.cycles for n in self.nodes)

    @property
    def total_cycles(self) -> float:
        return self.kernel_cycles + self.transform_cycles

    @property
    def latency_ms(self) -> float:
        """Modelled single-inference latency across all vector contexts."""
        return (
            self.pipeline.cycles_to_ms(self.total_cycles)
            / self.machine.vector_contexts
        )

    @property
    def total_packets(self) -> int:
        return sum(n.packet_count for n in self.nodes)

    def executor(self, **kwargs) -> "QuantizedExecutor":
        """A quantized executor over this compiled model.

        Keyword arguments pass through to
        :class:`repro.runtime.executor.QuantizedExecutor` (``seed``,
        ``kernel_mac_limit``, ``calibration``).
        """
        from repro.runtime.executor import QuantizedExecutor

        return QuantizedExecutor(self, **kwargs)

    def engine(self, **kwargs) -> "InferenceEngine":
        """A batched inference engine over this compiled model.

        Keyword arguments pass through to
        :class:`repro.runtime.engine.InferenceEngine` (``calibration``,
        ``seed``).
        """
        from repro.runtime.engine import InferenceEngine

        return InferenceEngine(self, **kwargs)


class GCD2Compiler:
    """Compiles computational graphs for the simulated mobile DSP.

    ``fault_hooks`` is the fault-injection seam: a ``{stage: mutator}``
    mapping applied to stage artefacts before verification (see
    :mod:`repro.verify.faultinject`).  Production compiles leave it
    empty.
    """

    def __init__(
        self,
        options: Optional[CompilerOptions] = None,
        fault_hooks: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.options = options or CompilerOptions()
        self.fault_hooks: Dict[str, Callable] = dict(fault_hooks or {})
        self._deadline: Optional[Deadline] = None
        # Resolve once: the whole compile (and this compiler's cache
        # namespace) is pinned to one machine description.
        self.machine = resolve_machine(self.options.machine)
        self.schedule_cache = ScheduleCache(
            memory_entries=self.options.cache_memory_entries,
            disk_dir=self.options.cache_dir,
            machine=self.machine,
        )
        #: Whether the configured packer *is* the pinned default-SDA
        #: quality reference, so both requests share one fingerprint.
        self._packs_reference = self.options.packing == "sda" and (
            self.options.sda_config in (None, SdaConfig())
        )

    # -- public API ----------------------------------------------------------

    def compile(
        self,
        graph: ComputationalGraph,
        deadline: Optional[Deadline] = None,
    ) -> CompiledModel:
        """Run the full verified pipeline on ``graph``.

        ``deadline`` is a cooperative wall-clock bound: it is checked
        at every stage/verifier boundary and between selection-ladder
        rungs, and it caps each selection attempt's time budget — a
        deadlined compile either finishes in time or aborts with
        :class:`~repro.errors.DeadlineExceeded`, never hangs.
        """
        options = self.options
        self._deadline = deadline
        diagnostics = CompilationDiagnostics()
        pm = PassManager(
            diagnostics,
            verify=options.verify,
            fault_hooks=self.fault_hooks,
            deadline=deadline,
        )

        # Stage 1 — graph-level optimization.
        graph = pm.run(
            "graph",
            lambda: run_default_passes(graph)
            if options.graph_passes
            else graph,
        )
        pm.check("graph", verify_graph, graph)

        model = CostModel(
            include_extensions=options.include_extensions,
            other_opts=options.other_opts,
            scalar_activations=options.scalar_activations,
            transform_bytes_per_cycle=options.transform_bytes_per_cycle,
            machine=self.machine,
        )

        # Stage 2 — global layout & instruction selection (with the
        # graceful-degradation ladder under the hood).
        selection = pm.run(
            "selection", lambda: self._select(graph, model, diagnostics)
        )
        pm.check("selection", verify_selection, graph, model, selection)

        compute_nodes = [
            node
            for node in graph
            if node.op_type not in ("Input", "Constant")
        ]

        # Stage 3 — shape-adaptive unrolling.
        unrolls = pm.run(
            "unroll",
            lambda: {
                node.node_id: self._unroll_for(
                    graph, node, selection.plan_for(node.node_id)
                )
                for node in compute_nodes
            },
        )
        pm.check("unroll", verify_unrolls, graph, unrolls)

        # Stage 4 — lowering to pseudo-assembly.
        kernels = pm.run(
            "lowering",
            lambda: {
                node.node_id: lower_node(
                    graph,
                    node,
                    selection.plan_for(node.node_id),
                    unrolls[node.node_id],
                    other_opts=options.other_opts,
                )
                for node in compute_nodes
            },
        )
        pm.check("lowering", verify_lowering, graph, kernels)

        # Stage 5 — SDA VLIW packing + per-node cycle estimation.
        def pack_stage() -> List[CompiledNode]:
            return [
                self._assemble_node(
                    graph,
                    model,
                    node,
                    selection.plan_for(node.node_id),
                    unrolls[node.node_id],
                    kernels[node.node_id],
                    diagnostics,
                )
                for node in compute_nodes
            ]

        compiled_nodes = pm.run("packing", pack_stage)
        pm.check("packing", verify_schedule, compiled_nodes, self.machine)

        # Optional stage 5b — static analysis over the compiled
        # artefacts (packet hazards, register dataflow, schedule
        # consistency, selection lints).
        if options.lint:
            from repro.lint import verify_lint

            pm.check("lint", verify_lint, graph, model, selection,
                     compiled_nodes, self.machine)

        # Final accounting — latency/utilization profile.
        profiler = Profiler(machine=self.machine)

        def observe() -> ExecutionProfile:
            for compiled in compiled_nodes:
                profiler.observe_schedule(
                    compiled.packets, repeats=compiled.kernel.trips
                )
            return profiler.profile

        profile = pm.run("profile", observe)
        pm.check("profile", verify_profile, profile, self.machine)

        transform = selection.cost - sum(
            model.node_cost(graph, graph.node(n.node.node_id), n.plan)
            for n in compiled_nodes
        )
        transform = max(0.0, transform)
        return CompiledModel(
            graph=graph,
            options=options,
            selection=selection,
            nodes=compiled_nodes,
            transform_cycles=transform,
            profile=profile,
            pipeline=PipelineModel(clock_ghz=self.machine.clock_ghz),
            machine=self.machine,
            diagnostics=diagnostics,
        )

    # -- stages ---------------------------------------------------------------

    def _select(
        self,
        graph: ComputationalGraph,
        model: CostModel,
        diagnostics: CompilationDiagnostics,
    ) -> SelectionResult:
        """Selection with budget enforcement and the fallback ladder."""
        options = self.options
        if options.selection == "uniform":
            return self._select_uniform(graph, model)
        rungs = self._selection_ladder(graph, model)
        for index, (label, run) in enumerate(rungs):
            if self._deadline is not None:
                self._deadline.check("selection")
            budget = budget_from_options(
                options, label, deadline=self._deadline
            )
            try:
                result = run(budget)
            except BudgetExceeded as exc:
                if options.strict or index + 1 == len(rungs):
                    raise
                diagnostics.record_fallback(
                    label, rungs[index + 1][0], exc.message
                )
            else:
                diagnostics.selection_expansions = result.expansions
                return result
        raise ReproError(
            "selection ladder exhausted"
        )  # pragma: no cover - last rung is budget-free

    def _selection_ladder(
        self, graph: ComputationalGraph, model: CostModel
    ) -> List[Tuple[str, Callable]]:
        """The degradation ladder, starting at the requested solver.

        ``exhaustive``/``pbqp`` degrade to ``gcd2(k)``, then
        ``gcd2(k/2)``, then the chain DP when the graph is an in-tree,
        and finally the budget-free ``local`` baseline — so a budgeted
        compile always completes with *some* assignment and the
        diagnostics record how far it had to fall.
        """
        options = self.options
        k = options.max_operators

        def gcd2_rung(operators: int) -> Tuple[str, Callable]:
            return (
                f"gcd2({operators})",
                lambda budget, operators=operators: solve_gcd2(
                    graph,
                    model,
                    max_operators=operators,
                    budget=budget,
                ),
            )

        if options.selection == "local":
            return [("local", lambda budget: solve_local(graph, model))]
        if options.selection == "chain":
            # The chain DP is linear-time; misuse on a DAG raises
            # SelectionError directly (no ladder involved).
            return [("chain", lambda budget: solve_chain(graph, model))]

        rungs: List[Tuple[str, Callable]] = []
        if options.selection == "exhaustive":
            rungs.append(
                (
                    "exhaustive",
                    lambda budget: solve_exhaustive(
                        graph, model, budget=budget
                    ),
                )
            )
        elif options.selection == "pbqp":
            rungs.append(
                (
                    "pbqp",
                    lambda budget: solve_pbqp(graph, model, budget=budget),
                )
            )
        rungs.append(gcd2_rung(k))
        half = max(2, k // 2)
        if half < k:
            rungs.append(gcd2_rung(half))
        if is_in_tree(graph):
            rungs.append(
                ("chain-dp", lambda budget: solve_chain(graph, model))
            )
        rungs.append(("local", lambda budget: solve_local(graph, model)))
        return rungs

    def _select_uniform(
        self, graph: ComputationalGraph, model: CostModel
    ) -> SelectionResult:
        """One SIMD implementation per operator type, row-major at every
        operator boundary.

        This models TFLite/SNPE's Hexagon NN kernels ("a uniform SIMD
        implementation for each operator type"): each compute kernel
        internally repacks into its fixed layout and unpacks on the way
        out, which Equation 1 charges as edge transforms against the
        row-major carrier.
        """
        from repro.core.plans import INSTRUCTION_LAYOUT
        from repro.core.selection_common import aggregate_cost
        from repro.tensor.layout import Layout

        instruction = self.options.uniform_instruction
        assignment: Dict[int, ExecutionPlan] = {}
        for node in graph:
            if node.op.is_compute_heavy:
                assignment[node.node_id] = ExecutionPlan(
                    instruction=instruction,
                    layout=INSTRUCTION_LAYOUT[instruction],
                )
            else:
                assignment[node.node_id] = ExecutionPlan(
                    instruction=None, layout=Layout.ROW_MAJOR
                )
        cost = aggregate_cost(graph, model, assignment)
        return SelectionResult(assignment, cost, "uniform", 0.0)

    def _unroll_for(
        self, graph: ComputationalGraph, node: Node, plan: ExecutionPlan
    ) -> UnrollPlan:
        if plan.instruction is None:
            return UnrollPlan(1, 1)
        dims = graph.node_matmul_dims(node.node_id)
        m, k, n = dims
        mode = self.options.unrolling
        if mode == "none":
            return UnrollPlan(1, 1)
        if mode == "outer":
            return UnrollPlan(4, 1)
        if mode == "mid":
            return UnrollPlan(1, 4)
        if mode == "exhaustive":
            best, _ = exhaustive_unroll(plan.instruction, m, k, n)
            return best
        return adaptive_unroll(
            m, n, plan.instruction, self.options.unroll_config
        )

    def _assemble_node(
        self,
        graph: ComputationalGraph,
        model: CostModel,
        node: Node,
        plan: ExecutionPlan,
        unroll: UnrollPlan,
        kernel: LoweredKernel,
        diagnostics: Optional[CompilationDiagnostics] = None,
    ) -> CompiledNode:
        fingerprint = self._fingerprint(
            kernel, self.options.packing, self.options.sda_config
        )
        packets, per_iter, schedule_body = self._pack(
            kernel, diagnostics=diagnostics, fingerprint=fingerprint
        )
        # Kernel cost: the analytic model gives the compute volume at
        # reference (SDA + adaptive) quality; the measured schedule
        # scales the compute side by this packer/unroll configuration's
        # quality.  The memory-roofline side is bandwidth-bound and
        # does not improve with packing.
        compute, memory = model.node_cost_detail(graph, node, plan)
        _, reference_cycles, _ = self._pack(
            kernel,
            packer_name="sda",
            diagnostics=diagnostics,
            fingerprint=fingerprint if self._packs_reference else None,
        )
        quality = per_iter / max(1, reference_cycles)
        quality /= self.options.kernel_efficiency
        # A sparser schedule also keeps fewer loads in flight, so the
        # achieved streaming bandwidth degrades with packing quality
        # (software-managed prefetch), at half the compute sensitivity.
        memory_quality = 1.0 + (quality - 1.0) * 0.5
        cycles = max(compute * quality, memory * memory_quality)
        return CompiledNode(
            node=node,
            plan=plan,
            unroll=unroll,
            kernel=kernel,
            schedule_body=schedule_body,
            packets=packets,
            cycles=cycles,
        )

    def _fingerprint(
        self,
        kernel: LoweredKernel,
        packer_name: str,
        sda_config: Optional[SdaConfig],
    ) -> str:
        return kernel_fingerprint(
            kernel.body,
            packer_name,
            sda_config=sda_config,
            unroll_config=self.options.unroll_config,
        )

    def _pack(
        self,
        kernel: LoweredKernel,
        packer_name: Optional[str] = None,
        diagnostics: Optional[CompilationDiagnostics] = None,
        fingerprint: Optional[str] = None,
    ) -> Tuple[List[Packet], int, List["Instruction"]]:
        """Pack (or fetch the cached schedule for) a kernel body.

        Returns (packets, cycles, canonical body): bodies equal under
        the *full* instruction identity — opcode, dests, srcs, imms and
        lane_bytes — share one schedule, and the canonical body is the
        instance the returned packets actually reference.  (Keying on
        anything less is unsound: bodies differing only in an immediate
        pack identically but execute differently, and serving one
        body's instructions as another's ``schedule_body`` corrupts
        execution.)

        With no explicit ``packer_name`` the configured packer runs
        under the options' (possibly tuned) :class:`SdaConfig`; an
        explicit name requests a reference schedule and stays pinned to
        the default tuning, so kernel quality is always measured
        against the same yardstick.  ``fingerprint`` is the request's
        content address when the caller has computed it already.
        """
        if packer_name is None:
            packer_name = self.options.packing
            sda_config = self.options.sda_config
        else:
            sda_config = None
        if fingerprint is None:
            fingerprint = self._fingerprint(kernel, packer_name, sda_config)
        entry, tier = self.schedule_cache.lookup(fingerprint)
        if diagnostics is not None:
            diagnostics.record_cache_lookup(tier)
        if entry is None:
            with packing_work() as work:
                packets = configured_packer(
                    packer_name, sda_config, self.machine
                )(kernel.body)
            if diagnostics is not None:
                diagnostics.packing_bodies += 1
                diagnostics.packing_work += work.total
            entry = ScheduleEntry(
                body=list(kernel.body),
                packets=packets,
                cycles=schedule_cycles(packets, self.machine),
            )
            self.schedule_cache.put(fingerprint, entry)
        return entry.packets, entry.cycles, entry.body


def compile_model(
    graph: ComputationalGraph,
    options: Optional[CompilerOptions] = None,
    *,
    deadline: Optional[Deadline] = None,
    fault_hooks: Optional[Dict[str, Callable]] = None,
) -> CompiledModel:
    """One-call convenience wrapper over :class:`GCD2Compiler`.

    With ``options.tuned`` set, the best configuration the autotuner
    has recorded for this graph (see :mod:`repro.tune`) overrides the
    packing/unrolling/partition knobs; the compile's diagnostics record
    which trial was applied.  A graph with no recorded trials compiles
    with the options as given (a diagnostic warning plus a
    ``tuned -> default`` degradation record).

    ``deadline`` bounds the compile cooperatively (see
    :meth:`GCD2Compiler.compile`); ``fault_hooks`` is the stage-level
    corruption seam tests and the chaos harness use.
    """
    options = options or CompilerOptions()
    tuned_record = None
    wanted_tuned = options.tuned
    if wanted_tuned:
        from repro.tune import TrialDB, default_tune_dir

        db = TrialDB(
            default_tune_dir(options.cache_dir), machine=options.machine
        )
        tuned_record = db.best(graph.name)
        options = replace(options, tuned=False)
        if tuned_record is not None:
            options = tuned_record.trial_config().apply(options)
    compiled = GCD2Compiler(options, fault_hooks=fault_hooks).compile(
        graph, deadline=deadline
    )
    if tuned_record is not None:
        compiled.diagnostics.record_tuning(
            model=graph.name,
            fingerprint=tuned_record.fingerprint,
            cycles=tuned_record.cycles,
            source="trial-db",
        )
    elif wanted_tuned:
        compiled.diagnostics.warn(
            f"tuned compile requested but no trial recorded for "
            f"{graph.name!r}; compiled with the given options"
        )
        compiled.diagnostics.record_degradation(
            "compile",
            "tuned",
            "default",
            f"no usable trial recorded for {graph.name!r}",
        )
    return compiled
