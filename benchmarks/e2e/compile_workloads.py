"""``compile_cold`` and ``compile_warm``: the zoo on every machine.

One op is one ``compile_model`` call — a fresh compiler over a fresh
(cold) or a populated (warm) disk cache.  The two workloads run the
same 33 cells through the same pipeline and differ in exactly one
thing: cold packs every kernel body and *writes* the cache, warm packs
none and *reads* it.  A packing speed-up must show on cold and leave
warm alone; a cache-format change that helps writes and hurts reads
shows as a gain on one and a loss on the other.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.compiler import CompiledModel, CompilerOptions, compile_model
from repro.machine.description import machine_names
from repro.models.registry import build_model, model_names

from e2e import reference, speed, stats, trace
from e2e.result import Outcome

Cell = Tuple[str, str]  # (model, machine)

#: Differential-checked after the timed region: one CNN and one
#: transformer.  (``tinybert`` would add 2.9 s of per-sample executor
#: to every run; see the README.)
DIFFERENTIAL_MODELS = ("mobilenet_v3", "decoder_tiny")
SMOKE_MODELS = ("mobilenet_v3", "tinybert", "decoder_tiny")
SMOKE_MACHINES = ("hexagon698",)

#: Interpreter starts (~0.4 s each) whose median is the cold
#: workload's ``setup_s``.
COLD_START_REPEATS = 5
#: Passes a run makes at least — a cell's median and the
#: identical-across-passes gate both need two.
MIN_PASSES = 2

IMPORT_PROBE = (
    "import repro.compiler, repro.models.registry as r; "
    "[r.build_model(m) for m in r.model_names()]"
)


def cells(smoke: bool) -> List[Cell]:
    models = SMOKE_MODELS if smoke else tuple(model_names())
    machines = SMOKE_MACHINES if smoke else tuple(machine_names())
    return [(model, machine) for machine in machines for model in models]


def signature(compiled: CompiledModel) -> Tuple[float, int]:
    """What must repeat exactly for a cell, pass after pass."""
    return (compiled.total_cycles, compiled.total_packets)


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(
            os.path.getsize(os.path.join(root, name)) for name in files
        )
    return total


class CompileWorkload:
    """Shared state of one compile-workload run."""

    def __init__(
        self, warm: bool, seed: int, workspace: str, smoke: bool
    ) -> None:
        self.warm = warm
        self.name = "compile_warm" if warm else "compile_cold"
        self.rng = random.Random(seed)
        self.workspace = workspace
        self.cells = cells(smoke)
        self.graphs = {
            model: build_model(model) for model, _ in self.cells
        }
        self.outcome = Outcome(self.name)
        #: cell -> signature every later compile of it must repeat.
        self.expected: Dict[Cell, Tuple[float, int]] = {}
        #: cell -> its populated cache dir (warm only).
        self.cache_dirs: Dict[Cell, str] = {}
        self.meter = speed.SpeedMeter()
        #: Op walls in seconds at reference speed, and raw in ms.
        self.walls: Dict[Cell, List[float]] = {c: [] for c in self.cells}
        self.raw_ms: List[float] = []
        self.factors: List[float] = []
        self.pass_max: List[float] = []
        self.pass_sums: List[float] = []
        self.last: Dict[Cell, CompiledModel] = {}
        #: root span index -> what that traced op compiled, and the
        #: factor that brings its times to reference speed.
        self.traced: Dict[int, CompiledModel] = {}
        self.traced_factor: Dict[int, float] = {}
        self.bytes_written = 0
        self._fresh = 0

    # -- one op -------------------------------------------------------

    def fresh_dir(self) -> str:
        self._fresh += 1
        path = os.path.join(self.workspace, f"cache-{self._fresh}")
        os.mkdir(path)
        return path

    def compile(
        self, cell: Cell, cache_dir: str
    ) -> Tuple[CompiledModel, float]:
        model, machine = cell
        options = CompilerOptions(
            machine=machine, cache_dir=cache_dir, jobs=1
        )
        started = time.perf_counter()
        compiled = compile_model(self.graphs[model], options)
        return compiled, time.perf_counter() - started

    def gate(self, cell: Cell, compiled: CompiledModel) -> Optional[str]:
        """Why this compile fails its workload's gate, or ``None``."""
        diagnostics = compiled.diagnostics
        if self.warm and diagnostics.cache_misses:
            return f"{diagnostics.cache_misses} cache misses on a warm cache"
        if not self.warm and diagnostics.cache_disk_hits:
            return f"{diagnostics.cache_disk_hits} disk hits on a cold cache"
        if diagnostics.fallbacks:
            return f"selection fell back: {diagnostics.fallback_chain}"
        want = self.expected.setdefault(cell, signature(compiled))
        if signature(compiled) != want:
            return f"cycles/packets {signature(compiled)} != {want}"
        return None

    def op(
        self, cell: Cell, tracer: Optional[trace.Tracer] = None
    ) -> Tuple[Optional[float], Optional[int]]:
        """One timed compile of ``cell``: its wall in seconds (``None``
        if it raised) and, when traced, its root span."""
        cache_dir = self.cache_dirs[cell] if self.warm else self.fresh_dir()
        root = None
        try:
            if tracer is None:
                compiled, wall = self.compile(cell, cache_dir)
            else:
                with tracer.op(f"compile {cell[0]}@{cell[1]}") as root:
                    compiled, wall = self.compile(cell, cache_dir)
                self.traced[root] = compiled
                self.bytes_written += (
                    0 if self.warm else dir_bytes(cache_dir)
                )
            self.outcome.attempt(self.gate(cell, compiled), cell)
            self.last[cell] = compiled
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            self.outcome.attempt(f"{type(exc).__name__}: {exc}", cell)
            wall = None
        finally:
            if not self.warm:
                shutil.rmtree(cache_dir, ignore_errors=True)
        return wall, root

    # -- phases -------------------------------------------------------

    def populate(self) -> float:
        """Fill one cache dir per cell — the warm workload's set-up;
        its wall in seconds at reference speed."""
        done: List[Tuple[int, float]] = []
        for cell in self.cells:
            mark = self.meter.sample()
            self.cache_dirs[cell] = self.fresh_dir()
            compiled, seconds = self.compile(cell, self.cache_dirs[cell])
            done.append((mark, seconds))
            # Warm compiles must reproduce the populating compile.
            self.expected[cell] = signature(compiled)
        self.meter.sample()
        return sum(wall * self.meter.factor(mark) for mark, wall in done)

    def cold_start(self, src_dir: str, repeats: int) -> float:
        """What a caller pays before its first compile — a fresh
        interpreter importing the compiler and building the zoo's
        graphs — as the median of ``repeats``, at reference speed."""
        done: List[Tuple[int, float]] = []
        env = dict(os.environ, PYTHONPATH=src_dir)
        for _ in range(repeats):
            mark = self.meter.sample()
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], env=env, check=True
            )
            done.append((mark, time.perf_counter() - started))
        self.meter.sample()
        return stats.median(
            [wall * self.meter.factor(mark) for mark, wall in done]
        )

    def one_pass(self, tracer: Optional[trace.Tracer] = None) -> float:
        """Every cell once, in a seeded order; returns the pass's
        summed op wall (raw seconds, for the run's time budget)."""
        order = list(self.cells)
        self.rng.shuffle(order)
        done: List[Tuple[Cell, int, float, Optional[int]]] = []
        for cell in order:
            mark = self.meter.sample()
            wall, root = self.op(cell, tracer)
            if wall is not None:
                done.append((cell, mark, wall, root))
        self.meter.sample()
        at_speed = []
        for cell, mark, wall, root in done:
            factor = self.meter.factor(mark)
            if root is not None:
                self.traced_factor[root] = factor
            self.raw_ms.append(wall * 1e3)
            self.factors.append(factor)
            self.walls[cell].append(wall * factor)
            at_speed.append(wall * factor)
        if at_speed:
            self.pass_max.append(max(at_speed))
            self.pass_sums.append(sum(at_speed))
        return sum(wall for _, _, wall, _ in done)

    def differential(self) -> None:
        """Outputs against the float interpreter, outside the timing."""
        for model in DIFFERENTIAL_MODELS:
            compiled = self.last.get((model, "hexagon698"))
            if compiled is None:
                self.outcome.violation(f"{model}: nothing compiled to check")
                continue
            message = reference.tolerance_violation(
                model, reference.differential(compiled)
            )
            if message is not None:
                self.outcome.violation(message)

    def modelled_cycles_geomean(self) -> float:
        # In cell order, not pass order: the sum of logs must not
        # depend on the seed's shuffle, down to the last bit.
        return stats.geomean([self.expected[cell][0] for cell in self.cells])


def run_timed(
    warm: bool,
    seed: int,
    seconds: float,
    workspace: str,
    src_dir: str,
    smoke: bool,
) -> Outcome:
    """The untraced run: set-up, whole passes for ``seconds``, checks."""
    work = CompileWorkload(warm, seed, workspace, smoke)
    if warm:
        # One population is 33 compiles; its wall is already a sum
        # over many ops and is not repeated (it is 8 s of the cap).
        setup_s = work.populate()
    else:
        setup_s = work.cold_start(
            src_dir, 1 if smoke else COLD_START_REPEATS
        )
    spent = 0.0
    passes = 0
    last = 0.0
    min_passes = 1 if smoke else MIN_PASSES
    # Whole passes only: a cell's median must not mix pass counts.
    while passes < min_passes or (not smoke and spent + last <= seconds):
        last = work.one_pass()
        spent += last
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not warm:
        # Selection and lowering — all the executors read — are the
        # same on a warm cache, so the cold workload checks for both.
        work.differential()

    outcome = work.outcome
    if any(not walls for walls in work.walls.values()):
        outcome.violation("a cell never compiled; no timing to report")
        return outcome
    walls_ms = [w * 1e3 for walls in work.walls.values() for w in walls]
    outcome.samples = len(walls_ms)
    outcome.notes.update(
        {
            "passes": passes,
            "speed_factor_p50": round(stats.median(work.factors), 4),
            "speed_factor_min": round(min(work.factors), 4),
            "raw_op_ms_p50": stats.median(work.raw_ms),
        }
    )
    outcome.values.update(
        {
            "setup_s": setup_s,
            "ops_per_s": len(walls_ms) / (sum(walls_ms) / 1e3),
            "op_ms_p50": stats.median(walls_ms),
            "op_ms_tail": stats.median(work.pass_max) * 1e3,
            "op_ms_geomean": stats.geomean(
                [stats.median(ws) * 1e3 for ws in work.walls.values()]
            ),
            "modelled_cycles_geomean": work.modelled_cycles_geomean(),
            "peak_rss_mb": peak_rss_mb,
        }
    )
    return outcome


# -- the traced run ---------------------------------------------------

#: span name -> per-layer time metric its self time is booked under.
SPAN_METRIC = {
    "graph.passes": "graph.passes_ms",
    "core.selection": "core.selection_ms",
    "core.unroll": "core.unroll_ms",
    "codegen.lower": "codegen.lower_ms",
    "core.packing": "core.packing_ms",
    "cache.fingerprint": "cache.fingerprint_ms",
    "cache.lookup": "cache.lookup_ms",
    "cache.store": "cache.store_ms",
    "machine.schedule_cycles": "machine.schedule_cycles_ms",
    "machine.profiler": "machine.profiler_ms",
}
STAGES = ("graph", "selection", "unroll", "lowering", "packing", "profile")


def layer_metrics(
    spans: List[trace.Span],
    compiled_by_op: Dict[int, CompiledModel],
    factor_by_op: Dict[int, float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced pass, at reference speed, and
    each time bucket's share of the whole pass.

    Every span's self time lands in exactly one bucket, so per op the
    buckets sum to the op's wall; ``compiler.other_ms`` is the bucket
    of the root and the stage spans — time inside ``compile_model``
    that no layer function covers.
    """
    by_op = trace.self_ms_by_op(spans)
    per_op: Dict[str, List[float]] = {}
    accounted: List[float] = []
    other_share: List[float] = []
    selection_share: Dict[int, float] = {}
    wall_ms: Dict[int, float] = {}
    for op, names in by_op.items():
        root = spans[op]
        factor = factor_by_op[op]
        wall = (root.end - root.start) * 1e3 * factor
        wall_ms[op] = wall
        buckets: Dict[str, float] = {"compiler.other_ms": 0.0}
        for name, own in names.items():
            if name in SPAN_METRIC:
                bucket = SPAN_METRIC[name]
            elif name.startswith("verify."):
                bucket = "verify.check_ms"
            else:
                bucket = "compiler.other_ms"
            buckets[bucket] = buckets.get(bucket, 0.0) + own * factor
        for bucket in set(SPAN_METRIC.values()) | {
            "verify.check_ms", "compiler.other_ms"
        }:
            per_op.setdefault(bucket, []).append(buckets.get(bucket, 0.0))
        other = buckets["compiler.other_ms"]
        other_share.append(other / wall)
        accounted.append(1.0 - other / wall)
        selection_share[op] = buckets.get("core.selection_ms", 0.0) / wall

    values = {name: stats.median(v) for name, v in per_op.items()}
    pass_ms = sum(wall_ms.values())
    shares = {
        name: round(sum(v) / pass_ms, 4)
        for name, v in sorted(per_op.items(), key=lambda kv: -sum(kv[1]))
    }
    slowest = max(wall_ms, key=wall_ms.get)
    values["core.selection_share_slowest_cell"] = selection_share[slowest]
    values["compiler.other_share"] = stats.median(other_share)
    values["trace.accounted_share"] = stats.median(accounted)

    # Counts, taken where the work happens.
    nodes_after: List[float] = []
    instructions: Dict[int, float] = {}
    tiers = {"memory": 0, "disk": 0, "miss": 0}
    bodies = 0
    for span in spans:
        if span.name == "graph.passes":
            nodes_after.append(span.value)
        elif span.name == "codegen.lower":
            instructions[span.op] = instructions.get(span.op, 0) + span.value
        elif span.name == "cache.lookup":
            tiers[span.value] += 1
        elif span.name == "core.packing":
            bodies += 1
    lookups = sum(tiers.values())
    values.update(
        {
            "graph.nodes_after_passes": stats.median(nodes_after),
            "codegen.lower_instructions": stats.median(
                list(instructions.values())
            ),
            "core.packing_bodies": bodies,
            "cache.memory_hits": tiers["memory"],
            "cache.disk_hits": tiers["disk"],
            "cache.misses": tiers["miss"],
            "cache.hit_ratio": (tiers["memory"] + tiers["disk"]) / lookups,
            "core.packing_packets": sum(
                c.total_packets for c in compiled_by_op.values()
            ),
            "core.selection_fallbacks": sum(
                len(c.diagnostics.fallbacks) for c in compiled_by_op.values()
            ),
        }
    )

    # The tracer's clock against the compiler's own, stage by stage.
    # Sub-millisecond stages are left out: two clock reads apart is
    # all they are.
    gap = 0.0
    stage_ms: Dict[int, Dict[str, float]] = {}
    verify_ms: Dict[int, float] = {}
    for span in spans:
        if span.name.startswith("stage."):
            stage_ms.setdefault(span.op, {})[span.name[6:]] = (
                span.end - span.start
            ) * 1e3
        elif span.name.startswith("verify."):
            verify_ms[span.op] = verify_ms.get(span.op, 0.0) + (
                span.end - span.start
            ) * 1e3
    for op, compiled in compiled_by_op.items():
        diagnostics = compiled.diagnostics
        pairs = [
            (stage_ms[op][stage], diagnostics.stage_seconds[stage] * 1e3)
            for stage in STAGES
        ]
        pairs.append(
            (verify_ms[op], sum(diagnostics.verifier_seconds.values()) * 1e3)
        )
        for traced, own in pairs:
            if own >= 1.0:
                gap = max(gap, abs(traced - own) / own)
    values["compiler.stage_clock_gap"] = gap
    return values, shares


def run_traced(
    warm: bool, seed: int, workspace: str, out_dir: str, smoke: bool,
    meta: Dict,
) -> Outcome:
    """One untraced pass, then one traced pass of the same cells."""
    work = CompileWorkload(warm, seed, workspace, smoke)
    if warm:
        work.populate()
    work.one_pass()
    tracer = trace.Tracer()
    with trace.installed(tracer, trace.COMPILE_LAYERS):
        work.one_pass(tracer)
    outcome = work.outcome
    if outcome.failed:
        return outcome
    untraced, traced = work.pass_sums
    values, shares = layer_metrics(
        tracer.spans, work.traced, work.traced_factor
    )
    outcome.notes["share_of_pass_wall"] = shares
    values["cache.disk_bytes_written"] = work.bytes_written
    values["trace.overhead_share"] = traced / untraced - 1.0
    outcome.values.update(values)
    outcome.samples = len(work.traced)
    path = os.path.join(out_dir, f"trace-{work.name}.json")
    trace.dump(tracer, path, meta)
    outcome.notes["trace_file"] = path
    check_predictions(work, outcome)
    return outcome


def check_predictions(work: CompileWorkload, outcome: Outcome) -> None:
    """What the traced counts must show for the workload to be the
    workload its name says."""
    values = outcome.values
    if work.warm:
        if values["core.packing_bodies"] or values["cache.misses"]:
            outcome.violation(
                "warm pass packed bodies or missed the cache: "
                f"{values['core.packing_bodies']} bodies, "
                f"{values['cache.misses']} misses"
            )
    elif values["cache.disk_hits"]:
        outcome.violation(
            f"cold pass hit the disk cache {values['cache.disk_hits']}x"
        )
    if values["compiler.stage_clock_gap"] > 0.10:
        outcome.violation(
            "stage spans and diagnostics.stage_seconds disagree by "
            f"{values['compiler.stage_clock_gap']:.1%}"
        )
