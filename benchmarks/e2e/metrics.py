"""The benchmark's metrics: name, unit, direction, bound, meaning.

``BENCHMARK.json`` at the repo root carries the same names, units,
directions and bounds (``tests/test_contract.py`` holds the two
together); the one-line meanings here are what ``run.py`` and the
README print beside each number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    #: Share of the parent's median an end-to-end metric may worsen by;
    #: per-layer metrics carry none.
    bound: Optional[float] = None


#: Measured with tracing off.  An *op* is one compile or one HTTP
#: inference request; every workload reports every metric.  Times are
#: at reference speed (see ``speed.py``).  Each bound is about three
#: times the spread ten runs of one commit showed on this box
#: (quartile distance over median, worst workload) or the contract's
#: ceiling of 25 %, whichever is lower.
END_TO_END: List[Metric] = [
    Metric(
        "setup_s", "s", "lower",
        "what a caller pays before its first op: median of 5 interpreter "
        "starts importing the compiler and building the zoo's graphs "
        "(compile_cold); one cache population, 33 compiles "
        "(compile_warm); median of 2 server bring-ups — start, register "
        "with wait, 4 warm-up requests (serve)",
        0.25,
    ),
    Metric(
        "ops_per_s", "1/s", "higher",
        "ops completed / summed op wall (one closed-loop caller)",
        0.20,
    ),
    Metric(
        "op_ms_p50", "ms", "lower", "median op latency", 0.25,
    ),
    Metric(
        "op_ms_tail", "ms", "lower",
        "serve: 90th percentile over >= 100 requests; compile: median "
        "over passes of the pass's slowest cell (33-cell passes cannot "
        "carry a p90 within the time cap)",
        0.25,
    ),
    Metric(
        "op_ms_geomean", "ms", "lower",
        "geomean over op kinds (compile: the cells; serve: the request "
        "seeds) of each kind's median latency",
        0.15,
    ),
    Metric(
        "modelled_cycles_geomean", "cycles", "lower",
        "geomean over the compiled models of CompiledModel.total_cycles "
        "— the modelled run time of the generated code; deterministic",
        0.0001,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "peak resident set: this process (compile) or the server "
        "subprocess (serve)",
        0.15,
    ),
]

#: From the traced run.  Times are self times summed per op and
#: reported as the median over ops; counts are exact medians over ops.
#: A metric of a layer the workload never enters reads 0.
PER_LAYER: List[Metric] = [
    Metric("graph.passes_ms", "ms", "lower",
           "run_default_passes"),
    Metric("graph.nodes_after_passes", "count", "lower",
           "graph nodes left after the passes"),
    Metric("core.selection_ms", "ms", "lower", "solve_gcd2"),
    Metric("core.selection_fallbacks", "count", "lower",
           "selection-ladder downgrades, summed over ops"),
    Metric("core.selection_share_slowest_cell", "fraction", "lower",
           "selection share of the slowest op's wall"),
    Metric("core.unroll_ms", "ms", "lower", "adaptive_unroll"),
    Metric("core.packing_ms", "ms", "lower",
           "the configured packer's calls"),
    Metric("core.packing_bodies", "count", "lower",
           "kernel bodies actually packed, summed over ops"),
    Metric("core.packing_packets", "count", "lower",
           "CompiledModel.total_packets summed over ops (code size)"),
    Metric("codegen.lower_ms", "ms", "lower", "lower_node"),
    Metric("codegen.lower_instructions", "count", "lower",
           "instructions in the lowered kernel bodies"),
    Metric("cache.fingerprint_ms", "ms", "lower", "kernel_fingerprint"),
    Metric("cache.lookup_ms", "ms", "lower", "ScheduleCache.lookup"),
    Metric("cache.store_ms", "ms", "lower", "ScheduleCache.put"),
    Metric("cache.memory_hits", "count", "higher",
           "lookups served by the memory tier, summed over ops"),
    Metric("cache.disk_hits", "count", "higher",
           "lookups served by the disk tier, summed over ops"),
    Metric("cache.misses", "count", "lower",
           "lookups that missed, summed over ops"),
    Metric("cache.hit_ratio", "fraction", "higher",
           "hits / lookups over the traced pass"),
    Metric("cache.disk_bytes_written", "bytes", "lower",
           "bytes the compiles left in their cache dirs, summed"),
    Metric("verify.check_ms", "ms", "lower",
           "the stage verifiers (PassManager.check)"),
    Metric("machine.schedule_cycles_ms", "ms", "lower",
           "schedule_cycles on freshly packed bodies"),
    Metric("machine.profiler_ms", "ms", "lower",
           "Profiler.observe_schedule"),
    Metric("compiler.other_ms", "ms", "lower",
           "op wall no layer span covers: node assembly, per-node "
           "CostModel construction, stage glue"),
    Metric("compiler.other_share", "fraction", "lower",
           "compiler.other_ms as a share of the op's wall"),
    Metric("compiler.stage_clock_gap", "fraction", "lower",
           "worst relative gap between a stage span and the "
           "compiler's own diagnostics.stage_seconds"),
    Metric("serve.http_shell_ms", "ms", "lower",
           "client round trip minus the ServeService.infer span: body "
           "parse, json.dumps, socket"),
    Metric("serve.service_ms", "ms", "lower",
           "ServeService.infer self time (registry, diagnostics)"),
    Metric("serve.encode_ms", "ms", "lower", "encode_arrays"),
    Metric("serve.feeds_ms", "ms", "lower", "example_feeds"),
    Metric("serve.pool_wait_ms", "ms", "lower",
           "EnginePool.infer minus run_batch: checkout and hand-back"),
    Metric("runtime.engine_batch_ms", "ms", "lower",
           "InferenceEngine.run_batch, children included"),
    Metric("runtime.engine_overhead_ms", "ms", "lower",
           "run_batch minus the emitted code's call"),
    Metric("codegen.emitted_ms", "ms", "lower",
           "the EmittedExecutor.fn call"),
    Metric("serve.response_bytes", "bytes", "lower",
           "median response body size"),
    Metric("serve.register_ms", "ms", "lower",
           "POST /models with wait, round trip"),
    Metric("serve.job_wait_ms", "ms", "lower",
           "register round trip minus its compile, pool-build and "
           "analysis spans: queue pick-up, manifest write, HTTP"),
    Metric("serve.compile_ms", "ms", "lower",
           "compile_model inside the compile job"),
    Metric("serve.pool_build_ms", "ms", "lower",
           "EnginePool.__init__ self time"),
    Metric("runtime.calibration_ms", "ms", "lower",
           "InferenceEngine.calibrate"),
    Metric("absint.analyze_ms", "ms", "lower",
           "analyze_model at registration"),
    Metric("codegen.emit_ms", "ms", "lower",
           "emit_executor, summed over register and warm-up"),
    Metric("codegen.emit_count", "count", "lower",
           "emit_executor calls (one per pool engine)"),
    Metric("codegen.emit_source_lines", "count", "lower",
           "lines of one emitted module"),
    Metric("serve.warmup_request_ms_max", "ms", "lower",
           "slowest warm-up request (carries the lazy second emit)"),
    Metric("runtime.executor_ref_ms", "ms", "lower",
           "per-sample QuantizedExecutor.run, from the reference "
           "computation"),
    Metric("codegen.speedup_vs_interpreter", "ratio", "higher",
           "runtime.executor_ref_ms / codegen.emitted_ms"),
    Metric("serve.degraded_responses", "count", "lower",
           "degradations the server recorded (/status)"),
    Metric("serve.rejections", "count", "lower",
           "admission rejections the server recorded (/status)"),
    Metric("serve.c2_ops_per_s", "1/s", "higher",
           "throughput with two closed-loop connections"),
    Metric("serve.c2_op_ms_p50", "ms", "lower",
           "median latency with two closed-loop connections"),
    Metric("trace.accounted_share", "fraction", "higher",
           "share of the op's wall that named layer spans (not the "
           "residual) account for"),
    Metric("trace.overhead_share", "fraction", "lower",
           "traced wall / untraced wall - 1"),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def payload(values: Dict[str, float], metrics: List[Metric]) -> Dict:
    """``{name: {"value", "unit"}}`` for every metric of ``metrics``.

    A per-layer metric the workload has no value for reads 0; a missing
    end-to-end metric is a bug in the workload and raises.
    """
    out = {}
    for metric in metrics:
        if metric.bound is None:
            value = values.get(metric.name, 0.0)
        else:
            value = values[metric.name]
        out[metric.name] = {"value": value, "unit": metric.unit}
    return out
