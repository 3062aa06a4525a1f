"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``models``
    List the model zoo with Table IV reference data.
``compile MODEL``
    Compile a zoo model and print its execution plans and latency.
``experiment NAME``
    Regenerate one of the paper's tables/figures (``table1`` ..
    ``figure13``) and print its rows.
``report``
    Print the full paper-vs-measured markdown report.
``describe MODEL``
    Print a model's operator mix and GEMM shape census.
``export MODEL PATH``
    Serialize a zoo model's computational graph to JSON.
``verify MODEL``
    Compile under strict verification (static analyzer included) and
    run the quantized-vs-float differential check.
``lint MODEL``
    Compile a model and run the :mod:`repro.lint` static analyzer,
    printing structured diagnostics; exits 1 when anything at or above
    ``--fail-on`` survives the suppression baseline.
``analyze MODEL``
    Compile a model and run the graph-level abstract interpretation
    (:mod:`repro.absint`): quantization value-range proofs
    (``LINT-QR*``) and the verified memory-arena plan (``LINT-MP*``).
    Same ``--fail-on``/``--baseline`` contract as ``lint``.
``codegen MODEL``
    Emit the specialized straight-line executor for a model
    (:mod:`repro.codegen.emit`), prove it bit-identical to per-sample
    execution (``verify_engine_parity``) and print
    emit-time/fingerprint/node statistics; ``--dump-source`` prints the
    generated Python, ``--profile`` times that same source node by node
    (:mod:`repro.codegen.profile`).
``tune MODEL``
    Search compiler configurations (SDA cost weights, unroll seeds,
    partition budget) against simulated cycles; ``--json`` writes the
    trial records to ``BENCH_autotune.json``.  ``tune show MODEL``
    prints the recorded leaderboard.  Winning configs feed
    ``repro verify MODEL --tuned`` and ``CompilerOptions(tuned=True)``.
``campaign {run,status,report} SPEC.json``
    Run, resume, inspect or report a tuning campaign over the
    cross-product of models × machines × strategies
    (:mod:`repro.campaign`): crash-safe resume claims only unfinished
    cells, and ``campaign report`` regenerates ``BENCH_autotune.json``
    (byte-stable) plus the cross-target ``BENCH_campaign.json`` purely
    from the campaign database.
``cache {stats,clear}``
    Inspect or empty the persistent schedule cache.
``serve``
    Run the fault-tolerant compile-and-serve HTTP service
    (:mod:`repro.serve`): model registry, async compiles on a bounded
    queue, batched inference, crash-safe warm restarts.
``chaos``
    Run the serving chaos matrix (:mod:`repro.serve.chaos`); exits 1
    if any injected fault breaks the degradation invariant.

Library failures (:class:`~repro.errors.ReproError`) and I/O errors
exit with code 1 and a one-line structured message on stderr — never a
traceback; ``--json-errors`` switches the line to the same JSON
payload the serve API returns in error bodies.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import harness
from repro.compiler import CompilerOptions, GCD2Compiler
from repro.errors import GraphError, ReproError
from repro.graph.graph import ComputationalGraph
from repro.models import MODELS, build_model, model_names

#: Experiment name -> harness callable.
EXPERIMENTS = {
    "table1": harness.table1,
    "table2": harness.table2,
    "table3": harness.table3,
    "table4": harness.table4,
    "table5": harness.table5,
    "figure7": harness.figure7,
    "figure8": harness.figure8,
    "figure9": harness.figure9,
    "figure10": harness.figure10,
    "figure11": harness.figure11,
    "figure12a": harness.figure12_single,
    "figure12b": harness.figure12_kernels,
    "figure13": harness.figure13,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GCD2 reproduction: compile DNNs for a simulated "
        "mobile DSP and regenerate the paper's evaluation.",
    )
    parser.add_argument(
        "--json-errors", action="store_true",
        help="report failures as one structured JSON object on stderr "
        "(the same payload the serve API returns in error bodies)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo")

    machines_p = sub.add_parser(
        "machines", help="list or inspect registered machine targets"
    )
    machines_sub = machines_p.add_subparsers(
        dest="machines_command", required=True
    )
    machines_sub.add_parser(
        "list", help="one line per registered machine description"
    )
    machines_show_p = machines_sub.add_parser(
        "show", help="full declarative description of one machine"
    )
    machines_show_p.add_argument(
        "name", help="registered machine name (see 'repro machines list')"
    )

    describe_p = sub.add_parser(
        "describe", help="print a model's layer/shape digest"
    )
    describe_p.add_argument("model", choices=model_names())

    compile_p = sub.add_parser("compile", help="compile a zoo model")
    compile_p.add_argument(
        "model",
        help="zoo model name or path to a graph JSON file",
    )
    compile_p.add_argument(
        "--selection",
        default="gcd2",
        choices=["gcd2", "local", "exhaustive", "pbqp", "chain"],
    )
    compile_p.add_argument(
        "--packing",
        default="sda",
        choices=["sda", "sda_pure", "soft_to_hard", "soft_to_none", "list"],
    )
    compile_p.add_argument(
        "--unrolling",
        default="adaptive",
        choices=["adaptive", "exhaustive", "outer", "mid", "none"],
    )
    compile_p.add_argument("--max-operators", type=int, default=13)
    compile_p.add_argument(
        "--no-other-opts", action="store_true",
        help="disable the division-to-LUT class of rewrites",
    )
    compile_p.add_argument(
        "--plans", action="store_true", help="print per-operator plans"
    )
    compile_p.add_argument(
        "--json", action="store_true",
        help="print the summary and the compile diagnostics as JSON",
    )
    compile_p.add_argument(
        "--cache-dir",
        help="persist packed schedules to this directory "
        "(default: $REPRO_CACHE_DIR if set, else memory-only)",
    )
    compile_p.add_argument(
        "--machine",
        help="registered machine description to compile for "
        "(default: hexagon698; see 'repro machines list')",
    )

    exp_p = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS))
    exp_p.add_argument(
        "--chart", action="store_true",
        help="also render the figure as an ASCII bar chart",
    )

    sub.add_parser("report", help="print the markdown report")

    export_p = sub.add_parser("export", help="serialize a model graph")
    export_p.add_argument("model", choices=model_names())
    export_p.add_argument("path")

    verify_p = sub.add_parser(
        "verify",
        help="compile under strict verification and run the "
        "quantized-vs-float differential check",
    )
    verify_p.add_argument(
        "model",
        help="zoo model name or path to a graph JSON file",
    )
    verify_p.add_argument(
        "--seed", type=int, default=0,
        help="seed for the synthetic weights/inputs of the check",
    )
    verify_p.add_argument(
        "--cache-dir",
        help="persist packed schedules to this directory "
        "(default: $REPRO_CACHE_DIR if set, else memory-only)",
    )
    verify_p.add_argument(
        "--tuned", action="store_true",
        help="compile with the best configuration the autotuner has "
        "recorded for this model (see 'repro tune')",
    )
    verify_p.add_argument(
        "--machine",
        help="registered machine description to compile for "
        "(default: hexagon698; see 'repro machines list')",
    )

    tune_p = sub.add_parser(
        "tune",
        help="autotune compiler configuration against simulated cycles",
    )
    tune_p.add_argument(
        "model",
        help="zoo model name, or 'show' to display recorded trials",
    )
    tune_p.add_argument(
        "target", nargs="?",
        help="model name when the first argument is 'show'",
    )
    tune_p.add_argument(
        "--trials", type=int, default=8,
        help="configurations to evaluate, including the default "
        "baseline as trial 0 (default: 8)",
    )
    tune_p.add_argument(
        "--strategy", default="random",
        choices=["grid", "random", "halving"],
        help="search strategy (default: random)",
    )
    tune_p.add_argument(
        "--seed", type=int, default=0,
        help="seed for the proposal RNG (default: 0)",
    )
    tune_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes evaluating trials concurrently; the "
        "recorded trials are bit-identical to --jobs 1",
    )
    tune_p.add_argument(
        "--wall-seconds", type=float, default=None,
        help="stop proposing new evaluation batches after this much "
        "wall-clock time",
    )
    tune_p.add_argument(
        "--json", action="store_true",
        help="write the trial records as JSON (see --output)",
    )
    tune_p.add_argument(
        "--output", default="BENCH_autotune.json",
        help="JSON output path (default: BENCH_autotune.json)",
    )
    tune_p.add_argument(
        "--cache-dir",
        help="root for the trial database and the shared schedule "
        "cache (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    tune_p.add_argument(
        "--limit", type=int, default=10,
        help="leaderboard rows to print (default: 10)",
    )
    tune_p.add_argument(
        "--machine",
        help="registered machine description to compile for "
        "(default: hexagon698; see 'repro machines list')",
    )

    campaign_p = sub.add_parser(
        "campaign",
        help="run, resume and report tuning campaigns over "
        "models x machines x strategies",
    )
    campaign_sub = campaign_p.add_subparsers(
        dest="campaign_command", required=True
    )
    campaign_run_p = campaign_sub.add_parser(
        "run",
        help="execute (or resume) every unfinished cell of a campaign",
    )
    campaign_status_p = campaign_sub.add_parser(
        "status", help="print per-cell campaign state"
    )
    campaign_report_p = campaign_sub.add_parser(
        "report",
        help="regenerate BENCH artefacts from the campaign database",
    )
    for campaign_cmd_p in (
        campaign_run_p, campaign_status_p, campaign_report_p
    ):
        campaign_cmd_p.add_argument(
            "spec", help="campaign spec JSON path (see docs/CAMPAIGNS.md)"
        )
        campaign_cmd_p.add_argument(
            "--cache-dir",
            help="root for the shared trial database and schedule "
            "cache (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )
        campaign_cmd_p.add_argument(
            "--campaign-dir",
            help="campaign state directory (default: "
            "<cache>/campaigns/<spec fingerprint>)",
        )
    campaign_run_p.add_argument(
        "--jobs", type=int, default=1,
        help="cells executed concurrently (each cell's search runs "
        "single-process underneath; default: 1)",
    )
    campaign_run_p.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign (the default behaviour: "
        "done/error cells are never re-claimed)",
    )
    campaign_run_p.add_argument(
        "--fresh", action="store_true",
        help="discard recorded campaign state and start over",
    )
    campaign_report_p.add_argument(
        "--output", default="BENCH_autotune.json",
        help="byte-stable autotune artefact path "
        "(default: BENCH_autotune.json)",
    )
    campaign_report_p.add_argument(
        "--campaign-output", default="BENCH_campaign.json",
        help="cross-target campaign table path "
        "(default: BENCH_campaign.json)",
    )

    lint_p = sub.add_parser(
        "lint",
        help="run the static analyzer over a compiled model",
    )
    lint_p.add_argument(
        "model",
        help="zoo model name or path to a graph JSON file",
    )
    lint_p.add_argument(
        "--selection",
        default="gcd2",
        choices=["gcd2", "local", "exhaustive", "pbqp", "chain"],
    )
    lint_p.add_argument(
        "--packing",
        default="sda",
        choices=["sda", "sda_pure", "soft_to_hard", "soft_to_none", "list"],
    )
    lint_p.add_argument(
        "--fail-on",
        default="error",
        choices=["info", "warning", "error"],
        help="lowest severity that fails the command (default: error)",
    )
    lint_p.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report format",
    )
    lint_p.add_argument(
        "--baseline",
        help="suppression baseline JSON; matching diagnostics are "
        "dropped before --fail-on applies",
    )
    lint_p.add_argument(
        "--write-baseline",
        help="capture the current diagnostics into a baseline file "
        "and exit 0",
    )
    lint_p.add_argument(
        "--machine",
        help="registered machine description to compile for "
        "(default: hexagon698; see 'repro machines list')",
    )

    analyze_p = sub.add_parser(
        "analyze",
        help="graph-level abstract interpretation: quantization range "
        "proofs and the verified memory-arena plan",
    )
    analyze_p.add_argument(
        "model",
        help="zoo model name or path to a graph JSON file",
    )
    analyze_p.add_argument(
        "--selection",
        default="gcd2",
        choices=["gcd2", "local", "exhaustive", "pbqp", "chain"],
    )
    analyze_p.add_argument(
        "--packing",
        default="sda",
        choices=["sda", "sda_pure", "soft_to_hard", "soft_to_none", "list"],
    )
    analyze_p.add_argument(
        "--samples",
        type=int,
        default=2,
        help="calibration sample feeds to freeze bounds from "
        "(default: 2)",
    )
    analyze_p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="weight seed for the analyzed executor (default: 0)",
    )
    analyze_p.add_argument(
        "--calibration",
        help="JSON file of node-name -> abs-max bound overriding the "
        "sampled calibration (for auditing externally measured "
        "ranges)",
    )
    analyze_p.add_argument(
        "--fail-on",
        default="error",
        choices=["info", "warning", "error"],
        help="lowest severity that fails the command (default: error)",
    )
    analyze_p.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report format",
    )
    analyze_p.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )
    analyze_p.add_argument(
        "--baseline",
        help="suppression baseline JSON; matching diagnostics are "
        "dropped before --fail-on applies",
    )
    analyze_p.add_argument(
        "--write-baseline",
        help="capture the current diagnostics into a baseline file "
        "and exit 0",
    )
    analyze_p.add_argument(
        "--machine",
        help="registered machine description to compile for "
        "(default: hexagon698; see 'repro machines list')",
    )

    codegen_p = sub.add_parser(
        "codegen",
        help="emit + parity-gate the specialized per-model executor",
    )
    codegen_p.add_argument(
        "model",
        help="zoo model name or path to a graph JSON file",
    )
    codegen_p.add_argument(
        "--requests", type=int, default=4,
        help="parity-gate batch size (default: 4)",
    )
    codegen_p.add_argument(
        "--dump-source", action="store_true",
        help="print the emitted Python source",
    )
    codegen_p.add_argument(
        "--profile", action="store_true",
        help="time the same emitted source node by node at batch 1 "
        "and print median ms per op type and the ten slowest nodes",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the fault-tolerant compile-and-serve HTTP service",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_p.add_argument(
        "--port", type=int, default=8173,
        help="bind port (0 picks a free one; default: 8173)",
    )
    serve_p.add_argument(
        "--cache-dir",
        help="schedule cache + registration manifest root "
        "(default: $REPRO_CACHE_DIR if set, else memory-only and "
        "no warm restart)",
    )
    serve_p.add_argument(
        "--graph-root",
        help="directory path-based model sources may resolve inside "
        "(default: path sources disabled; zoo model names only)",
    )
    serve_p.add_argument(
        "--compile-workers", type=int, default=1,
        help="compile worker threads (default: 1)",
    )
    serve_p.add_argument(
        "--queue-capacity", type=int, default=8,
        help="bounded compile-queue depth before 429s (default: 8)",
    )
    serve_p.add_argument(
        "--deadline", type=float, default=None,
        help="default per-request deadline in seconds",
    )
    serve_p.add_argument(
        "--pool-size", type=int, default=2,
        help="concurrent infers per ready model (default: 2)",
    )
    serve_p.add_argument(
        "--cold", action="store_true",
        help="skip the manifest replay (start with no models)",
    )

    chaos_p = sub.add_parser(
        "chaos", help="run the serving chaos matrix"
    )
    chaos_p.add_argument(
        "scenario", nargs="*",
        help="scenario names (default: the whole matrix)",
    )
    chaos_p.add_argument(
        "--json", action="store_true",
        help="print results as JSON rows",
    )

    cache_p = sub.add_parser(
        "cache", help="persistent schedule-cache maintenance"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "print entry counts, sizes and generations"),
        ("clear", "delete every cached schedule"),
    ):
        cache_cmd_p = cache_sub.add_parser(name, help=help_text)
        cache_cmd_p.add_argument(
            "--cache-dir",
            help="cache root (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro)",
        )
        cache_cmd_p.add_argument(
        "--machine",
        help="registered machine description to compile for "
        "(default: hexagon698; see 'repro machines list')",
        )

    return parser


def _resolve_graph(spec: str) -> ComputationalGraph:
    """A graph from a zoo model name or a serialized-graph JSON path."""
    if spec in MODELS:
        return build_model(spec)
    if spec.endswith(".json") or "/" in spec:
        from repro.graph.serialization import load_graph

        return load_graph(spec)
    raise GraphError(
        f"unknown model {spec!r}",
        details={"known_models": ", ".join(model_names())},
    )


def _cmd_models() -> int:
    print(f"{'model':18s} {'type':12s} {'GMACs':>8s} {'ops':>5s} "
          f"{'paper GCD2 ms':>14s}")
    for name in model_names():
        info = MODELS[name]
        graph = build_model(name)
        print(f"{name:18s} {info.model_type:12s} "
              f"{graph.total_macs() / 1e9:8.2f} "
              f"{graph.operator_count():5d} {info.gcd2_ms:14.1f}")
    return 0


def _cli_machine(args):
    """The --machine value, if the command grew the flag."""
    return getattr(args, "machine", None)


def _cmd_machines(args) -> int:
    """List registered machine targets or show one in full."""
    import json

    from repro.cache.fingerprint import schema_hash
    from repro.machine.description import get_machine, machine_names

    if args.machines_command == "show":
        desc = get_machine(args.name)
        payload = desc.to_dict()
        payload["schema_hash"] = schema_hash(desc)
        payload["peak_macs_per_cycle"] = desc.peak_macs_per_cycle
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{'machine':12s} {'slots':>5s} {'vbytes':>6s} {'stores':>6s} "
          f"{'GHz':>5s} {'ctx':>3s} {'peak MACs':>9s}  schema")
    for name in machine_names():
        desc = get_machine(name)
        print(f"{name:12s} {desc.max_packet_slots:5d} "
              f"{desc.vector_bytes:6d} {desc.max_stores_per_packet:6d} "
              f"{desc.clock_ghz:5.2f} {desc.vector_contexts:3d} "
              f"{desc.peak_macs_per_cycle:9d}  "
              f"{schema_hash(desc)[:16]}")
    return 0


def _cli_cache_dir(args):
    """Disk cache root for compile-style commands.

    Explicit ``--cache-dir`` wins; otherwise ``$REPRO_CACHE_DIR`` opts
    the whole CLI into persistence.  Unset means memory-only, so plain
    compiles never write into the user's home directory.
    """
    import os

    return getattr(args, "cache_dir", None) or \
        os.environ.get("REPRO_CACHE_DIR") or None


def _cmd_compile(args) -> int:
    options = CompilerOptions(
        selection=args.selection,
        packing=args.packing,
        unrolling=args.unrolling,
        max_operators=args.max_operators,
        other_opts=not args.no_other_opts,
        cache_dir=_cli_cache_dir(args),
        machine=_cli_machine(args),
    )
    graph = _resolve_graph(args.model)
    compiled = GCD2Compiler(options).compile(graph)
    dispatch = (
        compiled.graph.operator_count() * harness.GCD2_DISPATCH_US / 1e3
    )
    if args.json:
        import json

        payload = {
            "model": args.model,
            "machine": compiled.machine.name,
            "operators": compiled.graph.operator_count(),
            "selection": {
                "solver": compiled.selection.solver,
                "solve_seconds": compiled.selection.solve_seconds,
                "agg_cost_cycles": compiled.selection.cost,
                "expansions": compiled.selection.expansions,
            },
            "latency_ms": compiled.latency_ms + dispatch,
            "total_cycles": compiled.total_cycles,
            "total_packets": compiled.total_packets,
            "diagnostics": compiled.diagnostics.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{args.model}: {compiled.graph.operator_count()} operators "
          f"after graph passes (machine {compiled.machine.name})")
    print(f"selection: {compiled.selection.solver} "
          f"({compiled.selection.solve_seconds:.2f}s, "
          f"Agg_Cost {compiled.selection.cost:.0f} cycles)")
    print(f"latency: {compiled.latency_ms + dispatch:.2f} ms modelled "
          f"({compiled.total_packets} packets across kernel bodies)")
    for record in compiled.diagnostics.fallbacks:
        print(f"fallback: {record}")
    if args.plans:
        for cn in compiled.nodes:
            if cn.node.op.is_compute_heavy:
                print(f"  {cn.node.name:28s} {cn.plan.label:20s} "
                      f"unroll {cn.unroll.label}")
    return 0


def _cmd_experiment(name: str, chart: bool = False) -> int:
    rows = EXPERIMENTS[name]()
    harness.print_rows(name, rows)
    if chart:
        from repro.analysis.visualize import render_figure

        rendering = render_figure(name, rows)
        if rendering:
            print(rendering)
        else:
            print(f"(no chart mapping for {name}; table above is the view)")
    return 0


def _cmd_report() -> int:
    from repro.analysis.report import build_report

    print(build_report())
    return 0


def _cmd_export(args) -> int:
    from repro.graph.serialization import save_graph

    graph = build_model(args.model)
    save_graph(graph, args.path)
    print(f"wrote {args.model} ({graph.operator_count()} operators) "
          f"to {args.path}")
    return 0


def _cmd_verify(args) -> int:
    """Strict compile with all verifiers, then the differential check."""
    import numpy as np

    from repro.graph.execute import ReferenceExecutor
    from repro.runtime.executor import QuantizedExecutor

    from repro.compiler import compile_model

    graph = _resolve_graph(args.model)
    options = CompilerOptions(
        strict=True, verify=True, lint=True,
        cache_dir=_cli_cache_dir(args),
        tuned=getattr(args, "tuned", False),
        machine=_cli_machine(args),
    )
    compiled = compile_model(graph, options)
    print(f"{args.model}: compiled clean under strict verification "
          f"({compiled.graph.operator_count()} operators, "
          f"machine {compiled.machine.name})")
    for line in compiled.diagnostics.summary_lines():
        print(f"  {line}")

    # Small GEMMs exercise the actual instruction kernels; the rest run
    # through the bit-identical direct product so ImageNet-sized models
    # stay tractable.
    quantized = QuantizedExecutor(
        compiled, seed=args.seed, kernel_mac_limit=1_000_000
    ).run()
    reference = ReferenceExecutor(compiled.graph, seed=args.seed).run()
    max_error = 0.0
    for name in reference:
        ref = reference[name]
        got = quantized[name]
        scale = max(1e-6, float(np.abs(ref).max()))
        max_error = max(
            max_error, float(np.abs(got - ref).max()) / scale
        )
    print(f"differential check: {len(reference)} output(s), "
          f"max quantization error {max_error:.4f} "
          f"(relative to output range)")
    return 0


def _cmd_lint(args) -> int:
    """Compile, run the static analyzer, report, apply the baseline."""
    from repro.lint import (
        Severity,
        baseline_from_report,
        lint_model,
        load_baseline,
        render,
        save_baseline,
    )

    graph = _resolve_graph(args.model)
    options = CompilerOptions(
        selection=args.selection, packing=args.packing,
        machine=_cli_machine(args),
    )
    compiled = GCD2Compiler(options).compile(graph)
    report = lint_model(compiled)

    if args.write_baseline:
        save_baseline(args.write_baseline, baseline_from_report(report))
        print(f"wrote {len(report)} suppression(s) to "
              f"{args.write_baseline}")
        return 0

    if args.baseline:
        report = report.suppress(load_baseline(args.baseline))

    print(render(report, args.format))
    threshold = Severity.parse(args.fail_on)
    failing = report.at_least(threshold)
    if failing:
        print(
            f"lint: {len(failing)} diagnostic(s) at or above "
            f"{threshold} — failing",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_analyze(args) -> int:
    """Compile, run the graph-level analyses, report, gate."""
    import json

    from repro.absint.analyze import analyze_model
    from repro.lint import (
        Severity,
        baseline_from_report,
        load_baseline,
        render,
        save_baseline,
    )

    graph = _resolve_graph(args.model)
    options = CompilerOptions(
        selection=args.selection, packing=args.packing,
        machine=_cli_machine(args),
    )
    compiled = GCD2Compiler(options).compile(graph)

    calibration = None
    if args.calibration:
        from repro.runtime.calibration import FrozenCalibration

        with open(args.calibration, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        name_to_id = {
            node.name: node.node_id for node in compiled.graph
        }
        bounds = {}
        for name, bound in payload.items():
            if name not in name_to_id:
                raise GraphError(
                    f"calibration file names unknown node {name!r}",
                    details={"file": args.calibration},
                )
            bounds[name_to_id[name]] = float(bound)
        calibration = FrozenCalibration(bounds=bounds, samples=0)

    analysis = analyze_model(
        compiled,
        calibration,
        seed=args.seed,
        samples=args.samples,
    )
    report = analysis.report

    if args.write_baseline:
        save_baseline(args.write_baseline, baseline_from_report(report))
        print(f"wrote {len(report)} suppression(s) to "
              f"{args.write_baseline}")
        return 0

    if args.baseline:
        report = report.suppress(load_baseline(args.baseline))
        analysis.report = report

    if args.json or args.format == "json":
        print(json.dumps(analysis.to_dict(), indent=2, sort_keys=True))
    else:
        summary = analysis.summary()
        proved = summary["proved"]
        print(f"{summary['model']}: {summary['nodes']} nodes analyzed")
        print(
            f"arena: {summary['arena_bytes']} bytes, "
            f"{summary['arena_slots']} slots, "
            f"reuse x{summary['arena_reuse']}"
        )
        for claim, held in sorted(proved.items()):
            print(f"  {'proved' if held else 'FAILED'}: {claim}")
        print(render(report, "text"))
    threshold = Severity.parse(args.fail_on)
    failing = report.at_least(threshold)
    if failing:
        print(
            f"analyze: {len(failing)} diagnostic(s) at or above "
            f"{threshold} — failing",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_codegen(args) -> int:
    """Emit the specialized executor, prove parity, print the stats."""
    from repro.harness import example_feeds
    from repro.runtime import InferenceEngine
    from repro.verify.runtime import (
        RuntimeVerificationError,
        verify_engine_parity,
    )

    graph = _resolve_graph(args.model)
    compiled = GCD2Compiler(CompilerOptions()).compile(graph)
    engine = InferenceEngine(compiled)
    feeds_list = example_feeds(compiled.graph, count=args.requests)
    engine.calibrate(example_feeds(compiled.graph, count=2, seed=99))
    emitted = engine.emitted()
    if emitted is None:
        print(
            f"emission FAILED (engine degraded to interpreter): "
            f"{engine.emission_error}",
            file=sys.stderr,
        )
        return 1
    try:
        parity = verify_engine_parity(engine, feeds_list)
    except RuntimeVerificationError as exc:
        print(f"parity gate FAILED: {exc}", file=sys.stderr)
        return 1
    total = emitted.stacked_nodes + emitted.sample_nodes
    print(f"model:        {args.model}")
    print(f"fingerprint:  {emitted.fingerprint}")
    print(f"emit time:    {emitted.emit_ms:.1f} ms")
    print(
        f"source:       {len(emitted.source.splitlines())} lines "
        f"({len(emitted.source)} bytes)"
    )
    print(
        f"nodes:        {total} ({emitted.stacked_nodes} batched, "
        f"{emitted.sample_nodes} per-sample)"
    )
    print(
        f"parity:       OK ({parity['samples']} samples, "
        f"{parity['outputs']} outputs bit-identical)"
    )
    if args.profile:
        _print_codegen_profile(emitted, feeds_list[:1])
    if args.dump_source:
        print()
        print(emitted.source)
    return 0


def _print_codegen_profile(emitted, feeds_list) -> None:
    """Where one request's time goes inside the emitted function."""
    from repro.codegen.profile import profile_emitted

    report = profile_emitted(emitted, feeds_list)
    timed = report["timed_ms"]
    print(
        f"request:      {report['untimed_ms']:.1f} ms (batch "
        f"{report['batch']}, median of {report['calls']} calls; "
        f"{timed:.1f} ms with the per-node clock reads)"
    )
    print()
    by_op = sorted(
        report["by_op"].items(), key=lambda item: -item[1]["ms"]
    )
    harness.print_rows(
        "emitted code by op type",
        [
            {
                "op": op,
                "nodes": entry["nodes"],
                "ms": entry["ms"],
                "share": f"{100.0 * entry['ms'] / timed:.1f}%",
            }
            for op, entry in by_op
        ],
    )
    slowest = sorted(report["nodes"], key=lambda row: -row["ms"])[:10]
    harness.print_rows("ten slowest nodes", slowest)


def _cmd_tune_show(args) -> int:
    """Display the recorded trials and the winner for one model."""
    from repro.tune import TrialDB, default_tune_dir, leaderboard

    if not args.target:
        print(
            "error: 'repro tune show' needs a model name",
            file=sys.stderr,
        )
        return 2
    if args.target not in MODELS:
        _resolve_graph(args.target)  # structured unknown-model error
    from repro.tune import DEFAULT_TRIAL_CONFIG

    db = TrialDB(
        default_tune_dir(_cli_cache_dir(args)),
        machine=_cli_machine(args),
    )
    records = db.records(model=args.target)
    if not records:
        print(f"no recorded trials for {args.target} under {db.path}")
        return 0
    best = db.best(args.target)
    full = [r for r in records if r.full_fidelity]
    default_fp = DEFAULT_TRIAL_CONFIG.fingerprint
    baseline_cycles = next(
        (r.cycles for r in full
         if r.ok and r.fingerprint == default_fp),
        None,
    )
    harness.print_rows(
        f"recorded trials: {args.target}",
        leaderboard(
            full, limit=args.limit, baseline_cycles=baseline_cycles
        ),
    )
    machines = sorted({r.machine for r in records if r.machine})
    machine_note = f", machine {'/'.join(machines)}" if machines else ""
    print(f"{len(records)} trial(s) recorded "
          f"({len(records) - len(full)} partial-fidelity"
          f"{machine_note})")
    if best is not None:
        best_machine = f", machine {best.machine}" if best.machine else ""
        print(f"best: {best.fingerprint[:16]} "
              f"({best.cycles:.0f} simulated cycles, "
              f"strategy {best.strategy}, seed {best.seed}"
              f"{best_machine})")
    return 0


def _cmd_tune(args) -> int:
    """Search compiler configurations against simulated cycles."""
    from repro.tune import leaderboard, run_search, tune_schema_hash

    if args.model == "show":
        return _cmd_tune_show(args)
    if args.model not in MODELS:
        _resolve_graph(args.model)  # structured unknown-model error

    result = run_search(
        args.model,
        strategy=args.strategy,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=_cli_cache_dir(args),
        wall_seconds=args.wall_seconds,
        machine=_cli_machine(args),
    )
    baseline = result.baseline
    best = result.best
    harness.print_rows(
        f"autotune: {args.model} ({args.strategy}, seed {args.seed})",
        leaderboard(
            result.full_records,
            limit=args.limit,
            baseline_cycles=baseline.cycles if baseline else None,
        ),
    )
    if result.truncated:
        print("search truncated by --wall-seconds")
    if best is not None and baseline is not None:
        print(f"best: {best.fingerprint[:16]} "
              f"({best.cycles:.0f} simulated cycles, "
              f"{result.speedup:.4f}x over default)")
    elif best is not None:
        print(f"best: {best.fingerprint[:16]} "
              f"({best.cycles:.0f} simulated cycles)")
    else:
        print("no trial compiled successfully")

    if args.json:
        # Everything in the payload is a pure function of (model,
        # space, strategy, seed, trials): no wall-clock fields, no
        # worker counts — reruns and jobs=N produce identical bytes.
        harness.write_bench_json(
            args.output,
            "autotune",
            [r.to_payload() for r in result.records],
            model=args.model,
            strategy=args.strategy,
            seed=args.seed,
            trials=args.trials,
            space_size=result.space_size,
            schema=tune_schema_hash(_cli_machine(args))[:16],
            baseline_cycles=baseline.cycles if baseline else None,
            best_fingerprint=best.fingerprint if best else None,
            best_cycles=best.cycles if best else None,
            speedup=result.speedup,
        )
        print(f"wrote {len(result.records)} trial(s) to {args.output}")
    return 0


def _cmd_campaign(args) -> int:
    """Fleet-scale tuning campaigns: run / status / report."""
    from repro.campaign import (
        CampaignDB,
        CampaignSpec,
        campaign_report,
        default_campaign_dir,
        run_campaign,
    )

    spec = CampaignSpec.load(args.spec)
    cache_dir = _cli_cache_dir(args)
    campaign_dir = args.campaign_dir or default_campaign_dir(
        cache_dir, spec.fingerprint
    )

    if args.campaign_command == "run":
        summary = run_campaign(
            spec,
            campaign_dir=campaign_dir,
            cache_dir=cache_dir,
            jobs=args.jobs,
            fresh=args.fresh,
            progress=print,
        )
        print(
            f"campaign {summary['fingerprint'][:16]}: "
            f"{summary['done']} done, {summary['error']} error, "
            f"{summary['skipped']} previously finished "
            f"(state: {summary['campaign_dir']})"
        )
        return 1 if summary["error"] else 0

    if args.campaign_command == "status":
        db = CampaignDB(campaign_dir)
        states = db.cell_states(spec)
        rows = []
        for key in spec.cells():
            state = states[key.cell_id]
            rows.append({
                "model": key.model,
                "machine": key.machine,
                "strategy": key.strategy,
                "status": state["status"],
                "best_cycles": state.get("best_cycles"),
                "speedup": state.get("speedup"),
                "wall": state.get("wall_bucket"),
                "error": state.get("error"),
            })
        harness.print_rows(
            f"campaign {spec.fingerprint[:16]}", rows
        )
        stats = db.stats(spec)
        print(
            f"{stats['cells']} cell(s): {stats['done']} done, "
            f"{stats['error']} error, {stats['running']} interrupted, "
            f"{stats['pending']} pending "
            f"({stats['skipped_lines']} corrupt line(s) skipped)"
        )
        return 0

    out = campaign_report(
        spec,
        campaign_dir=campaign_dir,
        cache_dir=cache_dir,
        autotune_path=args.output,
        campaign_path=args.campaign_output,
    )
    print(
        f"wrote {len(out['autotune'])} row(s) to {args.output}"
    )
    print(
        f"wrote {len(out['campaign'])} row(s) to "
        f"{args.campaign_output}"
    )
    return 0


def _cmd_cache(args) -> int:
    """Persistent-cache maintenance: ``stats`` and ``clear``."""
    from repro.cache import DiskStore, default_cache_dir, schema_hash

    machine = _cli_machine(args)
    root = args.cache_dir or str(default_cache_dir())
    store = DiskStore(root, machine=machine)
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"cleared {removed} cached schedule(s) from {root}")
        return 0
    generations = store.generations()
    current = schema_hash(machine)[:16]
    print(f"cache root: {root}")
    print(f"current schema: {current}")
    print(f"entries (current schema): {store.entry_count()}")
    print(f"total size: {store.total_bytes()} bytes")
    for generation in generations:
        marker = " (current)" if generation == current else " (stale)"
        print(f"generation {generation}{marker}")
    if not generations:
        print("generations: none")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, ServeServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir or os.environ.get("REPRO_CACHE_DIR"),
        graph_root=args.graph_root,
        compile_workers=args.compile_workers,
        queue_capacity=args.queue_capacity,
        default_deadline_s=args.deadline,
        pool_size=args.pool_size,
    )
    server = ServeServer(config)
    print(f"serving on {server.url}")
    if config.cache_dir:
        print(f"cache + manifest root: {config.cache_dir}")
    else:
        print("no cache dir: schedules are memory-only, restarts are cold")
    server.serve_forever(warm=not args.cold)
    return 0


def _cmd_chaos(args) -> int:
    from repro.serve.chaos import main as chaos_main

    argv = list(args.scenario)
    if args.json:
        argv.append("--json")
    return chaos_main(argv)


def _dispatch(args) -> int:
    if args.command == "models":
        return _cmd_models()
    if args.command == "machines":
        return _cmd_machines(args)
    if args.command == "describe":
        from repro.models.summary import render_summary, summarize_model

        print(render_summary(summarize_model(args.model)))
        return 0
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "experiment":
        return _cmd_experiment(args.name, args.chart)
    if args.command == "report":
        return _cmd_report()
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "codegen":
        return _cmd_codegen(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    return 2  # pragma: no cover - argparse enforces choices


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors surface as one structured line on stderr (exit 1)
    instead of a traceback; with ``--json-errors`` the line is the
    same machine-readable :meth:`~repro.errors.ReproError.to_dict`
    payload the serve API puts in its error bodies.
    """
    import json

    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        if args.json_errors:
            print(json.dumps(exc.to_dict()), file=sys.stderr)
        else:
            print(
                f"error: {type(exc).__name__}: {exc}", file=sys.stderr
            )
        return 1
    except OSError as exc:
        if args.json_errors:
            payload = {
                "error": type(exc).__name__,
                "code": "os-error",
                "message": str(exc),
                "stage": None,
                "node": None,
                "details": {},
            }
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
