#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py                      # everything
    python3 benchmarks/e2e/run.py --workload serve_cnn --seed 3
    python3 benchmarks/e2e/run.py --smoke              # < 25 s
    python3 benchmarks/e2e/run.py --check-repeat       # two sets, compared

Without ``--trace`` each workload runs twice: untraced for the
end-to-end metrics, then traced for the per-layer ones.  With
``--workload W --seed N --seconds S --trace 0|1`` it makes exactly one
run and ends its output with one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``) — the form ``BENCHMARK.json``
names.  Exit status is non-zero when any check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "repro" / "compiler.py").is_file():
    sys.exit(f"run.py: no program to measure: {SRC / 'repro'} is missing")
# The script's directory leaves sys.path (its trace.py would shadow the
# standard library's); the program and this package come in.
if sys.path and Path(sys.path[0]).resolve() == HERE:
    sys.path.pop(0)
sys.path[:0] = [str(SRC), str(HERE.parent)]

from e2e import compile_workloads, metrics, serve_workloads  # noqa: E402
from e2e.result import Outcome  # noqa: E402

WORKLOADS = ("compile_cold", "compile_warm", "serve_cnn", "serve_decoder")
#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 15
SMOKE_SECONDS = 3


def environment(seed: int) -> Dict[str, object]:
    """What a result block records about where it was measured."""
    import numpy

    from repro.cache.fingerprint import schema_hash
    from repro.machine.description import machine_names

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "git_commit": commit,
        "seed": seed,
        "machine_schema_hashes": {
            name: schema_hash(name)[:16] for name in machine_names()
        },
    }


def run_one(
    workload: str, traced: bool, seed: int, seconds: float, smoke: bool,
    env: Dict[str, object],
) -> Outcome:
    """One run of one workload, in a workspace that does not outlive it."""
    OUT.mkdir(exist_ok=True)
    workspace = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    started = time.perf_counter()
    try:
        if workload.startswith("compile"):
            warm = workload == "compile_warm"
            if traced:
                outcome = compile_workloads.run_traced(
                    warm, seed, workspace, str(OUT), smoke, env
                )
            else:
                outcome = compile_workloads.run_timed(
                    warm, seed, seconds, workspace, str(SRC), smoke
                )
        elif traced:
            outcome = serve_workloads.run_traced(
                workload, seed, seconds, workspace, str(SRC), str(OUT), env
            )
        else:
            outcome = serve_workloads.run_timed(
                workload, seed, seconds, workspace, str(SRC), smoke
            )
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    outcome.notes["wall_s"] = round(time.perf_counter() - started, 2)
    return outcome


def report(outcome: Outcome, traced: bool, smoke: bool) -> Dict:
    """Print one run, every metric by name with its unit; return its
    contract-shaped result."""
    table = metrics.PER_LAYER if traced else metrics.END_TO_END
    flag = " [smoke: not a baseline]" if smoke else ""
    print(
        f"\n== {outcome.workload} · "
        f"{'traced (per-layer)' if traced else 'untraced (end-to-end)'}"
        f"{flag} =="
    )
    if outcome.correct:
        result_metrics = metrics.payload(outcome.values, table)
        for metric in table:
            if metric.name not in outcome.values:
                continue  # a layer this workload never enters: 0
            value = result_metrics[metric.name]["value"]
            bound = (
                f"  [may worsen {metric.bound:.2%}]"
                if metric.bound is not None
                else ""
            )
            print(f"  {metric.name:34s} {value:16.6g} {metric.unit:9s}{bound}")
    else:
        result_metrics = {}
    print(
        f"  {'failed_share':34s} {outcome.failed_share:16.6g} "
        f"{'fraction':9s}  ({outcome.failed} of {outcome.attempted} ops)"
    )
    print(f"  {'latency samples':34s} {outcome.samples:16d}")
    for key, value in outcome.notes.items():
        print(f"  note: {key} = {value}")
    for reason in outcome.reasons:
        print(f"  FAILED OP: {reason}")
    for violation in outcome.violations:
        print(f"  FAILED CHECK: {violation}")
    return {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": result_metrics,
    }


def record_of(
    workload: str, traced: bool, seed: int, seconds: float, smoke: bool
) -> Dict:
    """Make one run in this process; print it; return its record."""
    env = environment(seed)
    outcome = run_one(workload, traced, seed, seconds, smoke, env)
    return {
        "workload": workload,
        "traced": traced,
        "smoke": smoke,
        "seconds": seconds,
        "environment": env,
        "samples": outcome.samples,
        "notes": outcome.notes,
        "result": report(outcome, traced, smoke),
    }


def run_set(
    workloads: List[str], modes: List[bool], seed: int, seconds: float,
    smoke: bool,
) -> List[Dict]:
    """Every workload in every mode, each run in a process of its own —
    the way the driver makes them, so peak memory and warm code paths
    of one run never reach the next."""
    OUT.mkdir(exist_ok=True)
    records = []
    for workload in workloads:
        for traced in modes:
            handle, path = tempfile.mkstemp(suffix=".json", dir=OUT)
            os.close(handle)
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced)),
                "--json", path,
            ] + (["--smoke"] if smoke else [])
            try:
                # The child's report is this command's report, less its
                # closing result line (the records carry that).  Its
                # exit status is not read: a failed run is a record
                # with ``correct: false``, kept and counted below.
                child = subprocess.run(
                    command, check=False, stdout=subprocess.PIPE, text=True
                )
                print(child.stdout.rstrip().rpartition("\n")[0], flush=True)
                with open(path) as source:
                    records += json.load(source)
            except ValueError:
                records.append(
                    {
                        "workload": workload, "traced": traced,
                        "result": {
                            "correct": False, "attempted": 1,
                            "failed": 1, "metrics": {},
                        },
                    }
                )
            finally:
                os.unlink(path)
    return records


def repeat_gaps(first: List[Dict], second: List[Dict]) -> List[str]:
    """End-to-end metrics of two sets that differ by more than their
    own bound."""
    gaps = []
    for a, b in zip(first, second):
        for metric in metrics.END_TO_END:
            x = a["result"]["metrics"].get(metric.name, {}).get("value")
            y = b["result"]["metrics"].get(metric.name, {}).get("value")
            if x is None or y is None:
                gaps.append(f"{a['workload']} {metric.name}: missing")
                continue
            gap = abs(y - x) / abs(x)
            verdict = "ok" if gap <= metric.bound else "DIFFERS"
            print(
                f"  {a['workload']:14s} {metric.name:24s} "
                f"{x:14.6g} {y:14.6g}  gap {gap:8.3%} "
                f"(bound {metric.bound:.2%}) {verdict}"
            )
            if gap > metric.bound:
                gaps.append(f"{a['workload']} {metric.name}: {gap:.3%}")
    return gaps


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"measuring time of a run (default {DEFAULT_SECONDS}, "
        f"smoke {SMOKE_SECONDS})",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: the untraced run only; 1: the traced run only; "
        "default: both",
    )
    parser.add_argument("--json", metavar="OUT", help="write the records")
    parser.add_argument(
        "--smoke", action="store_true",
        help="3 models x 1 machine x 1 pass, 3 s serve phases, untraced; "
        "same gates, numbers are not baselines",
    )
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run the untraced set twice and fail if an end-to-end "
        "metric differs by more than its bound",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    # SIGTERM unwinds like Ctrl-C, so servers die and workspaces go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        modes = [bool(args.trace)]
    elif args.smoke or args.check_repeat:
        modes = [False]
    else:
        modes = [False, True]
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    )

    gaps: List[str] = []
    if len(workloads) == len(modes) == 1 and not args.check_repeat:
        records = [
            record_of(workloads[0], modes[0], args.seed, seconds, args.smoke)
        ]
    else:
        records = run_set(workloads, modes, args.seed, seconds, args.smoke)
    if args.check_repeat:
        again = run_set(workloads, modes, args.seed, seconds, args.smoke)
        print("\n== repeat check: first set, second set ==")
        gaps = repeat_gaps(records, again)
        records += again
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(records, handle, indent=1)
    ok = all(r["result"]["correct"] for r in records) and not gaps
    if len(records) == 1:
        # The contract's form: the result is the last line of stdout.
        print(json.dumps(records[0]["result"]))
    else:
        print(f"\n{'PASS' if ok else 'FAIL'}: {len(records)} runs")
        for gap in gaps:
            print(f"  repeat gap: {gap}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
