"""Service-level chaos harness: inject faults, assert graceful decay.

Each scenario injects one fault through a *production seam* — the
compiler's stage fault hooks, the engine's batch fault hook, the disk
cache's files, the tune DB's JSONL, the admission queue — then drives a
real :class:`~repro.serve.app.ServeService` through it and checks the
service invariant:

    every fault yields either a **correct response** or a **structured
    error with the degradation recorded** — never a wrong result,
    never a hung request, never a dead server.

Scenarios return :class:`ChaosResult` rows (the chaos matrix in
``docs/SERVING.md``); :func:`run_chaos` runs the whole registry and is
what both ``tests/test_serve_chaos.py`` and the CI smoke job call.

Scenarios use a purpose-built small CNN (:func:`build_chaos_graph`)
rather than a zoo model so the whole matrix runs in seconds.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.errors import AdmissionError, ReproError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputationalGraph
from repro.graph.serialization import save_graph
from repro.serve.app import ServeConfig, ServeService

#: How long a scenario may wait on any single async step before the
#: harness declares the "never a hung request" half of the invariant
#: violated.
HANG_TIMEOUT_S = 120.0


def build_chaos_graph(
    name: str = "chaos_cnn", size: int = 8
) -> ComputationalGraph:
    """A small but representative CNN: conv, residual, pool, dense."""
    b = GraphBuilder(name)
    x = b.input((1, 3, size, size), name="image")
    x = b.conv2d(x, 4, kernel=3)
    x = b.relu(x)
    y = b.conv2d(x, 4, kernel=3)
    y = b.relu(y)
    x = b.add(x, y)
    x = b.max_pool(x, kernel=2, stride=2)
    x = b.global_avg_pool(x)
    x = b.reshape(x, (1, 4))
    x = b.dense(x, 3)
    b.softmax(x)
    return b.build()


@dataclass
class ChaosResult:
    """One scenario's verdict against the service invariant."""

    fault: str
    ok: bool
    outcome: str           # "correct-response" | "structured-error"
    detail: str = ""
    degradations: int = 0
    seconds: float = 0.0
    violations: List[str] = field(default_factory=list)

    def to_payload(self) -> Dict:
        return {
            "fault": self.fault,
            "ok": self.ok,
            "outcome": self.outcome,
            "detail": self.detail,
            "degradations": self.degradations,
            "seconds": round(self.seconds, 3),
            "violations": list(self.violations),
        }


class ChaosHarness:
    """Shared setup for scenarios: a workdir, a graph file, services."""

    def __init__(self, workdir: Optional[str] = None) -> None:
        if workdir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
            workdir = self._tmp.name
        else:
            self._tmp = None
        self.workdir = Path(workdir)
        self.graph_path = str(self.workdir / "chaos_cnn.json")
        save_graph(build_chaos_graph(), self.graph_path)
        self._services: List[ServeService] = []

    def cleanup(self) -> None:
        for service in self._services:
            service.stop()
        self._services.clear()
        if self._tmp is not None:
            self._tmp.cleanup()

    def cache_dir(self, label: str) -> str:
        path = self.workdir / f"cache-{label}"
        path.mkdir(parents=True, exist_ok=True)
        return str(path)

    def service(self, label: str, **overrides) -> ServeService:
        config = ServeConfig(
            cache_dir=overrides.pop("cache_dir", self.cache_dir(label)),
            graph_root=overrides.pop("graph_root", str(self.workdir)),
            compile_workers=1,
            queue_capacity=overrides.pop("queue_capacity", 4),
            max_retries=overrides.pop("max_retries", 2),
            retry_backoff_s=0.01,
            **overrides,
        )
        service = ServeService(config)
        self._services.append(service)
        return service

    def register_and_wait(
        self,
        service: ServeService,
        name: str = "chaos_cnn",
        options: Optional[Dict] = None,
        deadline_s: Optional[float] = None,
    ):
        _entry, job = service.register(
            name,
            source=self.graph_path,
            options_payload=options,
            deadline_s=deadline_s,
        )
        if not job.wait(timeout=HANG_TIMEOUT_S):
            raise TimeoutError(
                f"compile job for {name!r} hung past "
                f"{HANG_TIMEOUT_S}s — invariant violated"
            )
        return job


def _outputs_equal(a: Dict, b: Dict) -> bool:
    """Bit-exact equality of two encoded output payloads."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def fault_worker_crash_mid_compile(harness: ChaosHarness) -> ChaosResult:
    """A compile dies once with an I/O error; the retry must succeed."""
    service = harness.service("crash").start(warm=False)
    crashes = {"left": 1}

    def crash_once(artefact):
        if crashes["left"] > 0:
            crashes["left"] -= 1
            raise OSError("injected worker crash mid-compile")
        return artefact

    service.fault_hooks["packing"] = crash_once
    job = harness.register_and_wait(service, "crash_model")
    violations = []
    if not job.ok:
        violations.append(f"compile failed: {job.error}")
    if service.diagnostics.retries < 1:
        violations.append("retry was not recorded")
    result = service.infer("crash_model", batch=1)
    if result["mode"] != "batched":
        violations.append(f"unexpected inference mode {result['mode']}")
    return ChaosResult(
        fault="worker_crash_mid_compile",
        ok=not violations,
        outcome="correct-response",
        detail=f"retries={service.diagnostics.retries}, "
        f"attempts={job.attempts}",
        degradations=len(service.diagnostics.degradations),
        violations=violations,
    )


def fault_corrupt_cache_entry(harness: ChaosHarness) -> ChaosResult:
    """Corrupt disk-cache entries must read as misses, not wrong code."""
    cache_dir = harness.cache_dir("corrupt-cache")
    service = harness.service("corrupt-a", cache_dir=cache_dir).start(
        warm=False
    )
    harness.register_and_wait(service, "cache_model")
    baseline = service.infer("cache_model", batch=2, seed=7)["outputs"]
    service.stop()

    corrupted = 0
    for path in Path(cache_dir).rglob("*.json"):
        if "serve" in path.parts or "tune" in path.parts:
            continue
        path.write_text(path.read_text()[: max(1, path.stat().st_size // 2)])
        corrupted += 1

    restarted = harness.service("corrupt-b", cache_dir=cache_dir)
    restarted.start(warm=True)
    violations = []
    if corrupted == 0:
        violations.append("no cache entries were written to corrupt")
    warm = restarted.diagnostics.warm_start
    if warm.get("restored") != 1:
        violations.append(f"warm start did not restore: {warm}")
    entry = restarted.registry.maybe("cache_model")
    if entry is None or entry.state != "ready":
        violations.append("model not ready after corrupt-cache restart")
    after = restarted.infer("cache_model", batch=2, seed=7)["outputs"]
    if not _outputs_equal(baseline, after):
        violations.append(
            "outputs changed after corrupt-cache restart (wrong result)"
        )
    return ChaosResult(
        fault="corrupt_disk_cache_entry",
        ok=not violations,
        outcome="correct-response",
        detail=f"corrupted {corrupted} entr(ies); warm={warm}",
        degradations=len(restarted.diagnostics.degradations),
        violations=violations,
    )


def fault_corrupt_tune_db(harness: ChaosHarness) -> ChaosResult:
    """A torn tune DB must degrade tuned→default, not fail the job."""
    cache_dir = harness.cache_dir("tune")
    tune_dir = Path(cache_dir) / "tune"
    tune_dir.mkdir(parents=True, exist_ok=True)
    (tune_dir / "trials.jsonl").write_text(
        "this is not json\n"
        '{"model": "tuned_model", "schema": "stale"}\n'
        '{"truncated": \n'
    )
    service = harness.service("tune-svc", cache_dir=cache_dir).start(
        warm=False
    )
    job = harness.register_and_wait(
        service, "tuned_model", options={"tuned": True}
    )
    violations = []
    if not job.ok:
        violations.append(f"tuned compile failed outright: {job.error}")
    steps = service.diagnostics.degradations_for("tuned_model")
    if not any(
        step["from"] == "tuned" and step["to"] == "default"
        for step in steps
    ):
        violations.append(
            f"tuned→default degradation not recorded: {steps}"
        )
    board = service.leaderboard("tuned_model")
    if board["db"]["skipped_lines"] < 1:
        violations.append("corrupt tune-DB lines were not counted")
    return ChaosResult(
        fault="corrupt_tune_db",
        ok=not violations,
        outcome="correct-response",
        detail=f"skipped_lines={board['db']['skipped_lines']}",
        degradations=len(steps),
        violations=violations,
    )


def fault_slow_compile_deadline(harness: ChaosHarness) -> ChaosResult:
    """A compile slower than its deadline must abort with a 504-shaped
    error, not hang the worker."""
    service = harness.service("slow").start(warm=False)

    def slow_stage(artefact):
        time.sleep(0.4)
        return artefact

    service.fault_hooks["selection"] = slow_stage
    job = harness.register_and_wait(
        service, "slow_model", deadline_s=0.15
    )
    violations = []
    if job.ok:
        violations.append("deadlined compile reported success")
    error = job.error or {}
    if error.get("code") != "deadline-exceeded":
        violations.append(f"unstructured deadline error: {error}")
    if service.diagnostics.deadline_timeouts < 1:
        violations.append("deadline timeout was not recorded")
    # The worker must survive to serve the next job.
    del service.fault_hooks["selection"]
    job2 = harness.register_and_wait(service, "slow_model_retry")
    if not job2.ok:
        violations.append("worker did not recover after deadline abort")
    return ChaosResult(
        fault="slow_compile_deadline",
        ok=not violations,
        outcome="structured-error",
        detail=f"code={error.get('code')}, stage={error.get('stage')}",
        degradations=len(service.diagnostics.degradations),
        violations=violations,
    )


def fault_queue_overflow(harness: ChaosHarness) -> ChaosResult:
    """A full admission queue must reject with a structured 429."""
    # No workers started: nothing drains the queue.
    service = harness.service("overflow", queue_capacity=2)
    for index in range(2):
        service.register(f"fill_{index}", source=harness.graph_path)
    violations = []
    outcome = "structured-error"
    try:
        service.register("overflow_model", source=harness.graph_path)
        violations.append("overflowing registration was admitted")
    except AdmissionError as exc:
        payload = exc.to_dict()
        if payload["code"] != "admission-error":
            violations.append(f"wrong error code: {payload['code']}")
        if not payload["details"].get("retry_after_s"):
            violations.append("rejection carries no retry_after_s")
    if service.diagnostics.rejections.get("compile-queue", 0) < 1:
        violations.append("rejection was not recorded")
    return ChaosResult(
        fault="queue_overflow",
        ok=not violations,
        outcome=outcome,
        detail=f"rejections={dict(service.diagnostics.rejections)}",
        violations=violations,
    )


def fault_engine_exception_mid_batch(harness: ChaosHarness) -> ChaosResult:
    """An engine dying mid-batch must degrade to bit-identical
    per-sample execution, recorded as such."""
    service = harness.service("midbatch").start(warm=False)
    harness.register_and_wait(service, "batch_model")
    baseline = service.infer("batch_model", batch=2, seed=21)
    entry = service.registry.get("batch_model")
    fails = {"left": 1}

    def die_once(node):
        if fails["left"] > 0 and node.op_type == "Dense":
            fails["left"] -= 1
            raise RuntimeError("injected engine fault mid-batch")

    entry.pool.engine.batch_fault_hook = die_once
    degraded = service.infer("batch_model", batch=2, seed=21)
    violations = []
    if degraded["mode"] != "per-sample":
        violations.append(
            f"expected per-sample degradation, got {degraded['mode']}"
        )
    if not degraded["degradations"]:
        violations.append("degradation was not recorded in the response")
    steps = service.diagnostics.degradations_for("batch_model")
    if not any(
        step["from"] == "batched" and step["to"] == "per-sample"
        for step in steps
    ):
        violations.append("degradation missing from service diagnostics")
    if not _outputs_equal(baseline["outputs"], degraded["outputs"]):
        violations.append(
            "per-sample outputs differ from batched (wrong result)"
        )
    return ChaosResult(
        fault="engine_exception_mid_batch",
        ok=not violations,
        outcome="correct-response",
        detail=f"mode={degraded['mode']}",
        degradations=len(steps),
        violations=violations,
    )


#: The chaos matrix, in documentation order.
SCENARIOS: Dict[str, Callable[[ChaosHarness], ChaosResult]] = {
    "worker_crash_mid_compile": fault_worker_crash_mid_compile,
    "corrupt_disk_cache_entry": fault_corrupt_cache_entry,
    "corrupt_tune_db": fault_corrupt_tune_db,
    "slow_compile_deadline": fault_slow_compile_deadline,
    "queue_overflow": fault_queue_overflow,
    "engine_exception_mid_batch": fault_engine_exception_mid_batch,
}


def run_chaos(
    names: Optional[List[str]] = None,
    workdir: Optional[str] = None,
) -> List[ChaosResult]:
    """Run (a subset of) the chaos matrix; one result per scenario.

    A scenario that *raises* is itself an invariant violation (an
    unstructured failure escaped the service) and is reported as a
    failed row rather than crashing the harness.
    """
    selected = names or list(SCENARIOS)
    unknown = sorted(set(selected) - set(SCENARIOS))
    if unknown:
        raise ValueError(
            f"unknown chaos scenario(s): {', '.join(unknown)}"
        )
    results: List[ChaosResult] = []
    for name in selected:
        harness = ChaosHarness(workdir=workdir)
        started = time.perf_counter()
        try:
            result = SCENARIOS[name](harness)
        except ReproError as exc:
            result = ChaosResult(
                fault=name,
                ok=False,
                outcome="unhandled-structured-error",
                detail=f"{type(exc).__name__}: {exc}",
                violations=["scenario raised instead of reporting"],
            )
        except Exception as exc:  # noqa: BLE001 - harness boundary
            result = ChaosResult(
                fault=name,
                ok=False,
                outcome="unhandled-crash",
                detail=f"{type(exc).__name__}: {exc}",
                violations=["unstructured exception escaped the service"],
            )
        finally:
            harness.cleanup()
        result.seconds = time.perf_counter() - started
        results.append(result)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.serve.chaos`` — run the matrix, exit 0/1."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.serve.chaos",
        description="run the serving chaos matrix",
    )
    parser.add_argument(
        "scenario",
        nargs="*",
        help=f"scenario names (default: all of {', '.join(SCENARIOS)})",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    results = run_chaos(args.scenario or None)
    if args.json:
        print(
            json.dumps(
                [r.to_payload() for r in results], indent=2
            )
        )
    else:
        for result in results:
            mark = "PASS" if result.ok else "FAIL"
            print(
                f"{mark} {result.fault:32s} {result.outcome:20s} "
                f"{result.seconds:6.2f}s  {result.detail}"
            )
            for violation in result.violations:
                print(f"     violation: {violation}")
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
