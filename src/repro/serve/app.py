"""The compile-and-serve service: registry + jobs + engines over HTTP.

:class:`ServeService` is the fault-tolerant core — usable directly from
Python (the tests and chaos harness drive it in-process) — and
:class:`ServeServer` is the thin stdlib HTTP frontend over it
(``ThreadingHTTPServer``; no third-party web stack).

The request lifecycle and its degradation ladder:

* **register** validates the model source and options, persists the
  registration to the crash-safe manifest and enqueues an async
  :class:`~repro.serve.jobs.CompileJob` on a *bounded* queue — a full
  queue rejects with a structured 429-shaped
  :class:`~repro.errors.AdmissionError` instead of building backlog;
* **compile workers** drain the queue through a ladder of
  configurations — as requested → untuned — retrying transient faults
  (I/O errors) with backoff and recording every downgrade; repeated
  failures trip a per-model
  :class:`~repro.serve.breaker.CircuitBreaker` that quarantines the
  model instead of burning workers on it;
* **inference** runs on per-model :class:`~repro.serve.pool.EnginePool`
  instances — one shared engine behind an admission gate; a batch that
  dies mid-run degrades to bit-identical per-sample execution;
* **deadlines** are cooperative (:class:`~repro.verify.budget.Deadline`
  checked at every stage boundary): a slow compile or infer aborts with
  a structured 504, never a hung socket;
* **restart** replays the manifest and recompiles *through the schedule
  cache*, so recovery after ``kill -9`` is warm (all lookups hit disk)
  and bit-identical (same options + same cache → same artefact).

Everything above lands in :class:`~repro.serve.diagnostics.
ServiceDiagnostics`, which ``/status`` exposes — the chaos harness's
invariant is checked against this record.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.errors import (
    AdmissionError,
    DeadlineExceeded,
    GraphError,
    InternalError,
    ModelNotReadyError,
    QuarantinedError,
    ReproError,
    ServiceError,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.diagnostics import ServiceDiagnostics
from repro.serve.jobs import CompileJob, JobQueue
from repro.serve.pool import EnginePool
from repro.serve.registry import (
    STATE_COMPILING,
    STATE_FAILED,
    STATE_READY,
    ModelEntry,
    ModelRegistry,
    options_from_payload,
    resolve_graph,
)
from repro.verify.budget import Deadline

#: Largest synthetic batch one ``infer`` request may ask for.  The
#: inputs are built before the pool's admission gate is consulted, so
#: without a bound one request can allocate the process to death.
MAX_INFER_BATCH = 256

#: Exception types the compile path treats as *transient*: worth
#: retrying in place (with backoff) before descending the ladder.
TRANSIENT_ERRORS = (OSError,)


def coerce_deadline_s(value, field: str = "deadline_s") -> Optional[float]:
    """Validate a client-supplied deadline at the door.

    A bad deadline must reject as a structured 400, never reach
    ``Deadline()`` inside a compile worker — an exception there would
    kill the worker thread and leave the job stuck in ``running``.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(
            f"{field} must be a positive number of seconds, "
            f"got {value!r}",
            stage="serve",
            details={"field": field, "value": repr(value)},
        )
    seconds = float(value)
    if not math.isfinite(seconds) or seconds <= 0:
        raise ServiceError(
            f"{field} must be a positive finite number of seconds, "
            f"got {value!r}",
            stage="serve",
            details={"field": field, "value": repr(value)},
        )
    return seconds


@dataclass(frozen=True)
class ServeConfig:
    """Tunable knobs of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = pick a free port
    cache_dir: Optional[str] = None    # schedule cache + manifest root
    #: Only directory path-based model sources may resolve inside;
    #: ``None`` disables path sources entirely (zoo names only), so an
    #: HTTP registration can never probe arbitrary server paths.
    graph_root: Optional[str] = None
    compile_workers: int = 1
    queue_capacity: int = 8
    retry_after_s: float = 1.0         # hint attached to 429s
    max_retries: int = 2               # per ladder rung, transient only
    retry_backoff_s: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    default_deadline_s: Optional[float] = None
    #: Pool admission bound when a request carries no deadline: a
    #: saturated pool sheds load with a 429 instead of parking the
    #: HTTP thread forever.
    pool_checkout_timeout_s: float = 30.0
    pool_size: int = 2
    calibration_seed: int = 99
    calibration_samples: int = 2
    #: Refuse to mark a model ready when the abstract interpreter finds
    #: error-level QR/MP diagnostics; off by default so analysis failures
    #: degrade to a warning instead of taking the model down.
    strict_analysis: bool = False

    @property
    def serve_dir(self) -> Optional[str]:
        """Where the registration manifest lives (under the cache)."""
        if self.cache_dir is None:
            return None
        import os

        return os.path.join(self.cache_dir, "serve")


class ServeService:
    """The service core: registry, compile workers, engine pools."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.diagnostics = ServiceDiagnostics()
        self.registry = ModelRegistry(self.config.serve_dir)
        self.jobs = JobQueue(
            capacity=self.config.queue_capacity,
            retry_after_s=self.config.retry_after_s,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            on_event=self.diagnostics.record_breaker_event,
        )
        #: Chaos seam: stage-level fault hooks forwarded to every
        #: compile (see :mod:`repro.verify.faultinject`).
        self.fault_hooks: Dict[str, Callable] = {}
        #: Chaos seam: called with each ready EnginePool right after it
        #: is built (lets the harness install engine faults).
        self.pool_hook: Optional[Callable[[str, EnginePool], None]] = None
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self.started_at = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    def start(self, warm: bool = True) -> "ServeService":
        """Spawn compile workers; optionally replay the manifest."""
        if self._started:
            return self
        self._started = True
        if warm:
            self.warm_start()
        for index in range(self.config.compile_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"compile-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        self._stop.set()
        for _ in self._threads:
            self.jobs.poke()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def __enter__(self) -> "ServeService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- warm start --------------------------------------------------------

    def warm_start(self) -> Dict:
        """Replay the manifest: re-register and recompile every model.

        Recompiles run *through* the content-addressed schedule cache,
        so after a crash with a populated cache every packing lookup is
        a hit — the warm-start record (manifest size, restored count,
        cache hits/misses) is what the restart test asserts on.
        """
        manifest = self.registry.load_manifest()
        restored = 0
        hits = 0
        misses = 0
        for payload in manifest:
            name = payload.get("name")
            source = payload.get("source")
            if not name or not source:
                self.diagnostics.warn(
                    f"manifest entry missing name/source: {payload!r}"
                )
                continue
            options = dict(payload.get("options", {}))
            # Manifests written before parallel packing was removed may
            # carry "jobs"; its artefact was bit-identical to jobs=1.
            options.pop("jobs", None)
            entry = ModelEntry(
                name=name,
                source=source,
                options_payload=options,
                calibration_seed=int(
                    payload.get("calibration_seed", 99)
                ),
                calibration_samples=int(
                    payload.get("calibration_samples", 2)
                ),
            )
            self.registry.add(entry)
            job = self.jobs.new_job(name, entry.options_payload)
            self._compile_job(job)
            if job.ok:
                restored += 1
                stats = entry.compile_stats
                hits += int(stats.get("cache_hits", 0))
                misses += int(stats.get("cache_misses", 0))
            else:
                self.diagnostics.warn(
                    f"warm start failed to restore {name!r}: "
                    f"{(job.error or {}).get('message', 'unknown error')}"
                )
        self.diagnostics.record_warm_start(
            manifest_models=len(manifest),
            restored=restored,
            cache_misses=misses,
            cache_hits=hits,
        )
        return dict(self.diagnostics.warm_start)

    # -- registration / compilation ---------------------------------------

    def register(
        self,
        name: str,
        source: Optional[str] = None,
        options_payload: Optional[Dict] = None,
        deadline_s: Optional[float] = None,
    ) -> Tuple[ModelEntry, CompileJob]:
        """Validate, persist and enqueue a compile for one model."""
        source = source or name
        payload = dict(options_payload or {})
        # Fail fast on bad input: a bad option, unknown source or bad
        # deadline must reject at the door, not from inside a worker.
        deadline_s = coerce_deadline_s(deadline_s)
        options_from_payload(payload, cache_dir=self.config.cache_dir)
        resolve_graph(source, graph_root=self.config.graph_root)
        entry = ModelEntry(
            name=name,
            source=source,
            options_payload=payload,
            calibration_seed=self.config.calibration_seed,
            calibration_samples=self.config.calibration_samples,
        )
        job = self.jobs.new_job(name, payload, deadline_s=deadline_s)
        # Register before submitting: a worker may dequeue the job the
        # instant it is queued, and must find the entry already there.
        previous = self.registry.maybe(name)
        entry.job_id = job.job_id
        self.registry.add(entry)
        try:
            self.jobs.submit(job)
        except AdmissionError:
            # Roll back: never leave a queued-nowhere entry behind,
            # and never let a rejected re-registration clobber a live
            # model.
            if previous is not None:
                self.registry.add(previous)
            else:
                self.registry.remove(name)
            self.diagnostics.record_rejection("compile-queue")
            raise
        return entry, job

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.jobs.take(timeout=0.25)
            if job is None:
                continue
            try:
                self._compile_job(job)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                # A bug outside the ladder must fail the *job*, never
                # the worker thread: with one worker, a dead thread is
                # a dead compile path and the job would sit in
                # ``running`` until every waiter times out.
                self._fail_job_unexpectedly(job, exc)
            finally:
                self.jobs.task_done()

    def _fail_job_unexpectedly(
        self, job: CompileJob, exc: Exception
    ) -> None:
        error = InternalError(
            f"compile worker crashed: {type(exc).__name__}: {exc}",
            stage="serve",
            details={"model": job.model},
        )
        if job.finished.is_set():
            # Terminal state already reached; just keep the evidence.
            self.diagnostics.warn(str(error))
            return
        entry = self.registry.maybe(job.model)
        if entry is not None:
            self._fail_job(job, entry, error)
        else:
            job.mark_failed(error.to_dict())
            self.diagnostics.record_compile(ok=False)

    def _ladder(self, payload: Dict) -> List[Tuple[str, Dict]]:
        """The compile configurations to try, best first."""
        rungs: List[Tuple[str, Dict]] = [("as-requested", dict(payload))]
        if payload.get("tuned"):
            rungs.append(("untuned", {**payload, "tuned": False}))
        return rungs

    def _compile_job(self, job: CompileJob) -> None:
        """Run one compile job through breaker, ladder and retries."""
        entry = self.registry.maybe(job.model)
        if entry is None:
            job.mark_failed(
                GraphError(
                    f"model {job.model!r} disappeared before compiling",
                    stage="serve",
                ).to_dict()
            )
            self.diagnostics.record_compile(ok=False)
            return
        try:
            self.breaker.check(job.model)
        except QuarantinedError as exc:
            job.mark_failed(exc.to_dict())
            entry.state = STATE_FAILED
            entry.error = exc.to_dict()
            self.diagnostics.record_compile(ok=False)
            return
        entry.state = STATE_COMPILING
        entry.job_id = job.job_id
        job.mark_running()
        deadline_s = job.deadline_s or self.config.default_deadline_s
        deadline = Deadline(deadline_s) if deadline_s else None
        error: Optional[ReproError] = None
        rungs = self._ladder(job.options_payload)
        for index, (label, payload) in enumerate(rungs):
            if index > 0:
                previous = rungs[index - 1][0]
                record = self.diagnostics.record_degradation(
                    job.model, "compile", previous, label, str(error)
                )
                job.degradations.append(
                    {"model": job.model, **record.to_payload()}
                )
            try:
                compiled = self._compile_once(job, entry, payload, deadline)
            except DeadlineExceeded as exc:
                # A deadline is a hard bound, not a reason to try a
                # different (equally slow) configuration.
                self.diagnostics.record_deadline_timeout(
                    f"compile({job.model})"
                )
                self._fail_job(job, entry, exc)
                return
            except ReproError as exc:
                error = exc
                continue
            except Exception as exc:  # noqa: BLE001 - ladder boundary
                error = ServiceError(
                    f"compile crashed: {type(exc).__name__}: {exc}",
                    stage="serve",
                    details={"rung": label},
                )
                continue
            self._finish_job(job, entry, compiled, label)
            return
        self._fail_job(
            job,
            entry,
            error
            or ServiceError(
                "compile failed with no recorded error", stage="serve"
            ),
        )

    def _compile_once(
        self,
        job: CompileJob,
        entry: ModelEntry,
        payload: Dict,
        deadline: Optional[Deadline],
    ):
        """One ladder rung, with retry-with-backoff on transient faults."""
        from repro.compiler import compile_model

        graph = resolve_graph(
            entry.source, graph_root=self.config.graph_root
        )
        options = options_from_payload(
            payload, cache_dir=self.config.cache_dir
        )
        attempt = 0
        while True:
            if deadline is not None:
                deadline.check("compile-admission")
            job.attempts.append(
                f"{payload.get('tuned') and 'tuned' or 'default'}"
                f"/try={attempt + 1}"
            )
            try:
                return compile_model(
                    graph,
                    options,
                    deadline=deadline,
                    fault_hooks=self.fault_hooks,
                )
            except TRANSIENT_ERRORS as exc:
                attempt += 1
                if attempt > self.config.max_retries:
                    raise ServiceError(
                        f"transient fault persisted through "
                        f"{attempt} attempt(s): "
                        f"{type(exc).__name__}: {exc}",
                        stage="serve",
                        details={"model": job.model, "attempts": attempt},
                    ) from exc
                job.retries += 1
                self.diagnostics.record_retry(
                    job.model, attempt, f"{type(exc).__name__}: {exc}"
                )
                time.sleep(
                    self.config.retry_backoff_s * (2 ** (attempt - 1))
                )

    def _finish_job(
        self, job: CompileJob, entry: ModelEntry, compiled, rung: str
    ) -> None:
        from repro.harness import example_feeds

        try:
            pool = EnginePool(
                compiled,
                size=self.config.pool_size,
                checkout_timeout_s=self.config.pool_checkout_timeout_s,
                calibration_feeds=example_feeds(
                    compiled.graph,
                    count=entry.calibration_samples,
                    seed=entry.calibration_seed,
                ),
            )
        except Exception as exc:  # noqa: BLE001 - pool build is a rung
            self._fail_job(
                job,
                entry,
                ServiceError(
                    f"engine pool failed to start: "
                    f"{type(exc).__name__}: {exc}",
                    stage="serve",
                    details={"model": job.model},
                ),
            )
            return
        analysis_summary = None
        try:
            from repro.absint import analyze_model

            analysis = analyze_model(compiled, pool.calibration)
            analysis_summary = analysis.summary()
        except Exception as exc:  # noqa: BLE001 - advisory unless strict
            self.diagnostics.warn(
                f"static analysis failed for {job.model!r}: "
                f"{type(exc).__name__}: {exc}"
            )
        if (
            self.config.strict_analysis
            and analysis_summary is not None
            and analysis_summary.get("errors", 0)
        ):
            self._fail_job(
                job,
                entry,
                ServiceError(
                    f"static analysis found "
                    f"{analysis_summary['errors']} error-level "
                    f"diagnostic(s)",
                    stage="serve",
                    details={
                        "model": job.model,
                        "rules": analysis_summary.get("rules", {}),
                    },
                ),
            )
            return
        diag = compiled.diagnostics
        entry.analysis = analysis_summary
        entry.compiled = compiled
        entry.pool = pool
        entry.state = STATE_READY
        entry.error = None
        entry.compile_stats = {
            "rung": rung,
            "cache_hits": diag.cache_hits,
            "cache_memory_hits": diag.cache_memory_hits,
            "cache_disk_hits": diag.cache_disk_hits,
            "cache_misses": diag.cache_misses,
            "fallbacks": len(diag.fallbacks),
            "degradations": len(diag.degradations),
        }
        self.diagnostics.absorb_compile_degradations(
            job.model, diag.degradations
        )
        job.degradations.extend(
            {"model": job.model, **record.to_payload()}
            for record in diag.degradations
        )
        if self.pool_hook is not None:
            self.pool_hook(entry.name, pool)
        self.breaker.record_success(job.model)
        self.diagnostics.record_compile(ok=True)
        self.registry.save_manifest()
        job.mark_done(
            {
                "model": job.model,
                "rung": rung,
                **entry.compile_stats,
                "total_cycles": compiled.total_cycles,
                "latency_ms": round(compiled.latency_ms, 4),
            }
        )

    def _fail_job(
        self, job: CompileJob, entry: ModelEntry, error: ReproError
    ) -> None:
        payload = error.to_dict()
        entry.state = STATE_FAILED
        entry.error = payload
        self.breaker.record_failure(
            job.model, f"{payload['error']}: {payload['message']}"
        )
        self.diagnostics.record_compile(ok=False)
        job.mark_failed(payload)

    # -- inference ---------------------------------------------------------

    def infer(
        self,
        name: str,
        *,
        batch: int = 1,
        seed: int = 1234,
        feeds: Optional[List[Dict]] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict:
        """Run one inference batch; synthetic feeds unless given.

        ``batch`` (``1..MAX_INFER_BATCH``), ``seed`` (``>= 0``) and
        ``deadline_s`` are validated here, at the door: a bad value is
        a structured 400, never an exception (or an allocation) deeper
        in.
        """
        from repro.harness import example_feeds

        batch = coerce_int(batch, "batch", lo=1, hi=MAX_INFER_BATCH)
        seed = coerce_int(seed, "seed", lo=0)
        entry = self.registry.get(name)
        if entry.state != STATE_READY or entry.pool is None:
            raise ModelNotReadyError(
                f"model {name!r} is not ready (state: {entry.state})",
                stage="serve",
                details={
                    "model": name,
                    "state": entry.state,
                    "job_id": entry.job_id,
                    "error": entry.error,
                },
            )
        deadline_s = (
            coerce_deadline_s(deadline_s) or self.config.default_deadline_s
        )
        deadline = Deadline(deadline_s) if deadline_s else None
        if feeds is not None:
            feeds_list = [decode_feeds(sample) for sample in feeds]
        else:
            feeds_list = example_feeds(
                entry.compiled.graph, count=batch, seed=seed
            )
        try:
            result = entry.pool.infer(feeds_list, deadline=deadline)
        except DeadlineExceeded:
            self.diagnostics.record_deadline_timeout(f"infer({name})")
            self.diagnostics.record_inference(ok=False)
            raise
        except AdmissionError:
            self.diagnostics.record_rejection("engine-pool")
            self.diagnostics.record_inference(ok=False)
            raise
        except ReproError:
            self.diagnostics.record_inference(ok=False)
            raise
        for record in result["degradations"]:
            self.diagnostics.record_degradation(
                name,
                record["component"],
                record["from"],
                record["to"],
                record["reason"],
            )
        self.diagnostics.record_inference(ok=True)
        return {
            "model": name,
            "batch": len(feeds_list),
            "mode": result["mode"],
            "degradations": result["degradations"],
            "outputs": [
                encode_arrays(sample) for sample in result["outputs"]
            ],
        }

    # -- read-only views ---------------------------------------------------

    def status(self) -> Dict:
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "models": [e.to_payload() for e in self.registry.entries()],
            "jobs": [j.to_payload() for j in self.jobs.jobs()],
            "queue": {
                "depth": self.jobs.depth,
                "capacity": self.jobs.capacity,
            },
            "breakers": self.breaker.snapshot(),
            "diagnostics": self.diagnostics.to_payload(),
        }

    def lint(self, name: str) -> Dict:
        """The static analyzer's report for a ready model."""
        from repro.lint import lint_model

        entry = self.registry.get(name)
        if entry.state != STATE_READY or entry.compiled is None:
            raise ModelNotReadyError(
                f"model {name!r} has no compiled artefact to lint",
                stage="serve",
                details={"model": name, "state": entry.state},
            )
        return lint_model(entry.compiled).to_dict()

    def analysis(self, name: str) -> Dict:
        """The abstract interpreter's full report for a ready model."""
        from repro.absint import analyze_model

        entry = self.registry.get(name)
        if entry.state != STATE_READY or entry.compiled is None:
            raise ModelNotReadyError(
                f"model {name!r} has no compiled artefact to analyze",
                stage="serve",
                details={"model": name, "state": entry.state},
            )
        pool = entry.pool
        calibration = pool.calibration if pool is not None else None
        return analyze_model(entry.compiled, calibration).to_dict()

    def leaderboard(self, name: str, limit: int = 10) -> Dict:
        """The autotuner's recorded leaderboard for one model."""
        from repro.tune import TrialDB, default_tune_dir
        from repro.tune.report import leaderboard

        db = TrialDB(default_tune_dir(self.config.cache_dir))
        records = db.records(model=name)
        return {
            "model": name,
            "db": db.stats(),
            "rows": leaderboard(records, limit=limit),
        }


# ---------------------------------------------------------------------------
# JSON <-> ndarray plumbing
# ---------------------------------------------------------------------------


def coerce_int(
    value, field: str, *, lo: Optional[int] = None, hi: Optional[int] = None
) -> int:
    """A request integer within ``[lo, hi]``, or a structured 400 —
    never a stray ``ValueError`` that would misread as a server bug."""
    try:
        if isinstance(value, bool):
            raise ValueError
        number = int(value)
    except (TypeError, ValueError):
        raise ServiceError(
            f"{field} must be an integer, got {value!r}",
            stage="serve",
            details={"field": field, "value": repr(value)},
        ) from None
    if (lo is not None and number < lo) or (hi is not None and number > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ServiceError(
            f"{field} must be {bounds}, got {number}",
            stage="serve",
            details={"field": field, "value": repr(value)},
        )
    return number


def coerce_float(value, field: str) -> float:
    """A request float, with the same 400 contract as :func:`coerce_int`."""
    try:
        if isinstance(value, bool):
            raise ValueError
        return float(value)
    except (TypeError, ValueError):
        raise ServiceError(
            f"{field} must be a number, got {value!r}",
            stage="serve",
            details={"field": field, "value": repr(value)},
        ) from None


def decode_feeds(sample: Dict) -> Dict[str, np.ndarray]:
    """One request sample — ``{input_name: nested list | {data, ...}}``."""
    if not isinstance(sample, dict):
        raise ServiceError(
            "each feeds entry must be an object mapping input names "
            "to arrays",
            stage="serve",
        )
    feeds = {}
    for key, value in sample.items():
        data = value.get("data") if isinstance(value, dict) else value
        try:
            feeds[key] = np.asarray(data, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                f"feed {key!r} is not a numeric array: {exc}",
                stage="serve",
                details={"input": key},
            ) from exc
    return feeds


def encode_arrays(outputs: Dict[str, np.ndarray]) -> Dict:
    """JSON-ready outputs; float64 via ``tolist`` round-trips exactly,
    which is what lets clients assert bit-identity across restarts."""
    return {
        name: {
            "shape": list(array.shape),
            "dtype": str(array.dtype),
            "data": array.tolist(),
        }
        for name, array in outputs.items()
    }


# ---------------------------------------------------------------------------
# HTTP frontend
# ---------------------------------------------------------------------------


def http_status_for(exc: ReproError) -> int:
    """Map structured errors to HTTP statuses (never a bare 500 for a
    classified failure)."""
    if isinstance(exc, AdmissionError):
        return 429
    if isinstance(exc, (QuarantinedError, ModelNotReadyError)):
        return 503
    if isinstance(exc, DeadlineExceeded):
        return 504
    if isinstance(exc, GraphError):
        return 404
    if isinstance(exc, InternalError):
        # A server-side bug, not a client fault — must read as 500
        # even though it subclasses ServiceError.
        return 500
    if isinstance(exc, ServiceError):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    """Routes → :class:`ServeService` calls → JSON responses."""

    server_version = "repro-serve/1"

    @property
    def service(self) -> ServeService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # request logging lives in ServiceDiagnostics

    # -- plumbing ----------------------------------------------------------

    def _send(
        self,
        status: int,
        payload: Dict,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: ReproError) -> None:
        headers = {}
        retry_after = exc.details.get("retry_after_s")
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, int(float(retry_after))))
        self._send(http_status_for(exc), exc.to_dict(), headers)

    def _read_body(self) -> Dict:
        length = coerce_int(
            self.headers.get("Content-Length") or 0, "Content-Length", lo=0
        )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"request body is not valid JSON: {exc}", stage="serve"
            ) from exc
        if not isinstance(payload, dict):
            raise ServiceError(
                "request body must be a JSON object", stage="serve"
            )
        return payload

    def _route(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        self.service.diagnostics.record_request(
            f"{method} /{parts[0] if parts else ''}"
        )
        try:
            handler = self._resolve(method, parts)
            if handler is None:
                raise GraphError(
                    f"no route {method} {parsed.path}",
                    stage="serve",
                )
            handler(query)
        except ReproError as exc:
            self._send_error(exc)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error(
                InternalError(
                    f"internal error: {type(exc).__name__}: {exc}",
                    stage="serve",
                )
            )

    def _resolve(self, method: str, parts: List[str]):
        if method == "GET":
            if parts == ["healthz"]:
                return lambda q: self._send(200, {"ok": True})
            if parts == ["status"]:
                return lambda q: self._send(200, self.service.status())
            if parts == ["models"]:
                return lambda q: self._send(
                    200,
                    {
                        "models": [
                            e.to_payload()
                            for e in self.service.registry.entries()
                        ]
                    },
                )
            if len(parts) == 2 and parts[0] == "models":
                return lambda q: self._send(
                    200, self.service.registry.get(parts[1]).to_payload()
                )
            if len(parts) == 3 and parts[0] == "models":
                name, view = parts[1], parts[2]
                if view == "lint":
                    return lambda q: self._send(
                        200, self.service.lint(name)
                    )
                if view == "analysis":
                    return lambda q: self._send(
                        200, self.service.analysis(name)
                    )
                if view == "leaderboard":
                    return lambda q: self._send(
                        200,
                        self.service.leaderboard(
                            name,
                            limit=coerce_int(q.get("limit", 10), "limit"),
                        ),
                    )
            if len(parts) == 2 and parts[0] == "jobs":
                return lambda q: self._job_view(parts[1])
        if method == "POST":
            if parts == ["models"]:
                return self._register
            if (
                len(parts) == 3
                and parts[0] == "models"
                and parts[2] == "infer"
            ):
                return lambda q: self._infer(parts[1])
        return None

    def _job_view(self, job_id: str) -> None:
        job = self.service.jobs.job(job_id)
        if job is None:
            raise GraphError(
                f"unknown job {job_id!r}", stage="serve"
            )
        self._send(200, job.to_payload())

    def _register(self, query: Dict) -> None:
        body = self._read_body()
        name = body.get("name") or body.get("source")
        if not name:
            raise ServiceError(
                "registration needs a 'name' (and optionally a "
                "'source' and 'options')",
                stage="serve",
            )
        entry, job = self.service.register(
            name,
            source=body.get("source"),
            options_payload=body.get("options"),
            deadline_s=body.get("deadline_s"),
        )
        if body.get("wait"):
            job.wait(
                timeout=coerce_float(
                    body.get("wait_timeout_s", 120.0), "wait_timeout_s"
                )
            )
        self._send(
            202 if not job.finished.is_set() else 200,
            {"model": entry.to_payload(), "job": job.to_payload()},
        )

    def _infer(self, name: str) -> None:
        body = self._read_body()
        result = self.service.infer(
            name,
            batch=body.get("batch", 1),
            seed=body.get("seed", 1234),
            feeds=body.get("feeds"),
            deadline_s=body.get("deadline_s"),
        )
        self._send(200, result)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self._route("POST")


class ServeServer:
    """A :class:`ServeService` behind a threading stdlib HTTP server."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        service: Optional[ServeService] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.service = service or ServeService(self.config)
        self.httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self.httpd.service = self.service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self, warm: bool = True) -> "ServeServer":
        self.service.start(warm=warm)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self, warm: bool = True) -> None:
        """Blocking variant for the CLI."""
        self.service.start(warm=warm)
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.stop()

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
