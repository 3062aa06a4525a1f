"""Fault-tolerant compile-and-serve service over the compiler core.

Seven pieces:

* :mod:`repro.serve.app` — :class:`ServeService` (registry + async
  compile jobs + engine pools + degradation ladder) and
  :class:`ServeServer`, the stdlib ``ThreadingHTTPServer`` frontend;
* :mod:`repro.serve.registry` — model registry with the crash-safe
  on-disk manifest behind warm restarts;
* :mod:`repro.serve.jobs` — bounded admission queue of async compile
  jobs (full queue → structured 429);
* :mod:`repro.serve.pool` — one shared engine per model behind an
  admission gate, with the batched→per-sample inference ladder;
* :mod:`repro.serve.breaker` — per-model circuit breakers quarantining
  repeatedly failing models;
* :mod:`repro.serve.diagnostics` — thread-safe service diagnostics
  (every degradation, retry, rejection and breaker transition);
* :mod:`repro.serve.chaos` — the service-level chaos matrix asserting
  that every injected fault yields a correct response or a structured,
  recorded error.
"""

from repro.serve.app import (
    ServeConfig,
    ServeServer,
    ServeService,
    decode_feeds,
    encode_arrays,
    http_status_for,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.diagnostics import ServiceDiagnostics
from repro.serve.jobs import CompileJob, JobQueue
from repro.serve.pool import EnginePool
from repro.serve.registry import (
    ModelEntry,
    ModelRegistry,
    options_from_payload,
    resolve_graph,
)

__all__ = [
    "CircuitBreaker",
    "CompileJob",
    "EnginePool",
    "JobQueue",
    "ModelEntry",
    "ModelRegistry",
    "ServeConfig",
    "ServeServer",
    "ServeService",
    "ServiceDiagnostics",
    "decode_feeds",
    "encode_arrays",
    "http_status_for",
    "options_from_payload",
    "resolve_graph",
]
